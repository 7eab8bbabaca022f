"""AES-128-GCM against NIST CAVP known-answer vectors.

Vectors are taken from the CAVP GCM response files
(``gcmEncryptExtIV128.rsp`` / ``gcmDecrypt128.rsp``), complementing the
McGrew-Viega vectors in ``test_gcm.py``.  They exercise the table-driven
GHASH and AES kernels end to end through the public AEAD interface.
"""

import pytest

from repro.crypto.aes import AES128
from repro.crypto.gcm import AESGCM, AuthenticationError
from repro.crypto.ghash import GHASH, ghash, ghash_chunks, ghash_chunks_scalar
from repro.crypto.vector import ghash_chunks_many

# (key, iv, plaintext, aad, ciphertext, tag) — all hex
CAVP_ENCRYPT_VECTORS = [
    # [Keylen=128][IVlen=96][PTlen=0][AADlen=0][Taglen=128] Count = 0
    ("11754cd72aec309bf52f7687212e8957",
     "3c819d9a9bed087615030b65",
     "", "",
     "",
     "250327c674aaf477aef2675748cf6971"),
    # same section, Count = 1
    ("ca47248ac0b6f8372a97ac43508308ed",
     "ffd2b598feabc9019262d2be",
     "", "",
     "",
     "60d20404af527d248d893ae495707d1a"),
    # [PTlen=128][AADlen=0] Count = 0
    ("7fddb57453c241d03efbed3ac44e371c",
     "ee283a3fc75575e33efd4887",
     "d5de42b461646c255c87bd2962d3b9a2", "",
     "2ccda4a5415cb91e135c2a0f78c9b2fd",
     "b36d1df9b9d5e596f83e8b7f52971cb3"),
    # [PTlen=128][AADlen=128] Count = 0
    ("c939cc13397c1d37de6ae0e1cb7c423c",
     "b3d8cc017cbb89b39e0f67e2",
     "c3b3c41f113a31b73d9a5cd432103069",
     "24825602bd12a984e0092d3e448eda5f",
     "93fe7d9e9bfd10348a5606e5cafa7354",
     "0032a1dc85f1c9786925a2e71d8272dd"),
]


class TestCAVPEncrypt:
    @pytest.mark.parametrize("key,iv,pt,aad,ct,tag", CAVP_ENCRYPT_VECTORS,
                             ids=[f"vec{i}" for i in
                                  range(len(CAVP_ENCRYPT_VECTORS))])
    def test_seal(self, key, iv, pt, aad, ct, tag):
        gcm = AESGCM(bytes.fromhex(key))
        result = gcm.seal(bytes.fromhex(iv), bytes.fromhex(pt),
                          bytes.fromhex(aad))
        assert result.ciphertext.hex() == ct
        assert result.tag.hex() == tag

    @pytest.mark.parametrize("key,iv,pt,aad,ct,tag", CAVP_ENCRYPT_VECTORS,
                             ids=[f"vec{i}" for i in
                                  range(len(CAVP_ENCRYPT_VECTORS))])
    def test_open_round_trip(self, key, iv, pt, aad, ct, tag):
        gcm = AESGCM(bytes.fromhex(key))
        opened = gcm.open(bytes.fromhex(iv), bytes.fromhex(ct),
                          bytes.fromhex(tag), bytes.fromhex(aad))
        assert opened.hex() == pt


class TestCAVPDecryptFail:
    """CAVP decrypt files include FAIL cases: a corrupted tag must reject."""

    @pytest.mark.parametrize("key,iv,pt,aad,ct,tag", CAVP_ENCRYPT_VECTORS,
                             ids=[f"vec{i}" for i in
                                  range(len(CAVP_ENCRYPT_VECTORS))])
    def test_flipped_tag_bit_rejected(self, key, iv, pt, aad, ct, tag):
        gcm = AESGCM(bytes.fromhex(key))
        bad = bytearray(bytes.fromhex(tag))
        bad[0] ^= 0x01
        with pytest.raises(AuthenticationError):
            gcm.open(bytes.fromhex(iv), bytes.fromhex(ct), bytes(bad),
                     bytes.fromhex(aad))

    def test_tampered_aad_rejected(self):
        key, iv, pt, aad, ct, tag = CAVP_ENCRYPT_VECTORS[3]
        gcm = AESGCM(bytes.fromhex(key))
        with pytest.raises(AuthenticationError):
            gcm.open(bytes.fromhex(iv), bytes.fromhex(ct),
                     bytes.fromhex(tag), bytes.fromhex(aad)[:-1] + b"\x00")


class TestCAVPTruncatedTags:
    """CAVP answers at the paper's truncated ``mac_bits`` presets.

    SP 800-38D section 5.2.1.2 defines a t-bit tag as ``MSB_t`` of the
    full GCM block, so the CAVP 128-bit answers fix the 64- and 32-bit
    answers exactly — the same truncation rule ``gcm_block_mac`` applies
    for the paper's 64- and 32-bit authentication codes.
    """

    @pytest.mark.parametrize("tag_bits", [32, 64])
    @pytest.mark.parametrize("key,iv,pt,aad,ct,tag", CAVP_ENCRYPT_VECTORS,
                             ids=[f"vec{i}" for i in
                                  range(len(CAVP_ENCRYPT_VECTORS))])
    def test_seal_truncated(self, key, iv, pt, aad, ct, tag, tag_bits):
        gcm = AESGCM(bytes.fromhex(key), tag_length=tag_bits // 8)
        result = gcm.seal(bytes.fromhex(iv), bytes.fromhex(pt),
                          bytes.fromhex(aad))
        assert result.ciphertext.hex() == ct
        assert result.tag == bytes.fromhex(tag)[: tag_bits // 8]

    @pytest.mark.parametrize("tag_bits", [32, 64])
    @pytest.mark.parametrize("key,iv,pt,aad,ct,tag", CAVP_ENCRYPT_VECTORS,
                             ids=[f"vec{i}" for i in
                                  range(len(CAVP_ENCRYPT_VECTORS))])
    def test_open_truncated(self, key, iv, pt, aad, ct, tag, tag_bits):
        gcm = AESGCM(bytes.fromhex(key), tag_length=tag_bits // 8)
        opened = gcm.open(bytes.fromhex(iv), bytes.fromhex(ct),
                          bytes.fromhex(tag)[: tag_bits // 8],
                          bytes.fromhex(aad))
        assert opened.hex() == pt

    @pytest.mark.parametrize("tag_bits", [32, 64])
    def test_flipped_truncated_tag_rejected(self, tag_bits):
        key, iv, pt, aad, ct, tag = CAVP_ENCRYPT_VECTORS[2]
        gcm = AESGCM(bytes.fromhex(key), tag_length=tag_bits // 8)
        bad = bytearray(bytes.fromhex(tag)[: tag_bits // 8])
        bad[-1] ^= 0x80
        with pytest.raises(AuthenticationError):
            gcm.open(bytes.fromhex(iv), bytes.fromhex(ct), bytes(bad),
                     bytes.fromhex(aad))


def _pad16(data: bytes) -> bytes:
    remainder = len(data) % 16
    return data + b"\x00" * (16 - remainder) if remainder else data


def _encrypt_one(key: bytes, block: bytes, kernel: str) -> bytes:
    aes = AES128(key)
    if kernel == "scalar":
        return aes.encrypt_block_scalar(block)
    if kernel == "vector":
        return aes.vector().encrypt_blocks([block])[0]
    return aes.encrypt_block(block)


def _ghash_kernel(h: bytes, chunks: list[bytes], kernel: str) -> bytes:
    if kernel == "scalar":
        return ghash_chunks_scalar(h, chunks)
    if kernel == "vector":
        return ghash_chunks_many(h, [b"".join(chunks)])[0]
    return ghash_chunks(h, chunks)


KERNEL_IDS = ["scalar", "table", "vector"]


class TestCAVPAllKernels:
    """Recompute every CAVP tag from each kernel's own primitives.

    The subkey derivation, GHASH chain, and final pad encryption are all
    rebuilt from the named kernel's AES and GHASH entry points — so a
    kernel that diverged anywhere in the GCM pipeline would miss the
    known answer, at full and truncated tag lengths alike.
    """

    @pytest.mark.parametrize("kernel", KERNEL_IDS)
    @pytest.mark.parametrize("tag_bits", [32, 64, 128])
    @pytest.mark.parametrize("key,iv,pt,aad,ct,tag", CAVP_ENCRYPT_VECTORS,
                             ids=[f"vec{i}" for i in
                                  range(len(CAVP_ENCRYPT_VECTORS))])
    def test_tag_from_kernel_primitives(self, key, iv, pt, aad, ct, tag,
                                        tag_bits, kernel):
        key_b, iv_b = bytes.fromhex(key), bytes.fromhex(iv)
        aad_b, ct_b = bytes.fromhex(aad), bytes.fromhex(ct)
        h = _encrypt_one(key_b, bytes(16), kernel)
        padded = _pad16(aad_b) + _pad16(ct_b)
        chunks = [padded[i:i + 16] for i in range(0, len(padded), 16)]
        length_block = ((len(aad_b) * 8).to_bytes(8, "big")
                        + (len(ct_b) * 8).to_bytes(8, "big"))
        digest = _ghash_kernel(h, chunks + [length_block], kernel)
        j0 = iv_b + b"\x00\x00\x00\x01"
        pad = _encrypt_one(key_b, j0, kernel)
        computed = bytes(d ^ p for d, p in zip(digest, pad))
        assert computed[: tag_bits // 8] == bytes.fromhex(tag)[: tag_bits // 8]


class TestGHASHObject:
    """The table-holding GHASH object must agree with the functional API."""

    def test_call_matches_module_function(self):
        h = bytes.fromhex("66e94bd4ef8a2c3b884cfa59ca342b2e")
        aad = b"header bytes"
        ct = bytes(range(48))
        assert GHASH(h)(aad, ct) == ghash(h, aad, ct)

    def test_hash_chunks_matches_module_function(self):
        h = bytes.fromhex("dc95c078a2408989ad48a21492842087")
        chunks = [bytes([i]) * 16 for i in range(6)]
        assert GHASH(h).hash_chunks(chunks) == ghash_chunks(h, chunks)

    def test_an_object_keeps_its_tables(self):
        """The object that owns a subkey keeps its table and vector twin:
        the module functions reuse them rather than building new ones."""
        h = bytes(range(16))
        owner = GHASH(h)
        table, twin = owner._table, owner.vector()
        chunks = [bytes([i]) * 16 for i in range(4)]
        assert ghash_chunks(owner, chunks) == GHASH(h).hash_chunks(chunks)
        assert ghash(owner, b"aad", b"ct") == GHASH(h)(b"aad", b"ct")
        assert ghash_chunks_many(owner, [b"".join(chunks)]) == [
            ghash_chunks(h, chunks)]
        assert owner._table is table and owner.vector() is twin
