"""Microbenchmarks of the functional crypto substrate.

Not a paper figure — these measure the pure-Python primitives (AES block,
GCM seal, GHASH, SHA-1, split-counter seed/pad path) so regressions in the
functional layer are visible.  They use pytest-benchmark's normal
multi-round statistics, unlike the single-shot figure benches.
"""

from __future__ import annotations

from repro.crypto.aes import AES128
from repro.crypto.ctr import bulk_ctr_transform_table, ctr_transform
from repro.crypto.gcm import AESGCM
from repro.crypto.gf128 import GF128Table
from repro.crypto.ghash import GHASH, ghash, ghash_chunks
from repro.crypto.mac import gcm_block_mac, gcm_block_macs_table
from repro.crypto.sha1 import sha1
from repro.crypto.vector import (
    bulk_ctr_transform_vector,
    gcm_block_macs_vector,
    ghash_chunks_many,
)

KEY = bytes(range(16))
BLOCK64 = bytes(range(64)) + bytes(range(192, 256)) * 0
DATA64 = (b"\xa5" * 64)

# Batch size for the vector-vs-table comparisons: large enough that the
# per-call array setup amortizes, matching the read_blocks bulk path.
VEC_N = 1024
VEC_ITEMS = [(0x1000 + i * 64, 42 + i, DATA64) for i in range(VEC_N)]
VEC_MESSAGES = [bytes([i & 0xFF]) * 64 for i in range(VEC_N)]


def test_aes_block_encrypt(benchmark):
    aes = AES128(KEY)
    out = benchmark(aes.encrypt_block, b"\x00" * 16)
    assert len(out) == 16


def test_aes_block_decrypt(benchmark):
    aes = AES128(KEY)
    ct = aes.encrypt_block(b"\x11" * 16)
    out = benchmark(aes.decrypt_block, ct)
    assert out == b"\x11" * 16


def test_aes_block_encrypt_scalar_reference(benchmark):
    """The seed's per-byte round loop, kept as the correctness reference —
    the ratio against ``test_aes_block_encrypt`` is the table speed-up."""
    aes = AES128(KEY)
    out = benchmark(aes.encrypt_block_scalar, b"\x00" * 16)
    assert out == aes.encrypt_block(b"\x00" * 16)


def test_aes_block_decrypt_scalar_reference(benchmark):
    aes = AES128(KEY)
    ct = aes.encrypt_block(b"\x11" * 16)
    out = benchmark(aes.decrypt_block_scalar, ct)
    assert out == b"\x11" * 16


def test_aes_bulk_encrypt_32_blocks(benchmark):
    aes = AES128(KEY)
    blocks = [bytes([i]) * 16 for i in range(32)]
    out = benchmark(aes.encrypt_blocks, blocks)
    assert len(out) == 32


def test_bulk_ctr_transform_8_blocks(benchmark):
    aes = AES128(KEY)
    items = [(0x1000 + i * 64, 42 + i, DATA64) for i in range(8)]
    out = benchmark(bulk_ctr_transform_table, aes, items)
    assert len(out) == 8 and all(len(p) == 64 for p in out)


def test_ctr_block_transform(benchmark):
    aes = AES128(KEY)
    out = benchmark(ctr_transform, aes, 0x1000, 42, DATA64)
    assert ctr_transform(aes, 0x1000, 42, out) == DATA64


def test_gcm_seal_64B(benchmark):
    gcm = AESGCM(KEY)
    result = benchmark(gcm.seal, b"\x00" * 12, DATA64)
    assert len(result.ciphertext) == 64


def test_gcm_block_mac(benchmark):
    aes = AES128(KEY)
    h = GHASH(aes.encrypt_block(b"\x00" * 16))
    tag = benchmark(gcm_block_mac, aes, h, 0x2000, 7, DATA64, 64)
    assert len(tag) == 8


def test_ghash_64B(benchmark):
    h = GHASH(AES128(KEY).encrypt_block(b"\x00" * 16))
    out = benchmark(ghash, h, b"", DATA64)
    assert len(out) == 16


def test_ghash_chunks_4x16(benchmark):
    h = GHASH(AES128(KEY).encrypt_block(b"\x00" * 16))
    chunks = [DATA64[i:i + 16] for i in range(0, 64, 16)]
    out = benchmark(ghash_chunks, h, chunks)
    assert len(out) == 16


def test_gf128_table_build(benchmark):
    """Per-key Shoup table construction (paid once per GHASH key)."""
    h = AES128(KEY).encrypt_block(b"\x01" * 16)
    table = benchmark(GF128Table, h)
    from repro.crypto.gf128 import block_to_int, gf128_mul
    probe = (1 << 127) | 0x5A
    assert table.multiply(probe) == gf128_mul(probe, block_to_int(h))


def test_sha1_64B(benchmark):
    out = benchmark(sha1, DATA64)
    assert len(out) == 20


# -- vector kernel vs table kernel, same 1024-block batches -------------------
#
# Each vector bench has a table twin on identical inputs; the ratio of
# their per-round times is the vector speed-up recorded in
# results/crypto_micro.txt.  Warm-up is forced outside the timed region
# (table/array construction is kept on the AES128 / GHASH objects).


def test_vector_aes_encrypt_1024_blocks(benchmark):
    blocks = [bytes([i & 0xFF]) * 16 for i in range(VEC_N)]
    vaes = AES128(KEY).vector()
    out = benchmark(vaes.encrypt_blocks, blocks)
    assert out[0] == AES128(KEY).encrypt_block(blocks[0])


def test_table_aes_encrypt_1024_blocks(benchmark):
    blocks = [bytes([i & 0xFF]) * 16 for i in range(VEC_N)]
    aes = AES128(KEY)
    out = benchmark(aes.encrypt_blocks, blocks)
    assert len(out) == VEC_N


def test_vector_pad_generation_1024_blocks(benchmark):
    out = benchmark(bulk_ctr_transform_vector, AES128(KEY), VEC_ITEMS)
    addr, ctr, data = VEC_ITEMS[0]
    assert out[0] == ctr_transform(AES128(KEY), addr, ctr, data)


def test_table_pad_generation_1024_blocks(benchmark):
    aes = AES128(KEY)
    out = benchmark(bulk_ctr_transform_table, aes, VEC_ITEMS)
    assert len(out) == VEC_N


def test_vector_ghash_1024_messages(benchmark):
    h = GHASH(AES128(KEY).encrypt_block(b"\x00" * 16))
    h.vector()  # build the table outside the timed region
    out = benchmark(ghash_chunks_many, h, VEC_MESSAGES)
    assert len(out) == VEC_N


def test_table_ghash_1024_messages(benchmark):
    h = GHASH(AES128(KEY).encrypt_block(b"\x00" * 16))

    def run():
        return [
            ghash_chunks(h, [m[i:i + 16] for i in range(0, 64, 16)])
            for m in VEC_MESSAGES
        ]

    out = benchmark(run)
    assert len(out) == VEC_N


def test_vector_leaf_macs_1024_blocks(benchmark):
    aes = AES128(KEY)
    h = GHASH(aes.encrypt_block(b"\x00" * 16))
    out = benchmark(gcm_block_macs_vector, aes, h, VEC_ITEMS, 64)
    assert len(out) == VEC_N and len(out[0]) == 8


def test_table_leaf_macs_1024_blocks(benchmark):
    aes = AES128(KEY)
    h = GHASH(aes.encrypt_block(b"\x00" * 16))
    out = benchmark(gcm_block_macs_table, aes, h, VEC_ITEMS, 64)
    assert len(out) == VEC_N and len(out[0]) == 8
