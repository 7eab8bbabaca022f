"""Kernel dispatch: thresholds, large batches, and per-key vector state.

The Hypothesis suites in ``test_vector_equivalence.py`` stop at 16 items
and never look at which kernel a dispatcher ran.  The batch size is the
only thing that picks a kernel, and this module pins the three properties
around the dispatchers themselves:

* at each threshold's N-1, N and N+1 the dispatcher picks the table kernel
  below N and the vector kernel from N on, and its bytes equal the named
  scalar and table paths;
* at 1024 blocks every bulk path still agrees with the scalar oracle;
* a key's vector state lives on the object that owns the key, so cycling
  through more keys than any bounded cache would hold rebuilds nothing.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.auth.schemes import GCMMACScheme
from repro.crypto.aes import AES128
from repro.crypto.ctr import (
    AUTHENTICATION_IV,
    ENCRYPTION_IV,
    bulk_ctr_transform,
    bulk_ctr_transform_scalar,
    bulk_ctr_transform_table,
)
from repro.crypto.gf128 import GF128Table
from repro.crypto.ghash import GHASH, ghash_chunks_scalar
from repro.crypto.mac import (
    gcm_block_macs,
    gcm_block_macs_scalar,
    gcm_block_macs_table,
)
from repro.crypto.vector import (
    VECTOR_MIN_BLOCKS,
    VECTOR_MIN_CTR_BLOCKS,
    VECTOR_MIN_MAC_BLOCKS,
    VectorAES128,
    VectorGHASH,
    decrypt_blocks_kernel,
    encrypt_blocks_kernel,
    ghash_chunks_many,
)


def _items(rng, count, chunks=4):
    """``count`` (address, counter, data) triples of ``chunks`` chunks,
    with counters past 64 bits as split counters produce."""
    return [(rng.randrange(1 << 40) * 64, rng.randrange(1 << 70),
             rng.randbytes(16 * chunks)) for _ in range(count)]


def _around(threshold):
    return [n for n in (threshold - 1, threshold, threshold + 1) if n > 0]


@pytest.fixture
def vector_calls(monkeypatch):
    """Count calls of each VectorAES128 batch entry point."""
    calls = {"encrypt": 0, "decrypt": 0}
    for name in calls:
        original = getattr(VectorAES128, f"{name}_array")

        def counted(self, state, original=original, name=name):
            calls[name] += 1
            return original(self, state)

        monkeypatch.setattr(VectorAES128, f"{name}_array", counted)
    return calls


class TestThresholdBoundaries:
    @pytest.mark.parametrize("count", _around(VECTOR_MIN_BLOCKS))
    def test_encrypt_and_decrypt(self, count, vector_calls):
        rng = random.Random(count)
        aes = AES128(rng.randbytes(16))
        blocks = [rng.randbytes(16) for _ in range(count)]
        expected_enc = [aes.encrypt_block_scalar(b) for b in blocks]
        expected_dec = [aes.decrypt_block_scalar(b) for b in blocks]
        assert aes.encrypt_blocks(blocks) == expected_enc
        assert aes.decrypt_blocks(blocks) == expected_dec
        assert encrypt_blocks_kernel(aes, blocks) == expected_enc
        assert decrypt_blocks_kernel(aes, blocks) == expected_dec
        used = count >= VECTOR_MIN_BLOCKS
        assert vector_calls == {"encrypt": used, "decrypt": used}

    @pytest.mark.parametrize("iv_tag", [ENCRYPTION_IV, AUTHENTICATION_IV])
    @pytest.mark.parametrize("chunks", _around(VECTOR_MIN_CTR_BLOCKS))
    def test_ctr_counts_aes_blocks(self, chunks, iv_tag, vector_calls):
        rng = random.Random(chunks)
        aes = AES128(rng.randbytes(16))
        # one-chunk items plus one wider item: the unit is 16-byte chunks,
        # whatever the item sizes
        items = _items(rng, chunks - 2, chunks=1) + _items(rng, 1, chunks=2)
        scalar = bulk_ctr_transform_scalar(aes, items, iv_tag)
        assert bulk_ctr_transform_table(aes, items, iv_tag) == scalar
        assert vector_calls["encrypt"] == 0
        assert bulk_ctr_transform(aes, items, iv_tag) == scalar
        assert vector_calls["encrypt"] == (chunks >= VECTOR_MIN_CTR_BLOCKS)

    @pytest.mark.parametrize("mac_bits", [32, 64, 128])
    @pytest.mark.parametrize("count", _around(VECTOR_MIN_MAC_BLOCKS))
    def test_macs_count_cache_blocks(self, count, mac_bits, vector_calls):
        rng = random.Random(count * mac_bits)
        aes = AES128(rng.randbytes(16))
        ghash = GHASH(aes.encrypt_block(bytes(16)))
        items = _items(rng, count)
        scalar = gcm_block_macs_scalar(aes, ghash, items, mac_bits)
        assert gcm_block_macs_table(aes, ghash, items, mac_bits) == scalar
        assert vector_calls["encrypt"] == 0
        assert gcm_block_macs(aes, ghash, items, mac_bits) == scalar
        assert vector_calls["encrypt"] == (count >= VECTOR_MIN_MAC_BLOCKS)


class TestLargeBatches:
    """1024 blocks per call: the size ``repro bench`` gates on."""

    N = 1024

    def test_encrypt_and_decrypt(self):
        rng = random.Random(1)
        aes = AES128(rng.randbytes(16))
        blocks = [rng.randbytes(16) for _ in range(self.N)]
        expected = [aes.encrypt_block_scalar(b) for b in blocks]
        assert aes.encrypt_blocks(blocks) == expected
        assert aes.decrypt_blocks(expected) == blocks
        assert encrypt_blocks_kernel(aes, blocks) == expected
        assert decrypt_blocks_kernel(aes, expected) == blocks
        assert [aes.decrypt_block_scalar(b) for b in expected] == blocks

    def test_ctr(self):
        rng = random.Random(2)
        aes = AES128(rng.randbytes(16))
        items = _items(rng, self.N)
        scalar = bulk_ctr_transform_scalar(aes, items)
        assert bulk_ctr_transform_table(aes, items) == scalar
        assert bulk_ctr_transform(aes, items) == scalar

    def test_ghash(self):
        rng = random.Random(3)
        ghash = GHASH(rng.randbytes(16))
        messages = [rng.randbytes(64) for _ in range(self.N)]
        chunk_lists = [[m[i:i + 16] for i in range(0, 64, 16)]
                       for m in messages]
        scalar = [ghash_chunks_scalar(ghash, chunks)
                  for chunks in chunk_lists]
        assert [ghash.hash_chunks(chunks)
                for chunks in chunk_lists] == scalar
        assert ghash_chunks_many(ghash, messages) == scalar

    def test_macs(self):
        rng = random.Random(4)
        aes = AES128(rng.randbytes(16))
        ghash = GHASH(aes.encrypt_block(bytes(16)))
        items = _items(rng, self.N)
        scalar = gcm_block_macs_scalar(aes, ghash, items)
        assert gcm_block_macs_table(aes, ghash, items) == scalar
        assert gcm_block_macs(aes, ghash, items) == scalar


class TestPerKeyState:
    """A service brings two AES keys and one GHASH subkey per tenant; from
    its 33rd tenant on, a 64-entry module cache cleared whole missed on
    every call.  State now lives on the key's owner."""

    KEYS = 70

    def test_a_second_pass_over_many_keys_builds_nothing(self, monkeypatch):
        rng = random.Random(5)
        blocks = max(VECTOR_MIN_MAC_BLOCKS, VECTOR_MIN_CTR_BLOCKS)
        owners = [(AES128(rng.randbytes(16)),
                   GCMMACScheme(rng.randbytes(16), 64))
                  for _ in range(self.KEYS)]
        items = _items(rng, blocks)
        built = {"VectorAES128": 0, "VectorGHASH": 0, "GF128Table": 0}
        for cls in (VectorAES128, VectorGHASH, GF128Table):
            original = cls.__init__

            def counted(self, *args, original=original, name=cls.__name__):
                built[name] += 1
                original(self, *args)

            monkeypatch.setattr(cls, "__init__", counted)

        def one_pass():
            return [(bulk_ctr_transform(data_aes, items),
                     scheme.compute_many(items))
                    for data_aes, scheme in owners]

        first = one_pass()
        assert built == {"VectorAES128": 2 * self.KEYS,
                         "VectorGHASH": self.KEYS, "GF128Table": 0}
        built.update(dict.fromkeys(built, 0))
        assert one_pass() == first
        assert built == {"VectorAES128": 0, "VectorGHASH": 0,
                         "GF128Table": 0}


class TestFirstCallFootprint:
    def test_first_cipher_calls_grow_rss_by_under_5_mib(self):
        """Both directions' table kernels (and the vector kernel's) fit in
        a few MiB; 65536-entry pair tables took 55 MiB per direction."""
        code = "\n".join([
            "import resource",
            "import repro.api",
            "from repro.crypto.aes import AES128",
            "cipher = AES128(bytes(range(16)))",
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
            "block = cipher.encrypt_block(bytes(16))",
            "assert cipher.decrypt_block(block) == bytes(16)",
            "assert cipher.vector().encrypt_blocks([bytes(16)]) == [block]",
            "assert cipher.vector().decrypt_blocks([block]) == [bytes(16)]",
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
            "growth = (after - before) / 1024",  # ru_maxrss is KiB on Linux
            "assert growth < 5, f'first calls grew RSS {growth:.1f} MiB'",
        ])
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr[-2000:]

