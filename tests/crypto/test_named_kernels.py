"""The differential check and the bench run the kernels they name.

The batch size picks the kernel of every size-picking dispatcher
(``bulk_ctr_transform``, ``gcm_block_macs``, ``encrypt_blocks_kernel``),
and the fuzz oracle's ``vector-vs-table-kernels`` check and ``repro
bench``'s micro and crossover sections all run at batch sizes above the
thresholds.  Routed through a dispatcher, their "table" side would run
the vector kernel and compare it with itself.  These spies record which
kernel's primitives each side really runs.
"""

import random

import pytest

from repro import bench
from repro.crypto import ctr, ghash, mac, vector
from repro.crypto.aes import AES128
from repro.crypto.ctr import AUTHENTICATION_IV, ENCRYPTION_IV
from repro.crypto.ghash import GHASH
from repro.crypto.vector import VectorAES128, VectorGHASH
from repro.testing.oracle import _diff_vector_kernels

#: the primitive methods each kernel runs on, by the kernel they belong to
PRIMITIVES = {
    "table": [(AES128, "encrypt_blocks"), (AES128, "encrypt_block"),
              (GHASH, "hash_chunks")],
    "vector": [(VectorAES128, "encrypt_array"),
               (VectorAES128, "decrypt_array"), (VectorGHASH, "chain")],
    "scalar": [(AES128, "encrypt_block_scalar")],
}
DISPATCHERS = [(ctr, "bulk_ctr_transform"), (mac, "gcm_block_macs"),
               (vector, "encrypt_blocks_kernel"),
               (vector, "decrypt_blocks_kernel")]


def kernels(events) -> set:
    return {kernel for kernel, _, _ in events}


@pytest.fixture
def events(monkeypatch):
    """Collects ``(kernel, primitive, argument)`` for every primitive
    call; any size-picking dispatcher call fails the test."""
    seen: list = []
    for kernel, methods in PRIMITIVES.items():
        for cls, name in methods:
            def wrapped(self, arg, _original=getattr(cls, name),
                        _kernel=kernel, _name=name):
                seen.append((_kernel, _name, arg))
                return _original(self, arg)

            monkeypatch.setattr(cls, name, wrapped)
    # the bitwise GHASH chain multiplies through the module's gf128_mul
    def counted_mul(x, y, _original=ghash.gf128_mul):
        seen.append(("scalar", "gf128_mul", None))
        return _original(x, y)

    monkeypatch.setattr(ghash, "gf128_mul", counted_mul)
    for module, name in DISPATCHERS:
        def refuse(*_args, _name=name, **_kwargs):
            raise AssertionError(f"{_name} picks its kernel by batch size")

        monkeypatch.setattr(module, name, refuse)
    return seen


def _all_end_with(blocks, iv_tag) -> bool:
    tail = iv_tag.to_bytes(2, "big")
    if hasattr(blocks, "tobytes"):
        blocks = [bytes(row) for row in blocks]
    return bool(blocks) and all(block[-2:] == tail for block in blocks)


def test_oracle_check_runs_the_table_and_the_vector_kernel(events):
    result = _diff_vector_kernels(random.Random(0))
    assert result.passed, result.detail
    assert kernels(events) == {"table", "vector"}
    # every CTR comparison encrypts its seeds once through each kernel
    for iv_tag in (ENCRYPTION_IV, AUTHENTICATION_IV):
        for kernel, primitive in (("table", "encrypt_blocks"),
                                  ("vector", "encrypt_array")):
            assert any(
                name == primitive and _all_end_with(arg, iv_tag)
                for k, name, arg in events if k == kernel), \
                (kernel, hex(iv_tag))
    # the GCM MACs: one table GHASH chain per item, vector chains batched
    names = {(kernel, name) for kernel, name, _ in events}
    assert {("table", "hash_chunks"), ("table", "encrypt_block"),
            ("vector", "chain")} <= names


@pytest.fixture
def one_timed_call(monkeypatch, events):
    """``_best_of`` runs its function once and returns the 1-based index
    of the kernel set that call ran, so the report says what ran where."""
    runs: list[set] = []

    def best_of(fn, _repeats):
        events.clear()
        fn()
        runs.append(kernels(events))
        return float(len(runs))

    monkeypatch.setattr(bench, "_best_of", best_of)
    return runs


def test_bench_micro_runners_run_the_kernels_they_name(one_timed_call):
    # 16 cache blocks: above every vector threshold
    micro = bench._micro_benchmarks(seed=0, blocks=16, repeats=1)
    assert set(micro) == {"pad_generation", "ghash", "leaf_macs"}
    for label, entry in micro.items():
        for kernel, index in entry["seconds"].items():
            assert one_timed_call[int(index) - 1] == {kernel}, \
                (label, kernel)


def test_bench_crossover_runs_the_table_and_the_vector_kernel(
        one_timed_call):
    # one size of 64 blocks: above every threshold, one call per pass
    crossover = bench._crossover(seed=0, repeats=1, sizes=(64,))
    for path in ("ctr", "macs"):
        for kernel in ("table", "vector"):
            (index,) = crossover["seconds_per_call"][path][kernel]
            assert one_timed_call[int(index) - 1] == {kernel}, \
                (path, kernel)
