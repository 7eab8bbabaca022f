"""Counter-block mapping of every registered counter organization.

``CounterScheme.counter_block_address`` is the one data-address to
counter-block mapping: the functional layer, the scalar timing model and
the attacks call it, and the batched engine applies the same division to
whole columns of blocks.  Split counters map a block to its 4 KB
encryption page; monolithic, global and prediction counters pack
``512 // bits`` per-block counters into each 64-byte counter block.
"""

import random

import numpy as np
import pytest

from repro.api import get_config
from repro.core.config import DEFAULT_MEMORY_SIZE, CounterOrg
from repro.core.secure_memory import make_counter_scheme
from repro.sim import batched
from repro.sim.processor import Processor
from repro.workloads import spec_trace

BLOCK = 64
#: counter bits per data block of each non-split organization
BITS = {
    CounterOrg.MONO8: 8, CounterOrg.MONO16: 16, CounterOrg.MONO32: 32,
    CounterOrg.MONO64: 64, CounterOrg.GLOBAL32: 32, CounterOrg.GLOBAL64: 64,
    CounterOrg.PREDICTION: 64,
}
LAST_BLOCK = DEFAULT_MEMORY_SIZE - BLOCK
EDGES = (0, 1, BLOCK - 1, BLOCK, 511, 512, 4095, 4096, 4097, 8191,
         LAST_BLOCK, DEFAULT_MEMORY_SIZE - 1)
SAMPLES = EDGES + tuple(random.Random(7).randrange(DEFAULT_MEMORY_SIZE)
                        for _ in range(500))


def expected_index(org: CounterOrg, address: int) -> int:
    if org is CounterOrg.SPLIT:
        return address // 4096
    return (address // BLOCK) // (512 // BITS[org])


def test_every_organization_is_covered():
    assert set(BITS) | {CounterOrg.SPLIT} == set(CounterOrg)


@pytest.mark.parametrize("org", list(CounterOrg), ids=lambda org: org.value)
class TestMapping:
    def scheme(self, org):
        return make_counter_scheme(get_config("split", counter_org=org))

    def test_sampled_addresses(self, org):
        scheme = self.scheme(org)
        for address in SAMPLES:
            assert (scheme.counter_block_address(address)
                    == expected_index(org, address)), address

    def test_last_protected_block_has_the_last_counter_block(self, org):
        scheme = self.scheme(org)
        per = scheme.data_blocks_per_counter_block
        counter_blocks = -(-(DEFAULT_MEMORY_SIZE // BLOCK) // per)
        assert scheme.counter_block_address(LAST_BLOCK) == counter_blocks - 1
        assert scheme.counter_block_span == BLOCK * per

    def test_vectorized_equals_scalar(self, org):
        scheme = self.scheme(org)
        blocks = np.asarray(SAMPLES, dtype=np.int64)
        assert (blocks // scheme.counter_block_span).tolist() == [
            scheme.counter_block_address(address) for address in SAMPLES]


@pytest.mark.parametrize(
    "org", [org for org in CounterOrg if org is not CounterOrg.PREDICTION],
    ids=lambda org: org.value)
def test_engine_column_equals_scalar_on_l2_misses(monkeypatch, org):
    """The batched engine's counter-block column over a real trace's L2
    misses (the B2/B2p events it drains) equals the scalar method.
    Prediction keeps no counter cache, so its runs gather no such
    column."""
    trace = spec_trace("mcf", 8000)
    processor = Processor(get_config("split", counter_org=org,
                                     sim_engine="auto"))
    assert processor.resolved_sim_engine() == "batched"
    rows = []
    make_engine = batched._make_fast_engine

    def spy_engine(*args, **kwargs):
        columns, *drains_and_release = make_engine(*args, **kwargs)

        def spy_columns(refs, victims, marks=None):
            segment = list(columns(refs, victims, marks))
            rows.extend(segment)
            return iter(segment)

        return spy_columns, *drains_and_release

    monkeypatch.setattr(batched, "_make_fast_engine", spy_engine)
    result = processor.run(trace, warmup_refs=2000)
    scheme = processor.memory.scheme
    # every drained event is an L2 miss; the pre-warm-up ones too
    assert len(rows) > result.l2_misses > 0
    for _cum, _insns, block, *_rest, index, caddr, _cset in rows:
        assert index == scheme.counter_block_address(block)
        assert caddr == index * processor.memory.counter_cache.block_size
