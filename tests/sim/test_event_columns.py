"""The batched engine's per-event columns against per-reference values.

Both drains zip columns that ``run_batched`` gathers with NumPy for the
events they drain (``columns`` in ``repro.sim.batched._make_fast_engine``).
Each drained event's columns must equal what the scalar oracle reads at
that event's trace index: the clock and instruction prefix sums through
the reference, the block id and write flag, the counter-block address
from the scheme's scalar method, and the L2 set.  Every preset the
closure engine runs is covered on the cached B1/B2/B2p views (a run with
a warm-up split) and on the live-L1 path (a checkpointed run).
"""

import pytest

from repro.api import get_config
from repro.core.config import PRESETS
from repro.sim import batched
from repro.sim.processor import Processor
from repro.workloads import resolve_trace

REFS = 6000
WARMUP = 2000
CHECKPOINT_EVERY = 2500
#: a pointer chaser and a working set far beyond the L2
APPS = ("mcf", "db-page-cache")
#: every preset the closure engine runs (``supports`` accepts)
PRESET_NAMES = [name for name in sorted(PRESETS)
                if batched.supports(Processor(get_config(name)).memory)]


@pytest.fixture(scope="module", params=APPS)
def trace(request):
    return resolve_trace(request.param, REFS)


def drained_columns(monkeypatch, processor, trace, **run_kwargs):
    """Run ``processor`` on ``trace`` and return each drained segment as
    ``(trace indices, rows, live)``; ``live`` marks ``drain_live``'s
    layout, whose sixth column is the block's L2 set."""
    segments = []
    make_engine = batched._make_fast_engine

    def spy_engine(*args, **kwargs):
        columns, *drains_and_release = make_engine(*args, **kwargs)

        def spy_columns(refs, victims, marks=None):
            rows = list(columns(refs, victims, marks))
            segments.append((refs.tolist(), rows, marks is None))
            return iter(rows)

        return spy_columns, *drains_and_release

    monkeypatch.setattr(batched, "_make_fast_engine", spy_engine)
    processor.run(trace, **run_kwargs)
    return segments


@pytest.mark.parametrize("mode", ["warmup", "checkpointed"])
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_columns_equal_per_reference_values(monkeypatch, trace, preset,
                                            mode):
    processor = Processor(get_config(preset, sim_engine="auto"))
    assert processor.resolved_sim_engine() == "batched"
    run_kwargs = {"warmup_refs": WARMUP}
    if mode == "checkpointed":
        run_kwargs.update(checkpoint_every=CHECKPOINT_EVERY,
                          on_checkpoint=lambda state: None)
    segments = drained_columns(monkeypatch, processor, trace, **run_kwargs)

    memory = processor.memory
    l2 = processor.l2
    cpi = 1.0 / processor.issue_width
    cum_cycles = trace.cum_cycles(cpi).tolist()
    cum_insns = trace.cum_insns.tolist()
    block_size = processor.config.block_size
    scheme = memory.scheme
    counter_cache = memory.counter_cache

    # a checkpointed run drains live-L1 events, one segment per interval
    if mode == "checkpointed":
        assert len(segments) == 4
        assert all(live for _refs, _rows, live in segments)
    drained = 0
    for refs, rows, live in segments:
        assert len(refs) == len(rows)
        for i, row in zip(refs, rows):
            (cum, insns, block, is_write, _victim, sixth,
             index, caddr, cset) = row
            assert type(cum) is float
            assert cum.hex() == cum_cycles[i + 1].hex()
            assert insns == cum_insns[i + 1]
            assert block == trace.addrs[i] - trace.addrs[i] % block_size
            assert is_write is trace.writes[i]
            if live:
                assert sixth == (block // l2.block_size) % l2.num_sets
            if counter_cache is None:
                assert (index, caddr, cset) == (None, None, None)
            else:
                cc = counter_cache.cache
                assert index == scheme.counter_block_address(trace.addrs[i])
                assert caddr == index * counter_cache.block_size
                assert cset == (caddr // cc.block_size) % cc.num_sets
            drained += 1
    assert drained
