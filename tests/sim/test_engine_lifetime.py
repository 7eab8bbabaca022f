"""A batched run leaves no reference cycles behind.

The closure engine's nested functions call one another through closure
cells (``fill_node`` → ``write_back`` → ``update_leaf`` → ``fill_node``).
Left in place, those cells tie the engine, and through it the whole
:class:`~repro.sim.timing_memory.TimingSecureMemory` — the L2's 2,048 set
lists, the caches, the RSRs — into garbage that only the cyclic
collector frees.  ``run_batched`` clears them on every way out, so
reference counting frees a finished run at once, as it does a scalar one.
"""

import gc
import weakref

import pytest

from repro.api import get_config
from repro.sim.processor import Processor
from repro.workloads import PROFILES, generate_trace

#: one preset per drain: the live drain with Merkle nodes in the L2
#: (split+gcm, mono+sha), the precomputed drain with its residency shim
#: (split) and without it (mono64b)
PRESETS = ("split+gcm", "mono+sha", "split", "mono64b")


@pytest.fixture(scope="module")
def trace():
    return generate_trace(PROFILES["swim"], 6000, seed=5)


def batched_processor(preset):
    processor = Processor(get_config(preset, sim_engine="auto"))
    assert processor.resolved_sim_engine() == "batched"
    return processor


@pytest.mark.parametrize("preset", PRESETS)
def test_a_batched_run_leaves_the_collector_nothing(preset, trace):
    gc.collect()
    processor = batched_processor(preset)
    memory = weakref.ref(processor.memory)
    processor.run(trace, warmup_refs=2000)
    del processor
    assert memory() is None, "the timing memory outlived its run"
    assert gc.collect() == 0


def test_a_failed_batched_run_leaves_the_collector_nothing(trace):
    """The cycles are broken on the way out of an exception too: here a
    checkpoint callback that raises mid-run."""
    def fail(_loop):
        raise RuntimeError("checkpoint sink is gone")

    gc.collect()
    processor = batched_processor("split+gcm")
    memory = weakref.ref(processor.memory)
    try:
        processor.run(trace, checkpoint_every=2000, on_checkpoint=fail)
    except RuntimeError:
        pass
    else:
        pytest.fail("the checkpoint callback's error did not propagate")
    del processor
    assert memory() is None, "the timing memory outlived its run"
    assert gc.collect() == 0
