"""Each kind of process loads only the layers it runs.

A simulation process (an ``Experiment``, a CLI call, a sweep runner)
times the memory system: it needs the timing model, the counter
organizations and NumPy, but not the functional crypto, the Merkle tree,
the trace exporters, the ``.rtrc`` container or the service.  A serve
shard runs the functional layer, but neither the simulator nor the
exporters.  Each probe runs in a fresh interpreter after real work, so
an import that the work path needs cannot hide in a first call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: one split+gcm and one split cell on the batched engine, after the
#: process's own imports (``{imports}``); prints the loaded modules among
#: ``{unwanted}`` and any ``repro.crypto`` submodule or ``repro.serve``
CELLS = """
import json, sys
{imports}
from repro import api
from repro.sim import Processor
for scheme in ("split+gcm", "split"):
    config = api.get_config(scheme, sim_engine="auto")
    assert Processor(config).resolved_sim_engine() == "batched", scheme
    api.run(config, "swim", refs=3000)
loaded = sorted(name for name in sys.modules if name in {unwanted}
                or name.startswith(("repro.crypto.", "repro.serve")))
print(json.dumps({{"loaded": loaded,
                   "batched": "repro.sim.batched" in sys.modules}}))
"""

FUNCTIONAL_AND_FILES = ("repro.core.secure_memory", "repro.auth.merkle",
                        "repro.auth.schemes", "repro.obs.export",
                        "repro.workloads.tracefile")

#: what a process shard's ``_worker_main`` does: its config arrives as
#: a checkpoint config state
SHARD = """
import json, sys
from repro.core.config import lookup_preset
from repro.resilience.checkpoint import config_from_state, config_state
from repro.serve.shard import ShardCore
config = config_from_state(config_state(lookup_preset("split+gcm")))
core = ShardCore(0, 1, config, protected_bytes=1 << 20, base_key=bytes(16),
                 l2_size=4096)
core.open_tenant("t0")
block = bytes(range(64))
assert core.execute([("write", "t0", [(0, block)]),
                     ("read", "t0", [0])])[1] == ("ok", [block])
loaded = sorted(name for name in sys.modules
                if name.startswith(("repro.api", "repro.sim",
                                    "repro.workloads", "repro.obs.export",
                                    "repro.obs.attribution")))
print(json.dumps({"loaded": loaded}))
"""


def probe(code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_a_simulation_loads_no_functional_layer_or_exporter():
    """Two cells on the batched engine load neither the functional
    memory system, the tree, the MAC schemes, any crypto kernel, the
    exporters, the trace-file container, the service nor the fabric."""
    code = CELLS.format(
        imports="",
        unwanted=(*FUNCTIONAL_AND_FILES, "repro.resilience.fabric"))
    assert probe(code) == {"loaded": [], "batched": True}


def test_a_sweep_runner_loads_no_functional_layer_or_exporter():
    """A runner of ``python -m repro sweep`` imports the CLI (spawn
    re-imports the parent's main module) and the fabric's runner entry
    before its cells; neither brings the functional layer back."""
    code = CELLS.format(
        imports="import repro.__main__, repro.resilience.fabric",
        unwanted=FUNCTIONAL_AND_FILES)
    assert probe(code) == {"loaded": [], "batched": True}


def test_a_serve_shard_loads_no_simulator_or_exporter():
    assert probe(SHARD) == {"loaded": []}
