"""The service front end loads neither NumPy, the simulator nor crypto.

A process-backend service runs no crypto in its own process: the shards
do.  Resolving the preset and shipping its config to the shard workers
must therefore stop at the configuration layer, which needs the lazy
package inits of ``repro.core``, ``repro.crypto`` and ``repro.auth``.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

FRONT_END = """
import asyncio, sys, threading
from repro.serve import SecureMemoryService, ServeClient, ServeConfig


async def main():
    service = SecureMemoryService(ServeConfig(backend="process"))
    await service.start()
    try:
        async with ServeClient(*service.address) as client:
            opened = await client.open_tenant("t0")
            block = bytes(range(opened["block_size"]))
            await client.write("t0", opened["token"], [(0, block)])
            [data] = await client.read("t0", opened["token"], [0])
            assert data == block
        # the event loop owns each shard's socket: no executor thread
        threads = threading.active_count()
        assert threads == 1, f"front end runs {threads} threads"
    finally:
        await service.stop()


if __name__ == "__main__":
    asyncio.run(main())
    loaded = [name for name in ("numpy", "repro.api", "repro.sim")
              if name in sys.modules]
    loaded += [name for name in sys.modules
               if name.startswith("repro.crypto.")]
    assert not loaded, f"front end loaded {loaded}"
"""


def test_a_process_backend_service_loads_no_numpy_or_simulator(tmp_path):
    """After a write and a read round trip, the front end has loaded no
    NumPy, simulator or crypto submodule, and runs no thread but its
    own."""
    # a script file, not -c: the shard workers' spawn start method
    # re-imports the parent's __main__
    script = tmp_path / "front_end.py"
    script.write_text(FRONT_END)
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, str(script)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]


@pytest.mark.parametrize("package", ["repro", "repro.core", "repro.crypto",
                                     "repro.auth", "repro.resilience",
                                     "repro.obs", "repro.workloads",
                                     "repro.counters"])
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    namespace: dict = {}
    exec(f"from {package} import *", namespace)  # noqa: S102
    assert set(module.__all__) <= set(namespace)
    assert set(module.__all__) <= set(dir(module))
