"""The service front end loads neither NumPy nor the simulator.

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
import asyncio, sys
from repro.serve import SecureMemoryService, ServeConfig


async def main():
    service = SecureMemoryService(ServeConfig(backend="process"))
    await service.start()
    await service.stop()


if __name__ == "__main__":
    asyncio.run(main())
    loaded = [name for name in ("numpy", "repro.api", "repro.sim",
                                "repro.crypto.vector") if name in sys.modules]
    assert not loaded, f"front end loaded {loaded}"
"""


def test_a_process_backend_service_loads_no_numpy_or_simulator(tmp_path):
    # a script file, not -c: the shard workers' spawn start method
    # re-imports the parent's __main__
    script = tmp_path / "front_end.py"
    script.write_text(FRONT_END)
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, str(script)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]


@pytest.mark.parametrize("package", ["repro", "repro.core", "repro.crypto",
                                     "repro.auth", "repro.resilience"])
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    namespace: dict = {}
    exec(f"from {package} import *", namespace)  # noqa: S102
    assert set(module.__all__) <= set(namespace)
