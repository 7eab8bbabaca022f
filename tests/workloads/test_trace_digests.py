"""Each named workload's trace is pinned byte for byte.

The generators fill their records arrays a chunk at a time with hoisted
loop invariants; every figure, golden fixture and ``expected.json`` entry
depends on them drawing the same references in the same order.  These
SHA-256 digests of ``Trace.arrays()`` at 20k references were recorded
from the per-reference generator loop that preceded the chunked one, so
any change to what a generator draws fails here first.
"""

import hashlib

import pytest

from repro.workloads import resolve_trace, workload_names

REFS = 20_000

#: SHA-256 of ``resolve_trace(name, REFS).arrays().tobytes()``
DIGESTS = {
    "ammp": "6e50da4ed9e6f2b177cd972e3bf489fd9c0f76988b3542d9fb01f0084d8d7f54",
    "applu": "0544571e688c1f3bdf45ce4199121c274a056069075a373ef8e639dea2168994",
    "apsi": "a4478f120221e4ec1d213434cef850b27e8dd5e5e724cb3c18437dc1c131e12b",
    "art": "2c6b56d509480211cbef47e83ffc937695fbb36fd975eb0976e564256c5f0210",
    "bzip2": "7c76594ad89920e60dd5a8d16e510f62bf8b00d9903937d67165ff83bd03901f",
    "crafty": "23f08e091ee080329395be4924d8f2de065102acbc40e4d655b3586993b7c60b",
    "eon": "e4ba5d4a6d0cffbf08c76e8a62ad13bb0ae7e42f729eb91e85e743b3e893a75c",
    "equake": "68aea8bdc4a7cd08b69fd3e43fecc67d8b7d30e6b534d3db152d76076b033dae",
    "gap": "880f021b0e0200d13459e5b3a81c2a25569e877edf6abb0f40a68a2758ac939e",
    "gcc": "89e0da0ffb64c3d06a9de7147dc269ace12989879b6a34f10c1eb84e5b05e275",
    "gzip": "d066437ad989f0e5e0b93f33ccca4e36f8713b781a35e64fab7bfd6a0b9f6b55",
    "mcf": "a8d4c5177d1ba9b45ec91d29192f892d887ca4eaab32b1ad3cf905cbb4222f4d",
    "mesa": "34f0d706660c0644f806f0f567b6026b0d1f94ea5bfc45c4370b948a472dfef8",
    "mgrid": "e9907147777106319e52b8e4d19eef6fac27778ef6c9a048a40124c07e7c17b1",
    "parser": "5832403cddbc4ec53e871a63167724baa0bf195d9124ab241fc6636ed21fe031",
    "perlbmk": "a013a589301317470247498b49f0f40db035a568bb7add0c4038d49482f85b13",
    "swim": "a10c9bfaf5d5277e6c9c5d35422dac0382fbb176feecd65874d8cb4bb08dfd20",
    "twolf": "c6146b2c66380ac4fbb8b44180a360fb0ef03540289d811d0baee327cca0181f",
    "vortex": "f2dcbc98ee7c26263d36557ac1179b1f56c40ad998a808951bade9ad79de1000",
    "vpr": "0d67860b5b96cffee6aac0d0d6ba81685adb98a5676447286f352c93c107840c",
    "wupwise": "e22912cc645b8e91611f13597cbc937cb72d204d5e0dd6447a4725c6d0cac282",
    "db-page-cache": "8e57a95ca76b293d1520228ee51072de73ae6fb16d009f6503c27a3750a04397",
    "gc-mark-sweep": "923181e4bedaa8c4c36d10221699dacfd9179b6a25859126fdc2da2483a11b43",
    "ml-weight-stream": "a57180679875c927a451eed2113eecc07d1c9ba4958271057153593a14e53052",
}


def test_every_named_workload_is_pinned():
    assert sorted(DIGESTS) == sorted(workload_names())


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_trace_bytes_match_the_pinned_digest(name):
    records = resolve_trace(name, REFS).arrays()
    assert hashlib.sha256(records.tobytes()).hexdigest() == DIGESTS[name]
