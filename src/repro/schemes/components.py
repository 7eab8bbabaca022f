"""Built-in components: the mechanisms the paper's presets compose.

Each registration carries exactly the config-field deltas the legacy
preset constructors passed to ``_cfg`` — resolving a legacy composition is
therefore field-identical to calling its constructor, which is what keeps
the fig4/fig9 numbers bit-stable across the registry refactor.

The ``tree`` integrity component intentionally contributes *no* config
delta: ``IntegrityMode.AUTO`` already resolves to the Merkle tree, and
keeping the resolved config equal to the constructors' output matters more
than spelling the default out.  ``secddr`` is the one integrity component
that changes anything: the tree's geometry, to the flat one.
"""

from __future__ import annotations

from repro.core.config import (
    AuthMode,
    CounterOrg,
    EncryptionMode,
    IntegrityMode,
)
from repro.schemes.registry import ComponentSpec, SchemeRegistry


def register_builtin_components(registry: SchemeRegistry) -> None:
    """Register every mechanism the built-in compositions draw from."""
    for spec in BUILTIN_COMPONENTS:
        registry.register_component(spec)


BUILTIN_COMPONENTS = (
    # -- data codecs -------------------------------------------------------
    ComponentSpec(
        kind="codec", name="plaintext",
        summary="no data transformation; DRAM stores plaintext",
    ),
    ComponentSpec(
        kind="codec", name="aes-direct",
        summary="direct AES block encryption (decrypt on the critical path)",
        provides=("confidentiality",),
        config_updates=(("encryption", EncryptionMode.DIRECT),),
    ),
    ComponentSpec(
        kind="codec", name="aes-ctr",
        summary="counter-mode AES pads overlapped with the memory fetch",
        provides=("confidentiality",),
        requires=("counters",),
        config_updates=(("encryption", EncryptionMode.COUNTER),),
    ),
    ComponentSpec(
        kind="codec", name="secret-shares",
        summary="k-of-n Shamir secret sharing over GF(256) per block",
        provides=("confidentiality", "scattering"),
        requires=("counters", "authentication"),
        config_updates=(("encryption", EncryptionMode.SHARES),),
    ),
    # -- counter organizations ---------------------------------------------
    ComponentSpec(
        kind="counter", name="none",
        summary="no per-block counters",
    ),
    ComponentSpec(
        kind="counter", name="split",
        summary="split major/minor counters (the paper's contribution)",
        provides=("counters",),
        config_updates=(("counter_org", CounterOrg.SPLIT),),
    ),
    ComponentSpec(
        kind="counter", name="mono8",
        summary="8-bit monolithic per-block counters",
        provides=("counters",),
        config_updates=(("counter_org", CounterOrg.MONO8),),
    ),
    ComponentSpec(
        kind="counter", name="mono16",
        summary="16-bit monolithic per-block counters",
        provides=("counters",),
        config_updates=(("counter_org", CounterOrg.MONO16),),
    ),
    ComponentSpec(
        kind="counter", name="mono32",
        summary="32-bit monolithic per-block counters",
        provides=("counters",),
        config_updates=(("counter_org", CounterOrg.MONO32),),
    ),
    ComponentSpec(
        kind="counter", name="mono64",
        summary="64-bit monolithic per-block counters",
        provides=("counters",),
        config_updates=(("counter_org", CounterOrg.MONO64),),
    ),
    ComponentSpec(
        kind="counter", name="prediction",
        summary="counter prediction (speculate instead of caching)",
        provides=("counters",),
        config_updates=(("counter_org", CounterOrg.PREDICTION),),
    ),
    # -- MAC schemes -------------------------------------------------------
    ComponentSpec(
        kind="mac", name="none",
        summary="no per-block authentication codes",
    ),
    ComponentSpec(
        kind="mac", name="gcm",
        summary="GCM MACs sharing the AES engine; pads overlap the fetch",
        provides=("authentication",),
        requires=("counters",),
        config_updates=(("auth", AuthMode.GCM),),
    ),
    ComponentSpec(
        kind="mac", name="sha1",
        summary="HMAC-SHA1 MACs (prior-work baseline, serialized)",
        provides=("authentication",),
        config_updates=(("auth", AuthMode.SHA1),),
    ),
    # -- integrity (anti-replay) strategies --------------------------------
    ComponentSpec(
        kind="integrity", name="none",
        summary="MACs (if any) are unanchored; replay is out of scope",
    ),
    ComponentSpec(
        kind="integrity", name="tree",
        summary="Bonsai-style Merkle tree over data+counter leaf MACs",
        provides=("replay-protection",),
        requires=("authentication",),
        # AUTO already resolves to the tree; no delta keeps legacy configs
        # field-identical to their constructors.
    ),
    ComponentSpec(
        kind="integrity", name="secddr",
        summary="SecDDR-style on-chip MAC-of-MACs; O(1) verify, no walk",
        provides=("replay-protection", "constant-time-verify"),
        requires=("authentication",),
        config_updates=(("integrity", IntegrityMode.SECDDR),),
    ),
)
