"""Configuration for secure-memory systems, with presets for every scheme
the paper evaluates.

A :class:`SecureMemoryConfig` names the encryption organization, the
authentication scheme and its strictness, and the sizes of the on-chip
structures.  The same config object drives both the functional layer
(:class:`repro.core.secure_memory.SecureMemorySystem`) and the timing layer
(:class:`repro.sim.timing_memory.TimingSecureMemory`), so an experiment is
one config plus one workload.

Presets mirror the labels used in Figures 4-10: ``split``, ``mono8b`` ..
``mono64b``, ``direct``, ``pred``/``pred2eng``, combined ``split+gcm`` /
``mono+gcm`` / ``split+sha`` / ``mono+sha`` / ``xom+sha``, and
authentication-only ``gcm-auth`` / ``sha-auth-320``, plus the post-paper
``secddr`` and ``scattered`` backends.  Each is one constructor below and
one row of the table :data:`PRESETS` is built from at import.
"""

from __future__ import annotations

import difflib
import enum
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

from repro.auth.policies import AuthPolicy
from repro.crypto import VALID_MAC_BITS

#: accepted values of :attr:`SecureMemoryConfig.sim_engine`
SIM_ENGINES = ("auto", "scalar")


class EncryptionMode(enum.Enum):
    """How data blocks are encrypted on their way to memory."""

    NONE = "none"
    DIRECT = "direct"        # AES applied to the data itself (XOM-style)
    COUNTER = "counter"      # counter-mode with a per-scheme counter org
    #: k-of-n Shamir secret sharing (Secure Scattered Memory): DRAM holds n
    #: share blocks per data block, any k reconstruct, fewer reveal nothing
    SHARES = "shares"


class IntegrityMode(enum.Enum):
    """Which anti-replay anchor backs the per-block MACs."""

    #: resolve to the scheme's natural default (the Merkle tree)
    AUTO = "auto"
    #: Bonsai-style Merkle tree over leaf MACs (the paper's design)
    TREE = "tree"
    #: SecDDR-style flat table: leaf MACs grouped into code blocks whose
    #: MAC-of-MACs lives on chip — O(1) verification, no tree walk
    SECDDR = "secddr"


class CounterOrg(enum.Enum):
    """Counter organization for counter-mode encryption."""

    SPLIT = "split"
    MONO8 = "mono8b"
    MONO16 = "mono16b"
    MONO32 = "mono32b"
    MONO64 = "mono64b"
    GLOBAL32 = "global32b"
    GLOBAL64 = "global64b"
    PREDICTION = "prediction"


class AuthMode(enum.Enum):
    """How (and whether) memory is authenticated."""

    NONE = "none"
    GCM = "gcm"
    SHA1 = "sha1"


class RecoveryPolicy(enum.Enum):
    """What to do once an integrity failure is classified as persistent."""

    HALT = "halt"                      # raise RecoveryHalted, stop the run
    QUARANTINE_PAGE = "quarantine_page"  # fence the page, keep running
    DEGRADE = "degrade"                # serve unverified data, keep running


@dataclass(frozen=True)
class RecoveryConfig:
    """Integrity-violation recovery knobs (disabled by default).

    With ``enabled``, an integrity-check failure triggers bounded re-fetch
    with exponential backoff + jitter; a block that verifies within
    ``max_retries`` re-reads is a *transient* fault, one that never does is
    *persistent* and handled per ``policy``.
    """

    enabled: bool = False
    policy: RecoveryPolicy = RecoveryPolicy.HALT
    max_retries: int = 3
    backoff_base_cycles: float = 64.0
    backoff_factor: float = 2.0
    jitter_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_cycles < 0:
            raise ValueError("backoff_base_cycles must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ValueError(
                f"jitter_fraction must be in [0, 1), "
                f"got {self.jitter_fraction}"
            )


# Section 5 machine parameters (processor cycles unless noted).
DEFAULT_BLOCK_SIZE = 64
DEFAULT_L1_SIZE = 16 * 1024
DEFAULT_L1_ASSOC = 4
DEFAULT_L1_LATENCY = 2
DEFAULT_L2_SIZE = 1024 * 1024
DEFAULT_L2_ASSOC = 8
DEFAULT_L2_LATENCY = 10
DEFAULT_COUNTER_CACHE_SIZE = 32 * 1024
DEFAULT_COUNTER_CACHE_ASSOC = 8
DEFAULT_MEMORY_LATENCY = 200
DEFAULT_MEMORY_SIZE = 512 * 1024 * 1024
DEFAULT_MAC_BITS = 64
DEFAULT_NUM_RSRS = 8
DEFAULT_ISSUE_WIDTH = 3


@dataclass(frozen=True)
class SecureMemoryConfig:
    """Complete description of one secure-memory design point."""

    name: str = "baseline"
    encryption: EncryptionMode = EncryptionMode.NONE
    counter_org: CounterOrg = CounterOrg.SPLIT
    auth: AuthMode = AuthMode.NONE
    #: Figure 10 marks Commit as the default authentication requirement
    auth_policy: AuthPolicy = AuthPolicy.COMMIT
    parallel_auth: bool = True
    mac_bits: int = DEFAULT_MAC_BITS
    authenticate_counters: bool = True
    #: anti-replay strategy; AUTO resolves to the Merkle tree
    integrity: IntegrityMode = IntegrityMode.AUTO
    #: secret-sharing geometry (EncryptionMode.SHARES only): any
    #: ``shares_k`` of the ``shares_n`` stored shares reconstruct a block
    shares_k: int = 2
    shares_n: int = 3

    block_size: int = DEFAULT_BLOCK_SIZE
    minor_bits: int = 7
    counter_cache_size: int = DEFAULT_COUNTER_CACHE_SIZE
    counter_cache_assoc: int = DEFAULT_COUNTER_CACHE_ASSOC
    node_cache_size: int = DEFAULT_COUNTER_CACHE_SIZE
    node_cache_assoc: int = DEFAULT_COUNTER_CACHE_ASSOC
    num_rsrs: int = DEFAULT_NUM_RSRS
    #: ablation knob: with False, page re-encryption stalls the processor
    #: until the whole page is done (no RSR overlap) — the naive design
    #: section 4.2's hardware support exists to avoid
    rsr_overlap: bool = True
    prediction_depth: int = 5

    memory_size: int = DEFAULT_MEMORY_SIZE
    memory_latency: int = DEFAULT_MEMORY_LATENCY

    #: timing-loop implementation: ``"auto"`` runs the NumPy event-batch
    #: engine on every configuration it supports and the per-reference
    #: scalar oracle on the rest (an enabled tracer, counter prediction,
    #: secret shares, several AES/SHA copies); ``"scalar"`` pins the
    #: oracle.  Both engines are bit-identical on every cycle count and
    #: statistic (enforced by the golden-trace and differential suites) —
    #: this knob trades host-side speed only.  No field picks a crypto
    #: kernel: the batch size does (:mod:`repro.crypto.vector`).
    sim_engine: str = "auto"

    aes_latency: float = 80.0
    aes_stages: int = 16
    aes_engines: int = 1
    sha_latency: float = 320.0
    sha_stages: int = 32

    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)

    def __post_init__(self) -> None:
        """Reject impossible design points at construction time.

        A bad parameter would otherwise surface as a confusing failure deep
        inside a simulation (a mis-sized Merkle arity, a counter cache the
        set-index math cannot address, a zero-engine AES unit).
        """
        if self.mac_bits not in VALID_MAC_BITS:
            raise ValueError(
                f"mac_bits must be one of {VALID_MAC_BITS}, "
                f"got {self.mac_bits}"
            )
        if not 1 <= self.minor_bits <= 16:
            raise ValueError(
                f"minor_bits must be in [1, 16], got {self.minor_bits}"
            )
        for label in ("counter_cache_size", "node_cache_size"):
            size = getattr(self, label)
            if size <= 0 or size & (size - 1):
                raise ValueError(
                    f"{label} must be a positive power of two, got {size}"
                )
        if self.aes_engines < 1:
            raise ValueError(
                f"aes_engines must be at least 1, got {self.aes_engines}"
            )
        if self.sim_engine not in SIM_ENGINES:
            raise ValueError(
                f"sim_engine must be one of {SIM_ENGINES}, "
                f"got {self.sim_engine!r}"
            )
        if (self.integrity is IntegrityMode.SECDDR
                and self.auth is AuthMode.NONE):
            raise ValueError(
                "integrity=secddr needs per-block MACs; set auth"
            )
        if self.encryption is EncryptionMode.SHARES:
            # k >= 2 keeps every stored share masked by at least one
            # PRF-derived coefficient (k == 1 would write plaintext).
            if not 2 <= self.shares_k <= self.shares_n <= 16:
                raise ValueError(
                    f"shares require 2 <= shares_k <= shares_n <= 16, got "
                    f"shares_k={self.shares_k}, shares_n={self.shares_n}"
                )
            if self.auth is AuthMode.NONE:
                raise ValueError(
                    "shares encryption needs share-level MACs; set auth"
                )
            if self.counter_org is not CounterOrg.SPLIT:
                # Counter overflow must stay a page-local event: shares are
                # re-derived per write from (key, address, counter), and the
                # full-memory re-encryption a monolithic/global overflow
                # forces has no share-aware path.
                raise ValueError(
                    "shares encryption requires split counters"
                )

    def with_updates(self, **changes) -> "SecureMemoryConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    @property
    def uses_counters(self) -> bool:
        """Whether the configuration keeps per-block counters.

        True for counter-mode encryption, and also for GCM authentication
        without encryption — Figure 7's caption notes that GCM maintains
        per-block counters for its authentication pads even when no
        encryption is performed.
        """
        return (
            self.encryption is EncryptionMode.COUNTER
            or self.encryption is EncryptionMode.SHARES
            or self.auth is AuthMode.GCM
        )

    @property
    def resolved_integrity(self) -> IntegrityMode:
        """The concrete anti-replay backend (AUTO means the Merkle tree)."""
        if self.integrity is IntegrityMode.AUTO:
            return IntegrityMode.TREE
        return self.integrity


def _cfg(name: str, **kwargs) -> SecureMemoryConfig:
    return SecureMemoryConfig(name=name, **kwargs)


def make_counter_config(org: CounterOrg, name: str | None = None,
                        **kwargs) -> SecureMemoryConfig:
    """Counter-mode-encryption-only config for a given organization."""
    return _cfg(name or org.value, encryption=EncryptionMode.COUNTER,
                counter_org=org, auth=AuthMode.NONE, **kwargs)


# -- Figure 4: encryption-only schemes --------------------------------------

def split_config(**kwargs) -> SecureMemoryConfig:
    return make_counter_config(CounterOrg.SPLIT,
                               kwargs.pop("name", "split"), **kwargs)


def mono_config(bits: int, **kwargs) -> SecureMemoryConfig:
    org = {8: CounterOrg.MONO8, 16: CounterOrg.MONO16,
           32: CounterOrg.MONO32, 64: CounterOrg.MONO64}[bits]
    return make_counter_config(org, **kwargs)


def direct_config(**kwargs) -> SecureMemoryConfig:
    return _cfg("direct", encryption=EncryptionMode.DIRECT,
                auth=AuthMode.NONE, **kwargs)


def prediction_config(aes_engines: int = 1, **kwargs) -> SecureMemoryConfig:
    name = "pred2eng" if aes_engines == 2 else "pred"
    return make_counter_config(CounterOrg.PREDICTION, name,
                               aes_engines=aes_engines, **kwargs)


# -- Figure 7: authentication-only schemes -----------------------------------

def gcm_auth_config(**kwargs) -> SecureMemoryConfig:
    return _cfg("gcm-auth", encryption=EncryptionMode.NONE,
                counter_org=CounterOrg.SPLIT, auth=AuthMode.GCM, **kwargs)


def sha_auth_config(sha_latency: float = 320.0, **kwargs) -> SecureMemoryConfig:
    return _cfg(f"sha-auth-{int(sha_latency)}", encryption=EncryptionMode.NONE,
                auth=AuthMode.SHA1, sha_latency=sha_latency, **kwargs)


# -- Figure 9: combined encryption + authentication ---------------------------

def split_gcm_config(**kwargs) -> SecureMemoryConfig:
    return _cfg("split+gcm", encryption=EncryptionMode.COUNTER,
                counter_org=CounterOrg.SPLIT, auth=AuthMode.GCM, **kwargs)


def mono_gcm_config(**kwargs) -> SecureMemoryConfig:
    return _cfg("mono+gcm", encryption=EncryptionMode.COUNTER,
                counter_org=CounterOrg.MONO64, auth=AuthMode.GCM, **kwargs)


def split_sha_config(**kwargs) -> SecureMemoryConfig:
    return _cfg("split+sha", encryption=EncryptionMode.COUNTER,
                counter_org=CounterOrg.SPLIT, auth=AuthMode.SHA1, **kwargs)


def mono_sha_config(**kwargs) -> SecureMemoryConfig:
    return _cfg("mono+sha", encryption=EncryptionMode.COUNTER,
                counter_org=CounterOrg.MONO64, auth=AuthMode.SHA1, **kwargs)


def xom_sha_config(**kwargs) -> SecureMemoryConfig:
    return _cfg("xom+sha", encryption=EncryptionMode.DIRECT,
                auth=AuthMode.SHA1, **kwargs)


def baseline_config(**kwargs) -> SecureMemoryConfig:
    """No encryption, no authentication — the IPC normalization baseline."""
    return _cfg("baseline", **kwargs)


# -- new backends (PAPERS.md related work) ------------------------------------

def secddr_config(**kwargs) -> SecureMemoryConfig:
    """SecDDR-style preset: split + GCM with on-chip MAC-of-MACs replay
    protection instead of a multi-level Merkle walk."""
    return _cfg("secddr", encryption=EncryptionMode.COUNTER,
                counter_org=CounterOrg.SPLIT, auth=AuthMode.GCM,
                integrity=IntegrityMode.SECDDR, **kwargs)


def scattered_config(**kwargs) -> SecureMemoryConfig:
    """Secure Scattered Memory preset: k-of-n secret-shared blocks with
    share-level MACs anchored in the Merkle tree."""
    return _cfg("scattered", encryption=EncryptionMode.SHARES,
                counter_org=CounterOrg.SPLIT, auth=AuthMode.GCM,
                shares_k=kwargs.pop("shares_k", 2),
                shares_n=kwargs.pop("shares_n", 3), **kwargs)


#: every named preset, keyed by its benchmark label, in display order,
#: with its one-line summary.  This table is the only definition of the
#: preset set: the CLI, the fuzz oracle, the attack matrix, the golden
#: fixtures and the bench all iterate :data:`PRESETS`.
_PRESET_TABLE = (
    (baseline_config(), "no protection (IPC reference)"),
    (split_config(), "split-counter encryption, no authentication"),
    (mono_config(8), "8-bit monolithic counter encryption"),
    (mono_config(16), "16-bit monolithic counter encryption"),
    (mono_config(32), "32-bit monolithic counter encryption"),
    (mono_config(64), "64-bit monolithic counter encryption"),
    (direct_config(), "direct AES encryption (XOM-style latency)"),
    (prediction_config(), "counter prediction, one AES engine"),
    (prediction_config(aes_engines=2), "counter prediction, two AES engines"),
    (gcm_auth_config(), "GCM authentication only (no encryption)"),
    (sha_auth_config(), "SHA-1 authentication only"),
    (split_gcm_config(), "the paper's default: split + GCM + tree"),
    (mono_gcm_config(), "monolithic counters + GCM + tree"),
    (split_sha_config(), "split counters + SHA-1 MACs + tree"),
    (mono_sha_config(), "monolithic counters + SHA-1 MACs + tree"),
    (xom_sha_config(), "direct AES + SHA-1 MACs (XOM-like)"),
    (secddr_config(), "SecDDR-style: split + GCM, on-chip MAC-of-MACs replay "
                      "protection instead of a Merkle walk"),
    (scattered_config(), "Secure Scattered Memory: 2-of-3 secret-shared "
                         "blocks with share-level MACs under the Merkle tree"),
)

#: Read-only: presets are shared module state — derive variants with
#: ``config.with_updates(...)`` or :func:`repro.api.get_config` overrides
#: instead of mutating the mapping.
PRESETS: Mapping[str, SecureMemoryConfig] = MappingProxyType(
    {config.name: config for config, _ in _PRESET_TABLE})

#: each preset's one-line summary, as ``python -m repro schemes`` prints it
PRESET_SUMMARIES: Mapping[str, str] = MappingProxyType(
    {config.name: summary for config, summary in _PRESET_TABLE})


def lookup_preset(label: str) -> SecureMemoryConfig:
    """The preset named ``label``.

    Unknown labels raise :class:`KeyError` with close-match suggestions
    (``lookup_preset("spilt")`` → *did you mean 'split'?*).
    """
    try:
        return PRESETS[label]
    except KeyError:
        suggestions = difflib.get_close_matches(label, PRESETS, n=3)
        hint = (
            f"; did you mean {' or '.join(repr(s) for s in suggestions)}?"
            if suggestions else ""
        )
        raise KeyError(
            f"unknown config {label!r}{hint} "
            f"(choose from: {', '.join(PRESETS)})"
        ) from None

