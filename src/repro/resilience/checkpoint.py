"""Versioned, integrity-summed checkpoints of full machine state.

A checkpoint is a small binary container::

    magic (8 B) | payload length (8 B, big-endian) | sha256 (32 B) | zlib JSON

The JSON body is ``{"kind": ..., "version": 2, "state": ...}`` where
``state`` is a *tagged* encoding of the component ``state_dict()`` trees:
bytes/bytearray become hex strings, tuples/sets/non-string-keyed dicts get
explicit ``"__tuple"``/``"__set"``/``"__dict"`` wrappers, and everything
else must already be JSON-native.  The encoding is deliberately canonical —
sets are sorted (integer sets numerically, others by encoded JSON), dict
insertion order is preserved through a round-trip — so ``save → load →
save`` reproduces the identical byte stream, which the checkpoint
property tests assert for every preset.  Caches are stored as a few flat
lists each (:func:`repro.memory.cache.cache_state`), not one dict per
line, which keeps a mid-run snapshot of a full L2 cheap to encode.

``loads`` verifies the magic, the declared length, and the SHA-256 of the
compressed payload before touching the JSON, so a truncated or bit-flipped
checkpoint file fails loudly with :class:`CheckpointError` instead of
resuming a subtly wrong simulation.

Trust model note: a functional-system checkpoint contains the simulated
machine's *secrets* (counter values, Merkle state, plaintext DRAM image).
The digest detects corruption, not tampering — treat checkpoint files with
the same trust as the process memory they snapshot.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
import zlib
from typing import Any

from repro.auth.policies import AuthPolicy
from repro.core.config import (
    AuthMode,
    CounterOrg,
    EncryptionMode,
    IntegrityMode,
    RecoveryConfig,
    RecoveryPolicy,
    SecureMemoryConfig,
)

CHECKPOINT_MAGIC = b"RPRCKPT1"
#: container body version; 2 introduced the flat per-cache layout of
#: :func:`repro.memory.cache.cache_state` (and the array-based
#: :func:`trace_digest`).  Other versions are rejected, not migrated.
_VERSION = 2


class CheckpointError(ValueError):
    """A checkpoint could not be encoded, decoded, or safely applied.

    Subclasses :class:`ValueError`: a bad checkpoint argument (missing
    file, wrong configuration, corrupt container) is an input-validation
    failure, and callers that guard with ``except ValueError`` must catch
    it without importing this module.
    """


# -- tagged JSON codec --------------------------------------------------------

#: element types a list may hold and still be emitted as-is (JSON-native)
_JSON_SCALARS = (type(None), bool, int, float, str)


def _encode(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, str, float)):
        return value
    if isinstance(value, bytes):
        return {"__bytes": value.hex()}
    if isinstance(value, bytearray):
        return {"__bytearray": value.hex()}
    if isinstance(value, tuple):
        return {"__tuple": [_encode(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        if all(type(item) is int for item in value):
            return {"__set": sorted(value)}
        # canonical order even for unorderable encodings (e.g. tuples)
        return {"__set": sorted(
            (_encode(item) for item in value),
            key=lambda encoded: json.dumps(encoded, sort_keys=True,
                                           allow_nan=True))}
    if isinstance(value, dict):
        if all(isinstance(key, str) and not key.startswith("__")
               for key in value):
            return {key: _encode(item) for key, item in value.items()}
        return {"__dict": [[_encode(key), _encode(item)]
                           for key, item in value.items()]}
    if isinstance(value, list):
        # flat scalar lists (cache tags, dirty bits) are most of a
        # snapshot; skip the per-element walk for them
        if all(type(item) in _JSON_SCALARS for item in value):
            return value
        return [_encode(item) for item in value]
    raise CheckpointError(
        f"cannot checkpoint value of type {type(value).__name__}")


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if "__bytes" in value:
            return bytes.fromhex(value["__bytes"])
        if "__bytearray" in value:
            return bytearray.fromhex(value["__bytearray"])
        if "__tuple" in value:
            return tuple(_decode(item) for item in value["__tuple"])
        if "__set" in value:
            return {_decode(item) for item in value["__set"]}
        if "__dict" in value:
            return {_decode(key): _decode(item)
                    for key, item in value["__dict"]}
        return {key: _decode(item) for key, item in value.items()}
    if isinstance(value, list):
        if all(type(item) in _JSON_SCALARS for item in value):
            return value
        return [_decode(item) for item in value]
    return value


def dumps(payload: Any, kind: str) -> bytes:
    """Serialize a state tree into the checkpoint container format."""
    body = json.dumps(
        {"kind": kind, "version": _VERSION, "state": _encode(payload)},
        separators=(",", ":"), allow_nan=True,
    ).encode("utf-8")
    # level 1: a mid-cell snapshot is written every few thousand refs,
    # and level 6 took ~4x longer for ~20% fewer bytes
    compressed = zlib.compress(body, 1)
    digest = hashlib.sha256(compressed).digest()
    return (CHECKPOINT_MAGIC
            + len(compressed).to_bytes(8, "big")
            + digest
            + compressed)


def loads(blob: bytes, kind: str | None = None) -> Any:
    """Verify and decode a checkpoint container; the inverse of ``dumps``."""
    header = len(CHECKPOINT_MAGIC) + 8 + 32
    if len(blob) < header or not blob.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError("not a checkpoint (bad magic)")
    length = int.from_bytes(blob[8:16], "big")
    digest = blob[16:48]
    compressed = blob[48:]
    if len(compressed) != length:
        raise CheckpointError(
            f"truncated checkpoint: expected {length} payload bytes, "
            f"got {len(compressed)}")
    if hashlib.sha256(compressed).digest() != digest:
        raise CheckpointError("checkpoint integrity digest mismatch")
    try:
        body = json.loads(zlib.decompress(compressed))
    except (zlib.error, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint payload: {exc}") from exc
    if body.get("version") != _VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {body.get('version')!r} "
            f"(this build reads version {_VERSION})")
    if kind is not None and body.get("kind") != kind:
        raise CheckpointError(
            f"checkpoint kind {body.get('kind')!r} != expected {kind!r}")
    return _decode(body["state"])


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically.

    The bytes land in a uniquely named temp file *in the same directory*
    (so the final ``os.replace`` stays within one filesystem and is atomic
    on POSIX), get fsynced, and only then replace the target.  A crash or
    SIGKILL at any point leaves either the old file or the new file —
    never a truncated hybrid.  On failure the temp file is removed.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: str, payload: Any, *, indent: int = 2) -> None:
    """Serialize ``payload`` and write it atomically as UTF-8 JSON.

    Serialization happens fully in memory *before* the file is touched, so
    a payload that fails to encode (or a writer killed mid-dump) can never
    leave a truncated JSON document behind — the partial-sweep reports and
    bench reports written through here must always re-parse.
    """
    body = json.dumps(payload, indent=indent) + "\n"
    atomic_write_bytes(path, body.encode("utf-8"))


def save_checkpoint(path: str, blob: bytes) -> None:
    """Write a checkpoint atomically (unique temp file + rename).

    The temp name is unique per writer (not a fixed ``path + ".tmp"``), so
    two processes checkpointing to the same path cannot interleave writes
    into one temp file; last rename wins with each candidate intact.
    """
    atomic_write_bytes(path, blob)


def load_checkpoint(path: str, kind: str | None = None) -> Any:
    """Read and verify a checkpoint file written by :func:`save_checkpoint`.

    Any failure — unreadable file, truncated container, digest mismatch —
    surfaces as :class:`CheckpointError` with the path in the message, so
    resume callers never see a raw :class:`OSError` from deep inside.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path!r}: {exc}") from exc
    return loads(blob, kind=kind)


# -- configuration (de)serialization -----------------------------------------


_CONFIG_ENUMS = {
    "encryption": EncryptionMode,
    "counter_org": CounterOrg,
    "auth": AuthMode,
    "auth_policy": AuthPolicy,
    "integrity": IntegrityMode,
}


def config_state(config: SecureMemoryConfig) -> dict:
    """A JSON-able snapshot of every config field (enums by value)."""
    state: dict = {}
    for spec in dataclasses.fields(config):
        value = getattr(config, spec.name)
        if isinstance(value, RecoveryConfig):
            value = {
                field.name: (getattr(value, field.name).value
                             if isinstance(getattr(value, field.name),
                                           enum.Enum)
                             else getattr(value, field.name))
                for field in dataclasses.fields(value)
            }
        elif isinstance(value, enum.Enum):
            value = value.value
        state[spec.name] = value
    return state


def semantic_config_state(config_or_state) -> dict:
    """:func:`config_state` minus host-only backend selectors.

    ``kernel`` and ``sim_engine`` pick bit-identical host implementations,
    so a checkpoint taken under one engine may be resumed under another —
    resume-compatibility checks compare this view, not the raw state.
    Accepts either a config object or an already-built state dict.
    """
    from repro.core.results import HOST_ONLY_CONFIG_FIELDS

    state = (dict(config_or_state) if isinstance(config_or_state, dict)
             else config_state(config_or_state))
    for name in HOST_ONLY_CONFIG_FIELDS:
        state.pop(name, None)
    return state


def config_from_state(state: dict) -> SecureMemoryConfig:
    """Rebuild a :class:`SecureMemoryConfig` from :func:`config_state`."""
    kwargs = dict(state)
    for name, enum_cls in _CONFIG_ENUMS.items():
        if name in kwargs:
            kwargs[name] = enum_cls(kwargs[name])
    if "recovery" in kwargs:
        recovery = dict(kwargs["recovery"])
        recovery["policy"] = RecoveryPolicy(recovery["policy"])
        kwargs["recovery"] = RecoveryConfig(**recovery)
    return SecureMemoryConfig(**kwargs)


# -- whole-machine checkpoints ------------------------------------------------


def checkpoint_system(system) -> bytes:
    """Checkpoint a functional :class:`SecureMemorySystem`."""
    return dumps({"config": config_state(system.config),
                  "system": system.state_dict()}, kind="system")


def restore_system(system, blob: bytes) -> None:
    """Restore a functional system from :func:`checkpoint_system` output.

    The target must be constructed from the same configuration (and, for a
    meaningful restore, the same base key) as the checkpointed one.
    """
    payload = loads(blob, kind="system")
    saved = semantic_config_state(payload["config"])
    current = semantic_config_state(system.config)
    if saved != current:
        raise CheckpointError(
            "checkpoint was taken under a different configuration "
            f"({saved.get('name')!r} != {current.get('name')!r} or "
            "field-level differences)")
    system.load_state(payload["system"])


def trace_digest(trace) -> str:
    """SHA-256 fingerprint of a workload trace (resume-compatibility check).

    Hashes the name and the packed ``TRACE_DTYPE`` records of
    :meth:`~repro.workloads.trace.Trace.arrays` in one call.
    """
    return hashlib.sha256(trace.name.encode("utf-8") + b"\x00"
                          + trace.arrays().tobytes()).hexdigest()


def checkpoint_simulation(processor, loop, meta: dict | None = None) -> bytes:
    """Checkpoint a timing simulation mid-run.

    ``processor`` is a :class:`repro.sim.processor.Processor`; ``loop`` the
    :class:`repro.sim.processor.LoopState` captured at a reference
    boundary; ``meta`` carries resume-compatibility facts (app, refs,
    warmup, trace digest) that :func:`load_simulation` hands back for the
    caller to validate.
    """
    return dumps({
        "config": config_state(processor.config),
        "processor": processor.state_dict(),
        "loop": loop.to_dict(),
        "meta": dict(meta or {}),
    }, kind="simulation")


def load_simulation(blob: bytes) -> dict:
    """Decode a simulation checkpoint into its payload dict.

    Returns ``{"config", "processor", "loop", "meta"}``; the caller
    validates ``meta``/``config`` against the run being resumed and applies
    ``processor``/``loop`` via ``Processor.load_state`` and
    ``LoopState.from_dict``.
    """
    return loads(blob, kind="simulation")
