"""Shared metadata surface for every ``repro.api`` result object.

Every public entry point (``run``/``profile``/``bench``/``fuzz``) returns a
different result type, but all of them carry the same provenance block: a
:class:`ResultMeta` saying what kind of result this is, which schema
version produced it, a fingerprint of the exact configuration that ran,
and the seed (when the run was seeded).  Harnesses that archive JSON from
several entry points can key on ``meta.config_fingerprint`` to know two
artifacts came from the same design point without diffing whole configs.

:class:`ResultBase` is a deliberately plain (non-dataclass) base so frozen
and mutable dataclass results can both inherit it.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Any

#: schema tag stamped into every ResultMeta; bump on breaking renames of
#: result fields so archived JSON is self-describing
RESULT_SCHEMA = "repro-result/1"


def _normalize(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _normalize(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_normalize(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _normalize(v) for k, v in sorted(value.items())}
    return value


#: configuration fields that select a host-side implementation (all
#: implementations are bit-identical) and therefore do not define a design
#: point: two runs differing only here produce the same simulated numbers.
HOST_ONLY_CONFIG_FIELDS = frozenset({"sim_engine"})


def config_fingerprint(config: Any) -> str:
    """Stable short digest of a configuration's semantic field contents.

    Enum fields hash by value and nested dataclasses recurse, so two
    configs are fingerprint-equal exactly when they are field-equal —
    including configs built by different paths (constructor vs registry).
    The host-only engine selector (:data:`HOST_ONLY_CONFIG_FIELDS`) is
    excluded: it changes how fast the host computes, never what the
    simulated machine does.
    """
    normalized = _normalize(config)
    if isinstance(normalized, dict):
        for name in HOST_ONLY_CONFIG_FIELDS:
            normalized.pop(name, None)
    payload = json.dumps(normalized, sort_keys=True)
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ResultMeta:
    """Provenance block shared by every ``repro.api`` result."""

    kind: str
    schema: str = RESULT_SCHEMA
    config_fingerprint: str = ""
    preset: str = ""
    seed: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


class ResultBase:
    """Common surface of ``run``/``profile``/``bench``/``fuzz`` results.

    Subclasses are dataclasses (frozen or not); this base only pins the
    shared contract: a ``meta`` attribute and its JSON projection.
    """

    meta: ResultMeta | None = None

    def meta_dict(self) -> dict[str, Any] | None:
        return None if self.meta is None else self.meta.to_dict()
