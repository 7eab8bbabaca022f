"""The integrity-failure exception every verify path raises.

It lives apart from the tree and the MAC kernels so that code which only
names it — the recovery policies the timing model charges, an ``except``
in the attack suite — loads no crypto.  :mod:`repro.auth.merkle` and
:mod:`repro.auth` re-export it.
"""

from __future__ import annotations


class IntegrityViolation(Exception):
    """A MAC check failed: the memory image was tampered with or replayed.

    Beyond the human-readable message, the exception carries the *where*
    and the *what* of the failure — block address, tree level, and the
    expected-vs-computed MACs — so a recovery controller (or a human
    reading a fuzz log) can triage without parsing strings.  Constructing
    with a plain message (``IntegrityViolation("...")``) stays valid for
    subclasses and ad-hoc raises.
    """

    def __init__(self, message: str | None = None, *,
                 kind: str = "unknown", address: int | None = None,
                 level: int | None = None, index: int | None = None,
                 leaf_index: int | None = None, counter: int | None = None,
                 expected: bytes | None = None,
                 actual: bytes | None = None) -> None:
        self.kind = kind
        self.address = address
        self.level = level
        self.index = index
        self.leaf_index = leaf_index
        self.counter = counter
        self.expected = bytes(expected) if expected is not None else None
        self.actual = bytes(actual) if actual is not None else None
        super().__init__(message if message is not None else self.describe())

    def describe(self) -> str:
        """Build the message from the structured fields."""
        if self.kind == "node":
            head = f"Merkle node (level {self.level}, index {self.index})"
        elif self.kind == "leaf":
            head = f"leaf {self.leaf_index}"
        else:
            head = "integrity check"
        if self.address is not None and self.kind != "node":
            head += f" (address {self.address:#x})"
        parts = [head, "failed verification"]
        if self.counter is not None:
            parts.append(f"under counter {self.counter}")
        text = " ".join(parts)
        if self.expected is not None and self.actual is not None:
            text += (f": expected MAC {self.expected.hex()}, "
                     f"computed {self.actual.hex()}")
        return text
