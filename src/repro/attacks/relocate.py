"""Ciphertext-relocation attack (one-way block copy).

Unlike splicing — which this suite stages as a copy too, but whose
classic framing is an exchange — relocation is the *minimal* spatial
attack: the adversary copies the stored image of one address over
another and leaves the source untouched.  Against a scheme whose stored
image is position-independent (no encryption, or direct encryption
without an address tweak) the victim then consumes the **source's exact
plaintext at the wrong address** — a controlled-value injection, not
mere corruption.  Address-tweaked encryption garbles the relocated
bytes; an address-bound MAC detects them outright.

The report distinguishes those three endings:

* ``detected``  — the cold re-read raised :class:`IntegrityViolation`;
* ``succeeded`` with ``evidence["plaintext_intact"] is True`` — the
  victim observed the source block's plaintext verbatim (the dangerous
  silent leak);
* ``succeeded`` with ``plaintext_intact is False`` — the victim consumed
  garbage (silent corruption, no value control).
"""

from __future__ import annotations

from repro.attacks.base import AttackReport
from repro.attacks.tamper import _drop_from_l2
from repro.auth.errors import IntegrityViolation
from repro.core.secure_memory import SecureMemorySystem


def relocate_attack(system: SecureMemorySystem, source: int,
                    target: int) -> AttackReport:
    """Copy ``source``'s DRAM image over ``target`` and re-read ``target``.

    Both blocks are written first so each has a genuine DRAM presence
    (ciphertext produced by the victim's own write path), then flushed
    and evicted so the re-read must go through DRAM.
    """
    if source == target:
        raise ValueError("relocation needs two distinct addresses")
    source_plaintext = system.read_block(source)
    system.write_block(source, source_plaintext)
    original_target = system.read_block(target)
    system.write_block(target, original_target)
    system.flush()
    _drop_from_l2(system, source)
    _drop_from_l2(system, target)
    system.dram.poke(target, system.dram.peek(source))
    try:
        observed = system.read_block(target)
    except IntegrityViolation as exc:
        return AttackReport(
            attack="relocate", detected=True, succeeded=False,
            details=str(exc),
        )
    if observed == original_target:
        return AttackReport(
            attack="relocate", detected=False, succeeded=False,
            details="relocation had no effect",
        )
    intact = observed == source_plaintext
    return AttackReport(
        attack="relocate",
        detected=False,
        succeeded=True,
        details=(
            "victim consumed the source block's plaintext at the wrong "
            "address (controlled-value injection)" if intact
            else "victim consumed garbled relocated ciphertext"
        ),
        evidence={
            "plaintext_intact": intact,
            "observed": observed,
            "source_plaintext": source_plaintext,
            "original_target": original_target,
        },
    )
