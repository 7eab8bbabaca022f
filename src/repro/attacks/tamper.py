"""Active data-tampering attacks (spoofing and splicing).

* **Spoofing** — overwrite a block's DRAM image with attacker-chosen bytes.
* **Splicing** — copy the ciphertext of one address over another, hoping
  the system accepts valid-looking ciphertext at the wrong location.  The
  address component of both the encryption seed and the MAC defeats this.
"""

from __future__ import annotations

from repro.attacks.base import AttackReport
from repro.auth.errors import IntegrityViolation
from repro.core.secure_memory import SecureMemorySystem


def _drop_from_l2(system: SecureMemorySystem, address: int) -> None:
    """Ensure the victim will re-fetch from (tampered) DRAM.

    The on-chip copy is out of the attacker's reach, so the staging step
    evicts it; a real attacker simply waits for natural eviction.  Dirty
    contents are written back first so the attack targets fresh ciphertext.
    """
    evicted = system.l2.invalidate(address)
    if evicted is not None and evicted.dirty:
        system._write_back(address, bytes(evicted.payload))


def spoof_attack(system: SecureMemorySystem, address: int,
                 forged: bytes | None = None) -> AttackReport:
    """Overwrite a block in DRAM and see if the victim notices on re-read."""
    original_plaintext = system.read_block(address)
    # Ensure the block has really been through the write path: a block the
    # victim never wrote has no DRAM presence to forge (reads of virgin
    # memory never leave the chip).
    system.write_block(address, original_plaintext)
    system.flush()
    _drop_from_l2(system, address)
    image = bytearray(system.dram.peek(address))
    if forged is None:
        image[0] ^= 0xFF  # single-byte corruption
        forged = bytes(image)
    system.dram.poke(address, forged)
    try:
        observed = system.read_block(address)
    except IntegrityViolation as exc:
        return AttackReport(
            attack="spoof", detected=True, succeeded=False,
            details=str(exc),
        )
    changed = observed != original_plaintext
    return AttackReport(
        attack="spoof",
        detected=False,
        succeeded=changed,
        details=(
            "victim consumed forged data" if changed
            else "forgery had no effect"
        ),
        evidence={"observed": observed, "original": original_plaintext},
    )


def splice_attack(system: SecureMemorySystem, source: int,
                  target: int) -> AttackReport:
    """Relocate valid ciphertext from ``source`` over ``target``."""
    system.write_block(source, system.read_block(source))
    original_target = system.read_block(target)
    system.write_block(target, original_target)
    system.flush()
    _drop_from_l2(system, target)
    system.dram.poke(target, system.dram.peek(source))
    try:
        observed = system.read_block(target)
    except IntegrityViolation as exc:
        return AttackReport(
            attack="splice", detected=True, succeeded=False,
            details=str(exc),
        )
    changed = observed != original_target
    return AttackReport(
        attack="splice",
        detected=False,
        succeeded=changed,
        details=(
            "victim consumed relocated ciphertext" if changed
            else "splice had no effect"
        ),
    )
