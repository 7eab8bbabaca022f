"""Cold-boot attack: DRAM remanence under power-off bit decay.

The attacker cuts power, and each DRAM cell decays toward its ground
state — modelled here as every *set* bit independently clearing with
probability ``decay`` (Halderman et al.'s asymmetric decay, ground state
zero).  Two independent questions follow, and the report answers both:

* **Leak** — does the decayed image of the victim's block still reveal
  its plaintext?  Schemes that store plaintext at rest (no encryption)
  leak: a few percent decay leaves the overwhelming majority of secret
  bits readable.  Encrypted-at-rest schemes expose only decayed
  ciphertext/shares, which reveal nothing without the on-chip key.
* **Detection** — if the machine is rebooted with the decayed DRAM and
  the victim re-reads, does the scheme notice?  Authenticated schemes
  raise :class:`IntegrityViolation`; unauthenticated ones silently
  consume decayed (for plaintext storage) or garbled (for encrypted
  storage) data.

``succeeded`` means the plaintext leaked; ``detected`` means the
post-reboot read raised a violation.  The two are independent: a
plaintext-at-rest authenticated scheme (e.g. GCM auth without
encryption) both leaks *and* detects.
"""

from __future__ import annotations

import random

from repro.attacks.base import AttackReport
from repro.attacks.tamper import _drop_from_l2
from repro.auth.errors import IntegrityViolation
from repro.core.secure_memory import SecureMemorySystem

#: Fraction of matching bits above which the decayed image is considered
#: a readable copy of the secret.  A 2–5 % decay rate leaves ~95 %+ of
#: bits intact; random-looking ciphertext matches ~50 %.
LEAK_THRESHOLD = 0.90


def _decay_image(image: bytes, rng: random.Random, decay: float) -> bytes:
    """Clear each set bit independently with probability ``decay``."""
    out = bytearray(image)
    for index, byte in enumerate(out):
        if not byte:
            continue
        for bit in range(8):
            if byte >> bit & 1 and rng.random() < decay:
                byte &= ~(1 << bit) & 0xFF
        out[index] = byte
    return bytes(out)


def _bit_match_fraction(a: bytes, b: bytes) -> float:
    """Fraction of bit positions on which ``a`` and ``b`` agree."""
    total = len(a) * 8
    differing = sum((x ^ y).bit_count() for x, y in zip(a, b))
    return (total - differing) / total if total else 1.0


def _drop_all_caches(system: SecureMemorySystem) -> None:
    """Model the reboot: every on-chip cache is lost with power.

    No write-back: each cache's flush returns its dirty lines and they
    are dropped — dirty on-chip state never reached DRAM before the power
    cut, which is exactly what a reboot loses.
    """
    system.l2.flush()
    if system.counter_cache is not None:
        system.counter_cache.cache.flush()
    if system.merkle is not None:
        system.merkle.node_cache.flush()


def cold_boot_attack(system: SecureMemorySystem, address: int,
                     secret: bytes, *, decay: float = 0.02,
                     seed: int = 0) -> AttackReport:
    """Write ``secret``, cut power, decay DRAM, probe for leak + detection.

    The decay is seeded and applied to every stored DRAM block in sorted
    address order, so a given ``(decay, seed)`` replays bit-for-bit.
    """
    if not 0.0 < decay < 1.0:
        raise ValueError(f"decay must be in (0, 1), got {decay!r}")
    secret = secret.ljust(system.block_size, b"\x00")[:system.block_size]
    system.write_block(address, secret)
    system.flush()
    _drop_from_l2(system, address)

    rng = random.Random(seed)
    decayed: dict[int, bytes] = {}
    flipped = 0
    for stored_address in sorted(system.dram.stored_blocks()):
        image = system.dram.peek(stored_address)
        after = _decay_image(image, rng, decay)
        flipped += sum((x ^ y).bit_count() for x, y in zip(image, after))
        decayed[stored_address] = after

    # Leak probe: the attacker reads the decayed module offline.
    match = _bit_match_fraction(decayed[address], secret)
    leaked = match >= LEAK_THRESHOLD

    # Reboot: decayed DRAM, empty caches, victim re-reads.
    for stored_address, image in decayed.items():
        system.dram.poke(stored_address, image)
    _drop_all_caches(system)
    try:
        observed = system.read_block(address)
    except IntegrityViolation as exc:
        return AttackReport(
            attack="cold-boot", detected=True, succeeded=leaked,
            details=(
                f"decay flipped {flipped} stored bit(s); post-reboot read "
                f"rejected ({exc})"
                + (f"; offline image still matched {match:.0%} of secret "
                   f"bits — plaintext leaked" if leaked else "")
            ),
            evidence={"bit_match": match, "flipped_bits": flipped,
                      "decay": decay},
        )
    return AttackReport(
        attack="cold-boot",
        detected=False,
        succeeded=leaked,
        details=(
            f"decay flipped {flipped} stored bit(s); victim silently "
            "consumed decayed data"
            + (f"; offline image matched {match:.0%} of secret bits — "
               f"plaintext leaked" if leaked
               else "; stored image revealed nothing "
               f"({match:.0%} bit match)")
        ),
        evidence={"bit_match": match, "flipped_bits": flipped,
                  "decay": decay, "observed": observed},
    )
