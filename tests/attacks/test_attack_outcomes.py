"""Golden attack-outcome matrix for relocation and cold-boot remanence.

The table below is the *committed* security claim of every preset
against the two attack classes added with the recorded-trace
scenario library — executed, not asserted from config flags alone, so a
regression anywhere in the crypto kernels, counter schemes, shares
reconstruction, or tree shows up as a flipped cell.

Columns:

* ``reloc`` — relocation verdict: ``detected`` (address-bound MAC
  rejects the moved ciphertext), ``leak`` (victim consumes the source's
  plaintext verbatim at the wrong address — position-independent
  storage), or ``garbled`` (silent corruption; the address-seeded pad
  scrambles the moved bytes but nothing notices).
* ``cb_leak`` — does the decayed DRAM image still reveal the secret?
  True exactly for plaintext-at-rest schemes.
* ``cb_detect`` — does the post-reboot read raise a violation?  True
  exactly for authenticating schemes.

A preset added without a row here fails loudly — new backends must
declare their claim.
"""

import pytest

from repro.attacks import cold_boot_attack, relocate_attack
from repro.core import SecureMemorySystem
from repro.core.config import AuthMode, EncryptionMode, PRESETS

SECRET = b"S3CRET-PAYLOAD!!".ljust(64, b"x")

#: preset -> (reloc, cb_leak, cb_detect).  Committed expectations; see
#: the module docstring for column semantics.
EXPECTED = {
    "baseline":     ("leak",     True,  False),
    "split":        ("garbled",  False, False),
    "mono8b":       ("garbled",  False, False),
    "mono16b":      ("garbled",  False, False),
    "mono32b":      ("garbled",  False, False),
    "mono64b":      ("garbled",  False, False),
    "direct":       ("leak",     False, False),
    "pred":         ("garbled",  False, False),
    "pred2eng":     ("garbled",  False, False),
    "gcm-auth":     ("detected", True,  True),
    "sha-auth-320": ("detected", True,  True),
    "split+gcm":    ("detected", False, True),
    "mono+gcm":     ("detected", False, True),
    "split+sha":    ("detected", False, True),
    "mono+sha":     ("detected", False, True),
    "xom+sha":      ("detected", False, True),
    "secddr":       ("detected", False, True),
    "scattered":    ("detected", False, True),
}


def test_every_registered_scheme_has_a_row():
    assert set(EXPECTED) == set(PRESETS), (
        "new preset added without a committed attack-outcome row")


def test_table_consistent_with_config_claims():
    """The committed table must itself match each scheme's stated claim."""
    for name, (reloc, cb_leak, cb_detect) in EXPECTED.items():
        config = PRESETS[name]
        authed = config.auth is not AuthMode.NONE
        assert (reloc == "detected") == authed, name
        assert cb_detect == authed, name
        assert cb_leak == (config.encryption is EncryptionMode.NONE), name


def _system(preset):
    return SecureMemorySystem(PRESETS[preset], protected_bytes=64 * 1024,
                              l2_size=4 * 1024, l2_assoc=2)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_relocate_matrix(preset):
    system = _system(preset)
    system.write_block(0x200, b"\xA5" * 64)
    system.write_block(0x600, b"\x5A" * 64)
    report = relocate_attack(system, 0x200, 0x600)
    expected = EXPECTED[preset][0]
    if expected == "detected":
        assert report.detected and not report.succeeded
    elif expected == "leak":
        assert report.succeeded and not report.detected
        assert report.evidence["plaintext_intact"], (
            f"{preset}: relocation should inject the source plaintext")
    else:  # garbled
        assert report.succeeded and not report.detected
        assert not report.evidence["plaintext_intact"], (
            f"{preset}: address-seeded encryption should garble the move")


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("seed", (0, 7))
def test_cold_boot_matrix(preset, seed):
    report = cold_boot_attack(_system(preset), 0x400, SECRET, seed=seed)
    _, cb_leak, cb_detect = EXPECTED[preset]
    assert report.succeeded == cb_leak, (
        f"{preset}: cold-boot leak verdict flipped "
        f"(bit match {report.evidence['bit_match']:.2f})")
    assert report.detected == cb_detect, (
        f"{preset}: cold-boot detection verdict flipped")
    assert report.evidence["flipped_bits"] > 0


def test_cold_boot_replays_bit_for_bit():
    a = cold_boot_attack(_system("split+gcm"), 0x400, SECRET, seed=3)
    b = cold_boot_attack(_system("split+gcm"), 0x400, SECRET, seed=3)
    assert a.evidence == b.evidence and a.details == b.details


def test_relocate_rejects_degenerate_call():
    with pytest.raises(ValueError):
        relocate_attack(_system("baseline"), 0x200, 0x200)
    with pytest.raises(ValueError):
        cold_boot_attack(_system("baseline"), 0x200, SECRET, decay=0.0)
