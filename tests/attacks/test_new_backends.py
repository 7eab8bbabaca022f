"""Attack rows specific to the SecDDR and scattered-memory backends.

The generic matrix (test_matrix.py) already runs every staged attack
against both purely because they are in ``PRESETS``; these
tests pin the *mechanism-specific* claims: SecDDR's MAC-of-MACs catches
ciphertext relocation without a tree walk, and the scattered scheme
detects per-share tampering while shrugging off damage to redundant
shares.
"""

import pytest

from repro.attacks import snoop_secrecy_attack, splice_attack
from repro.auth.merkle import IntegrityViolation
from repro.core import SecureMemorySystem
from repro.core.config import PRESETS

SECRET = b"S3CRET-PAYLOAD!!".ljust(64, b"x")
PROTECTED = 64 * 1024


def make_system(preset):
    return SecureMemorySystem(PRESETS[preset], protected_bytes=PROTECTED,
                              l2_size=4 * 1024, l2_assoc=2)


def drop_from_l2(system, address):
    system.l2.invalidate(address)


class TestSecDDRAttacks:
    def test_relocation_detected_without_tree_walk(self):
        """SecDDR replaces the Merkle walk, so splicing must be caught by
        the address-bound leaf MAC + on-chip group table alone."""
        system = make_system("secddr")
        system.write_block(0x200, b"\xA5" * 64)
        system.write_block(0x600, b"\x5A" * 64)
        report = splice_attack(system, 0x200, 0x600)
        assert report.detected and not report.succeeded
        assert max(system.merkle.stats.chain_lengths, default=0) <= 1

    def test_counter_region_tamper_detected(self):
        """Counter blocks live under the same flat MAC groups."""
        system = make_system("secddr")
        system.write_block(0x000, b"\x11" * 64)
        system.flush()
        counter_address = system._data_region_bytes
        image = bytearray(system.dram.peek(counter_address))
        image[0] ^= 0x01
        system.dram.poke(counter_address, bytes(image))
        system.counter_cache.invalidate(0)
        drop_from_l2(system, 0x000)
        with pytest.raises(IntegrityViolation):
            system.read_block(0x000)


class TestScatteredAttacks:
    def test_share_tamper_detected(self):
        """Each fetched share carries its own leaf MAC: corrupting any of
        the k shares read back must raise, not silently reconstruct."""
        for share in range(PRESETS["scattered"].shares_k):
            system = make_system("scattered")
            system.write_block(0x400, SECRET)
            system.flush()
            drop_from_l2(system, 0x400)
            share_address = share * PROTECTED + 0x400
            image = bytearray(system.dram.peek(share_address))
            image[7] ^= 0x80
            system.dram.poke(share_address, bytes(image))
            with pytest.raises(IntegrityViolation):
                system.read_block(0x400)

    def test_redundant_share_tamper_neutralized(self):
        """Shares beyond k are write-only redundancy: damaging one must
        neither corrupt reconstruction nor trip a spurious violation."""
        config = PRESETS["scattered"]
        system = make_system("scattered")
        system.write_block(0x400, SECRET)
        system.flush()
        drop_from_l2(system, 0x400)
        for share in range(config.shares_k, config.shares_n):
            system.dram.poke(share * PROTECTED + 0x400, b"\xFF" * 64)
        assert system.read_block(0x400) == SECRET

    def test_no_share_leaks_plaintext(self):
        """k >= 2: every individual share image is keystream-masked, so
        snooping any one share (not just share 0) reveals nothing."""
        config = PRESETS["scattered"]
        system = make_system("scattered")
        report = snoop_secrecy_attack(system, 0x400, SECRET)
        assert not report.succeeded
        for share in range(config.shares_n):
            image = system.dram.peek(share * PROTECTED + 0x400)
            assert SECRET not in image

    def test_single_share_insufficient_without_the_others(self):
        """Relocating one share's ciphertext over another share of the
        same block is still a MAC failure (shares are address-bound)."""
        system = make_system("scattered")
        system.write_block(0x400, SECRET)
        system.flush()
        drop_from_l2(system, 0x400)
        donor = system.dram.peek(1 * PROTECTED + 0x400)
        system.dram.poke(0x400, donor)
        with pytest.raises(IntegrityViolation):
            system.read_block(0x400)
