"""Recovery-controller unit tests plus the end-to-end differential proof.

The differential proof is the tentpole's acceptance criterion: a run that
suffers a *transient* integrity fault and recovers must end in exactly the
state of a fault-free run (same plaintext everywhere, same DRAM image),
while a *persistent* tamper must end in the configured policy's loud
verdict — never silently wrong data.
"""

import random

import pytest

from repro.auth.merkle import IntegrityViolation
from repro.core.config import (
    PRESETS,
    RecoveryConfig,
    RecoveryPolicy,
)
from repro.core.secure_memory import SecureMemorySystem
from repro.resilience import (
    QuarantinedPageError,
    RecoveryController,
    RecoveryHalted,
    backoff_delay,
)
from repro.testing import FaultKind, FaultSpec
from repro.testing.faults import AdversarialDRAM

PROTECTED = 64 * 1024
BLOCK = 64


def _recovery_config(**overrides):
    defaults = dict(enabled=True, policy=RecoveryPolicy.HALT, max_retries=3)
    defaults.update(overrides)
    return RecoveryConfig(**defaults)


class TestBackoff:
    def test_exponential_growth_without_jitter(self):
        config = _recovery_config(backoff_base_cycles=100.0,
                                  backoff_factor=2.0, jitter_fraction=0.0)
        rng = random.Random(0)
        delays = [backoff_delay(config, attempt, rng)
                  for attempt in (1, 2, 3)]
        assert delays == [100.0, 200.0, 400.0]

    def test_jitter_stays_within_fraction(self):
        config = _recovery_config(backoff_base_cycles=100.0,
                                  backoff_factor=1.0, jitter_fraction=0.25)
        rng = random.Random(7)
        for attempt in range(1, 20):
            delay = backoff_delay(config, attempt, rng)
            assert 75.0 <= delay <= 125.0

    def test_deterministic_from_seed(self):
        config = _recovery_config(jitter_fraction=0.5)
        first = [backoff_delay(config, k, random.Random(3))
                 for k in (1, 2, 3)]
        second = [backoff_delay(config, k, random.Random(3))
                  for k in (1, 2, 3)]
        assert first == second


class TestRecoveryConfigValidation:
    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="max_retries"):
            RecoveryConfig(max_retries=-1)

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError, match="backoff_factor"):
            RecoveryConfig(backoff_factor=0.5)

    def test_rejects_bad_jitter(self):
        with pytest.raises(ValueError, match="jitter_fraction"):
            RecoveryConfig(jitter_fraction=1.0)


class _FlakyBlock:
    """A reread source that returns garbage for ``bad_reads`` reads."""

    def __init__(self, good: bytes, bad_reads: int):
        self.good = good
        self.bad_reads = bad_reads
        self.reads = 0

    def reread(self) -> bytes:
        self.reads += 1
        if self.reads <= self.bad_reads:
            return b"\xff" * len(self.good)
        return self.good

    def verify(self, image: bytes) -> None:
        if image != self.good:
            raise IntegrityViolation(kind="leaf", address=0)


def _recover(controller, flaky):
    return controller.recover(
        address=0x1000, label="data",
        violation=IntegrityViolation(kind="leaf", address=0x1000),
        reread=flaky.reread, verify=flaky.verify)


class TestRecoveryController:
    def test_transient_fault_recovers(self):
        controller = RecoveryController(_recovery_config())
        flaky = _FlakyBlock(b"\xab" * BLOCK, bad_reads=2)
        image = _recover(controller, flaky)
        assert image == flaky.good
        stats = controller.stats
        assert stats.transient_recoveries == 1
        assert stats.retries == 3
        assert stats.persistent_faults == 0
        assert stats.backoff_cycles > 0
        assert controller.events[-1].verdict == "transient"

    def test_persistent_fault_halts(self):
        controller = RecoveryController(_recovery_config(max_retries=2))
        flaky = _FlakyBlock(b"\xab" * BLOCK, bad_reads=99)
        with pytest.raises(RecoveryHalted) as excinfo:
            _recover(controller, flaky)
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value, IntegrityViolation)
        assert controller.stats.persistent_faults == 1
        assert controller.stats.halts == 1

    def test_persistent_fault_quarantines_page(self):
        controller = RecoveryController(
            _recovery_config(policy=RecoveryPolicy.QUARANTINE_PAGE),
            page_bytes=4096)
        flaky = _FlakyBlock(b"\xab" * BLOCK, bad_reads=99)
        with pytest.raises(QuarantinedPageError):
            _recover(controller, flaky)
        assert controller.stats.quarantined_pages == 1
        with pytest.raises(QuarantinedPageError):
            controller.check_fence(0x1000)
        with pytest.raises(QuarantinedPageError):
            controller.check_fence(0x1fff)   # same 4 KiB page
        controller.check_fence(0x2000)       # next page unaffected

    def test_persistent_fault_degrades(self):
        controller = RecoveryController(
            _recovery_config(policy=RecoveryPolicy.DEGRADE, max_retries=1))
        flaky = _FlakyBlock(b"\xab" * BLOCK, bad_reads=99)
        image = _recover(controller, flaky)
        assert image == b"\xff" * BLOCK      # unverified data, by contract
        assert controller.stats.degraded_accesses == 1
        assert controller.events[-1].verdict == "persistent"
        assert 0x1000 in controller.degraded

    def test_state_roundtrip_preserves_rng_stream(self):
        config = _recovery_config(jitter_fraction=0.5)
        first = RecoveryController(config)
        flaky = _FlakyBlock(b"\xab" * BLOCK, bad_reads=1)
        _recover(first, flaky)
        clone = RecoveryController(config)
        clone.load_state(first.state_dict())
        assert clone.state_dict() == first.state_dict()
        follow_a = _recover(first, _FlakyBlock(b"\xcd" * BLOCK, 2))
        follow_b = _recover(clone, _FlakyBlock(b"\xcd" * BLOCK, 2))
        assert follow_a == follow_b
        assert first.stats.backoff_cycles == clone.stats.backoff_cycles


class TestIntegrityViolationDetail:
    """The satellite: violations must say what failed, where, and how."""

    def test_leaf_violation_message(self):
        exc = IntegrityViolation(kind="leaf", address=0x2b40, leaf_index=7,
                                 counter=42, expected=b"\x01\x02",
                                 actual=b"\xaa\xbb")
        text = str(exc)
        assert "0x2b40" in text
        assert "leaf 7" in text
        assert "counter 42" in text
        assert "0102" in text and "aabb" in text

    def test_node_violation_message(self):
        exc = IntegrityViolation(kind="node", level=2, index=5,
                                 expected=b"\x0f", actual=b"\xf0")
        text = str(exc)
        assert "level 2" in text
        assert "index 5" in text
        assert "0f" in text and "f0" in text

    def test_plain_message_still_works(self):
        assert str(IntegrityViolation("custom text")) == "custom text"

    def test_fields_are_preserved(self):
        exc = IntegrityViolation(kind="leaf", address=0x40,
                                 expected=b"\x01", actual=b"\x02")
        assert exc.address == 0x40
        assert exc.expected == b"\x01"
        assert exc.actual == b"\x02"
        assert exc.kind == "leaf"


# -- end-to-end through the secure-memory system ------------------------------


def _adversarial_system(policy=RecoveryPolicy.HALT, preset="split+gcm"):
    config = PRESETS[preset].with_updates(
        counter_cache_size=64, counter_cache_assoc=1,
        node_cache_size=256, node_cache_assoc=2, minor_bits=3,
        recovery=RecoveryConfig(enabled=True, policy=policy, max_retries=3),
    )
    holder = []

    def factory(**kwargs):
        device = AdversarialDRAM(rng=random.Random(99), **kwargs)
        holder.append(device)
        return device

    system = SecureMemorySystem(config, protected_bytes=PROTECTED,
                                l2_size=2 * 1024, l2_assoc=2,
                                dram_factory=factory)
    device = holder[0]
    device.set_layout(system.protected_bytes, system._code_region_base,
                      device.size_bytes)
    return system, device


def _populate(system, count=10):
    addresses = [index * 8 * BLOCK for index in range(count)]
    for address in addresses:
        system.write_block(address,
                           bytes((address // BLOCK + i) & 0xFF
                                 for i in range(BLOCK)))
    system.flush()
    for address in list(system.l2.resident_blocks()):
        system.l2.invalidate(address)
    return addresses


def _dram_digest(device):
    import hashlib

    digest = hashlib.sha256()
    for address in sorted(device._blocks):
        digest.update(address.to_bytes(8, "big"))
        digest.update(bytes(device._blocks[address]))
    return digest.hexdigest()


class TestEndToEndRecovery:
    def test_transient_fault_recovered_matches_fault_free_run(self):
        """The differential proof: recovered run == fault-free run."""
        faulty_sys, faulty_dev = _adversarial_system()
        clean_sys, clean_dev = _adversarial_system()
        addresses = _populate(faulty_sys)
        assert _populate(clean_sys) == addresses

        event = faulty_dev.fire_now(
            FaultSpec(kind=FaultKind.TRANSIENT_FLIP, bits=3, duration=2))
        assert event is not None
        assert event.spec.kind is FaultKind.TRANSIENT_FLIP

        for address in addresses:
            assert (faulty_sys.read_block(address)
                    == clean_sys.read_block(address))
        assert faulty_sys.recovery.stats.transient_recoveries >= 1
        assert faulty_sys.recovery.stats.persistent_faults == 0
        # The glitch corrupted reads, never DRAM: images stay identical.
        assert _dram_digest(faulty_dev) == _dram_digest(clean_dev)
        assert (faulty_sys.stats.integrity_violations
                >= clean_sys.stats.integrity_violations + 1)

    def test_persistent_tamper_halts_loudly(self):
        system, device = _adversarial_system(RecoveryPolicy.HALT)
        addresses = _populate(system)
        device.fire_now(FaultSpec(kind=FaultKind.BIT_FLIP, bits=3))
        with pytest.raises(RecoveryHalted):
            for address in addresses:
                system.read_block(address)
        assert system.recovery.stats.persistent_faults == 1

    def test_persistent_tamper_quarantines_and_fences(self):
        system, device = _adversarial_system(RecoveryPolicy.QUARANTINE_PAGE)
        addresses = _populate(system)
        device.fire_now(FaultSpec(kind=FaultKind.BIT_FLIP, bits=3))
        tampered = None
        with pytest.raises(QuarantinedPageError) as excinfo:
            for address in addresses:
                tampered = address
                system.read_block(address)
        assert system.recovery.stats.quarantined_pages >= 1
        # the fenced page now refuses both reads and writes
        with pytest.raises(QuarantinedPageError):
            system.read_block(tampered)
        with pytest.raises(QuarantinedPageError):
            system.write_block(tampered, b"\x00" * BLOCK)
        assert excinfo.value.page is not None

    def test_recovery_metrics_registered(self):
        system, _ = _adversarial_system()
        snapshot = system.metrics.snapshot()
        assert any(name.startswith("recovery") for name in snapshot)
