"""Differential oracle: execute scenarios and classify fault outcomes.

The oracle maintains a trivially-correct reference model — a dictionary
from block address to the last plaintext written — and replays a
scenario's schedule through a real :class:`SecureMemorySystem` whose DRAM
is an :class:`~repro.testing.faults.AdversarialDRAM`.  Every read is
compared byte-for-byte against the model, and after the schedule a *cold
sweep* flushes all on-chip state, invalidates every cache (L2, counter
cache, Merkle node cache), and re-reads the whole working set from DRAM —
so any persistent corruption must either raise
:class:`~repro.auth.errors.IntegrityViolation` or surface as a byte
mismatch before the scenario ends.

Each fired fault is then classified:

* ``detected``      — the system raised ``IntegrityViolation`` after the
  fault fired (the paper's security claim);
* ``recovered``     — recovery was enabled and a transient fault was healed
  by bounded re-fetch: no violation escaped, every read matched the model,
  and the recovery controller logged at least one transient recovery;
* ``neutralized``   — no violation, and every read (including the cold
  sweep) matched the model: the fault provably had no effect on the
  plaintext the victim consumes;
* ``missed``        — the victim silently consumed wrong data although the
  configuration *promises* integrity (``auth`` is not ``NONE``) — a real
  hole, reported with a shrinkable reproducer;
* ``unprotected``   — wrong data was consumed but the scheme never claimed
  integrity (e.g. encryption-only presets) — expected, not a failure;
* ``not-triggered`` — the fault found no eligible target (e.g. a counter
  rollback against a counterless scheme);
* ``spurious``      — a violation or mismatch with **no** fault fired,
  which would indicate a bug in the system or the harness itself.

The module also hosts the kernel-level differential checks: table-driven
vs. scalar AES, table-driven GHASH vs. a bitwise GF(2^128) reference,
batched ``read_blocks``/``write_blocks`` vs. scalar loops, split vs.
monolithic counter modes on end-to-end plaintext recovery, and the NumPy
vector kernels vs. the table kernels on every bulk crypto path.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from repro.auth.errors import IntegrityViolation
from repro.core.config import (
    AuthMode,
    CounterOrg,
    PRESETS,
    RecoveryConfig,
    RecoveryPolicy,
    SecureMemoryConfig,
)
from repro.core.secure_memory import SecureMemorySystem
from repro.crypto.aes import AES128
from repro.crypto.ghash import GHASH, ghash_chunks, ghash_chunks_scalar
from repro.testing.faults import AdversarialDRAM, FaultEvent
from repro.testing.schedule import (
    COUNTER_CACHE_ASSOC,
    COUNTER_CACHE_SIZE,
    L2_ASSOC,
    L2_SIZE,
    NODE_CACHE_SIZE,
    PROTECTED_BYTES,
    Op,
    Scenario,
    payload,
)


class FaultOutcome(enum.Enum):
    """Classification of one scenario's injected fault."""

    DETECTED = "detected"
    RECOVERED = "recovered"         # transient fault healed by retry
    NEUTRALIZED = "neutralized"
    MISSED = "missed"
    UNPROTECTED = "unprotected"
    NOT_TRIGGERED = "not-triggered"
    SPURIOUS = "spurious"
    CLEAN = "clean"                 # fault-free differential scenario


@dataclass
class ScenarioResult:
    """Everything the fuzz report needs about one executed scenario."""

    scenario: Scenario
    outcome: FaultOutcome
    fired: FaultEvent | None = None
    violation: str | None = None
    mismatch: str | None = None
    ops_executed: int = 0

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "fired": self.fired.to_dict() if self.fired else None,
            "violation": self.violation,
            "mismatch": self.mismatch,
            "ops_executed": self.ops_executed,
            "scenario": self.scenario.to_dict(),
        }


def promises_integrity(config: SecureMemoryConfig) -> bool:
    """Whether the configuration claims to detect memory tampering."""
    return config.auth is not AuthMode.NONE


def campaign_config(preset: str, mac_bits: int | None = None,
                    recovery: str | None = None) -> SecureMemoryConfig:
    """A preset shrunk to campaign geometry.

    Caches are small so the schedule's working set actually spills to
    untrusted DRAM, and split-counter minors are narrowed so write storms
    force real page re-encryptions within a short schedule.  ``recovery``
    names a :class:`RecoveryPolicy` value; when given, integrity-violation
    recovery is enabled with a retry budget that covers the fuzz harness's
    transient-glitch durations (1–3 corrupted reads).
    """
    config = PRESETS[preset]
    overrides: dict = {
        "counter_cache_size": COUNTER_CACHE_SIZE,
        "counter_cache_assoc": COUNTER_CACHE_ASSOC,
        "node_cache_size": NODE_CACHE_SIZE,
        "node_cache_assoc": 2,
    }
    if config.uses_counters and config.counter_org is CounterOrg.SPLIT:
        overrides["minor_bits"] = 3
    if mac_bits is not None:
        overrides["mac_bits"] = mac_bits
    if recovery is not None:
        overrides["recovery"] = RecoveryConfig(
            enabled=True, policy=RecoveryPolicy(recovery), max_retries=3)
    return config.with_updates(**overrides)


def build_system(scenario: Scenario, rng: random.Random
                 ) -> tuple[SecureMemorySystem, AdversarialDRAM]:
    """Construct the system under test with an adversarial DRAM attached."""
    config = campaign_config(scenario.preset, scenario.mac_bits,
                             scenario.recovery)
    holder: list[AdversarialDRAM] = []

    def factory(**kwargs):
        device = AdversarialDRAM(rng=rng, **kwargs)
        holder.append(device)
        return device

    system = SecureMemorySystem(config, protected_bytes=PROTECTED_BYTES,
                                l2_size=L2_SIZE, l2_assoc=L2_ASSOC,
                                dram_factory=factory)
    device = holder[0]
    device.set_layout(system.protected_bytes, system._code_region_base,
                      device.size_bytes)
    if scenario.weaken == "no-tree":
        # Deliberate sabotage: detach the Merkle tree so nothing below the
        # chip is ever verified.  The config still *promises* integrity, so
        # the oracle must now report missed faults — this is how the test
        # suite proves the harness can catch a weakened system.
        system.merkle = None
    elif scenario.weaken is not None:
        raise ValueError(f"unknown weaken mode: {scenario.weaken!r}")
    return system, device


def force_writeback(system: SecureMemorySystem, address: int) -> None:
    """Push a block's current contents to DRAM and drop it from the L2."""
    evicted = system.l2.invalidate(address)
    if evicted is not None and evicted.dirty:
        system._write_back(address, bytes(evicted.payload))


def force_counter_writeback(system: SecureMemorySystem,
                            address: int) -> None:
    """Push the counter block covering ``address`` off-chip as well.

    The patient attacker of section 4.3 waits until not only the victim's
    data but also its *counter block* leaves the chip — only then does a
    stale counter image exist in DRAM to roll back to.  ``evict`` and
    ``storm`` ops force that situation instead of waiting for cache luck.
    """
    if system.counter_scheme is None or system.counter_cache is None:
        return
    index = system.counter_scheme.counter_block_address(address)
    evicted = system.counter_cache.invalidate(index)
    if evicted is not None and evicted.dirty:
        system._write_back_counter_block(index)


def cold_sweep(system: SecureMemorySystem,
               model: dict[int, bytes]) -> str | None:
    """Flush, drop every cache, and re-verify the whole model from DRAM.

    Returns a mismatch description, or ``None`` when every block read back
    equal to the reference model.  Raises :class:`IntegrityViolation` if
    the cold re-fetch path detects tampering.
    """
    system.flush()
    # Cache.flush drops every line; nothing it returns is written back
    system.l2.flush()
    if system.counter_cache is not None:
        system.counter_cache.cache.flush()
    if system.merkle is not None:
        system.merkle.node_cache.flush()
    zeros = bytes(system.block_size)
    for address in sorted(model):
        observed = system.read_block(address)
        expected = model.get(address, zeros)
        if observed != expected:
            return (f"cold sweep: block {address:#x} read "
                    f"{observed[:8].hex()}… expected {expected[:8].hex()}…")
    return None


def _execute_op(system: SecureMemorySystem, model: dict[int, bytes],
                op: Op) -> str | None:
    """Run one op against system and model; returns a mismatch or None."""
    block = system.block_size
    if op.kind == "read":
        observed = system.read_block(op.address)
        expected = model.get(op.address, bytes(block))
        if observed != expected:
            return (f"read {op.address:#x} returned "
                    f"{observed[:8].hex()}… expected "
                    f"{expected[:8].hex()}…")
    elif op.kind == "write":
        data = payload(op.value, block)
        system.write_block(op.address, data)
        model[op.address] = data
    elif op.kind == "evict":
        force_writeback(system, op.address)
        force_counter_writeback(system, op.address)
    elif op.kind == "flush":
        system.flush()
    elif op.kind == "storm":
        for round_ in range(op.count):
            data = payload(op.value + round_, block)
            system.write_block(op.address, data)
            model[op.address] = data
            force_writeback(system, op.address)
            force_counter_writeback(system, op.address)
    else:
        raise ValueError(f"unknown op kind: {op.kind!r}")
    return None


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Execute one scenario end-to-end and classify its fault."""
    device_rng = random.Random(scenario.seed ^ 0xADBE_EF5)
    system, device = build_system(scenario, device_rng)
    if scenario.fault is not None and scenario.fault_at is None:
        if scenario.fault.trigger is None:
            raise ValueError("scenario fault needs fault_at or a trigger")
        device.arm(scenario.fault)

    model: dict[int, bytes] = {}
    violation: str | None = None
    mismatch: str | None = None
    executed = 0
    fire_at = scenario.fault_at
    if fire_at is not None:
        fire_at = min(fire_at, len(scenario.ops))
    try:
        for index, op in enumerate(scenario.ops):
            if fire_at is not None and index == fire_at:
                device.fire_now(scenario.fault)
            mismatch = _execute_op(system, model, op)
            executed += 1
            if mismatch is not None:
                break
        else:
            if fire_at is not None and fire_at >= len(scenario.ops):
                device.fire_now(scenario.fault)
            if mismatch is None:
                mismatch = cold_sweep(system, model)
    except IntegrityViolation as exc:
        violation = str(exc)

    recovered = (system.recovery.stats.transient_recoveries
                 if system.recovery is not None else 0)
    fired = device.events[0] if device.events else None
    outcome = _classify(scenario, fired, violation, mismatch, recovered)
    return ScenarioResult(scenario=scenario, outcome=outcome, fired=fired,
                          violation=violation, mismatch=mismatch,
                          ops_executed=executed)


def _classify(scenario: Scenario, fired: FaultEvent | None,
              violation: str | None, mismatch: str | None,
              recovered: int = 0) -> FaultOutcome:
    if scenario.fault is None:
        if violation is None and mismatch is None:
            return FaultOutcome.CLEAN
        return FaultOutcome.SPURIOUS
    if violation is not None:
        return FaultOutcome.DETECTED if fired else FaultOutcome.SPURIOUS
    if mismatch is not None:
        if fired is None:
            return FaultOutcome.SPURIOUS
        config = campaign_config(scenario.preset, scenario.mac_bits)
        if promises_integrity(config):
            return FaultOutcome.MISSED
        return FaultOutcome.UNPROTECTED
    if fired is not None and recovered > 0:
        return FaultOutcome.RECOVERED
    return (FaultOutcome.NEUTRALIZED if fired
            else FaultOutcome.NOT_TRIGGERED)


# -- kernel-level differential checks -----------------------------------------


@dataclass
class DifferentialResult:
    """Outcome of one implementation-pair check."""

    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "detail": self.detail}


def _diff_aes(rng: random.Random, rounds: int = 16) -> DifferentialResult:
    """Table-driven AES kernel vs. the scalar reference, both directions."""
    for _ in range(rounds):
        aes = AES128(rng.randbytes(16))
        block = rng.randbytes(16)
        fast = aes.encrypt_block(block)
        slow = aes.encrypt_block_scalar(block)
        if fast != slow:
            return DifferentialResult(
                "aes-table-vs-scalar", False,
                f"encrypt diverged on {block.hex()}")
        if (aes.decrypt_block(fast) != block
                or aes.decrypt_block_scalar(slow) != block):
            return DifferentialResult(
                "aes-table-vs-scalar", False,
                f"decrypt roundtrip diverged on {block.hex()}")
    return DifferentialResult("aes-table-vs-scalar", True,
                              f"{rounds} random keys/blocks agreed")


def _diff_ghash(rng: random.Random, rounds: int = 16) -> DifferentialResult:
    """Shoup-table GHASH vs. the bitwise GF(2^128) reference."""
    for _ in range(rounds):
        h = rng.randbytes(16)
        chunks = [rng.randbytes(16) for _ in range(rng.randrange(1, 6))]
        if ghash_chunks(h, chunks) != ghash_chunks_scalar(h, chunks):
            return DifferentialResult(
                "ghash-table-vs-bitwise", False,
                f"diverged for subkey {h.hex()}")
    return DifferentialResult("ghash-table-vs-bitwise", True,
                              f"{rounds} random chains agreed")


def _fresh_system(preset: str) -> SecureMemorySystem:
    return SecureMemorySystem(campaign_config(preset),
                              protected_bytes=PROTECTED_BYTES,
                              l2_size=L2_SIZE, l2_assoc=L2_ASSOC)


def _diff_batched(rng: random.Random, preset: str = "split+gcm",
                  num_blocks: int = 12) -> DifferentialResult:
    """``read_blocks``/``write_blocks`` vs. the equivalent scalar loops."""
    name = f"batched-vs-scalar[{preset}]"
    batched = _fresh_system(preset)
    scalar = _fresh_system(preset)
    block = batched.block_size
    addresses = [index * block for index in
                 rng.sample(range(PROTECTED_BYTES // block), num_blocks)]
    pairs = [(address, payload(rng.randrange(256), block))
             for address in addresses]
    batched.write_blocks(pairs)
    for address, data in pairs:
        scalar.write_block(address, data)
    # Force everything through DRAM so the re-reads exercise the full
    # verify/decrypt paths, not just L2 hits.
    for system in (batched, scalar):
        system.flush()
        system.l2.flush()  # drops the (now clean) lines
    shuffled = list(addresses) + addresses[:3]   # include duplicates
    rng.shuffle(shuffled)
    got_batched = batched.read_blocks(shuffled)
    got_scalar = [scalar.read_block(address) for address in shuffled]
    if got_batched != got_scalar:
        return DifferentialResult(name, False,
                                  "batched and scalar plaintexts diverged")
    return DifferentialResult(
        name, True, f"{len(pairs)} writes + {len(shuffled)} reads agreed")


def _diff_counter_modes(rng: random.Random,
                        ops_seed: int) -> DifferentialResult:
    """Split vs. monolithic counters must recover identical plaintext."""
    name = "split-vs-mono64-plaintext"
    split = _fresh_system("split")
    mono = _fresh_system("mono64b")
    block = split.block_size
    model: dict[int, bytes] = {}
    op_rng = random.Random(ops_seed)
    addresses = [index * block for index in
                 op_rng.sample(range(PROTECTED_BYTES // block), 6)]
    for step in range(40):
        address = op_rng.choice(addresses)
        if op_rng.random() < 0.5:
            data = payload(op_rng.randrange(256), block)
            model[address] = data
            split.write_block(address, data)
            mono.write_block(address, data)
        else:
            expected = model.get(address, bytes(block))
            got_split = split.read_block(address)
            got_mono = mono.read_block(address)
            if got_split != expected or got_mono != expected:
                return DifferentialResult(
                    name, False,
                    f"step {step}: split={got_split[:8].hex()}… "
                    f"mono={got_mono[:8].hex()}… "
                    f"expected={expected[:8].hex()}…")
    for system in (split, mono):
        mismatch = cold_sweep(system, model)
        if mismatch is not None:
            return DifferentialResult(name, False, mismatch)
    return DifferentialResult(name, True, "40 interleaved ops agreed")


def _diff_vector_kernels(rng: random.Random,
                         num_blocks: int = 48) -> DifferentialResult:
    """Vector (NumPy) kernels vs. the table kernels on every bulk path.

    Checks batched AES encrypt/decrypt, the batched GHASH chains, bulk
    CTR transforms under both IV domains, and batched GCM block MACs at
    every truncation width.  Each side calls its kernel by name: at this
    batch size the size-picking dispatchers would run the vector kernel
    on both sides and compare it with itself.
    """
    from repro.crypto import vector
    from repro.crypto.ctr import AUTHENTICATION_IV, bulk_ctr_transform_table
    from repro.crypto.mac import gcm_block_mac

    name = "vector-vs-table-kernels"
    key = rng.randbytes(16)
    aes = AES128(key)
    blocks = [rng.randbytes(16) for _ in range(num_blocks)]
    vec = aes.vector()
    if vec.encrypt_blocks(blocks) != aes.encrypt_blocks(blocks):
        return DifferentialResult(name, False, "AES encrypt diverged")
    ciphertexts = aes.encrypt_blocks(blocks)
    if vec.decrypt_blocks(ciphertexts) != blocks:
        return DifferentialResult(name, False, "AES decrypt diverged")
    h = GHASH(rng.randbytes(16))
    messages = [rng.randbytes(16 * rng.randrange(1, 6))
                for _ in range(num_blocks)]
    expected_digests = [
        ghash_chunks(h, [m[i:i + 16] for i in range(0, len(m), 16)])
        for m in messages
    ]
    if vector.ghash_chunks_many(h, messages) != expected_digests:
        return DifferentialResult(name, False, "GHASH chains diverged")
    items = [(rng.randrange(1 << 44) * 16, rng.randrange(1 << 70),
              rng.randbytes(64)) for _ in range(num_blocks)]
    for iv_tag in (None, AUTHENTICATION_IV):
        kwargs = {} if iv_tag is None else {"iv_tag": iv_tag}
        if (vector.bulk_ctr_transform_vector(aes, items, **kwargs)
                != bulk_ctr_transform_table(aes, items, **kwargs)):
            return DifferentialResult(
                name, False, f"bulk CTR diverged (iv_tag={iv_tag})")
    for mac_bits in (32, 64, 128):
        expected_macs = [
            gcm_block_mac(aes, h, address, counter, data, mac_bits)
            for address, counter, data in items
        ]
        if (vector.gcm_block_macs_vector(aes, h, items, mac_bits)
                != expected_macs):
            return DifferentialResult(
                name, False, f"GCM block MACs diverged at {mac_bits} bits")
    return DifferentialResult(
        name, True,
        f"{num_blocks}-block batches agreed on AES/GHASH/CTR/MAC paths")


def run_differential_checks(seed: int) -> list[DifferentialResult]:
    """Run every implementation-pair check from one seed."""
    rng = random.Random(seed ^ 0xD1FF)
    return [
        _diff_aes(rng),
        _diff_ghash(rng),
        _diff_batched(rng),
        _diff_counter_modes(rng, ops_seed=seed ^ 0xC7),
        _diff_vector_kernels(rng),
    ]
