"""The counter-replay attack of section 4.3 — the pitfall the paper fixes.

Counter-mode encryption is only secure while no (key, seed) pair repeats.
The seed contains the block's counter, and the counter lives in untrusted
DRAM whenever its block is not in the counter cache.  The pitfall: a data
block can sit dirty in the L2 *while its counter block gets evicted*.  The
attacker rolls the in-DRAM counter back to a recorded older value; when the
data block is finally written back, the system re-fetches the tampered
counter, increments it, and produces a pad it has already used once.  The
bus snooper now holds two ciphertexts under one pad, and

    ct_old XOR ct_new == pt_old XOR pt_new

hands over the plaintext relationship (full plaintext, if either version
is known or guessable).

The paper's fix is to authenticate counters *whenever they come on-chip*
(not only indirectly via data MACs): the counter blocks are leaves of the
Merkle tree, so the poisoned fetch fails verification before the counter is
ever used.  This module stages the full attack against both configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.base import AttackReport
from repro.attacks.snoop import pad_reuse_probe
from repro.attacks.tamper import _drop_from_l2
from repro.auth.errors import IntegrityViolation
from repro.core.secure_memory import SecureMemorySystem


def evict_data_block(system: SecureMemorySystem, address: int,
                     scratch_base: int) -> None:
    """Force ``address`` out of the L2 by reading set-conflicting blocks.

    ``scratch_base`` names a region the attack may clobber with reads.
    Conflicting addresses share the victim's set: same block offset modulo
    ``num_sets * block_size``.
    """
    l2 = system.l2
    stride = l2.num_sets * l2.block_size
    count = 0
    candidate = scratch_base + (address % stride)
    while l2.contains(address) and count < 4 * l2.assoc:
        if candidate != address and candidate < system.protected_bytes:
            system.read_block(candidate)
        candidate += stride
        count += 1
    if l2.contains(address):
        raise RuntimeError("could not evict victim block from L2")


def prepare_scratch_pages(system: SecureMemorySystem, address: int,
                          scratch_base: int, count: int = 16) -> list[int]:
    """Materialize one block in each of ``count`` scratch pages.

    Later reads of these blocks resolve their counters through the counter
    cache, providing eviction pressure on the victim's counter block.  The
    blocks are written back and dropped from the L2 immediately so the
    pressure reads miss.  This models the background activity of a real
    workload while the attacker waits.
    """
    scheme = system.counter_scheme
    per = scheme.data_blocks_per_counter_block
    block = system.block_size
    victim_index = scheme.counter_block_address(address)
    addresses = []
    index = victim_index + 1
    while len(addresses) < count:
        data_address = (index * per) * block
        if data_address >= system.protected_bytes:
            raise RuntimeError("protected region too small for scratch pages")
        system.write_block(data_address, bytes(block))
        _drop_from_l2(system, data_address)
        addresses.append(data_address)
        index += 1
    return addresses


def evict_counter_block(system: SecureMemorySystem, address: int,
                        scratch_pages: list[int]) -> None:
    """Force the counter block covering ``address`` out of the counter
    cache by re-reading materialized blocks in other encryption pages
    (their counter blocks contend for the same cache sets)."""
    cache = system.counter_cache
    victim_index = system.counter_scheme.counter_block_address(address)
    for data_address in scratch_pages:
        if not cache.contains(victim_index):
            break
        _drop_from_l2(system, data_address)  # ensure the read will miss
        system.read_block(data_address)
        _drop_from_l2(system, data_address)
    if cache.contains(victim_index):
        raise RuntimeError("could not evict victim counter block")


@dataclass
class CounterReplayStage:
    """Artifacts the attacker accumulates while staging the attack."""

    recorded_counter_image: bytes | None = None
    ciphertext_v2: bytes | None = None
    ciphertext_v3: bytes | None = None


def counter_replay_attack(system: SecureMemorySystem, address: int,
                          plaintext_v2: bytes, plaintext_v3: bytes,
                          scratch_base: int) -> AttackReport:
    """Stage the full section-4.3 counter-rollback attack.

    ``address`` is the victim block; ``plaintext_v2``/``plaintext_v3`` are
    two successive values the victim writes (the attacker wants their XOR);
    ``scratch_base`` is a region the staging may clobber.  The system must
    use counter-mode encryption.
    """
    if system.counter_scheme is None:
        raise ValueError("counter replay needs a counter-mode system")
    block = system.block_size
    if len(plaintext_v2) != block or len(plaintext_v3) != block:
        raise ValueError("plaintexts must be one block long")
    stage = CounterReplayStage()
    scheme = system.counter_scheme
    counter_index = scheme.counter_block_address(address)
    counter_dram_addr = system.counter_cache.memory_address(counter_index)
    scratch_pages = prepare_scratch_pages(system, address, scratch_base)

    # Step 1: victim writes v1 and it reaches DRAM — counter becomes c1.
    system.write_block(address, bytes(block))
    evict_data_block(system, address, scratch_base)
    # The counter block now holds c1 on-chip; push it to DRAM and record it.
    evict_counter_block(system, address, scratch_pages)
    stage.recorded_counter_image = system.dram.peek(counter_dram_addr)

    # Step 2: victim writes v2; write-back encrypts under c2 = c1 + 1.
    system.write_block(address, plaintext_v2)
    try:
        evict_data_block(system, address, scratch_base)
    except IntegrityViolation as exc:  # pragma: no cover - defensive
        return AttackReport(attack="counter-replay", detected=True,
                            succeeded=False, details=str(exc))
    stage.ciphertext_v2 = system.dram.peek(address)

    # Step 3: victim writes v3 (still in L2, dirty).  The attacker evicts
    # the counter block and rolls its DRAM image back to the c1 recording.
    system.write_block(address, plaintext_v3)
    evict_counter_block(system, address, scratch_pages)
    system.dram.poke(counter_dram_addr, stage.recorded_counter_image)

    # Step 4: the victim block's write-back re-fetches the (tampered)
    # counter.  With counter authentication the fetch fails verification;
    # without it the write-back reuses pad(c2).
    try:
        evict_data_block(system, address, scratch_base)
    except IntegrityViolation as exc:
        return AttackReport(attack="counter-replay", detected=True,
                            succeeded=False, details=str(exc))
    stage.ciphertext_v3 = system.dram.peek(address)

    reused = pad_reuse_probe(stage.ciphertext_v2, plaintext_v2,
                             stage.ciphertext_v3, plaintext_v3)
    return AttackReport(
        attack="counter-replay",
        detected=False,
        succeeded=reused,
        details=(
            "pad reuse induced: ct2 XOR ct3 == pt2 XOR pt3" if reused
            else "no pad reuse observed"
        ),
        evidence={
            "ciphertext_v2": stage.ciphertext_v2,
            "ciphertext_v3": stage.ciphertext_v3,
        },
    )
