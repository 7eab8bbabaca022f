"""Replay attacks: roll memory back to a previously observed valid state.

The attacker records a (ciphertext, MAC-code-block) pair at time t0, lets
the victim overwrite the block, and then restores the recording.  Both the
data and its authentication code are *individually* valid — only a Merkle
tree anchored in an on-chip root can notice that the pair is stale, which
is why the paper (like prior work) builds one.  The attack is staged at two
strengths: data-only replay (caught at the leaf MAC) and data + code-block
replay (caught one level further up the tree).
"""

from __future__ import annotations

from repro.attacks.base import AttackReport
from repro.auth.errors import IntegrityViolation
from repro.attacks.tamper import _drop_from_l2
from repro.core.secure_memory import SecureMemorySystem


def _leaf_code_block_address(system: SecureMemorySystem,
                             address: int) -> int | None:
    """DRAM address of the level-1 code block covering a data block."""
    if system.merkle is None:
        return None
    leaf = system._data_leaf_index(address)
    parent = system.merkle.geometry.parent_index(leaf)
    return system.merkle.node_address(1, parent)


def replay_attack(system: SecureMemorySystem, address: int,
                  old_value: bytes, new_value: bytes,
                  replay_code_block: bool = False) -> AttackReport:
    """Record state at ``old_value``, advance to ``new_value``, roll back.

    With ``replay_code_block`` the attacker also restores the level-1
    Merkle code block, making the leaf MAC check pass and testing that the
    *tree* (not just a flat MAC) provides freshness.
    """
    # Victim writes the old value; attacker records DRAM.
    system.write_block(address, old_value)
    system.flush()
    recorded_data = system.dram.peek(address)
    code_address = _leaf_code_block_address(system, address)
    recorded_code = (
        system.dram.peek(code_address) if code_address is not None else None
    )

    # Victim moves on to the new value.
    system.write_block(address, new_value)
    system.flush()
    _drop_from_l2(system, address)

    # Attacker rolls DRAM back.
    system.dram.poke(address, recorded_data)
    name = "replay-data"
    if replay_code_block and code_address is not None:
        # The code block must not be sitting on-chip or the poke is moot;
        # drop it from the node cache as a patient attacker would await.
        system.merkle.node_cache.invalidate(code_address)
        system.dram.poke(code_address, recorded_code)
        name = "replay-data+code"

    try:
        observed = system.read_block(address)
    except IntegrityViolation as exc:
        return AttackReport(attack=name, detected=True, succeeded=False,
                            details=str(exc))
    if observed == old_value:
        details = "victim consumed stale data"
        succeeded = True
    elif observed != new_value:
        # Counter-mode systems without authentication decrypt the replayed
        # ciphertext under the *current* counter: the victim silently
        # consumes garbage — a successful, undetected integrity violation
        # even though the exact old value was not restored.
        details = "victim consumed garbled data undetected"
        succeeded = True
    else:
        details = "replay had no effect"
        succeeded = False
    return AttackReport(
        attack=name,
        detected=False,
        succeeded=succeeded,
        details=details,
        evidence={"observed": observed},
    )
