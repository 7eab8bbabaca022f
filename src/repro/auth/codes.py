"""Merkle-tree geometry: arity, level sizes, and node addressing.

The tree is K-ary where K = block_size / mac_size (section 3): a 64-byte
code block holds K child authentication codes.  With the default 64-bit
MACs, K = 8; with 128-bit MACs K = 4, which for a 1GB memory yields the
12-level, 33%-overhead tree the paper uses to motivate smaller codes.

Level 0 is the protected leaves (data blocks plus direct-counter blocks,
per Figure 3); levels 1..depth are code blocks stored in a reserved DRAM
region; the MACs of the top level's code blocks live on chip.  A full tree
(:func:`build_geometry`) has one top block, whose MAC is the tamper-proof
root register; a flat geometry (:func:`build_flat_geometry`) keeps one MAC
per level-1 group on chip instead.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TreeGeometry:
    """Static shape of a Merkle tree over a fixed number of leaves."""

    num_leaves: int
    arity: int
    block_size: int
    mac_bytes: int
    #: nodes per level; level_sizes[0] == num_leaves, and level_sizes[-1]
    #: is 1 for a full tree (the group count for a flat geometry)
    level_sizes: tuple[int, ...]

    @property
    def depth(self) -> int:
        """Number of code-block levels (excludes the leaf level)."""
        return len(self.level_sizes) - 1

    @property
    def total_code_blocks(self) -> int:
        return sum(self.level_sizes[1:])

    @property
    def storage_overhead(self) -> float:
        """Code storage as a fraction of leaf storage."""
        return self.total_code_blocks / self.num_leaves

    def parent_index(self, index: int) -> int:
        return index // self.arity

    def slot_in_parent(self, index: int) -> int:
        return index % self.arity

    def child_indices(self, level: int, index: int) -> range:
        """Child node indices (at ``level - 1``) of node ``index``."""
        if level < 1:
            raise ValueError("leaves have no children")
        start = index * self.arity
        return range(start, min(start + self.arity,
                                self.level_sizes[level - 1]))

    def level_offset_blocks(self, level: int) -> int:
        """Dense block offset of a level's first code block in the region."""
        if not 1 <= level <= self.depth:
            raise ValueError(f"level must be in [1, {self.depth}]")
        return sum(self.level_sizes[1:level])

    def node_region_block(self, level: int, index: int) -> int:
        """Dense block index of a code node inside the code region."""
        if not 0 <= index < self.level_sizes[level]:
            raise ValueError(
                f"node index {index} out of range for level {level}"
            )
        return self.level_offset_blocks(level) + index


def build_geometry(num_leaves: int, block_size: int,
                   mac_bits: int) -> TreeGeometry:
    """Compute the level structure for a tree over ``num_leaves`` blocks."""
    if num_leaves < 1:
        raise ValueError("tree needs at least one leaf")
    mac_bytes = mac_bits // 8
    arity = block_size // mac_bytes
    if arity < 2:
        raise ValueError("MAC too large for block size: arity < 2")
    sizes = [num_leaves]
    while sizes[-1] > 1:
        sizes.append(-(-sizes[-1] // arity))  # ceil
    if len(sizes) == 1:
        sizes.append(1)  # a single leaf still gets one code block above it
    return TreeGeometry(
        num_leaves=num_leaves,
        arity=arity,
        block_size=block_size,
        mac_bytes=mac_bytes,
        level_sizes=tuple(sizes),
    )


def build_flat_geometry(num_leaves: int, block_size: int,
                        mac_bits: int) -> TreeGeometry:
    """One-level geometry for SecDDR-style MAC-of-MACs integrity.

    Leaf MACs are grouped into level-1 code blocks exactly as in the tree,
    but there is no level above them: each group block's own MAC lives on
    chip, so verification fetches at most one code block no matter how
    large memory is.  ``level_sizes[-1]`` is the group count, not 1 — the
    functional :class:`~repro.auth.merkle.MerkleTree` keys its on-chip MACs
    by top-level index and the timing chain walk is level-agnostic, so both
    run SecDDR on this geometry unchanged.
    """
    if num_leaves < 1:
        raise ValueError("flat geometry needs at least one leaf")
    mac_bytes = mac_bits // 8
    arity = block_size // mac_bytes
    if arity < 2:
        raise ValueError("MAC too large for block size: arity < 2")
    ngroups = -(-num_leaves // arity)  # ceil
    return TreeGeometry(
        num_leaves=num_leaves,
        arity=arity,
        block_size=block_size,
        mac_bytes=mac_bytes,
        level_sizes=(num_leaves, ngroups),
    )


def merkle_levels_for_memory(memory_bytes: int, block_size: int,
                             mac_bits: int) -> int:
    """Tree depth for a memory of a given size — used by the timing model.

    Matches section 5: "we assume a 512MB main memory when determining the
    number of levels in Merkle trees".
    """
    return build_geometry(memory_bytes // block_size, block_size,
                          mac_bits).depth
