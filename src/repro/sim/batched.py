"""NumPy event-batch engine for the trace-driven timing simulation.

The scalar loop in :mod:`repro.sim.processor` walks the trace one
reference at a time, paying Python interpreter overhead on every L1 hit
even though hits contribute nothing but a cycle increment.  This engine
restructures the same computation around which structural state is
*timing-independent* — classifiable ahead of time from the reference
stream alone:

* **phase A** — vectorized preprocessing over the materialized trace
  arrays (:meth:`repro.workloads.trace.Trace.arrays`): block alignment,
  L1 set indices, and same-block run collapsing computed as ndarray
  passes;
* **phase B1** — an exact true-LRU L1 kernel over the precomputed arrays
  that emits the L2 event stream (one event per L1 miss, tagged with the
  dirty L1 victim, if any).  The L1 is *always* timing-independent: only
  the processor's reference stream touches it.  The event stream for a
  from-reset run is cached on the trace, so a fig-4/fig-9 style sweep
  classifies each trace once and reuses the events for every scheme;
* **phase B2** — the same trick one level down.  When the L2 is not also
  the Merkle node cache and the counter scheme cannot trigger a page
  re-encryption (which probes ``l2.contains`` mid-run), nothing in the
  memory layer ever touches the L2 — so L2 hits, misses, and dirty
  victims are precomputable too, and the serial drain iterates only the
  *L2* misses.  Cached per (trace, L1 geometry, L2 geometry);
* **phase B2p** — the placement-only variant for split-counter schemes,
  whose page re-encryption *does* touch the L2 mid-run — but only via
  ``contains`` (pure) and ``mark_dirty`` (never reorders LRU).  L2
  *placement* (hit/miss/victim identity) therefore stays
  timing-independent and is precomputed like B2, while dirty bits and
  writebacks resolve live in the drain against a minimal residency shim
  (:class:`_L2ResidencyShim`) that also serves the re-encryption probes.
  Pending ``mark_dirty`` effects from L1 victim hits are attached to the
  next L2 miss event so they apply in exactly the scalar order;
* **phase C** — the genuinely serial remainder, kept in Python: the
  MSHR/ROB window drain, the FCFS bus schedule, counter half-miss
  in-flight ordering, Merkle chain walks, and RSR stall conditions.
  Eligible configurations (no counter prediction, no secret shares,
  single-copy engines, tracing off) drain through a *monomorphized
  closure engine* built by :func:`_make_fast_engine`: every hot mutable
  scalar (bus free slot, engine issue slots, statistic counters,
  histogram summary) lives in closure cells, synchronized with the real
  objects only at segment boundaries and around rare delegations (page
  re-encryption).  Everything else falls back to the real
  :class:`~repro.sim.timing_memory.TimingSecureMemory` methods operating
  on installed :class:`LeanCache` mirrors.

Bit-exactness contract: every cycle count, statistic, checkpoint, and
PathTime record equals the scalar engine's, down to the last ulp.  Both
engines share the trace's prefix-sum arrays and express the clock as
``cycle_base + cum_cycles[i]``; stalls re-anchor the base with the exact
same expressions, and the closure engine evaluates the exact float
expressions of the scalar methods in the exact order.  The golden-trace
fixtures and the Hypothesis differential suite in ``tests/sim/`` enforce
the contract for all registered schemes.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque

import numpy as np

from repro.auth.policies import (
    COMMIT_HIDE_CYCLES,
    AuthPolicy,
    exposed_auth_latency,
)
from repro.core.config import AuthMode, EncryptionMode
from repro.counters.base import OverflowAction
from repro.counters.prediction import CounterPredictionScheme
from repro.counters.split import SplitCounterScheme
from repro.memory.cache import Cache, CacheLine, Eviction, cache_state

__all__ = ["LeanCache", "run_batched"]


class LeanCache:
    """Drop-in stand-in for :class:`~repro.memory.cache.Cache` state.

    Holds per-set lists of block *addresses* (MRU first) plus one dirty
    set, instead of per-line :class:`CacheLine` objects — the same
    true-LRU semantics at a fraction of the per-access cost.  Statistics
    go straight into the donor cache's ``stats`` object so the metrics
    registry, warmup resets, and snapshots keep working unchanged, and
    ``state_dict()`` emits the donor's layout through the same
    :func:`~repro.memory.cache.cache_state` so checkpoints taken mid-run
    are byte-identical to scalar ones.

    The batched engine installs instances over ``processor.l1/.l2``,
    ``memory.l2``, ``memory.node_cache``, and the counter cache's inner
    cache for the duration of a run, then flushes the line state back.
    """

    __slots__ = ("sets", "dirty", "stats", "assoc", "num_sets",
                 "block_size", "_shift", "_mask")

    def __init__(self, cache: Cache):
        self.assoc = cache.assoc
        self.num_sets = cache.num_sets
        self.block_size = cache.block_size
        self._shift = cache.block_size.bit_length() - 1
        self._mask = cache.num_sets - 1
        self.stats = cache.stats  # shared instance, not a copy
        self.sets: list[list[int]] = []
        self.dirty: set[int] = set()
        for set_index, lines in enumerate(cache._sets):
            addresses = []
            for line in lines:
                if line.payload is not None:
                    raise ValueError(
                        "LeanCache mirrors timing-layer caches only "
                        "(payload-bearing lines belong to the functional "
                        "layer)")
                address = (line.tag * self.num_sets + set_index) \
                    * self.block_size
                addresses.append(address)
                if line.dirty:
                    self.dirty.add(address)
            self.sets.append(addresses)

    def flush_to(self, cache: Cache) -> None:
        """Write the mirrored line state back into the donor cache."""
        num_sets = self.num_sets
        block_size = self.block_size
        dirty = self.dirty
        new = CacheLine.__new__
        out = []
        for addresses in self.sets:
            lines = []
            for address in addresses:
                line = new(CacheLine)
                line.tag = address // block_size // num_sets
                line.dirty = address in dirty
                line.payload = None
                lines.append(line)
            out.append(lines)
        cache._sets = out

    # -- Cache-compatible interface (the subset the timing layer uses) ----

    def access(self, address: int, write: bool = False) -> bool:
        lines = self.sets[(address >> self._shift) & self._mask]
        if address in lines:
            i = lines.index(address)
            if i:
                lines.insert(0, lines.pop(i))
            if write:
                self.dirty.add(address)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, address: int, dirty: bool = False,
             payload=None) -> Eviction | None:
        lines = self.sets[(address >> self._shift) & self._mask]
        if address in lines:  # refill of a resident block: refresh it
            i = lines.index(address)
            if i:
                lines.insert(0, lines.pop(i))
            if dirty:
                self.dirty.add(address)
            return None
        evicted = None
        if len(lines) >= self.assoc:
            victim = lines.pop()
            victim_dirty = victim in self.dirty
            if victim_dirty:
                self.stats.writebacks += 1
                self.dirty.discard(victim)
            evicted = Eviction(address=victim, dirty=victim_dirty)
        lines.insert(0, address)
        if dirty:
            self.dirty.add(address)
        return evicted

    def contains(self, address: int) -> bool:
        return address in self.sets[(address >> self._shift) & self._mask]

    def mark_dirty(self, address: int) -> bool:
        if address in self.sets[(address >> self._shift) & self._mask]:
            self.dirty.add(address)
            return True
        return False

    def state_dict(self) -> dict:
        """Checkpoint state identical to :meth:`Cache.state_dict` of the
        donor cache holding the same lines."""
        addresses = [address for per_set in self.sets
                     for address in per_set]
        dirty = self.dirty
        tag_span = self.block_size * self.num_sets  # address bytes per tag
        return cache_state(
            [len(per_set) for per_set in self.sets],
            [address // tag_span for address in addresses],
            [address in dirty for address in addresses],
            None, self.stats)


class _L2ResidencyShim:
    """Stand-in for ``memory.l2`` during placement-preclassified runs.

    When the L2's *placement* (which blocks are resident, and which get
    evicted) is precomputed but the dirty bits stay live (split-counter
    page re-encryption marks arbitrary resident blocks dirty mid-run),
    the memory layer's only L2 interactions are the residency probe and
    the dirty mark inside ``_page_reencrypt_timing``.  This shim exposes
    exactly those two, backed by the drain's live sets — anything else
    raises, so a violated assumption fails loudly instead of silently
    diverging from the scalar oracle.
    """

    __slots__ = ("resident", "dirty")

    def __init__(self):
        self.resident: set[int] = set()
        self.dirty: set[int] = set()

    def contains(self, address: int) -> bool:
        return address in self.resident

    def mark_dirty(self, address: int) -> bool:
        if address in self.resident:
            self.dirty.add(address)
            return True
        return False


# -- phase A/B1: ahead-of-time L1 classification ------------------------------


def _run_masks(blocks: np.ndarray, writes: np.ndarray, start: int, stop: int):
    """Collapse same-block runs in ``[start, stop)`` to their first ref.

    Returns ``(positions, run_writes)``: the trace indices of each run's
    first reference and, per run, whether *any* reference in the run
    writes.  Consecutive references to the same block after the first are
    guaranteed L1 hits on the MRU line — the cache state they produce is
    fully described by "hit count += run length - 1, dirty |= any write".
    """
    if stop == start:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.astype(bool)
    seg_blocks = blocks[start:stop]
    first = np.empty(stop - start, dtype=bool)
    first[0] = True
    np.not_equal(seg_blocks[1:], seg_blocks[:-1], out=first[1:])
    positions = np.flatnonzero(first)
    run_writes = np.logical_or.reduceat(writes[start:stop], positions)
    return positions + start, run_writes


def _l1_kernel(mirror: LeanCache, blocks: list, block_set: list,
               writes: list, positions, run_writes, refs: int) -> list:
    """Exact L1 replay over one segment's collapsed reference runs.

    Emits the L2 event stream as ``(ref_index, block, is_write,
    dirty_l1_victim_or_None)`` tuples and accumulates the segment's L1
    statistics into the mirror's (shared) stats object.
    """
    sets = mirror.sets
    dirty = mirror.dirty
    assoc = mirror.assoc
    dirty_add = dirty.add
    dirty_discard = dirty.discard
    events = []
    append = events.append
    hits = refs - len(positions)  # collapsed repeats are all hits
    misses = 0
    writebacks = 0
    run_writes = run_writes.tolist()
    for k, i in enumerate(positions.tolist()):
        block = blocks[i]
        lines = sets[block_set[i]]
        if block in lines:
            j = lines.index(block)
            hits += 1
            if j:
                lines.insert(0, lines.pop(j))
        else:
            misses += 1
            victim_dirty = None
            if len(lines) >= assoc:
                victim = lines.pop()
                if victim in dirty:
                    dirty_discard(victim)
                    writebacks += 1
                    victim_dirty = victim
            lines.insert(0, block)
            append((i, block, writes[i], victim_dirty))
        if run_writes[k]:
            dirty_add(block)
    stats = mirror.stats
    stats.hits += hits
    stats.misses += misses
    stats.writebacks += writebacks
    return events


def _classified_events(trace, l1: Cache, blocks_arr, writes_arr):
    """Whole-trace L1 classification for a from-reset run, cached.

    The event stream and the final L1 line state depend only on the trace
    and the L1 geometry — not on the scheme under test — so a sweep over
    many schemes classifies each trace once.  Returns ``(events,
    event_refs, cum_writebacks, final_sets, final_dirty)`` where the
    cumulative array lets any segmentation recover exact per-boundary L1
    statistics.  The per-reference Python lists are materialized only on
    a cache miss — a warm sweep never pays for them.
    """
    key = (l1.size_bytes, l1.assoc, l1.block_size)
    cache = getattr(trace, "_l1_classification", None)
    if cache is None:
        cache = trace._l1_classification = {}
    hit = cache.get(key)
    if hit is not None:
        return hit
    blocks = blocks_arr.tolist()
    shift = l1.block_size.bit_length() - 1
    block_set = ((blocks_arr >> shift)
                 & np.int64(l1.num_sets - 1)).tolist()
    writes = trace.writes
    scratch = Cache(l1.size_bytes, l1.assoc, l1.block_size, name="scratch")
    mirror = LeanCache(scratch)
    positions, run_writes = _run_masks(blocks_arr, writes_arr, 0, len(trace))
    events = _l1_kernel(mirror, blocks, block_set, writes,
                        positions, run_writes, len(trace))
    event_refs = np.fromiter((e[0] for e in events), dtype=np.int64,
                             count=len(events))
    event_wbs = np.cumsum(
        np.fromiter((e[3] is not None for e in events), dtype=np.int64,
                    count=len(events)))
    result = (events, event_refs, event_wbs, mirror.sets, mirror.dirty)
    cache[key] = result
    return result


# -- phase B2: ahead-of-time L2 classification --------------------------------


def _l2_classified_events(trace, l1_key: tuple, l2: Cache, b1):
    """Whole-trace L2 classification for a from-reset run, cached.

    Valid only when the memory layer never touches the L2: no Merkle node
    cache sharing it, and no split-counter scheme (whose page
    re-encryption probes ``l2.contains``/``mark_dirty`` mid-run).  Under
    those conditions the L2's hit/miss/victim sequence is a pure function
    of the B1 event stream, so the serial drain shrinks to the L2
    *misses* only.  Returns ``(l2_events, l2ev_refs, cum_hits,
    cum_misses, cum_writebacks, final_sets, final_dirty)``; the cum
    arrays are indexed by *B1 event count* so any segmentation recovers
    exact per-boundary L2 statistics via a searchsorted on the B1 refs.
    """
    key = (l1_key, l2.size_bytes, l2.assoc, l2.block_size)
    cache = getattr(trace, "_l2_classification", None)
    if cache is None:
        cache = trace._l2_classification = {}
    hit = cache.get(key)
    if hit is not None:
        return hit
    shift = l2.block_size.bit_length() - 1
    mask = l2.num_sets - 1
    assoc = l2.assoc
    sets: list[list[int]] = [[] for _ in range(l2.num_sets)]
    dirty: set[int] = set()
    l2_events = []
    append = l2_events.append
    h = m = w = 0
    cum_h = [0]
    cum_m = [0]
    cum_w = [0]
    for i, block, is_write, l1_victim in b1[0]:
        if l1_victim is not None:
            # L1 write-back: an L2 access with write=True
            lines = sets[(l1_victim >> shift) & mask]
            if l1_victim in lines:
                j = lines.index(l1_victim)
                if j:
                    lines.insert(0, lines.pop(j))
                dirty.add(l1_victim)
                h += 1
            else:
                m += 1
        lines = sets[(block >> shift) & mask]
        if block in lines:
            j = lines.index(block)
            if j:
                lines.insert(0, lines.pop(j))
            h += 1
        else:
            m += 1
            victim = None
            if len(lines) >= assoc:
                v = lines.pop()
                if v in dirty:
                    w += 1
                    dirty.discard(v)
                    victim = v
            lines.insert(0, block)
            if is_write:
                dirty.add(block)
            append((i, block, is_write, victim))
        cum_h.append(h)
        cum_m.append(m)
        cum_w.append(w)
    result = (
        l2_events,
        np.fromiter((e[0] for e in l2_events), dtype=np.int64,
                    count=len(l2_events)),
        np.asarray(cum_h, dtype=np.int64),
        np.asarray(cum_m, dtype=np.int64),
        np.asarray(cum_w, dtype=np.int64),
        sets,
        dirty,
    )
    cache[key] = result
    return result


def _l2_placement_events(trace, l1_key: tuple, l2: Cache, b1):
    """Whole-trace L2 *placement* classification, cached (phase B2p).

    The fallback one level weaker than :func:`_l2_classified_events`:
    when the memory layer can mark resident L2 blocks dirty mid-run (a
    split-counter page re-encryption) but never changes *placement*, the
    hit/miss/victim-identity sequence is still a pure function of the B1
    event stream — only the dirty bits (hence write-back counts) are
    timing-dependent.  Emits one event per L2 miss as ``(ref_index,
    block, is_write, victim_address_or_None, gap_dirty_adds)`` where
    ``gap_dirty_adds`` are the L1 victim write-backs that hit the L2
    since the previous miss (applied to the live dirty set before the
    eviction).  Returns ``(events, event_refs, cum_hits, cum_misses,
    final_sets, trailing_dirty_adds)``; write-backs are accumulated live
    by the drain.
    """
    key = (l1_key, l2.size_bytes, l2.assoc, l2.block_size)
    cache = getattr(trace, "_l2_placement", None)
    if cache is None:
        cache = trace._l2_placement = {}
    hit = cache.get(key)
    if hit is not None:
        return hit
    shift = l2.block_size.bit_length() - 1
    mask = l2.num_sets - 1
    assoc = l2.assoc
    sets: list[list[int]] = [[] for _ in range(l2.num_sets)]
    events = []
    append = events.append
    pending: list[int] = []
    h = m = 0
    cum_h = [0]
    cum_m = [0]
    for i, block, is_write, l1_victim in b1[0]:
        if l1_victim is not None:
            lines = sets[(l1_victim >> shift) & mask]
            if l1_victim in lines:
                j = lines.index(l1_victim)
                if j:
                    lines.insert(0, lines.pop(j))
                pending.append(l1_victim)
                h += 1
            else:
                m += 1
        lines = sets[(block >> shift) & mask]
        if block in lines:
            j = lines.index(block)
            if j:
                lines.insert(0, lines.pop(j))
            h += 1
        else:
            m += 1
            victim = None
            if len(lines) >= assoc:
                victim = lines.pop()
            lines.insert(0, block)
            append((i, block, is_write, victim, tuple(pending)))
            pending.clear()
        cum_h.append(h)
        cum_m.append(m)
    result = (
        events,
        np.fromiter((e[0] for e in events), dtype=np.int64,
                    count=len(events)),
        np.asarray(cum_h, dtype=np.int64),
        np.asarray(cum_m, dtype=np.int64),
        sets,
        tuple(pending),
    )
    cache[key] = result
    return result


def _l2_preclass_ok(memory) -> bool:
    """Phase-B2 structural eligibility (see :func:`_l2_classified_events`)."""
    return (memory.node_cache is None
            and not isinstance(memory.scheme, SplitCounterScheme))


# -- phase C: the monomorphized closure engine --------------------------------


class _FastEngine:
    """Holder for the closures built by :func:`_make_fast_engine`."""

    __slots__ = ("drain_live", "drain_pre", "drain_pre_dirty", "sync",
                 "reload")


def _fast_eligible(memory) -> bool:
    return (not memory.tracer.enabled
            and not isinstance(memory.scheme, CounterPredictionScheme)
            and memory.config.encryption is not EncryptionMode.SHARES
            and memory.aes.copies == 1
            and memory.sha.copies == 1)


def _make_fast_engine(memory, l2_mirror: LeanCache,
                      cc_mirror: LeanCache | None, *, policy,
                      insns_base, cum_cycles, cum_insns,
                      mshrs: int, rob_insns: int) -> _FastEngine:
    """Build drain loops specialized to one configuration.

    Mirrors :class:`TimingSecureMemory` float-op for float-op, but keeps
    every hot mutable scalar (bus free slot, engine issue slots,
    statistics, histogram summary) in closure cells instead of object
    attributes.  ``reload()`` snapshots the real objects into the cells
    and ``sync()`` writes them back; the drains bracket themselves with
    the pair, and delegations to real methods (page re-encryption) are
    bracketed the same way mid-flight, so interleaving stays consistent
    — including the ``_fill_node`` → ``write_back`` recursion, which
    runs entirely inside the closure sharing the same cells.
    """
    config = memory.config
    bus = memory.bus
    bus_stats = bus.stats
    mem_stats = memory.stats
    pads_stats = mem_stats.pads
    reenc_stats = mem_stats.reencryption
    hist = memory._lat_hist
    _bisect = bisect_left

    BS = memory.block_size
    OCC = bus.transfer_cycles(BS)
    MEM = memory.mem_latency
    CH = memory._chunks

    aes = memory.aes
    aes_next = aes._next_issue
    aes_stats = aes.stats
    AES_LAT = aes.latency
    AES_INT = aes.initiation_interval
    PADS_K = (CH - 1) * AES_INT
    sha = memory.sha
    sha_next = sha._next_issue
    sha_stats = sha.stats
    SHA_LAT = sha.latency
    SHA_INT = sha.initiation_interval
    GH_PB = CH * memory.ghash.cycles_per_chunk
    GH_XOR = memory.ghash.final_xor_cycles

    mode = config.encryption
    IS_COUNTER = mode is EncryptionMode.COUNTER
    IS_NONE_MODE = mode is EncryptionMode.NONE
    PADS_ON_WRITE = IS_COUNTER or mode is EncryptionMode.DIRECT
    IS_GCM = config.auth is AuthMode.GCM
    PARALLEL = config.parallel_auth
    NODE_BASE = memory._node_region_base
    NUM_LEAVES = memory._num_data_leaves
    HAS_NODE = memory.node_cache is not None
    H_BOUNDS = hist.bounds
    _PAGE = OverflowAction.PAGE_REENCRYPTION
    _FULL = OverflowAction.FULL_REENCRYPTION

    scheme = memory.scheme
    HAS_SCHEME = scheme is not None
    if HAS_SCHEME:
        CBA = scheme.counter_block_address
        INC = scheme.increment
        # only schemes that can signal FULL_REENCRYPTION implement these
        RESET_ALL = getattr(scheme, "reset_all_counters", None)
        SET_COUNTER = getattr(scheme, "set_counter", None)
    page_reencrypt = memory._page_reencrypt_timing
    counter_inflight = memory._counter_inflight
    inflight_get = counter_inflight.get
    written_add = memory._written.add

    l2_sets = l2_mirror.sets
    l2_dirty = l2_mirror.dirty
    l2_stats = l2_mirror.stats
    L2_SHIFT = l2_mirror._shift
    L2_MASK = l2_mirror._mask
    L2_ASSOC = l2_mirror.assoc

    HAS_CC = cc_mirror is not None
    if HAS_CC:
        cc_sets = cc_mirror.sets
        cc_dirty = cc_mirror.dirty
        cc_stats = cc_mirror.stats
        CC_SHIFT = cc_mirror._shift
        CC_MASK = cc_mirror._mask
        CC_ASSOC = cc_mirror.assoc
        CC_BS = memory.counter_cache.block_size
        AUTH_CTRS = HAS_NODE and config.authenticate_counters
    else:
        AUTH_CTRS = False

    if HAS_NODE:
        geometry = memory.geometry
        ARITY = geometry.arity
        DEPTH = geometry.depth
        LEVEL_BASE = [0] * (DEPTH + 1)
        for level in range(1, DEPTH + 1):
            LEVEL_BASE[level] = (NODE_BASE
                                 + geometry.level_offset_blocks(level) * BS)

    # 0 = lazy, 1 = commit, 2 = safe
    POL = (0 if policy is AuthPolicy.LAZY
           else 1 if policy is AuthPolicy.COMMIT else 2)
    HIDE = COMMIT_HIDE_CYCLES
    MSHRS = mshrs
    ROB = rob_insns
    INSNS_BASE = insns_base
    CCL = cum_cycles
    CIL = cum_insns

    # counter_block_address is pure address arithmetic for every
    # registered scheme, so its (index, counter_address) pair is memoized
    # per block address for the lifetime of one engine (= one run).
    cba_memo: dict[int, tuple[int, int]] = {}
    cba_get = cba_memo.get

    # -- closure cells: every hot mutable scalar -------------------------
    bus_free = 0.0
    bus_tx = 0
    bus_by = 0
    bus_busy = 0.0
    bus_q = 0.0
    aes_busy = 0.0
    aes_ops = 0
    aes_stall = 0.0
    sha_busy = 0.0
    sha_ops = 0
    sha_stall = 0.0
    m_reads = 0
    m_writes = 0
    m_cfetch = 0
    m_cwb = 0
    m_half = 0
    p_req = 0
    p_timely = 0
    full_re = 0
    h_count = 0
    h_total = 0.0
    h_min = 0.0
    h_max = 0.0
    h_buckets: list[int] = hist.buckets
    l2_h = 0
    l2_m = 0
    l2_w = 0
    cc_h = 0
    cc_m = 0
    cc_w = 0

    def reload():
        nonlocal bus_free, bus_tx, bus_by, bus_busy, bus_q
        nonlocal aes_busy, aes_ops, aes_stall, sha_busy, sha_ops, sha_stall
        nonlocal m_reads, m_writes, m_cfetch, m_cwb, m_half
        nonlocal p_req, p_timely, full_re
        nonlocal h_count, h_total, h_min, h_max, h_buckets
        nonlocal l2_h, l2_m, l2_w, cc_h, cc_m, cc_w
        bus_free = bus._free_at
        bus_tx = bus_stats.transactions
        bus_by = bus_stats.bytes_moved
        bus_busy = bus_stats.busy_cycles
        bus_q = bus_stats.queue_cycles
        aes_busy = aes_next[0]
        aes_ops = aes_stats.operations
        aes_stall = aes_stats.stall_cycles
        sha_busy = sha_next[0]
        sha_ops = sha_stats.operations
        sha_stall = sha_stats.stall_cycles
        m_reads = mem_stats.reads
        m_writes = mem_stats.writes
        m_cfetch = mem_stats.counter_fetches
        m_cwb = mem_stats.counter_writebacks
        m_half = mem_stats.counter_half_misses
        p_req = pads_stats.pad_requests
        p_timely = pads_stats.timely_pads
        full_re = reenc_stats.full_reencryptions
        h_count = hist.count
        h_total = hist.total
        h_min = hist.min
        h_max = hist.max
        h_buckets = hist.buckets  # reset() rebinds the list
        l2_h = l2_stats.hits
        l2_m = l2_stats.misses
        l2_w = l2_stats.writebacks
        if HAS_CC:
            cc_h = cc_stats.hits
            cc_m = cc_stats.misses
            cc_w = cc_stats.writebacks

    def sync():
        bus._free_at = bus_free
        bus_stats.transactions = bus_tx
        bus_stats.bytes_moved = bus_by
        bus_stats.busy_cycles = bus_busy
        bus_stats.queue_cycles = bus_q
        aes_next[0] = aes_busy
        aes_stats.operations = aes_ops
        aes_stats.stall_cycles = aes_stall
        sha_next[0] = sha_busy
        sha_stats.operations = sha_ops
        sha_stats.stall_cycles = sha_stall
        mem_stats.reads = m_reads
        mem_stats.writes = m_writes
        mem_stats.counter_fetches = m_cfetch
        mem_stats.counter_writebacks = m_cwb
        mem_stats.counter_half_misses = m_half
        pads_stats.pad_requests = p_req
        pads_stats.timely_pads = p_timely
        reenc_stats.full_reencryptions = full_re
        hist.count = h_count
        hist.total = h_total
        hist.min = h_min
        hist.max = h_max
        l2_stats.hits = l2_h
        l2_stats.misses = l2_m
        l2_stats.writebacks = l2_w
        if HAS_CC:
            cc_stats.hits = cc_h
            cc_stats.misses = cc_m
            cc_stats.writebacks = cc_w

    # -- primitive mirrors (exact float expressions of the scalar code) --

    def bus_read(now):
        # MemoryBus.schedule + the _bus_read memory-latency add
        nonlocal bus_free, bus_tx, bus_by, bus_busy, bus_q
        start = bus_free if bus_free > now else now
        end = start + OCC
        bus_free = end
        bus_tx += 1
        bus_by += BS
        bus_busy += OCC
        bus_q += start - now
        return end + MEM

    def bus_write(now):
        nonlocal bus_free, bus_tx, bus_by, bus_busy, bus_q
        start = bus_free if bus_free > now else now
        bus_free = start + OCC
        bus_tx += 1
        bus_by += BS
        bus_busy += OCC
        bus_q += start - now

    def aes_request(now):
        # PipelinedEngine.request for a single-copy engine
        nonlocal aes_busy, aes_ops, aes_stall
        start = aes_busy if aes_busy > now else now
        aes_busy = start + AES_INT
        aes_ops += 1
        aes_stall += start - now
        return start + AES_LAT

    def sha_request(now):
        nonlocal sha_busy, sha_ops, sha_stall
        start = sha_busy if sha_busy > now else now
        sha_busy = start + SHA_INT
        sha_ops += 1
        sha_stall += start - now
        return start + SHA_LAT

    if CH == 4:
        def aes_pads(now, earliest_start):
            # TimingSecureMemory._aes_pads, unrolled for the ubiquitous
            # 64B-block / 16B-chunk geometry.  Each stall contribution is
            # added to the accumulator separately, preserving the scalar
            # loop's left-associated float summation bit-for-bit.
            nonlocal aes_busy, aes_ops, aes_stall
            busy = aes_busy
            start = busy if busy > now else now
            busy = start + AES_INT
            aes_stall += start - now
            start = busy if busy > now else now
            busy = start + AES_INT
            aes_stall += start - now
            start = busy if busy > now else now
            busy = start + AES_INT
            aes_stall += start - now
            start = busy if busy > now else now
            busy = start + AES_INT
            aes_stall += start - now
            aes_busy = busy
            aes_ops += 4
            done = start + AES_LAT
            floor = (earliest_start + AES_LAT) + PADS_K
            return done if done > floor else floor
    else:
        def aes_pads(now, earliest_start):
            # TimingSecureMemory._aes_pads: request_many + batch_latency
            nonlocal aes_busy, aes_ops, aes_stall
            done = now
            busy = aes_busy
            for _ in range(CH):
                start = busy if busy > now else now
                busy = start + AES_INT
                aes_stall += start - now
                done = start + AES_LAT
            aes_busy = busy
            aes_ops += CH
            floor = (earliest_start + AES_LAT) + PADS_K
            return done if done > floor else floor

    def leaf_mac(fetch_issue, arrive, counter_ready):
        # TimingSecureMemory._leaf_mac_done (recording off)
        if IS_GCM:
            engine_done = aes_request(fetch_issue)
            floor = counter_ready + AES_LAT
            pad_ready = engine_done if engine_done > floor else floor
            ghash_done = arrive + GH_PB
            tail = ghash_done if ghash_done > pad_ready else pad_ready
            return tail + GH_XOR
        engine_done = sha_request(fetch_issue)
        floor = arrive + SHA_LAT
        return engine_done if engine_done > floor else floor

    def update_parent(now):
        # one MAC computation; the GHASH chain is stateless and its
        # completion time is discarded, so only the engine-slot
        # reservation is performed
        if IS_GCM:
            nonlocal aes_busy, aes_ops, aes_stall
            start = aes_busy if aes_busy > now else now
            aes_busy = start + AES_INT
            aes_ops += 1
            aes_stall += start - now
        else:
            nonlocal sha_busy, sha_ops, sha_stall
            start = sha_busy if sha_busy > now else now
            sha_busy = start + SHA_INT
            sha_ops += 1
            sha_stall += start - now

    def fill_node(node_address, now):
        # TimingSecureMemory._fill_node on the node cache (== the L2)
        nonlocal l2_w
        lines = l2_sets[(node_address >> L2_SHIFT) & L2_MASK]
        if node_address in lines:  # refill of a resident node: refresh
            j = lines.index(node_address)
            if j:
                lines.insert(0, lines.pop(j))
            return
        victim = None
        if len(lines) >= L2_ASSOC:
            v = lines.pop()
            if v in l2_dirty:
                l2_w += 1
                l2_dirty.discard(v)
                victim = v
        lines.insert(0, node_address)
        if victim is not None:
            if victim >= NODE_BASE:
                bus_write(now)
                update_parent(now)
            else:
                write_back(now, victim)

    def node_access_w(node_address):
        # node_cache.access(node_address, write=True), generic accounting
        nonlocal l2_h, l2_m
        lines = l2_sets[(node_address >> L2_SHIFT) & L2_MASK]
        if node_address in lines:
            j = lines.index(node_address)
            if j:
                lines.insert(0, lines.pop(j))
            l2_dirty.add(node_address)
            l2_h += 1
            return True
        l2_m += 1
        return False

    def update_leaf(now, leaf_index):
        # TimingSecureMemory._update_leaf
        node_address = LEVEL_BASE[1] + (leaf_index // ARITY) * BS
        if not node_access_w(node_address):
            bus_read(now)
            fill_node(node_address, now)
            node_access_w(node_address)
        update_parent(now)

    def verify_chain(now, leaf_index, data_arrive, counter_ready):
        # TimingSecureMemory._verify_chain (recording off)
        nonlocal l2_h, l2_m
        nonlocal aes_busy, aes_ops, aes_stall, sha_busy, sha_ops, sha_stall
        missing = None
        level = 1
        index = leaf_index // ARITY
        while level <= DEPTH:
            node_address = LEVEL_BASE[level] + index * BS
            lines = l2_sets[(node_address >> L2_SHIFT) & L2_MASK]
            if node_address in lines:
                j = lines.index(node_address)
                if j:
                    lines.insert(0, lines.pop(j))
                l2_h += 1
                break
            l2_m += 1
            if missing is None:
                missing = [node_address]
            else:
                missing.append(node_address)
            level += 1
            index //= ARITY

        # leaf_mac(now, data_arrive, counter_ready), inlined
        if IS_GCM:
            start = aes_busy if aes_busy > now else now
            aes_busy = start + AES_INT
            aes_ops += 1
            aes_stall += start - now
            engine_done = start + AES_LAT
            floor = counter_ready + AES_LAT
            pad_ready = engine_done if engine_done > floor else floor
            ghash_done = data_arrive + GH_PB
            tail = ghash_done if ghash_done > pad_ready else pad_ready
            leaf_done = tail + GH_XOR
        else:
            start = sha_busy if sha_busy > now else now
            sha_busy = start + SHA_INT
            sha_ops += 1
            sha_stall += start - now
            engine_done = start + SHA_LAT
            floor = data_arrive + SHA_LAT
            leaf_done = engine_done if engine_done > floor else floor
        if missing is None:
            return leaf_done
        if PARALLEL:
            auth_done = leaf_done
            for node_address in missing:
                arrive = bus_read(now)
                done = leaf_mac(now, arrive, now)
                if done > auth_done:
                    auth_done = done
                fill_node(node_address, now)
            return auth_done
        t = now
        for node_address in reversed(missing):
            arrive = bus_read(t)
            t = leaf_mac(t, arrive, t)
            fill_node(node_address, t)
        return leaf_done if leaf_done > t else t

    def resolve_miss(now, index, caddr, lines):
        # counter-cache miss remainder of _resolve_counter (plus
        # _write_back_counter_block for a dirty victim)
        nonlocal cc_m, cc_w, m_cfetch, m_cwb, m_half
        nonlocal bus_free, bus_tx, bus_by, bus_busy, bus_q
        cc_m += 1
        inflight = inflight_get(index)
        if inflight is not None and inflight > now:
            m_half += 1
            return inflight
        m_cfetch += 1
        start = bus_free if bus_free > now else now
        end = start + OCC
        bus_free = end
        bus_tx += 1
        bus_by += BS
        bus_busy += OCC
        bus_q += start - now
        arrive = end + MEM
        counter_inflight[index] = arrive
        victim = None
        if len(lines) >= CC_ASSOC:
            v = lines.pop()
            if v in cc_dirty:
                cc_w += 1
                cc_dirty.discard(v)
                victim = v
        lines.insert(0, caddr)
        if victim is not None:
            m_cwb += 1
            bus_write(now)
            if AUTH_CTRS:
                update_parent(now)
        if AUTH_CTRS:
            verify_chain(now, NUM_LEAVES + index, arrive, now)
        return arrive

    def resolve_counter(now, address, for_write):
        # TimingSecureMemory._resolve_counter
        nonlocal cc_h, m_half
        e = cba_get(address)
        if e is None:
            index = CBA(address)
            e = (index, index * CC_BS)
            cba_memo[address] = e
        index, caddr = e
        lines = cc_sets[(caddr >> CC_SHIFT) & CC_MASK]
        if caddr in lines:
            j = lines.index(caddr)
            if j:
                lines.insert(0, lines.pop(j))
            if for_write:
                cc_dirty.add(caddr)
            cc_h += 1
            inflight = inflight_get(index)
            if inflight is not None and inflight > now:
                m_half += 1
                return inflight
            return now
        return resolve_miss(now, index, caddr, lines)

    def write_back(now, address):
        # TimingSecureMemory.write_back (no pred/shares)
        nonlocal m_writes, full_re
        if address >= NODE_BASE:
            bus_write(now)
            update_parent(now)
            return now
        m_writes += 1
        stall_until = now
        counter_ready = now
        if HAS_SCHEME:
            if HAS_CC:
                counter_ready = resolve_counter(now, address, True)
                caddr = cba_memo[address][1]
                if caddr in cc_sets[(caddr >> CC_SHIFT) & CC_MASK]:
                    cc_dirty.add(caddr)
            result = INC(address)
            action = result.action
            if action is _PAGE:
                floor = now if now > counter_ready else counter_ready
                sync()
                stall_until = page_reencrypt(floor, result.page_address,
                                             address)
                reload()
            elif action is _FULL:
                full_re += 1
                RESET_ALL()
                SET_COUNTER(address, 1)
        if PADS_ON_WRITE:
            floor = (counter_ready if counter_ready > stall_until
                     else stall_until)
            aes_pads(now, floor)
        bus_write(now)
        written_add(address)
        if HAS_NODE:
            update_leaf(now, address // BS)
        return stall_until

    # -- the serial drains ------------------------------------------------

    def drain_live(segment, cycle_base, writebacks, outstanding):
        """Phase C over B1 events, with the L2 live (inline LeanCache).

        The whole ``read_miss`` body is inlined into the loop — on the
        authenticated configurations this is the hottest code in the
        engine, and the call/tuple-return overhead is measurable.
        """
        nonlocal l2_h, l2_m, l2_w
        nonlocal m_reads, p_req, p_timely
        nonlocal h_count, h_total, h_min, h_max
        nonlocal cc_h, m_half
        nonlocal bus_free, bus_tx, bus_by, bus_busy, bus_q
        reload()
        popleft = outstanding.popleft
        append = outstanding.append
        for i, block, is_write, l1_victim in segment:
            if l1_victim is not None:
                # L1 write-back lands in the L2 (on-chip, no bus traffic)
                lines = l2_sets[(l1_victim >> L2_SHIFT) & L2_MASK]
                if l1_victim in lines:
                    j = lines.index(l1_victim)
                    if j:
                        lines.insert(0, lines.pop(j))
                    l2_dirty.add(l1_victim)
                    l2_h += 1
                else:
                    l2_m += 1
            lines = l2_sets[(block >> L2_SHIFT) & L2_MASK]
            if block in lines:
                j = lines.index(block)
                if j:
                    lines.insert(0, lines.pop(j))
                l2_h += 1
                continue
            l2_m += 1

            cycle = cycle_base + CCL[i + 1]
            insns = INSNS_BASE + CIL[i + 1]
            while outstanding and outstanding[0][0] <= cycle:
                popleft()
            while outstanding and (
                len(outstanding) >= MSHRS
                or insns - outstanding[0][1] >= ROB
            ):
                head = outstanding[0][0]
                if head > cycle:
                    cycle = head
                popleft()

            # read_miss, inlined
            m_reads += 1
            if HAS_CC:
                e = cba_get(block)
                if e is None:
                    index = CBA(block)
                    e = (index, index * CC_BS)
                    cba_memo[block] = e
                index, caddr = e
                clines = cc_sets[(caddr >> CC_SHIFT) & CC_MASK]
                if caddr in clines:
                    j = clines.index(caddr)
                    if j:
                        clines.insert(0, clines.pop(j))
                    cc_h += 1
                    inflight = inflight_get(index)
                    if inflight is not None and inflight > cycle:
                        m_half += 1
                        counter_ready = inflight
                    else:
                        counter_ready = cycle
                else:
                    counter_ready = resolve_miss(cycle, index, caddr,
                                                 clines)
            else:
                counter_ready = cycle
            if IS_COUNTER:
                pad_done = aes_pads(cycle, counter_ready)
                start = bus_free if bus_free > cycle else cycle
                end = start + OCC
                bus_free = end
                bus_tx += 1
                bus_by += BS
                bus_busy += OCC
                bus_q += start - cycle
                arrive = end + MEM
                p_req += 1
                if pad_done <= arrive:
                    p_timely += 1
                data_ready = (arrive if arrive > pad_done else pad_done) \
                    + 1
            elif IS_NONE_MODE:
                start = bus_free if bus_free > cycle else cycle
                end = start + OCC
                bus_free = end
                bus_tx += 1
                bus_by += BS
                bus_busy += OCC
                bus_q += start - cycle
                arrive = end + MEM
                data_ready = arrive
            else:  # DIRECT
                start = bus_free if bus_free > cycle else cycle
                end = start + OCC
                bus_free = end
                bus_tx += 1
                bus_by += BS
                bus_busy += OCC
                bus_q += start - cycle
                arrive = end + MEM
                data_ready = aes_pads(cycle, arrive)
            auth_done = data_ready
            if HAS_NODE:
                chain_done = verify_chain(cycle, block // BS, arrive,
                                          counter_ready)
                if chain_done > data_ready:
                    auth_done = chain_done
            value = auth_done - cycle
            h_count += 1
            h_total += value
            if value < h_min:
                h_min = value
            if value > h_max:
                h_max = value
            h_buckets[_bisect(H_BOUNDS, value)] += 1

            # L2 fill; verify_chain may have mutated this set's list,
            # but only with node addresses, so the block stays absent
            victim = None
            if len(lines) >= L2_ASSOC:
                v = lines.pop()
                if v in l2_dirty:
                    l2_w += 1
                    l2_dirty.discard(v)
                    victim = v
            lines.insert(0, block)
            if is_write:
                l2_dirty.add(block)
            if victim is not None:
                writebacks += 1
                stall = write_back(cycle, victim)
                if stall > cycle:
                    cycle = stall
            cycle_base = cycle - CCL[i + 1]

            if is_write:
                continue
            # exposed_auth_latency, inlined with the same arithmetic
            if auth_done <= data_ready or POL == 0:
                completion = data_ready + 0.0
            elif POL == 1:
                gap = auth_done - data_ready - HIDE
                completion = data_ready + (gap if gap > 0.0 else 0.0)
            else:
                completion = data_ready + (auth_done - data_ready)
            append((completion, insns))
        sync()
        return cycle_base, writebacks

    def drain_pre(segment, cycle_base, writebacks, outstanding):
        """Phase C over precomputed L2 events (phase-B2 configurations).

        Callers guarantee there is no Merkle node cache (phase B2 is only
        valid then), so ``read_miss`` specializes to counter resolution,
        pad generation, and the bus read — inlined here wholesale.  With
        no authentication, ``auth_done == data_ready`` and the exposed
        latency collapses to ``data_ready + 0.0`` under every policy.
        """
        nonlocal m_reads, p_req, p_timely
        nonlocal h_count, h_total, h_min, h_max
        nonlocal cc_h, m_half
        nonlocal bus_free, bus_tx, bus_by, bus_busy, bus_q
        reload()
        popleft = outstanding.popleft
        append = outstanding.append
        for i, block, is_write, dirty_victim in segment:
            cycle = cycle_base + CCL[i + 1]
            insns = INSNS_BASE + CIL[i + 1]
            while outstanding and outstanding[0][0] <= cycle:
                popleft()
            while outstanding and (
                len(outstanding) >= MSHRS
                or insns - outstanding[0][1] >= ROB
            ):
                head = outstanding[0][0]
                if head > cycle:
                    cycle = head
                popleft()

            # read_miss, no-node specialization, inlined
            m_reads += 1
            if HAS_CC:
                e = cba_get(block)
                if e is None:
                    index = CBA(block)
                    e = (index, index * CC_BS)
                    cba_memo[block] = e
                index, caddr = e
                lines = cc_sets[(caddr >> CC_SHIFT) & CC_MASK]
                if caddr in lines:
                    j = lines.index(caddr)
                    if j:
                        lines.insert(0, lines.pop(j))
                    cc_h += 1
                    inflight = inflight_get(index)
                    if inflight is not None and inflight > cycle:
                        m_half += 1
                        counter_ready = inflight
                    else:
                        counter_ready = cycle
                else:
                    counter_ready = resolve_miss(cycle, index, caddr,
                                                 lines)
            else:
                counter_ready = cycle
            if IS_COUNTER:
                pad_done = aes_pads(cycle, counter_ready)
                start = bus_free if bus_free > cycle else cycle
                end = start + OCC
                bus_free = end
                bus_tx += 1
                bus_by += BS
                bus_busy += OCC
                bus_q += start - cycle
                arrive = end + MEM
                p_req += 1
                if pad_done <= arrive:
                    p_timely += 1
                data_ready = (arrive if arrive > pad_done else pad_done) \
                    + 1
            elif IS_NONE_MODE:
                start = bus_free if bus_free > cycle else cycle
                end = start + OCC
                bus_free = end
                bus_tx += 1
                bus_by += BS
                bus_busy += OCC
                bus_q += start - cycle
                data_ready = end + MEM
            else:  # DIRECT
                start = bus_free if bus_free > cycle else cycle
                end = start + OCC
                bus_free = end
                bus_tx += 1
                bus_by += BS
                bus_busy += OCC
                bus_q += start - cycle
                data_ready = aes_pads(cycle, end + MEM)
            value = data_ready - cycle
            h_count += 1
            h_total += value
            if value < h_min:
                h_min = value
            if value > h_max:
                h_max = value
            h_buckets[_bisect(H_BOUNDS, value)] += 1

            if dirty_victim is not None:
                writebacks += 1
                stall = write_back(cycle, dirty_victim)
                if stall > cycle:
                    cycle = stall
            cycle_base = cycle - CCL[i + 1]

            if is_write:
                continue
            append((data_ready + 0.0, insns))
        sync()
        return cycle_base, writebacks

    def drain_pre_dirty(segment, cycle_base, writebacks, outstanding,
                        resident, live_dirty):
        """Phase C over placement-preclassified L2 events (phase B2p).

        Same inlined no-node miss path as :func:`drain_pre`, but the
        dirty bits stay live: each event applies the gap's L1-victim
        dirty marks first, then decides whether the precomputed victim
        actually needs a write-back.  ``resident``/``live_dirty`` back
        the :class:`_L2ResidencyShim` installed as ``memory.l2``, so a
        split-counter page re-encryption probes exact current state.
        """
        nonlocal m_reads, p_req, p_timely
        nonlocal h_count, h_total, h_min, h_max
        nonlocal cc_h, m_half, l2_w
        nonlocal bus_free, bus_tx, bus_by, bus_busy, bus_q
        reload()
        popleft = outstanding.popleft
        append = outstanding.append
        resident_discard = resident.discard
        resident_add = resident.add
        dirty_add = live_dirty.add
        dirty_discard = live_dirty.discard
        for i, block, is_write, victim, adds in segment:
            if adds:
                for address in adds:
                    dirty_add(address)
            cycle = cycle_base + CCL[i + 1]
            insns = INSNS_BASE + CIL[i + 1]
            while outstanding and outstanding[0][0] <= cycle:
                popleft()
            while outstanding and (
                len(outstanding) >= MSHRS
                or insns - outstanding[0][1] >= ROB
            ):
                head = outstanding[0][0]
                if head > cycle:
                    cycle = head
                popleft()

            # read_miss, no-node specialization, inlined
            m_reads += 1
            if HAS_CC:
                e = cba_get(block)
                if e is None:
                    index = CBA(block)
                    e = (index, index * CC_BS)
                    cba_memo[block] = e
                index, caddr = e
                lines = cc_sets[(caddr >> CC_SHIFT) & CC_MASK]
                if caddr in lines:
                    j = lines.index(caddr)
                    if j:
                        lines.insert(0, lines.pop(j))
                    cc_h += 1
                    inflight = inflight_get(index)
                    if inflight is not None and inflight > cycle:
                        m_half += 1
                        counter_ready = inflight
                    else:
                        counter_ready = cycle
                else:
                    counter_ready = resolve_miss(cycle, index, caddr,
                                                 lines)
            else:
                counter_ready = cycle
            if IS_COUNTER:
                pad_done = aes_pads(cycle, counter_ready)
                start = bus_free if bus_free > cycle else cycle
                end = start + OCC
                bus_free = end
                bus_tx += 1
                bus_by += BS
                bus_busy += OCC
                bus_q += start - cycle
                arrive = end + MEM
                p_req += 1
                if pad_done <= arrive:
                    p_timely += 1
                data_ready = (arrive if arrive > pad_done else pad_done) \
                    + 1
            elif IS_NONE_MODE:
                start = bus_free if bus_free > cycle else cycle
                end = start + OCC
                bus_free = end
                bus_tx += 1
                bus_by += BS
                bus_busy += OCC
                bus_q += start - cycle
                data_ready = end + MEM
            else:  # DIRECT
                start = bus_free if bus_free > cycle else cycle
                end = start + OCC
                bus_free = end
                bus_tx += 1
                bus_by += BS
                bus_busy += OCC
                bus_q += start - cycle
                data_ready = aes_pads(cycle, end + MEM)
            value = data_ready - cycle
            h_count += 1
            h_total += value
            if value < h_min:
                h_min = value
            if value > h_max:
                h_max = value
            h_buckets[_bisect(H_BOUNDS, value)] += 1

            dirty_victim = None
            if victim is not None:
                resident_discard(victim)
                if victim in live_dirty:
                    l2_w += 1
                    dirty_discard(victim)
                    dirty_victim = victim
            resident_add(block)
            if is_write:
                dirty_add(block)
            if dirty_victim is not None:
                writebacks += 1
                stall = write_back(cycle, dirty_victim)
                if stall > cycle:
                    cycle = stall
            cycle_base = cycle - CCL[i + 1]

            if is_write:
                continue
            append((data_ready + 0.0, insns))
        sync()
        return cycle_base, writebacks

    engine = _FastEngine()
    engine.drain_live = drain_live
    engine.drain_pre = drain_pre
    engine.drain_pre_dirty = drain_pre_dirty
    engine.sync = sync
    engine.reload = reload
    return engine


# -- the batched run ----------------------------------------------------------


def run_batched(processor, trace, warmup_refs: int = 0, *,
                resume=None, checkpoint_every=None, on_checkpoint=None):
    """Event-batch execution of :meth:`Processor.run` (same contract).

    See the module docstring for the phase structure.  Called by
    ``Processor.run`` when ``config.sim_engine`` resolves to
    ``"batched"``; produces bit-identical results, statistics, and
    checkpoints to the scalar oracle.
    """
    from repro.sim.processor import LoopState, SimResult

    config = processor.config
    memory = processor.memory
    real_l1 = processor.l1
    real_l2 = processor.l2
    policy = config.auth_policy
    cpi = 1.0 / processor.issue_width
    mshrs = processor.mshrs
    rob_insns = processor.rob_insns
    block_size = config.block_size
    n = len(trace)

    cum_cycles = trace.cum_cycles(cpi)
    cum_insns = trace.cum_insns

    state = resume if resume is not None else LoopState()
    start = state.next_ref
    if state.cycle_base is not None:
        cycle_base = state.cycle_base
    else:
        cycle_base = state.cycle - cum_cycles[start]
    insns_base = state.insns - cum_insns[start]
    writebacks = state.writebacks
    cycle0 = state.cycle0
    insns0 = state.insns0
    outstanding: deque[tuple[float, int]] = deque(
        (entry[0], entry[1]) for entry in state.outstanding)

    # phase A: vectorized trace views (the per-reference Python lists are
    # materialized only when a live L1 replay actually needs them)
    blocks_arr = trace.block_ids(block_size)
    writes_arr = trace.arrays()["write"]

    # Segment boundaries: phase B may not classify past a point where the
    # scalar loop observes L1 state or statistics — the warmup reset and
    # every checkpoint callback.
    boundaries = {start, n}
    if warmup_refs and start <= warmup_refs < n:
        boundaries.add(warmup_refs)
    checkpointing = bool(checkpoint_every) and on_checkpoint is not None
    if checkpointing:
        first = ((start // checkpoint_every) + 1) * checkpoint_every
        boundaries.update(range(max(first, checkpoint_every), n,
                                checkpoint_every))
    bounds = sorted(boundaries)

    # Whole-trace cached classification applies only to the common case:
    # from-reset run, empty caches, no checkpoint observation points.
    use_cached = (start == 0 and not checkpointing
                  and real_l1.occupancy() == 0)
    node_is_l2 = memory.node_cache is memory.l2 and memory.l2 is real_l2
    fast_ok = (_fast_eligible(memory)
               and (memory.node_cache is None or node_is_l2))
    cached = None
    cached_l2 = None
    cached_l2p = None
    if use_cached:
        cached = _classified_events(trace, real_l1, blocks_arr, writes_arr)
        if real_l2.occupancy() == 0 and memory.node_cache is None:
            l1_key = (real_l1.size_bytes, real_l1.assoc, real_l1.block_size)
            if _l2_preclass_ok(memory):
                cached_l2 = _l2_classified_events(trace, l1_key, real_l2,
                                                  cached)
            elif fast_ok:
                # split-counter scheme: placement is still precomputable,
                # dirty bits stay live (phase B2p)
                cached_l2p = _l2_placement_events(trace, l1_key, real_l2,
                                                  cached)
    blocks = block_set = writes = None
    if cached is None:
        blocks = blocks_arr.tolist()
        block_set = ((blocks_arr >> (block_size.bit_length() - 1))
                     & np.int64(real_l1.num_sets - 1)).tolist()
        writes = trace.writes

    # Install mirrors over every structural cache the run touches.
    l1_mirror = LeanCache(real_l1)
    l2_mirror = LeanCache(real_l2)
    cc_mirror = None
    counter_cache = memory.counter_cache
    real_cc_inner = None
    processor.l1 = l1_mirror
    processor.l2 = l2_mirror
    memory.l2 = l2_mirror
    if memory.node_cache is not None and node_is_l2:
        memory.node_cache = l2_mirror
    if counter_cache is not None:
        real_cc_inner = counter_cache.cache
        cc_mirror = LeanCache(real_cc_inner)
        counter_cache.cache = cc_mirror
    shim = None
    if cached_l2p is not None:
        shim = _L2ResidencyShim()
        memory.l2 = shim

    fast = None
    if fast_ok:
        fast = _make_fast_engine(
            memory, l2_mirror, cc_mirror, policy=policy,
            insns_base=insns_base, cum_cycles=cum_cycles,
            cum_insns=cum_insns, mshrs=mshrs, rob_insns=rob_insns)

    try:
        for a, b in zip(bounds, bounds[1:]):
            if (checkpointing and a and a != start
                    and a % checkpoint_every == 0):
                on_checkpoint(LoopState(
                    cycle=cycle_base + cum_cycles[a],
                    insns=insns_base + cum_insns[a],
                    writebacks=writebacks,
                    cycle0=cycle0, insns0=insns0, next_ref=a,
                    outstanding=[list(entry) for entry in outstanding],
                    cycle_base=cycle_base))
            if a == warmup_refs and warmup_refs:
                cycle0 = cycle_base + cum_cycles[a]
                insns0 = insns_base + cum_insns[a]
                writebacks = 0
                processor.metrics.reset()
                memory.tracer.clear()

            # phase B: the segment's event stream + bulk statistics
            if cached is not None:
                events, event_refs, event_wbs, _, _ = cached
                lo = int(np.searchsorted(event_refs, a, side="left"))
                hi = int(np.searchsorted(event_refs, b, side="left"))
                misses = hi - lo
                stats = l1_mirror.stats
                stats.hits += (b - a) - misses
                stats.misses += misses
                stats.writebacks += int(
                    (event_wbs[hi - 1] if hi else 0)
                    - (event_wbs[lo - 1] if lo else 0))
                if cached_l2 is not None:
                    (l2_events, l2ev_refs, cum_h, cum_m, cum_w,
                     _, _) = cached_l2
                    l2stats = l2_mirror.stats
                    l2stats.hits += int(cum_h[hi] - cum_h[lo])
                    l2stats.misses += int(cum_m[hi] - cum_m[lo])
                    l2stats.writebacks += int(cum_w[hi] - cum_w[lo])
                    lo2 = int(np.searchsorted(l2ev_refs, a, side="left"))
                    hi2 = int(np.searchsorted(l2ev_refs, b, side="left"))
                    segment = l2_events[lo2:hi2]
                elif cached_l2p is not None:
                    # placement-only: hits/misses are precomputed, the
                    # write-backs accumulate live in the drain
                    (p_events, pev_refs, pcum_h, pcum_m, _, _) = cached_l2p
                    l2stats = l2_mirror.stats
                    l2stats.hits += int(pcum_h[hi] - pcum_h[lo])
                    l2stats.misses += int(pcum_m[hi] - pcum_m[lo])
                    lo2 = int(np.searchsorted(pev_refs, a, side="left"))
                    hi2 = int(np.searchsorted(pev_refs, b, side="left"))
                    segment = p_events[lo2:hi2]
                else:
                    segment = events[lo:hi]
            else:
                positions, run_writes = _run_masks(blocks_arr, writes_arr,
                                                   a, b)
                segment = _l1_kernel(l1_mirror, blocks, block_set, writes,
                                     positions, run_writes, b - a)

            # phase C: serial replay
            if fast is not None:
                if cached_l2 is not None:
                    cycle_base, writebacks = fast.drain_pre(
                        segment, cycle_base, writebacks, outstanding)
                elif cached_l2p is not None:
                    cycle_base, writebacks = fast.drain_pre_dirty(
                        segment, cycle_base, writebacks, outstanding,
                        shim.resident, shim.dirty)
                else:
                    cycle_base, writebacks = fast.drain_live(
                        segment, cycle_base, writebacks, outstanding)
            elif cached_l2 is not None:
                # generic drain over precomputed L2 events; the memory
                # layer never touches the (idle) L2 mirror here
                for i, block, is_write, dirty_victim in segment:
                    cycle = cycle_base + cum_cycles[i + 1]
                    insns = insns_base + cum_insns[i + 1]
                    while outstanding and outstanding[0][0] <= cycle:
                        outstanding.popleft()
                    while outstanding and (
                        len(outstanding) >= mshrs
                        or insns - outstanding[0][1] >= rob_insns
                    ):
                        head = outstanding[0][0]
                        if head > cycle:
                            cycle = head
                        outstanding.popleft()

                    timing = memory.read_miss(cycle, block)
                    data_ready = timing.data_ready
                    auth_done = timing.auth_done
                    if dirty_victim is not None:
                        writebacks += 1
                        stall = memory.write_back(cycle, dirty_victim)
                        if stall > cycle:
                            cycle = stall
                    cycle_base = cycle - cum_cycles[i + 1]

                    if is_write:
                        continue
                    completion = data_ready + exposed_auth_latency(
                        policy, data_ready, auth_done)
                    outstanding.append((completion, insns))
            else:
                # generic drain over B1 events with the L2 mirror live
                l2_access = l2_mirror.access
                l2_fill = l2_mirror.fill
                for i, block, is_write, l1_victim in segment:
                    if l1_victim is not None:
                        l2_access(l1_victim, write=True)
                    if l2_access(block, write=False):
                        continue

                    cycle = cycle_base + cum_cycles[i + 1]
                    insns = insns_base + cum_insns[i + 1]
                    while outstanding and outstanding[0][0] <= cycle:
                        outstanding.popleft()
                    while outstanding and (
                        len(outstanding) >= mshrs
                        or insns - outstanding[0][1] >= rob_insns
                    ):
                        head = outstanding[0][0]
                        if head > cycle:
                            cycle = head
                        outstanding.popleft()

                    timing = memory.read_miss(cycle, block)
                    data_ready = timing.data_ready
                    auth_done = timing.auth_done
                    eviction = l2_fill(block, dirty=is_write)
                    if eviction is not None and eviction.dirty:
                        writebacks += 1
                        stall = memory.write_back(cycle, eviction.address)
                        if stall > cycle:
                            cycle = stall
                    cycle_base = cycle - cum_cycles[i + 1]

                    if is_write:
                        continue
                    completion = data_ready + exposed_auth_latency(
                        policy, data_ready, auth_done)
                    outstanding.append((completion, insns))
    finally:
        # Flush mirrored line state back and restore the real objects.
        if cached is not None:
            # l1_mirror was never advanced; the cached final state is the
            # truth (a cached run always covers [0, n)).  Copy, don't
            # alias — the cache entry must stay frozen.
            l1_mirror.sets = [list(lines) for lines in cached[3]]
            l1_mirror.dirty = set(cached[4])
        if cached_l2 is not None:
            l2_mirror.sets = [list(lines) for lines in cached_l2[5]]
            l2_mirror.dirty = set(cached_l2[6])
        elif cached_l2p is not None:
            # placement final state is precomputed; the dirty bits are
            # the drain's live set plus the marks trailing the last miss
            l2_mirror.sets = [list(lines) for lines in cached_l2p[4]]
            final_dirty = set(shim.dirty)
            final_dirty.update(cached_l2p[5])
            l2_mirror.dirty = final_dirty
        l1_mirror.flush_to(real_l1)
        l2_mirror.flush_to(real_l2)
        processor.l1 = real_l1
        processor.l2 = real_l2
        memory.l2 = real_l2
        if memory.node_cache is l2_mirror:
            memory.node_cache = real_l2
        if counter_cache is not None:
            cc_mirror.flush_to(real_cc_inner)
            counter_cache.cache = real_cc_inner

    cycle = cycle_base + cum_cycles[n]
    insns = insns_base + cum_insns[n]
    if outstanding:
        last = outstanding[-1][0]
        if last > cycle:
            cycle = last
    return SimResult(
        name=trace.name,
        instructions=insns - insns0,
        cycles=cycle - cycle0,
        l1_hits=real_l1.stats.hits,
        l1_misses=real_l1.stats.misses,
        l2_hits=real_l2.stats.hits,
        l2_misses=real_l2.stats.misses,
        writebacks=writebacks,
        memory=memory,
    )
