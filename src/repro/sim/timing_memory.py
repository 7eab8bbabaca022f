"""Timing twin of the secure memory system.

Where :class:`repro.core.secure_memory.SecureMemorySystem` computes *values*
(real AES, real MACs), this class computes *timestamps*: when decrypted
data is ready for the core and when its authentication completes, given the
section-5 machine — a 128-bit 600MHz bus under a 5GHz core, 200-cycle
uncontended memory, an 80-cycle 16-stage AES pipeline, a 320-cycle 32-stage
SHA-1 pipeline, a 32KB counter cache, and a Merkle tree sized for a 512MB
memory.

The structural state (counter values, counter-cache contents, Merkle node
cache, RSRs) is identical to the functional layer so hit rates, overflow
events, and re-encryption work match; only the crypto math is replaced by
engine latencies.  Timing paths implemented:

* counter resolution with hit / half-miss / miss (Figure 6's SNC bars),
* pad generation overlapped with the data fetch (timely-pad statistics),
* direct AES decryption serialized after data arrival (Figure 1a),
* counter prediction with N-deep pad precomputation (Figure 6),
* parallel or sequential Merkle-level fetch + verification (Figure 8),
* GCM tags (GHASH after arrival + overlapped pad) vs SHA-1 MACs
  (full engine latency after arrival) — Figures 7-10,
* RSR-managed page re-encryption overlapped with execution, with the two
  stall conditions of section 4.2, and instantaneous full-memory
  re-encryption for monolithic/global counters (the paper's Mono8b
  methodology).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.auth.codes import TreeGeometry, build_flat_geometry, build_geometry
from repro.core.config import (
    AuthMode,
    CounterOrg,
    EncryptionMode,
    IntegrityMode,
    SecureMemoryConfig,
)
from repro.core.rsr import RSRFile
from repro.core.stats import SecureMemoryStats
from repro.counters import make_counter_scheme
from repro.counters.base import OverflowAction
from repro.counters.counter_cache import CounterCache
from repro.counters.prediction import CounterPredictionScheme
from repro.counters.split import SplitCounterScheme
from repro.engines.aes_engine import AESEngine
from repro.engines.ghash_unit import GHASHUnit
from repro.engines.sha_engine import SHA1Engine
from repro.memory.bus import MemoryBus
from repro.memory.cache import Cache
from repro.obs.attribution import MissRecord, PathTime
from repro.obs.metrics import (
    MetricsRegistry,
    fields_state,
    load_fields_state,
)
from repro.obs.tracer import NULL_TRACER, Tracer

#: attribution labels for a Merkle-node transfer: queue, wire, and DRAM
#: time of a tree fetch all accrue to the tree-walk bucket
_TREE_LABELS = ("tree", "tree", "tree")


@dataclass
class MissTiming:
    """Timestamps of one L2 miss through the secure memory."""

    data_ready: float   # decrypted data available to the core
    auth_done: float    # authentication chain complete


class TimingSecureMemory:
    """Latency/occupancy model of the secure memory path below the L2."""

    def __init__(self, config: SecureMemoryConfig, l2: Cache | None = None,
                 bus: MemoryBus | None = None, tracer: Tracer | None = None):
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.block_size = config.block_size
        self._chunks = self.block_size // 16
        # An injected bus (e.g. repro.testing's AdversarialBus) lets a
        # harness observe or perturb the transaction stream deterministically.
        self.bus = bus if bus is not None else MemoryBus()
        self.mem_latency = config.memory_latency
        self.l2 = l2  # used by the RSR to find page blocks already on-chip

        self.aes = AESEngine(config.aes_latency, config.aes_stages,
                             config.aes_engines)
        self.sha = SHA1Engine(config.sha_latency, config.sha_stages)
        self.ghash = GHASHUnit()

        self.scheme = None
        self.counter_cache = None
        num_counter_blocks = 0
        if config.uses_counters:
            self.scheme = make_counter_scheme(config)
            per = self.scheme.data_blocks_per_counter_block
            num_data_blocks = config.memory_size // self.block_size
            num_counter_blocks = -(-num_data_blocks // per)
            if not isinstance(self.scheme, CounterPredictionScheme):
                self.counter_cache = CounterCache(
                    size_bytes=config.counter_cache_size,
                    assoc=config.counter_cache_assoc,
                    block_size=self.block_size,
                    region_base=config.memory_size,
                )

        # Secret-shared blocks fan one logical miss out to k share
        # transfers (and one write-back to n), each share being its own
        # tree leaf; non-shares configs collapse to k = n = 1.
        shares = config.encryption is EncryptionMode.SHARES
        self._shares_k = config.shares_k if shares else 1
        self._shares_n = config.shares_n if shares else 1
        self._num_data_leaves = (
            config.memory_size // self.block_size * self._shares_n
        )

        self.geometry: TreeGeometry | None = None
        self.node_cache: Cache | None = None
        self._node_region_base = (config.memory_size
                                  + num_counter_blocks * self.block_size)
        if config.auth is not AuthMode.NONE:
            num_leaves = self._num_data_leaves + num_counter_blocks
            # SecDDR keeps each level-1 group's MAC on chip: the flat
            # geometry makes the chain walk terminate after one level with
            # no root fetch, giving the O(1) verification the scheme buys.
            build = (build_flat_geometry
                     if config.resolved_integrity is IntegrityMode.SECDDR
                     else build_geometry)
            self.geometry = build(num_leaves, self.block_size,
                                  config.mac_bits)
            # Merkle code blocks are cached in the unified L2 alongside data
            # (the Gassend-et-al. arrangement the paper builds on); their
            # region starts above all data and counter addresses so they
            # never collide.  A dedicated cache is used only when no L2 is
            # wired in (unit tests of this class in isolation).
            if l2 is not None:
                self.node_cache = l2
            else:
                self.node_cache = Cache(config.node_cache_size,
                                        config.node_cache_assoc,
                                        self.block_size, name="merkle-nodes")

        blocks_per_page = (
            self.scheme.data_blocks_per_counter_block
            if isinstance(self.scheme, SplitCounterScheme) else 64
        )
        self.rsr_file = RSRFile(config.num_rsrs, blocks_per_page)

        self.stats = SecureMemoryStats()
        self._written: set[int] = set()          # blocks with DRAM ciphertext
        self._counter_inflight: dict[int, float] = {}
        self._num_data_blocks = config.memory_size // self.block_size

        # Unified metrics: every stats dataclass below the L2 registers
        # here, so ``metrics.snapshot()`` sees them all under dotted names
        # and ``metrics.reset()`` can never miss a newly added counter.
        self.metrics = MetricsRegistry()
        self.metrics.register("mem", self.stats)
        self.metrics.register("bus", self.bus.stats)
        self.metrics.register("aes", self.aes.stats)
        self.metrics.register("sha", self.sha.stats)
        if self.counter_cache is not None:
            self.metrics.register("counter_cache", self.counter_cache.stats)
        if self.node_cache is not None and l2 is None:
            # With an injected L2 the node cache *is* the L2; the processor
            # registers it under "l2" instead.
            self.metrics.register("node_cache", self.node_cache.stats)
        scheme_stats = getattr(self.scheme, "stats", None)
        if dataclasses.is_dataclass(scheme_stats):
            self.metrics.register("scheme", scheme_stats)
        self._lat_hist = self.metrics.histogram("miss.auth_latency")

        # Fan the tracer out to the shared resources so bus transfers and
        # engine occupancy windows land on their own trace tracks.
        if self.tracer.enabled:
            self.bus.tracer = self.tracer
            self.aes.tracer = self.tracer
            self.sha.tracer = self.tracer
            if self.counter_cache is not None:
                self.counter_cache.tracer = self.tracer
            self.rsr_file.tracer = self.tracer

    # -- low-level transfers -------------------------------------------------
    #
    # All bus and engine slots are reserved at the *initiation* time of the
    # miss or write-back that needs them, which is monotonically
    # non-decreasing across calls.  Data dependencies (a pad that cannot
    # start before its counter arrives; a MAC that cannot start before its
    # block arrives) are honoured as readiness *floors* on the completion
    # time instead of future-dated reservations — future-dating a shared
    # FCFS resource would block every later request behind work that has
    # not logically started yet.

    def _bus_read(self, now: float, num_bytes: int,
                  path: PathTime | None = None,
                  labels: tuple[str, str, str] = ("bus_queue", "bus", "dram"),
                  ) -> float:
        """Issue a read transaction; returns data-arrival time.

        When attributing, the queueing delay, wire occupancy, and DRAM
        access accrue to ``labels`` (tree fetches relabel all three to the
        tree-walk bucket).
        """
        start, end = self.bus.schedule(now, num_bytes)
        arrive = end + self.mem_latency
        if path is not None:
            path.advance(labels[0], start)
            path.advance(labels[1], end)
            path.advance(labels[2], arrive)
        return arrive

    def _bus_write(self, now: float, num_bytes: int) -> float:
        """Issue a posted write; returns bus-release time."""
        _, end = self.bus.schedule(now, num_bytes)
        return end

    def _aes_pads(self, now: float, earliest_start: float,
                  num_chunks: int) -> float:
        """Generate ``num_chunks`` pads; engine slots reserved at ``now``,
        completion no earlier than the dependency allows."""
        engine_done = self.aes.request_many(now, num_chunks)
        return max(engine_done,
                   self.aes.batch_latency(num_chunks, earliest_start))

    def _sha_mac(self, now: float, data_arrive: float) -> float:
        """One SHA-1 block MAC; cannot complete before arrival + latency."""
        engine_done = self.sha.request(now)
        return max(engine_done, data_arrive + self.sha.latency)

    # -- counter resolution --------------------------------------------------

    def _resolve_counter(self, now: float, address: int,
                         for_write: bool,
                         path: PathTime | None = None) -> float:
        """Bring the block's counter on-chip; returns its ready time.

        Charges bus traffic for counter-cache misses, write-backs for dirty
        displaced counter blocks, and (when counters are authenticated) the
        verification work for the fetched counter block.  Half-misses — the
        counter block is already in flight — wait for the outstanding fill
        without new traffic.
        """
        assert self.counter_cache is not None
        tracer = self.tracer
        index = self.scheme.counter_block_address(address)
        outcome = self.counter_cache.access(index, write=for_write, now=now)
        inflight = self._counter_inflight.get(index)
        if outcome.hit:
            if inflight is not None and inflight > now:
                # Half-miss: the line is allocated but its fill is still in
                # flight; wait for the outstanding transfer, no new traffic.
                self.stats.counter_half_misses += 1
                if tracer.enabled:
                    tracer.instant("counter", "resolve-half-miss", now,
                                   index=index)
                if path is not None:
                    path.advance("counter_wait", inflight)
                return inflight
            if tracer.enabled:
                tracer.instant("counter", "resolve-hit", now, index=index)
            return now
        if inflight is not None and inflight > now:
            self.stats.counter_half_misses += 1
            if tracer.enabled:
                tracer.instant("counter", "resolve-half-miss", now,
                               index=index)
            if path is not None:
                path.advance("counter_wait", inflight)
            return inflight
        self.stats.counter_fetches += 1
        if tracer.enabled:
            tracer.instant("counter", "resolve-miss", now, index=index)
        arrive = self._bus_read(now, self.block_size, path=path)
        self._counter_inflight[index] = arrive
        eviction = self.counter_cache.fill(index, dirty=False)
        if eviction is not None and eviction.dirty:
            self._write_back_counter_block(now)
        if (self.node_cache is not None
                and self.config.authenticate_counters):
            # Counter blocks are tree leaves (Figure 3): verify on fetch.
            leaf = self._num_data_leaves + index
            self._verify_chain(now, leaf, arrive, counter_ready=now)
        return arrive

    def _write_back_counter_block(self, now: float) -> None:
        """Displaced dirty counter block: bus write + leaf-MAC update."""
        self.stats.counter_writebacks += 1
        self._bus_write(now, self.block_size)
        if self.node_cache is not None and self.config.authenticate_counters:
            self._update_parent(now)

    # -- MAC timing helpers ----------------------------------------------------

    def _leaf_mac_done(self, fetch_issue: float, arrive: float,
                       counter_ready: float, path: PathTime | None = None,
                       tree: bool = False) -> float:
        """Completion time of one block's MAC check.

        GCM: the authentication pad is requested as soon as the counter is
        known (overlapping the fetch); GHASH runs as ciphertext arrives and
        the final XOR waits for the pad.  SHA-1: the whole MAC latency
        starts only once the block has arrived.

        ``path``, when given, must stand at ``arrive``; it is advanced to
        the MAC completion with the GHASH/AES (or SHA) segments charged to
        their buckets — or wholesale to the tree-walk bucket for node MACs.
        """
        if self.config.auth is AuthMode.GCM:
            engine_done = self.aes.request(fetch_issue)
            pad_ready = max(engine_done, counter_ready + self.aes.latency)
            done = self.ghash.hash_block(arrive, pad_ready, self._chunks)
            if path is not None:
                ghash_done = (arrive
                              + self._chunks * self.ghash.cycles_per_chunk)
                path.advance("tree" if tree else "ghash",
                             min(ghash_done, done))
                path.advance("tree" if tree else "aes",
                             done - self.ghash.final_xor_cycles)
                path.advance("tree" if tree else "ghash", done)
            return done
        done = self._sha_mac(fetch_issue, arrive)
        if path is not None:
            path.advance("tree" if tree else "sha", done)
        return done

    def _update_parent(self, now: float) -> None:
        """Charge the work of installing a new MAC into a parent node.

        The parent must be on-chip; a miss costs one node fetch.  Update
        propagation beyond the first cached node happens on later
        evictions, matching the lazy protocol.  This work is off the
        processor's critical path (posted, like write-backs).
        """
        # One MAC computation for the new code.
        if self.config.auth is AuthMode.GCM:
            pad_ready = self.aes.request(now)
            self.ghash.hash_block(now, pad_ready, self._chunks)
        else:
            self.sha.request(now)

    def _verify_chain(self, now: float, leaf_index: int, data_arrive: float,
                      counter_ready: float,
                      path: PathTime | None = None) -> float:
        """Fetch + verify all missing tree levels above a leaf.

        Returns the cycle at which the leaf's authentication chain is
        complete.  Parallel mode (section 3) issues every missing level's
        fetch immediately and authenticates codes as they arrive; sequential
        mode starts each level's fetch only after the level above verified.

        ``path``, when given, must stand at ``data_arrive``; it is advanced
        in place to the chain completion, node-fetch work charged to the
        tree-walk bucket.
        """
        assert self.geometry is not None and self.node_cache is not None
        geometry = self.geometry
        tracer = self.tracer
        missing: list[int] = []  # node-cache addresses, leaf-side first
        level, index = 1, geometry.parent_index(leaf_index)
        while level <= geometry.depth:
            node_block = geometry.node_region_block(level, index)
            node_address = (self._node_region_base
                            + node_block * self.block_size)
            if self.node_cache.access(node_address):
                break
            missing.append(node_address)
            level += 1
            index = geometry.parent_index(index)

        leaf_done = self._leaf_mac_done(now, data_arrive, counter_ready,
                                        path=path)
        if not missing:
            return leaf_done

        auth_done = leaf_done
        if self.config.parallel_auth:
            # All fetches issued now; pads (GCM) also requested now.
            node_paths: list[PathTime] = []
            for node_address in missing:
                node_path = PathTime(now) if path is not None else None
                arrive = self._bus_read(now, self.block_size,
                                        path=node_path, labels=_TREE_LABELS)
                done = self._leaf_mac_done(now, arrive, now, path=node_path,
                                           tree=True)
                if tracer.enabled:
                    tracer.span("tree", "level-fetch+verify", now, done,
                                node=node_address)
                auth_done = max(auth_done, done)
                if node_path is not None:
                    node_paths.append(node_path)
                self._fill_node(node_address, now)
            if path is not None:
                path.adopt(PathTime.merge(path, *node_paths))
        else:
            # Top-down: the chain's trust must reach each level before the
            # next fetch begins.
            t = now
            chain_path = PathTime(now) if path is not None else None
            for node_address in reversed(missing):
                level_start = t
                arrive = self._bus_read(t, self.block_size,
                                        path=chain_path, labels=_TREE_LABELS)
                t = self._leaf_mac_done(t, arrive, t, path=chain_path,
                                        tree=True)
                if tracer.enabled:
                    tracer.span("tree", "level-fetch+verify", level_start, t,
                                node=node_address)
                self._fill_node(node_address, t)
            auth_done = max(leaf_done, t)
            if path is not None:
                path.adopt(PathTime.merge(path, chain_path))
        return auth_done

    def _fill_node(self, node_address: int, now: float) -> None:
        eviction = self.node_cache.fill(node_address)
        if eviction is not None and eviction.dirty:
            if eviction.address >= self._node_region_base:
                # displaced dirty code block: write + parent-MAC update
                self._bus_write(now, self.block_size)
                self._update_parent(now)
            else:
                # codes share the L2 with data, so a node fill can displace
                # a dirty data block — service it through the full path
                self.write_back(now, eviction.address)

    def _update_leaf(self, now: float, leaf_index: int) -> None:
        """Write-back path: install the block's new MAC in its parent."""
        assert self.geometry is not None and self.node_cache is not None
        parent = self.geometry.parent_index(leaf_index)
        node_block = self.geometry.node_region_block(1, parent)
        node_address = (self._node_region_base
                        + node_block * self.block_size)
        if not self.node_cache.access(node_address, write=True):
            self._bus_read(now, self.block_size)
            self._fill_node(node_address, now)
            self.node_cache.access(node_address, write=True)
        self._update_parent(now)

    # -- read path -----------------------------------------------------------

    def read_miss(self, now: float, address: int) -> MissTiming:
        """Service one L2 read miss; returns data/auth completion times."""
        self.stats.reads += 1
        mode = self.config.encryption
        counter_ready = now
        transfer_bytes = self.block_size
        tracer = self.tracer
        recording = tracer.enabled

        if isinstance(self.scheme, CounterPredictionScheme):
            return self._read_miss_prediction(now, address)
        if mode is EncryptionMode.SHARES:
            return self._read_miss_shares(now, address)
        counter_path = PathTime(now) if recording else None
        if self.counter_cache is not None:
            counter_ready = self._resolve_counter(now, address,
                                                  for_write=False,
                                                  path=counter_path)

        pad_done = None
        pad_path = None
        if mode is EncryptionMode.COUNTER:
            pad_done = self._aes_pads(now, counter_ready, self._chunks)
            if recording:
                pad_path = counter_path.fork()
                pad_path.advance("aes", pad_done)

        arrive_path = PathTime(now) if recording else None
        arrive = self._bus_read(now, transfer_bytes, path=arrive_path)

        if mode is EncryptionMode.NONE:
            data_ready = arrive
            data_path = arrive_path
        elif mode is EncryptionMode.DIRECT:
            data_ready = self._aes_pads(now, arrive, self._chunks)
            if recording:
                data_path = arrive_path.fork()
                data_path.advance("aes", data_ready)
        else:
            self.stats.pads.pad_requests += 1
            timely = pad_done <= arrive
            if timely:
                self.stats.pads.timely_pads += 1
            data_ready = max(arrive, pad_done) + 1  # XOR
            if recording:
                tracer.instant("pad", "timely" if timely else "late", arrive,
                               address=address, pad_done=pad_done)
                data_path = PathTime.merge(arrive_path, pad_path).fork()
                data_path.advance("other", data_ready)

        auth_done = data_ready
        if self.node_cache is not None:
            leaf = address // self.block_size
            chain_path = arrive_path.fork() if recording else None
            chain_done = self._verify_chain(now, leaf, arrive, counter_ready,
                                            path=chain_path)
            auth_done = max(data_ready, chain_done)
        self._lat_hist.observe(auth_done - now)
        if recording:
            auth_path = data_path
            if self.node_cache is not None:
                auth_path = PathTime.merge(data_path, chain_path)
            tracer.miss(MissRecord(address=address, issue=now,
                                   data_ready=data_ready,
                                   auth_done=auth_done,
                                   parts=auth_path.parts))
            tracer.span("miss", f"read@{address:#x}", now, auth_done,
                        data_ready=data_ready)
        return MissTiming(data_ready=data_ready, auth_done=auth_done)

    def _read_miss_shares(self, now: float, address: int) -> MissTiming:
        """Secret-shared read path: k share fetches, k leaf verifications.

        The shares travel in parallel over the shared bus; the plaintext is
        a GF(256) combine of the arrived shares (one cycle, like the CTR
        XOR — no pad generation on the read path, since the coefficient
        keystream is only needed to *split*).  Each share is a distinct
        tree leaf, so every fetched share image is independently
        authenticated before reconstruction trusts it.
        """
        tracer = self.tracer
        recording = tracer.enabled
        counter_path = PathTime(now) if recording else None
        counter_ready = now
        if self.counter_cache is not None:
            counter_ready = self._resolve_counter(now, address,
                                                  for_write=False,
                                                  path=counter_path)
        block_index = address // self.block_size
        arrived = now
        auth_done = now
        share_paths: list[PathTime] = []
        chain_paths: list[PathTime] = []
        for s in range(self._shares_k):
            arrive_path = PathTime(now) if recording else None
            arrive = self._bus_read(now, self.block_size, path=arrive_path)
            arrived = max(arrived, arrive)
            leaf = s * self._num_data_blocks + block_index
            chain_path = arrive_path.fork() if recording else None
            chain_done = self._verify_chain(now, leaf, arrive, counter_ready,
                                            path=chain_path)
            auth_done = max(auth_done, chain_done)
            if recording:
                share_paths.append(arrive_path)
                chain_paths.append(chain_path)
        data_ready = arrived + 1  # GF combine of the k share images
        auth_done = max(auth_done, data_ready)
        self._lat_hist.observe(auth_done - now)
        if recording:
            data_path = PathTime.merge(counter_path, *share_paths).fork()
            data_path.advance("other", data_ready)
            auth_path = PathTime.merge(data_path, *chain_paths)
            tracer.miss(MissRecord(address=address, issue=now,
                                   data_ready=data_ready,
                                   auth_done=auth_done,
                                   parts=auth_path.parts,
                                   kind="shares"))
            tracer.span("miss", f"shares@{address:#x}", now, auth_done,
                        data_ready=data_ready)
        return MissTiming(data_ready=data_ready, auth_done=auth_done)

    def _read_miss_prediction(self, now: float, address: int) -> MissTiming:
        """Counter-prediction read path (Figure 6).

        N candidate pads are precomputed speculatively; the block's actual
        64-bit counter travels with the data (+8 bytes of bus traffic) to
        check the prediction.  A wrong prediction regenerates pads after
        the counter arrives.
        """
        scheme = self.scheme
        tracer = self.tracer
        recording = tracer.enabled
        correct, candidates = scheme.predict(address)
        # Precompute pads for every candidate; remember each completion.
        completions = []
        for _ in candidates:
            completions.append(self.aes.request_many(now, self._chunks))
        arrive_path = PathTime(now) if recording else None
        arrive = self._bus_read(now, self.block_size + 8, path=arrive_path)
        self.stats.pads.pad_requests += 1
        if correct:
            actual = scheme.counter_for_block(address)
            base = scheme.base_counter(address)
            # base may have resynced on a miss; guard the index range
            position = min(max(actual - base, 0), len(completions) - 1)
            pad_done = completions[position]
            timely = pad_done <= arrive
            if timely:
                self.stats.pads.timely_pads += 1
            data_ready = max(arrive, pad_done) + 1
            if recording:
                tracer.instant("pad", "timely" if timely else "late", arrive,
                               address=address, pad_done=pad_done)
                pad_path = PathTime(now)
                pad_path.advance("aes", pad_done)
                data_path = PathTime.merge(arrive_path, pad_path).fork()
                data_path.advance("other", data_ready)
        else:
            pad_done = self._aes_pads(now, arrive, self._chunks)
            data_ready = pad_done + 1
            if recording:
                tracer.instant("pad", "mispredict", arrive, address=address)
                data_path = arrive_path.fork()
                data_path.advance("aes", pad_done)
                data_path.advance("other", data_ready)
        auth_done = data_ready
        if self.node_cache is not None:
            leaf = address // self.block_size
            chain_path = arrive_path.fork() if recording else None
            chain_done = self._verify_chain(now, leaf, arrive, now,
                                            path=chain_path)
            auth_done = max(data_ready, chain_done)
        self._lat_hist.observe(auth_done - now)
        if recording:
            auth_path = data_path
            if self.node_cache is not None:
                auth_path = PathTime.merge(data_path, chain_path)
            tracer.miss(MissRecord(address=address, issue=now,
                                   data_ready=data_ready,
                                   auth_done=auth_done,
                                   parts=auth_path.parts,
                                   kind="prediction"))
            tracer.span("miss", f"pred@{address:#x}", now, auth_done,
                        data_ready=data_ready)
        return MissTiming(data_ready=data_ready, auth_done=auth_done)

    # -- write path ----------------------------------------------------------

    def write_back(self, now: float, address: int) -> float:
        """Service one dirty L2 eviction; returns the stall-until cycle.

        Write-backs are posted (no core stall) except for the two RSR
        conditions of section 4.2, in which case the returned cycle is when
        the core may proceed.
        """
        if address >= self._node_region_base:
            # eviction of a Merkle code block cached in the L2
            self._bus_write(now, self.block_size)
            self._update_parent(now)
            return now
        self.stats.writes += 1
        stall_until = now
        counter = 0
        counter_ready = now

        if self.scheme is not None:
            if self.counter_cache is not None:
                counter_ready = self._resolve_counter(now, address,
                                                      for_write=True)
                self.counter_cache.mark_dirty(
                    self.scheme.counter_block_address(address)
                )
            result = self.scheme.increment(address)
            counter = result.counter
            if result.action is OverflowAction.PAGE_REENCRYPTION:
                stall_until = self._page_reencrypt_timing(
                    max(now, counter_ready), result.page_address, address
                )
            elif result.action is OverflowAction.FULL_REENCRYPTION:
                # Paper methodology: assumed instantaneous, zero traffic;
                # occurrences are counted and reported above the bars.
                self.stats.reencryption.full_reencryptions += 1
                if self.tracer.enabled:
                    self.tracer.instant("rsr", "full-reencryption", now,
                                        address=address)
                self.scheme.reset_all_counters()
                self.scheme.set_counter(address, 1)
                counter = 1

        mode = self.config.encryption
        if mode is EncryptionMode.SHARES:
            # Splitting needs the k-1 coefficient keystreams (PRF pads, same
            # engine as CTR), then posts all n share blocks; each share's
            # MAC lands in its own leaf slot.
            self._aes_pads(now, max(counter_ready, stall_until),
                           (self._shares_k - 1) * self._chunks)
            block_index = address // self.block_size
            for s in range(self._shares_n):
                self._bus_write(now, self.block_size)
                if self.node_cache is not None:
                    self._update_leaf(
                        now, s * self._num_data_blocks + block_index
                    )
            self._written.add(address)
            return stall_until
        transfer_bytes = self.block_size
        if isinstance(self.scheme, CounterPredictionScheme):
            transfer_bytes += 8  # the stored 64-bit counter rides along
        if mode in (EncryptionMode.COUNTER, EncryptionMode.DIRECT):
            # Encryption work for the outgoing block (bandwidth accounting;
            # the posted write buffers until the pads are ready).
            self._aes_pads(now, max(counter_ready, stall_until),
                           self._chunks)
        self._bus_write(now, transfer_bytes)
        self._written.add(address)

        if self.node_cache is not None:
            self._update_leaf(now, address // self.block_size)
        return stall_until

    # -- RSR page re-encryption ------------------------------------------------

    def _page_reencrypt_timing(self, now: float, page_index: int,
                               triggering_address: int) -> float:
        """Model one page re-encryption; returns the core's stall-until.

        Normally the core does not stall: the RSR fetches, decrypts, and
        re-writes non-resident blocks in the background while cached blocks
        are lazily dirty-marked.  Stalls happen only when the page already
        has an active RSR or all RSRs are busy.
        """
        scheme = self.scheme
        assert isinstance(scheme, SplitCounterScheme)
        stats = self.stats.reencryption
        stats.page_reencryptions += 1
        stall_until = now
        self.rsr_file.expire(now)
        active = self.rsr_file.find(page_index)
        if active is not None:
            # Second overflow while the page is still re-encrypting: the
            # write-back stalls until the RSR frees.
            stats.rsr_stalls += 1
            stall_until = active.busy_until
            active.free()
        rsr = self.rsr_file.find_free()
        if rsr is None:
            stats.rsr_stalls += 1
            stall_until = max(stall_until, self.rsr_file.earliest_free_time())
            self.rsr_file.expire(stall_until)
            rsr = self.rsr_file.find_free()

        start = max(now, stall_until)
        t = start
        old_major = scheme.major_counter(page_index) - 1
        for block_address in scheme.blocks_of_page(page_index):
            if block_address == triggering_address:
                stats.blocks_found_onchip += 1
                continue
            if self.l2 is not None and self.l2.contains(block_address):
                # Lazy: dirty-mark the cached copy; it re-encrypts under the
                # new major on its natural write-back.
                scheme.reset_minor(block_address)
                self.l2.mark_dirty(block_address)
                stats.blocks_found_onchip += 1
                stats.blocks_reencrypted += 1
                continue
            if block_address not in self._written:
                scheme.reset_minor(block_address)
                stats.blocks_untouched += 1
                continue
            # Fetch, decrypt under the old counter, write back re-encrypted.
            # RSR traffic is background-priority: it consumes bandwidth
            # (charged to the bus statistics) but demand misses are not
            # queued behind it — the arbitration that lets section 4.2's
            # re-encryption overlap normal execution.
            read_occ = self.bus.charge_background(
                self.block_size * self._shares_k
            )
            arrive = t + read_occ + self.mem_latency
            pad_time = self.aes.batch_latency(self._chunks)
            plain_at = max(arrive, t + pad_time) + 1
            scheme.reset_minor(block_address)
            scheme.increment(block_address)
            t = (plain_at + pad_time + 1
                 + self.bus.charge_background(
                     self.block_size * self._shares_n))
            if self.node_cache is not None:
                for s in range(self._shares_n):
                    self._update_leaf(
                        t, s * self._num_data_blocks
                        + block_address // self.block_size
                    )
            stats.blocks_fetched += 1
            stats.blocks_reencrypted += 1
        rsr.allocate(page_index, old_major, busy_until=t)
        stats.max_concurrent_rsrs = max(stats.max_concurrent_rsrs,
                                        self.rsr_file.active_count)
        stats.total_page_cycles += t - start
        if self.tracer.enabled:
            self.tracer.span("rsr", f"page-{page_index}", start, t,
                             page=page_index,
                             stalled_until=stall_until,
                             active_rsrs=self.rsr_file.active_count)
        if not self.config.rsr_overlap:
            # Ablation: without the RSR overlap machinery the write-back
            # (and the core behind it) stalls for the whole re-encryption.
            return max(stall_until, t)
        return stall_until

    # -- checkpoint support ----------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable timing state (the shared L2 is the processor's)."""
        state: dict = {
            "stats": fields_state(self.stats),
            "bus": self.bus.state_dict(),
            "aes": self.aes.state_dict(),
            "sha": self.sha.state_dict(),
            "written": set(self._written),
            "counter_inflight": dict(self._counter_inflight),
            "rsrs": self.rsr_file.state_dict(),
            "instruments": self.metrics.instruments_state(),
        }
        if self.counter_cache is not None:
            state["counter_cache"] = self.counter_cache.state_dict()
        if self.scheme is not None:
            state["scheme"] = self.scheme.state_dict()
        if self.node_cache is not None and self.node_cache is not self.l2:
            # With an injected L2 the node cache *is* the L2, which the
            # processor checkpoint owns; saving it here would restore twice.
            state["node_cache"] = self.node_cache.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        load_fields_state(self.stats, state["stats"])
        self.bus.load_state(state["bus"])
        self.aes.load_state(state["aes"])
        self.sha.load_state(state["sha"])
        self._written = set(state["written"])
        self._counter_inflight = dict(state["counter_inflight"])
        self.rsr_file.load_state(state["rsrs"])
        self.metrics.load_instruments_state(state["instruments"])
        if self.counter_cache is not None:
            self.counter_cache.load_state(state["counter_cache"])
        if self.scheme is not None:
            self.scheme.load_state(state["scheme"])
        if "node_cache" in state and self.node_cache is not None:
            self.node_cache.load_state(state["node_cache"])
