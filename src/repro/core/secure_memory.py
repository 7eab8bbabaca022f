"""Functional secure memory system: real crypto over a simulated DRAM.

This is the paper's memory controller, bit-exact: counter-mode (or direct)
AES encryption of every block leaving the chip, GCM or SHA-1 MACs organized
as a Merkle tree over data blocks *and* direct-counter blocks (Figure 3),
a counter cache, and RSR-driven page re-encryption on minor-counter
overflow.  Everything below the L2 — data ciphertext, counter blocks, and
Merkle code blocks — lives in an untrusted :class:`MainMemory` that the
attack suite can snoop and corrupt.

The timing twin (:mod:`repro.sim.timing_memory`) shares the configuration
and the counter/cache/tree structures but models only latencies; this class
models only values.  Functional time does not advance, so page
re-encryptions run synchronously to completion — the RSR overlap machinery
is exercised for its *state* transitions here and for its *timing* in the
simulator.

Memory map::

    [0, protected_bytes)                     data region (ciphertext)
    [protected_bytes, +counters)             counter blocks
    [.., +code blocks)                       Merkle code blocks

Initialization note: memory reads as zero until first written.  The Merkle
tree adopts a block on its first write-back (boot-time zeroing compressed
to first touch); reads of never-written blocks return zeros without a DRAM
access.  All attack experiments operate on blocks after legitimate writes,
where the full verification chain is active.
"""

from __future__ import annotations

from repro.auth.codes import build_flat_geometry, build_geometry
from repro.auth.errors import IntegrityViolation
from repro.auth.merkle import MerkleTree
from repro.auth.schemes import GCMMACScheme, MACScheme, SHAMACScheme
from repro.core.config import (
    AuthMode,
    EncryptionMode,
    IntegrityMode,
    SecureMemoryConfig,
)
from repro.core.rsr import RSRFile
from repro.core.stats import SecureMemoryStats
from repro.counters import make_counter_scheme
from repro.counters.base import CounterScheme, OverflowAction
from repro.counters.counter_cache import CounterCache
from repro.counters.global_ctr import GlobalCounterScheme
from repro.counters.monolithic import MonolithicCounterScheme
from repro.counters.split import SplitCounterScheme
from repro.crypto.aes import AES128
from repro.crypto.ctr import CHUNK_SIZE, bulk_ctr_transform, ctr_transform
from repro.crypto.sha1 import sha1
from repro.crypto.shamir import (
    coefficient_blocks,
    reconstruct_block,
    split_block,
)
from repro.crypto.vector import decrypt_blocks_kernel, encrypt_blocks_kernel
from repro.memory.cache import Cache
from repro.memory.dram import MainMemory
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.resilience.recovery import (
    QuarantinedPageError,
    RecoveryController,
    RecoveryHalted,
)


def _derive_key(base_key: bytes, label: bytes, epoch: int = 0) -> bytes:
    """Derive a 16-byte subkey from the platform key."""
    return sha1(base_key + label + epoch.to_bytes(8, "big"))[:16]


class SecureMemorySystem:
    """Functional secure memory controller with an L2 cache on top."""

    def __init__(self, config: SecureMemoryConfig,
                 protected_bytes: int = 1024 * 1024,
                 base_key: bytes = b"platform-master-key!",
                 l2_size: int | None = None, l2_assoc: int = 8,
                 dram_factory=None, tracer: Tracer | None = None):
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.block_size = config.block_size
        if protected_bytes % self.block_size:
            raise ValueError("protected_bytes must be block-aligned")
        self.protected_bytes = protected_bytes
        self.num_data_blocks = protected_bytes // self.block_size
        self._base_key = bytes(base_key)
        self._key_epoch = 0
        self._data_aes = AES128(_derive_key(self._base_key, b"data", 0))

        # Secret-shared layout (Secure Scattered Memory): each logical data
        # block is stored as n share blocks, share ``s`` of logical address
        # ``a`` living at DRAM address ``s * protected_bytes + a``.  Share 0
        # therefore occupies the classic data region, keeping every
        # logical-address consumer (attacks, oracle layouts) valid; shares
        # 1..n-1 extend the leaf space.  Non-shares configs collapse to
        # n = 1 and every expression below reduces to the historical layout.
        shares = config.encryption is EncryptionMode.SHARES
        self._shares_k = config.shares_k if shares else 1
        self._shares_n = config.shares_n if shares else 1
        self._num_data_leaves = self.num_data_blocks * self._shares_n
        self._data_region_bytes = self._num_data_leaves * self.block_size
        self._shares_aes = (
            AES128(_derive_key(self._base_key, b"shares", 0))
            if shares else None
        )

        # Counter machinery.
        self.counter_scheme: CounterScheme | None = None
        self.counter_cache: CounterCache | None = None
        self._num_counter_blocks = 0
        if config.uses_counters:
            self.counter_scheme = make_counter_scheme(config)
            per = self.counter_scheme.data_blocks_per_counter_block
            self._num_counter_blocks = -(-self.num_data_blocks // per)
            self.counter_cache = CounterCache(
                size_bytes=config.counter_cache_size,
                assoc=config.counter_cache_assoc,
                block_size=self.block_size,
                region_base=self._data_region_bytes,
            )
        counter_region_bytes = self._num_counter_blocks * self.block_size
        self._code_region_base = self._data_region_bytes + counter_region_bytes

        # Authentication machinery.  The integrity strategy picks only the
        # tree's geometry: a logarithmic tree under one root MAC, or
        # SecDDR's flat layer whose level-1 group MACs all stay on chip.
        self.mac_scheme: MACScheme | None = None
        self.merkle: MerkleTree | None = None
        code_region_bytes = 0
        if config.auth is not AuthMode.NONE:
            if config.auth is AuthMode.GCM:
                self.mac_scheme = GCMMACScheme(
                    _derive_key(self._base_key, b"mac"), config.mac_bits
                )
            else:
                self.mac_scheme = SHAMACScheme(
                    _derive_key(self._base_key, b"mac"), config.mac_bits
                )
            num_leaves = self._num_data_leaves + self._num_counter_blocks
            build = (build_flat_geometry
                     if config.resolved_integrity is IntegrityMode.SECDDR
                     else build_geometry)
            geometry = build(num_leaves, self.block_size, config.mac_bits)
            code_region_bytes = geometry.total_code_blocks * self.block_size

        # ``dram_factory`` lets a harness substitute an instrumented device
        # (e.g. repro.testing's AdversarialDRAM) without post-construction
        # surgery; it receives the same keyword arguments MainMemory takes.
        total = self._code_region_base + code_region_bytes
        make_dram = dram_factory if dram_factory is not None else MainMemory
        self.dram = make_dram(size_bytes=total, block_size=self.block_size,
                              latency_cycles=config.memory_latency)

        if self.mac_scheme is not None:
            self.merkle = MerkleTree(
                geometry, self.mac_scheme, self.dram,
                code_region_base=self._code_region_base,
                node_cache_bytes=config.node_cache_size,
                node_cache_assoc=config.node_cache_assoc,
            )

        # On-chip data cache (the "L2"; payloads are plaintext).
        self.l2 = Cache(l2_size if l2_size is not None else 64 * 1024,
                        l2_assoc, self.block_size, name="l2")

        blocks_per_page = (
            self.counter_scheme.data_blocks_per_counter_block
            if isinstance(self.counter_scheme, SplitCounterScheme)
            else 64
        )
        self.rsr_file = RSRFile(config.num_rsrs, blocks_per_page)

        # Integrity-violation recovery (off unless the config enables it).
        self.recovery: RecoveryController | None = None
        if config.recovery.enabled:
            self.recovery = RecoveryController(
                config.recovery,
                page_bytes=blocks_per_page * self.block_size,
                tracer=self.tracer,
            )

        self.stats = SecureMemoryStats()
        self._materialized: set[int] = set()          # data block addresses
        self._counter_materialized: set[int] = set()  # counter block indices
        self._counter_deriv: dict[int, int] = {}      # counter-block leaves

        # Unified observability: one registry over every stats object the
        # functional system owns, plus tracer fan-out to the components
        # that carry their own hook.
        self.metrics = MetricsRegistry()
        self.metrics.register("mem", self.stats)
        self.metrics.register("l2", self.l2.stats)
        if self.counter_cache is not None:
            self.metrics.register("counter_cache", self.counter_cache.stats)
        if self.merkle is not None:
            self.metrics.register("merkle", self.merkle.stats)
        if hasattr(self.counter_scheme, "stats"):
            self.metrics.register("scheme", self.counter_scheme.stats)
        if self.recovery is not None:
            self.metrics.register("recovery", self.recovery.stats)
        if self.tracer.enabled:
            if self.counter_cache is not None:
                self.counter_cache.tracer = self.tracer
            if self.merkle is not None:
                self.merkle.tracer = self.tracer
            self.rsr_file.tracer = self.tracer

    # -- address helpers -----------------------------------------------------

    def _check_data_address(self, address: int) -> None:
        if address % self.block_size:
            raise ValueError(f"address {address:#x} not block-aligned")
        if not 0 <= address < self.protected_bytes:
            raise ValueError(
                f"address {address:#x} outside protected region "
                f"[0, {self.protected_bytes:#x})"
            )

    def _data_leaf_index(self, address: int) -> int:
        return address // self.block_size

    def _share_address(self, share: int, address: int) -> int:
        """DRAM address of share ``share`` of logical block ``address``."""
        return share * self.protected_bytes + address

    def _share_leaf_index(self, share: int, address: int) -> int:
        return share * self.num_data_blocks + address // self.block_size

    def _counter_leaf_index(self, counter_block_index: int) -> int:
        return self._num_data_leaves + counter_block_index

    # -- encryption primitives --------------------------------------------------

    def _encrypt(self, address: int, counter: int, plaintext: bytes) -> bytes:
        mode = self.config.encryption
        if mode is EncryptionMode.NONE:
            return bytes(plaintext)
        if mode is EncryptionMode.DIRECT:
            return b"".join(
                self._data_aes.encrypt_block(
                    plaintext[i : i + CHUNK_SIZE]
                )
                for i in range(0, len(plaintext), CHUNK_SIZE)
            )
        return ctr_transform(self._data_aes, address, counter, plaintext)

    def _decrypt(self, address: int, counter: int, ciphertext: bytes) -> bytes:
        mode = self.config.encryption
        if mode is EncryptionMode.NONE:
            return bytes(ciphertext)
        if mode is EncryptionMode.DIRECT:
            return b"".join(
                self._data_aes.decrypt_block(
                    ciphertext[i : i + CHUNK_SIZE]
                )
                for i in range(0, len(ciphertext), CHUNK_SIZE)
            )
        return ctr_transform(self._data_aes, address, counter, ciphertext)

    # -- counter-block residency ---------------------------------------------

    def _ensure_counter_block(self, address: int, for_write: bool) -> None:
        """Bring the counter block covering ``address`` on-chip.

        On a miss the block is fetched from the untrusted counter region,
        authenticated (unless ``authenticate_counters`` is disabled — the
        vulnerable configuration of section 4.3), and decoded into the
        scheme's live state.  Dirty displaced counter blocks are serialized
        back to DRAM with their Merkle leaf updated.
        """
        assert self.counter_scheme is not None and self.counter_cache is not None
        index = self.counter_scheme.counter_block_address(address)
        outcome = self.counter_cache.access(index, write=for_write)
        if outcome.hit:
            return
        self.stats.counter_fetches += 1
        if index in self._counter_materialized:
            mem_address = self.counter_cache.memory_address(index)
            image = self.dram.read_block(mem_address)
            if self.merkle is not None and self.config.authenticate_counters:
                per = self.counter_scheme.data_blocks_per_counter_block
                base = index * per * self.block_size
                image = self._verified_leaf_fetch(
                    self._counter_leaf_index(index), mem_address,
                    self._counter_deriv.get(index, 0), image,
                    label="counter",
                    # A bad counter block compromises every data block it
                    # covers, so the quarantine fence spans all of them.
                    quarantine=[base, base + (per - 1) * self.block_size],
                )
            self.counter_scheme.decode_counter_block(index, image)
        eviction = self.counter_cache.fill(index, dirty=False)
        if eviction is not None and eviction.dirty:
            self._write_back_counter_block(
                self.counter_cache.evicted_index(eviction)
            )

    def _write_back_counter_block(self, index: int) -> None:
        """Serialize a displaced dirty counter block to DRAM + tree."""
        assert self.counter_scheme is not None and self.counter_cache is not None
        self.stats.counter_writebacks += 1
        image = self.counter_scheme.encode_counter_block(index)
        mem_address = self.counter_cache.memory_address(index)
        self.dram.write_block(mem_address, image)
        self._counter_materialized.add(index)
        if self.merkle is not None and self.config.authenticate_counters:
            deriv = self._counter_deriv.get(index, 0) + 1
            self._counter_deriv[index] = deriv
            self.merkle.update_leaf(
                self._counter_leaf_index(index), mem_address, deriv, image
            )

    def _counter_for(self, address: int, for_write: bool) -> int:
        """Resolve a block's current counter, faulting its block on-chip."""
        if self.counter_scheme is None:
            return 0
        self._ensure_counter_block(address, for_write)
        return self.counter_scheme.counter_for_block(address)

    # -- recovery-aware verification ---------------------------------------------

    def _verified_leaf_fetch(self, leaf_index: int, address: int,
                             counter: int, image: bytes, *,
                             label: str = "data",
                             quarantine: list[int] | None = None) -> bytes:
        """Verify a fetched leaf image, routing failures through recovery.

        Without a recovery controller this is the historical behaviour:
        count the violation and re-raise.  With one, the controller
        re-fetches/re-verifies and either returns a good (or, under
        ``degrade``, the unverified) image or raises its policy exception.
        """
        assert self.merkle is not None
        merkle = self.merkle
        try:
            merkle.verify_leaf(leaf_index, address, counter, image)
            return image
        except IntegrityViolation as exc:
            self.stats.integrity_violations += 1
            if (self.recovery is None
                    or isinstance(exc, (RecoveryHalted,
                                        QuarantinedPageError))):
                raise
            return self.recovery.recover(
                address=address, label=label, violation=exc,
                reread=lambda: self.dram.read_block(address),
                verify=lambda img: merkle.verify_leaf(
                    leaf_index, address, counter, img),
                quarantine_addresses=quarantine,
            )

    # -- secret-shared data path (Secure Scattered Memory) ------------------------

    def _fetch_shares(self, address: int, counter: int, *,
                      label: str = "data") -> bytes:
        """Fetch and verify shares 0..k-1, then reconstruct the plaintext.

        Each share is its own Merkle leaf, so tampering with any fetched
        share image is caught before it enters reconstruction.  Shares
        k..n-1 are redundancy: written on every write-back but never read
        on the common path, so corrupting one is a durability loss, not an
        integrity event.
        """
        shares: list[tuple[int, bytes]] = []
        for s in range(self._shares_k):
            mem_address = self._share_address(s, address)
            image = self.dram.read_block(mem_address)
            if self.merkle is not None:
                image = self._verified_leaf_fetch(
                    self._share_leaf_index(s, address), mem_address, counter,
                    image, label=label,
                    # Fence the logical page, not the share region slice.
                    quarantine=[address, address],
                )
            shares.append((s, image))
        return reconstruct_block(shares)

    def _write_back_shares(self, address: int, counter: int,
                           plaintext: bytes) -> None:
        """Split a block into n shares and store/MAC every one of them."""
        assert self._shares_aes is not None
        coefficients = coefficient_blocks(
            self._shares_aes, address, counter, self.block_size,
            self._shares_k,
        )
        images = split_block(bytes(plaintext), coefficients, self._shares_n)
        for s, image in enumerate(images):
            mem_address = self._share_address(s, address)
            self.dram.write_block(mem_address, image)
            if self.merkle is not None:
                self.merkle.update_leaf(
                    self._share_leaf_index(s, address), mem_address, counter,
                    image,
                )

    # -- fetch / write-back -------------------------------------------------------

    def _fetch_plaintext_uncached(self, address: int, counter: int, *,
                                  label: str = "data") -> bytes:
        """Fetch, verify, and decode one materialized block, bypassing the L2."""
        if self.config.encryption is EncryptionMode.SHARES:
            return self._fetch_shares(address, counter, label=label)
        ciphertext = self.dram.read_block(address)
        if self.merkle is not None:
            ciphertext = self._verified_leaf_fetch(
                self._data_leaf_index(address), address, counter, ciphertext,
                label=label,
            )
        return self._decrypt(address, counter, ciphertext)

    def _fetch_block(self, address: int) -> bytearray:
        """L2 miss path: fetch, decrypt, and authenticate one data block."""
        self.stats.reads += 1
        if address not in self._materialized:
            return bytearray(self.block_size)
        counter = self._counter_for(address, for_write=False)
        return bytearray(self._fetch_plaintext_uncached(address, counter))

    def _write_back(self, address: int, plaintext: bytes) -> None:
        """Dirty-eviction path: encrypt, store, and re-MAC one data block."""
        self.stats.writes += 1
        counter = 0
        if self.counter_scheme is not None:
            self._ensure_counter_block(address, for_write=True)
            result = self.counter_scheme.increment(address)
            # The increment mutates the resident counter block regardless of
            # whether the access above hit or missed; mark the line dirty so
            # eviction serializes the new value back to DRAM.
            self.counter_cache.mark_dirty(
                self.counter_scheme.counter_block_address(address)
            )
            counter = result.counter
            if result.action is OverflowAction.PAGE_REENCRYPTION:
                self._page_reencrypt(result.page_address, address)
            elif result.action is OverflowAction.FULL_REENCRYPTION:
                self._full_reencrypt(address)
                counter = 1
        self._materialized.add(address)
        if self.config.encryption is EncryptionMode.SHARES:
            self._write_back_shares(address, counter, plaintext)
            return
        ciphertext = self._encrypt(address, counter, plaintext)
        self.dram.write_block(address, ciphertext)
        if self.merkle is not None:
            self.merkle.update_leaf(
                self._data_leaf_index(address), address, counter, ciphertext
            )

    def _write_back_many(self, evictions: list[tuple[int, bytes]]) -> None:
        """Dirty-eviction path for many blocks: a batched ``_write_back`` loop.

        ``evictions`` holds ``(address, plaintext)`` in eviction order.
        Counters advance in that order, exactly as the scalar loop would
        advance them; the encryption and the re-MAC wait and run as one
        :func:`bulk_ctr_transform` and one ``update_leaves``.  A page or
        full re-encryption reads DRAM and the tree, so whatever is pending
        is written out before one runs.  If an eviction raises, the ones
        before it are still written out, as in the scalar loop.  Secret-
        shared blocks keep their per-block share write.
        """
        scheme = self.counter_scheme
        shares = self.config.encryption is EncryptionMode.SHARES
        pending: list[tuple[int, int, bytes]] = []   # (addr, counter, pt)
        try:
            for address, plaintext in evictions:
                self.stats.writes += 1
                counter = 0
                if scheme is not None:
                    self._ensure_counter_block(address, for_write=True)
                    result = scheme.increment(address)
                    self.counter_cache.mark_dirty(
                        scheme.counter_block_address(address))
                    counter = result.counter
                    if result.action is not OverflowAction.NONE:
                        settled, pending = pending, []
                        self._store_blocks(settled)
                    if result.action is OverflowAction.PAGE_REENCRYPTION:
                        self._page_reencrypt(result.page_address, address)
                    elif result.action is OverflowAction.FULL_REENCRYPTION:
                        self._full_reencrypt(address)
                        counter = 1
                self._materialized.add(address)
                if shares:
                    self._write_back_shares(address, counter, plaintext)
                else:
                    pending.append((address, counter, plaintext))
        finally:
            self._store_blocks(pending)

    def _store_blocks(self, items: list[tuple[int, int, bytes]]) -> None:
        """Encrypt, store and re-MAC ``(address, counter, plaintext)`` items
        whose counters are already advanced: one crypto dispatch and one
        ``update_leaves`` for the lot."""
        if not items:
            return
        mode = self.config.encryption
        if mode is EncryptionMode.COUNTER:
            ciphertexts = bulk_ctr_transform(self._data_aes, items)
        elif mode is EncryptionMode.DIRECT:
            chunks = encrypt_blocks_kernel(
                self._data_aes,
                [plaintext[i:i + CHUNK_SIZE]
                 for _, _, plaintext in items
                 for i in range(0, self.block_size, CHUNK_SIZE)])
            per_block = self.block_size // CHUNK_SIZE
            ciphertexts = [b"".join(chunks[n:n + per_block])
                           for n in range(0, len(chunks), per_block)]
        else:
            ciphertexts = [bytes(plaintext) for _, _, plaintext in items]
        for (address, _, _), ciphertext in zip(items, ciphertexts):
            self.dram.write_block(address, ciphertext)
        if self.merkle is not None:
            self.merkle.update_leaves([
                (self._data_leaf_index(address), address, counter, ciphertext)
                for (address, counter, _), ciphertext in zip(items, ciphertexts)
            ])

    # -- batched fetch ---------------------------------------------------------

    def _counter_block_index(self, address: int) -> int:
        if self.counter_scheme is None:
            return 0
        return self.counter_scheme.counter_block_address(address)

    def _fetch_blocks_bulk(self, addresses: list[int]) -> dict[int, bytearray]:
        """Miss path for many distinct blocks: fetch, verify, decrypt in bulk.

        ``addresses`` must be distinct and sorted so that blocks sharing a
        counter block are adjacent — each counter block is then faulted
        on-chip once per batch.  Merkle verification runs through
        :meth:`~repro.auth.merkle.MerkleTree.verify_leaves` (shared-ancestor
        dedup) and all counter-mode pads are generated with a single AES
        dispatch.  Returns plaintext per address.
        """
        if self.config.encryption is EncryptionMode.SHARES:
            # Scattered blocks fan out to k share fetches with per-share
            # verification; the scalar path already expresses that exactly.
            return {address: self._fetch_block(address)
                    for address in addresses}
        out, fetched = self._verify_blocks_bulk(addresses)
        mode = self.config.encryption
        if mode is EncryptionMode.COUNTER:
            plaintexts = bulk_ctr_transform(self._data_aes, fetched)
            for (address, _, _), plaintext in zip(fetched, plaintexts):
                out[address] = bytearray(plaintext)
        elif mode is EncryptionMode.DIRECT:
            chunks = [
                ciphertext[i:i + CHUNK_SIZE]
                for _, _, ciphertext in fetched
                for i in range(0, self.block_size, CHUNK_SIZE)
            ]
            plain_chunks = decrypt_blocks_kernel(self._data_aes, chunks)
            per_block = self.block_size // CHUNK_SIZE
            for n, (address, _, _) in enumerate(fetched):
                out[address] = bytearray(
                    b"".join(plain_chunks[n * per_block:(n + 1) * per_block])
                )
        else:
            for address, _, ciphertext in fetched:
                out[address] = bytearray(ciphertext)
        return out

    def _verify_blocks_bulk(self, addresses: list[int]) -> tuple[
            dict[int, bytearray], list[tuple[int, int, bytes]]]:
        """The fetch-and-verify half of :meth:`_fetch_blocks_bulk`, for
        blocks that are not secret-shared.

        Counts one read per address, returns a zero block for each
        address never written, and fetches and verifies the rest as
        ``(address, counter, ciphertext)``.  A write-allocate needs no
        more than this: the write replaces the plaintext it would
        decrypt.
        """
        out: dict[int, bytearray] = {}
        fetched: list[tuple[int, int, bytes]] = []  # (addr, counter, ct)
        for address in addresses:
            self.stats.reads += 1
            if address not in self._materialized:
                out[address] = bytearray(self.block_size)
                continue
            counter = self._counter_for(address, for_write=False)
            fetched.append((address, counter, self.dram.read_block(address)))
        if self.merkle is not None and fetched:
            try:
                self.merkle.verify_leaves([
                    (self._data_leaf_index(address), address, counter,
                     ciphertext)
                    for address, counter, ciphertext in fetched
                ])
            except IntegrityViolation:
                if self.recovery is None:
                    self.stats.integrity_violations += 1
                    raise
                # Scalar fallback: re-verify each block individually so the
                # failing one(s) get the full retry/classify/policy
                # treatment while the rest stay cheap re-checks.
                fetched = [
                    (address, counter, self._verified_leaf_fetch(
                        self._data_leaf_index(address), address, counter,
                        ciphertext))
                    for address, counter, ciphertext in fetched
                ]
        return out, fetched

    # -- page re-encryption (split counters + RSR) -----------------------------

    def _page_reencrypt(self, page_index: int, triggering_address: int) -> None:
        """Re-encrypt one encryption page after a minor-counter overflow.

        Follows section 4.2: the RSR captures the old major counter (the
        scheme has already advanced it), each cached block is lazily
        dirty-marked without a fetch, each memory-resident block is fetched,
        decrypted under the old major and its old minor, and immediately
        written back under the new major.  Functional time is synchronous,
        so the RSR is driven start-to-finish here.
        """
        assert isinstance(self.counter_scheme, SplitCounterScheme)
        scheme = self.counter_scheme
        stats = self.stats.reencryption
        stats.page_reencryptions += 1
        if self.rsr_file.find(page_index) is not None:
            # Section 4.2's first stall condition; cannot occur with
            # synchronous completion but guarded for safety.
            stats.rsr_stalls += 1
            raise RuntimeError("overflow on a page already re-encrypting")
        rsr = self.rsr_file.find_free()
        if rsr is None:
            stats.rsr_stalls += 1
            raise RuntimeError("no free RSR")
        old_major = scheme.major_counter(page_index) - 1
        rsr.allocate(page_index, old_major)
        stats.max_concurrent_rsrs = max(stats.max_concurrent_rsrs,
                                        self.rsr_file.active_count)
        fetched: list[tuple[int, bytes]] = []
        fetched_slots: list[int] = []
        for slot, block_address in enumerate(scheme.blocks_of_page(page_index)):
            if block_address == triggering_address:
                # The overflowing write-back re-encrypts this block itself;
                # its minor was reset by the scheme's increment.
                stats.blocks_found_onchip += 1
                rsr.mark_done(slot)
                continue
            if (block_address < self.protected_bytes
                    and self.l2.contains(block_address)):
                # Lazy path: on-chip copy is plaintext; mark it dirty so the
                # natural write-back re-encrypts under the new major.
                scheme.reset_minor(block_address)
                self.l2.mark_dirty(block_address)
                stats.blocks_found_onchip += 1
                stats.blocks_reencrypted += 1
                rsr.mark_done(slot)
                continue
            if block_address not in self._materialized:
                scheme.reset_minor(block_address)
                stats.blocks_untouched += 1
                rsr.mark_done(slot)
                continue
            # Fetch, decrypt under (old major, old minor), re-encrypt under
            # the new major; not cached, written back together below.
            old_counter = scheme.counter_with_major(block_address, old_major)
            plaintext = self._fetch_plaintext_uncached(
                block_address, old_counter, label="reencrypt"
            )
            scheme.reset_minor(block_address)
            stats.blocks_fetched += 1
            stats.blocks_reencrypted += 1
            fetched.append((block_address, plaintext))
            fetched_slots.append(slot)
        self._write_back_many(fetched)
        for slot in fetched_slots:
            rsr.mark_done(slot)

    # -- full-memory re-encryption (monolithic / global overflow) ---------------

    def _full_reencrypt(self, triggering_address: int) -> None:
        """Key change + entire-memory re-encryption (the costly freeze)."""
        scheme = self.counter_scheme
        assert isinstance(scheme, (MonolithicCounterScheme,
                                   GlobalCounterScheme))
        self.stats.reencryption.full_reencryptions += 1
        # Decrypt every materialized block under the old key and counters.
        plaintexts: dict[int, bytes] = {}
        for address in sorted(self._materialized):
            counter = scheme.counter_for_block(address)
            plaintexts[address] = self._decrypt(
                address, counter, self.dram.read_block(address)
            )
        # Key change: everything re-encrypts under counter 0, epoch + 1.
        self._key_epoch += 1
        self._data_aes = AES128(
            _derive_key(self._base_key, b"data", self._key_epoch)
        )
        scheme.reset_all_counters()
        self._store_blocks([(address, 0, plaintext)
                            for address, plaintext in plaintexts.items()])
        # The triggering block's write-back proceeds with counter 1.
        scheme.set_counter(triggering_address, 1)
        self.stats.reencryption.blocks_reencrypted += len(plaintexts)

    # -- public API --------------------------------------------------------------

    def read_block(self, address: int) -> bytes:
        """Read one block through the L2 (plaintext view)."""
        self._check_data_address(address)
        if self.recovery is not None:
            self.recovery.check_fence(address)
        if self.l2.access(address):
            return bytes(self.l2.payload(address))
        plaintext = self._fetch_block(address)
        eviction = self.l2.fill(address, payload=plaintext)
        if eviction is not None and eviction.dirty:
            self._write_back(eviction.address, bytes(eviction.payload))
        return bytes(plaintext)

    def write_block(self, address: int, data: bytes) -> None:
        """Write one block through the L2 (write-allocate, write-back)."""
        self._check_data_address(address)
        if len(data) != self.block_size:
            raise ValueError(f"data must be {self.block_size} bytes")
        if self.recovery is not None:
            self.recovery.check_fence(address)
        if self.l2.access(address, write=True):
            self.l2.payload(address)[:] = data
            return
        self._fetch_block(address)  # write-allocate (fills nothing yet)
        eviction = self.l2.fill(address, dirty=True, payload=bytearray(data))
        if eviction is not None and eviction.dirty:
            self._write_back(eviction.address, bytes(eviction.payload))

    def read_blocks(self, addresses: list[int]) -> list[bytes]:
        """Read many blocks through the L2, batching the miss work.

        Returns plaintexts in input order; each entry is byte-identical to
        what the equivalent ``read_block`` loop would have returned.  Misses
        are deduplicated and serviced sorted by counter block, so each
        counter block faults on-chip at most once and all pads come from
        one AES dispatch; Merkle chains are walked once per shared parent.
        Cache/eviction order may differ from the scalar loop (hit/miss
        statistics can shift).  Dirty evictions are written back together
        after the fills, through :meth:`_write_back_many`, so DRAM holds a
        consistent image when the call returns.  On an
        :class:`IntegrityViolation` the batch aborts without returning any
        values.
        """
        for address in addresses:
            self._check_data_address(address)
            if self.recovery is not None:
                self.recovery.check_fence(address)
        out: list[bytes | None] = [None] * len(addresses)
        misses: dict[int, list[int]] = {}
        for slot, address in enumerate(addresses):
            if address in misses:
                misses[address].append(slot)
            elif self.l2.access(address):
                out[slot] = bytes(self.l2.payload(address))
            else:
                misses[address] = [slot]
        if misses:
            pending = sorted(
                misses, key=lambda a: (self._counter_block_index(a), a)
            )
            plaintexts = self._fetch_blocks_bulk(pending)
            evicted: list[tuple[int, bytes]] = []
            for address in pending:
                plaintext = plaintexts[address]
                data = bytes(plaintext)
                for slot in misses[address]:
                    out[slot] = data
                eviction = self.l2.fill(address, payload=plaintext)
                if eviction is not None and eviction.dirty:
                    evicted.append((eviction.address, bytes(eviction.payload)))
            self._write_back_many(evicted)
        return out  # type: ignore[return-value]

    def write_blocks(self, pairs: list[tuple[int, bytes]]) -> None:
        """Write many blocks through the L2, batching the allocate work.

        ``pairs`` holds ``(address, data)`` in program order; duplicate
        addresses collapse last-write-wins, exactly as the equivalent
        ``write_block`` loop would leave them.  Write-allocate fetches for
        missing blocks, and the dirty evictions, are batched like
        :meth:`read_blocks`.
        """
        for address, data in pairs:
            self._check_data_address(address)
            if len(data) != self.block_size:
                raise ValueError(f"data must be {self.block_size} bytes")
            if self.recovery is not None:
                self.recovery.check_fence(address)
        staged: dict[int, bytes] = {}   # miss staging, last write wins
        for address, data in pairs:
            if address in staged:
                staged[address] = data
            elif self.l2.access(address, write=True):
                self.l2.payload(address)[:] = data
            else:
                staged[address] = data
        if staged:
            pending = sorted(
                staged, key=lambda a: (self._counter_block_index(a), a)
            )
            # write-allocate: verify the blocks the writes replace, without
            # decrypting them (shares verify per share on the scalar path)
            if self.config.encryption is EncryptionMode.SHARES:
                self._fetch_blocks_bulk(pending)
            else:
                self._verify_blocks_bulk(pending)
            evicted: list[tuple[int, bytes]] = []
            for address in staged:  # preserve first-seen fill order
                eviction = self.l2.fill(address, dirty=True,
                                        payload=bytearray(staged[address]))
                if eviction is not None and eviction.dirty:
                    evicted.append((eviction.address, bytes(eviction.payload)))
            self._write_back_many(evicted)

    def read(self, address: int, size: int) -> bytes:
        """Byte-granular read spanning blocks."""
        out = bytearray()
        while size > 0:
            base = address & ~(self.block_size - 1)
            offset = address - base
            take = min(size, self.block_size - offset)
            out.extend(self.read_block(base)[offset : offset + take])
            address += take
            size -= take
        return bytes(out)

    def write(self, address: int, data: bytes) -> None:
        """Byte-granular write spanning blocks (read-modify-write)."""
        position = 0
        while position < len(data):
            base = (address + position) & ~(self.block_size - 1)
            offset = (address + position) - base
            take = min(len(data) - position, self.block_size - offset)
            block = bytearray(self.read_block(base))
            block[offset : offset + take] = data[position : position + take]
            self.write_block(base, bytes(block))
            position += take

    def flush(self) -> None:
        """Write all dirty on-chip state back to DRAM.

        After a flush, DRAM holds every data, counter and tree block, and
        the tree's on-chip top-level MACs authenticate that image, so a block
        whose L2 line is dropped (``l2.invalidate``) re-fetches, verifies
        and decrypts from DRAM.  Lines stay resident in the L2, clean.
        """
        # Write-backs can dirty more lines (lazy page re-encryption marks
        # cached blocks dirty; data write-backs dirty counter blocks), so
        # sweep until everything is clean.
        while True:
            dirty_data = list(self.l2.dirty_blocks())
            for address in dirty_data:
                self.l2.clear_dirty(address)
            self._write_back_many([(address, bytes(self.l2.payload(address)))
                                   for address in dirty_data])
            counter_cache = (self.counter_cache.cache
                             if self.counter_cache is not None else None)
            dirty_counters = (list(counter_cache.dirty_blocks())
                              if counter_cache is not None else [])
            for block_addr in dirty_counters:
                counter_cache.clear_dirty(block_addr)
                self._write_back_counter_block(block_addr // self.block_size)
            if not dirty_data and not dirty_counters:
                break
        if self.merkle is not None:
            self.merkle.flush()

    @property
    def integrity_violations(self) -> int:
        total = self.stats.integrity_violations
        if self.merkle is not None:
            total = max(total, self.merkle.stats.violations_detected)
        return total

    # -- checkpoint support ------------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable full machine state (see repro.resilience.checkpoint).

        Key material is *not* secret to the checkpoint: the base key is
        part of the construction parameters, so only the epoch needs
        recording — the data key re-derives on load.
        """
        from repro.obs.metrics import fields_state
        state: dict = {
            "key_epoch": self._key_epoch,
            "materialized": set(self._materialized),
            "counter_materialized": set(self._counter_materialized),
            "counter_deriv": dict(self._counter_deriv),
            "l2": self.l2.state_dict(),
            "dram": self.dram.state_dict(),
            "rsrs": self.rsr_file.state_dict(),
            "stats": fields_state(self.stats),
        }
        if self.counter_cache is not None:
            state["counter_cache"] = self.counter_cache.state_dict()
        if self.counter_scheme is not None:
            state["scheme"] = self.counter_scheme.state_dict()
        if self.merkle is not None:
            state["merkle"] = self.merkle.state_dict()
        if self.recovery is not None:
            state["recovery"] = self.recovery.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        from repro.obs.metrics import load_fields_state
        self._key_epoch = state["key_epoch"]
        self._data_aes = AES128(
            _derive_key(self._base_key, b"data", self._key_epoch)
        )
        self._materialized = set(state["materialized"])
        self._counter_materialized = set(state["counter_materialized"])
        self._counter_deriv = dict(state["counter_deriv"])
        self.l2.load_state(state["l2"])
        self.dram.load_state(state["dram"])
        self.rsr_file.load_state(state["rsrs"])
        load_fields_state(self.stats, state["stats"])
        if self.counter_cache is not None:
            self.counter_cache.load_state(state["counter_cache"])
        if self.counter_scheme is not None:
            self.counter_scheme.load_state(state["scheme"])
        if self.merkle is not None:
            self.merkle.load_state(state["merkle"])
        if self.recovery is not None:
            self.recovery.load_state(state["recovery"])
