"""Synthetic address-stream generators standing in for SPEC CPU 2000.

Each benchmark profile mixes four access components whose parameters are
the first-order levers of every experiment in the paper:

* **hot** — a small, heavily reused region (stack / scalars / hot hash
  buckets).  Hits in L1/L2; its *written* blocks are the fast-advancing
  counters of Table 2.
* **stream** — sequential strided sweeps over large arrays (the SPECfp
  pattern: applu, swim, mgrid, wupwise).  Produces L2 misses with strong
  spatial (and therefore encryption-page) locality.
* **random** — uniform references over a large working set (mcf's and
  art's pointer-chasing).  Produces L2 misses with poor page locality —
  the stressor for counter caches and Merkle node caches.
* **pages** — a hot set of pages revisited with intra-page locality
  (twolf/parser-style).  Misses cluster within 4KB regions.
* **thrash** — a small set of blocks laid out one L2-way-stride apart so
  they conflict in one cache set and evict each other on every round.
  Written blocks bounce between the L2 and memory, re-encrypting on every
  trip: these are the "small sets of blocks that are frequently written
  back" the paper observes in equake and twolf, and the fast-advancing
  counters whose growth rate Table 2 extrapolates from.

The weights, region sizes, and write ratios are the per-app profile knobs
(:mod:`repro.workloads.spec2k`).  Generation is seeded and deterministic.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.workloads.trace import CHUNK, TRACE_DTYPE, Trace

BLOCK = 64
PAGE = 4096
BLOCKS_PER_PAGE = PAGE // BLOCK


@dataclass(frozen=True)
class WorkloadProfile:
    """Tunable description of one benchmark's memory behaviour."""

    name: str
    #: average non-memory instructions between references
    mean_gap: float = 2.0
    #: fraction of references that are stores
    write_fraction: float = 0.3
    #: mixture weights (hot, stream, random, pages); normalized internally
    w_hot: float = 0.55
    w_stream: float = 0.2
    w_random: float = 0.05
    w_pages: float = 0.2
    w_thrash: float = 0.0
    #: region sizes in bytes
    hot_bytes: int = 8 * 1024
    stream_bytes: int = 8 * 1024 * 1024
    random_bytes: int = 4 * 1024 * 1024
    page_pool_pages: int = 256
    #: spacing between pool pages, in pages.  1 = contiguous; 32 places
    #: consecutive pool pages one L2-way-stride (128KB) apart so that the
    #: pool conflicts in the cache and its blocks write back on every
    #: revisit — used to stage write-hot full pages for RSR experiments.
    page_stride: int = 1
    #: skew exponent for the random component: 1.0 = uniform; larger values
    #: concentrate references on a hot head of the region (Zipf-like reuse)
    random_skew: float = 1.0
    #: stream stride in bytes (8 = element-wise sweep touching each block
    #: eight times, 64 = block-per-reference streaming)
    stream_stride: int = 8
    #: how many distinct streams advance round-robin
    num_streams: int = 4
    #: accesses spent inside one page before moving on (pages component)
    page_burst: int = 16
    #: extra write probability for the hot component (drives counter growth)
    hot_write_fraction: float | None = None
    #: thrash component: blocks one L2-way-stride apart, written round-robin
    thrash_blocks: int = 12
    thrash_write_fraction: float = 0.9
    #: L2 way size (capacity / associativity) — sets the conflict stride
    l2_way_bytes: int = 128 * 1024

    def region_layout(self) -> dict[str, int]:
        """Base address of each component region (contiguous layout)."""
        hot_base = 0
        stream_base = hot_base + _round_page(self.hot_bytes)
        random_base = stream_base + _round_page(self.stream_bytes)
        pages_base = random_base + _round_page(self.random_bytes)
        thrash_base = (pages_base
                       + self.page_pool_pages * self.page_stride * PAGE)
        end = thrash_base + self.thrash_blocks * self.l2_way_bytes
        return {
            "hot": hot_base,
            "stream": stream_base,
            "random": random_base,
            "pages": pages_base,
            "thrash": thrash_base,
            "end": end,
        }

    @property
    def footprint_bytes(self) -> int:
        return self.region_layout()["end"]


def _round_page(n: int) -> int:
    return -(-n // PAGE) * PAGE


def store_chunk(records, start: int, gaps: list, writes: list,
                addrs: list) -> int:
    """Copy one chunk's per-reference lists into the ``TRACE_DTYPE``
    array ``records`` at ``start``, empty the lists, and return the index
    after the chunk."""
    stop = start + len(addrs)
    records["gap"][start:stop] = gaps
    records["write"][start:stop] = writes
    records["addr"][start:stop] = addrs
    gaps.clear()
    writes.clear()
    addrs.clear()
    return stop


def generate_trace(profile: WorkloadProfile, num_refs: int,
                   seed: int = 1234) -> Trace:
    """Produce ``num_refs`` references following a profile.

    The same (profile, num_refs, seed) triple always yields the identical
    trace, so every benchmark config sees the same reference stream.  The
    references go into a preallocated records array :data:`CHUNK` at a
    time, so generation holds no per-reference Python list.
    """
    # zlib.crc32, not hash(): str hashing is salted per process, which
    # silently broke the determinism promise above across runs.
    rng = random.Random((zlib.crc32(profile.name.encode()) & 0xFFFF) ^ seed)
    layout = profile.region_layout()
    weights = [profile.w_hot, profile.w_stream, profile.w_random,
               profile.w_pages, profile.w_thrash]
    total_w = sum(weights)
    if total_w <= 0:
        raise ValueError("profile weights must sum to a positive value")
    cum = []
    acc = 0.0
    for w in weights:
        acc += w / total_w
        cum.append(acc)
    c_hot, c_stream, c_random, c_pages = cum[:4]

    hot_base = layout["hot"]
    hot_blocks = max(1, profile.hot_bytes // BLOCK)
    num_streams = profile.num_streams
    stream_base = layout["stream"]
    stream_span = profile.stream_bytes // num_streams
    stream_positions = [stream_base + i * stream_span
                        for i in range(num_streams)]
    stream_limit = stream_base + profile.stream_bytes
    stream_stride = profile.stream_stride
    random_base = layout["random"]
    random_blocks = max(1, profile.random_bytes // BLOCK)
    random_skew = profile.random_skew
    pages_base = layout["pages"]
    page_pool = profile.page_pool_pages
    page_step = profile.page_stride * PAGE
    page_burst = profile.page_burst
    current_page = pages_base
    page_left = 0
    thrash_base = layout["thrash"]
    thrash_way = profile.l2_way_bytes
    thrash_blocks = profile.thrash_blocks
    thrash_wf = profile.thrash_write_fraction
    thrash_next = 0

    mean_gap = profile.mean_gap
    has_gap = mean_gap > 0
    lambd = 1.0 / mean_gap if has_gap else 0.0
    write_fraction = profile.write_fraction
    hot_wf = (profile.hot_write_fraction
              if profile.hot_write_fraction is not None
              else profile.write_fraction)

    draw = rng.random
    randrange = rng.randrange
    expovariate = rng.expovariate
    records = np.zeros(num_refs, dtype=TRACE_DTYPE)
    gaps: list[int] = []
    writes: list[bool] = []
    addrs: list[int] = []
    gap_append = gaps.append
    write_append = writes.append
    addr_append = addrs.append
    for lo in range(0, num_refs, CHUNK):
        for i in range(lo, min(lo + CHUNK, num_refs)):
            r = draw()
            if r < c_hot:
                # hot: zipf-ish reuse — square the uniform draw to skew
                # small
                addr_append(hot_base + int(draw() ** 2 * hot_blocks) * BLOCK)
                write_append(draw() < hot_wf)
            elif r < c_stream:
                s = i % num_streams
                addr = stream_positions[s]
                addr_append(addr)
                addr += stream_stride
                stream_positions[s] = (addr if addr < stream_limit
                                       else stream_base + s * stream_span)
                write_append(draw() < write_fraction)
            elif r < c_random:
                addr_append(random_base
                            + int(draw() ** random_skew * random_blocks)
                            * BLOCK)
                write_append(draw() < write_fraction)
            elif r < c_pages:
                if page_left <= 0:
                    current_page = (pages_base
                                    + randrange(page_pool) * page_step)
                    page_left = page_burst
                addr_append(current_page
                            + randrange(BLOCKS_PER_PAGE) * BLOCK)
                page_left -= 1
                write_append(draw() < write_fraction)
            else:
                addr_append(thrash_base + thrash_next * thrash_way)
                thrash_next = (thrash_next + 1) % thrash_blocks
                write_append(draw() < thrash_wf)
            gap_append(int(expovariate(lambd)) if has_gap else 0)
        store_chunk(records, lo, gaps, writes, addrs)

    return Trace.from_arrays(profile.name, records)
