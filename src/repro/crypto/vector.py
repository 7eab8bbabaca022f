"""NumPy-vectorized bulk crypto kernels — the batch hot path.

The table-driven kernels in :mod:`repro.crypto.aes` and
:mod:`repro.crypto.gf128` made *single-block* operations fast; this module
makes *batches* fast.  The paper's hardware argument is that pad generation
and GHASH are embarrassingly parallel across blocks (a multi-engine AES
pipeline, one GF(2^128) multiply per cycle), and the software analogue is
the same computation expressed as NumPy array programs:

* **AES-128** — the batch state is an ``(N, 16)`` uint8 array in the same
  column-major byte order as the scalar kernel.  SubBytes is one fancy-index
  gather through the S-box, ShiftRows a fixed column permutation, and
  MixColumns eight xtime-table gathers plus XORs per round, all over the
  whole batch at once.  The key schedule is computed once per key and
  broadcast.
* **GHASH** — Shoup's 8-bit-window method vectorized: the per-subkey table
  becomes two ``(16, 256)`` uint64 arrays (high/low halves of each 128-bit
  product), and one chain step for N lanes is 32 gathers plus XOR
  reductions.  Lanes advance in lockstep, so a batch of same-length
  messages (the leaf-MAC case: every message is one cache block) costs one
  chain, not N.
* **Leaf MACs / CTR pads** — compositions of the two, with the per-chunk
  seeds themselves built as array programs.

Everything here is *bit-identical* to the table and scalar kernels — the
Hypothesis suite in ``tests/crypto/test_vector_equivalence.py`` and the
fuzz harness's differential oracle prove it on every run.  Callers select a
kernel through the ``kernel=`` arguments (or ``Config.kernel``); the
dispatch helpers fall back to the table kernel automatically when the batch
is too small to amortize array overhead.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as _np

from repro.crypto.aes import (
    AES128,
    INV_SBOX,
    NUM_ROUNDS,
    SBOX,
    _inv_mix_columns,
    _MUL2,
    _MUL3,
    _MUL9,
    _MUL11,
    _MUL13,
    _MUL14,
    expand_key,
)
from repro.crypto.ctr import AUTHENTICATION_IV, CHUNK_SIZE, ENCRYPTION_IV
from repro.crypto.gf128 import _mulx, _RED8, block_to_int, gf128_mul
from repro.crypto.ghash import ghash_chunks

#: kernel names accepted by the dispatch helpers and ``Config.kernel``
KERNELS = ("scalar", "table", "vector")

#: below this many 16-byte blocks the per-call array overhead outweighs the
#: vector win and the dispatchers silently use the table kernel instead
VECTOR_MIN_BLOCKS = 8

_MASK48 = (1 << 48) - 1
_MASK64 = (1 << 64) - 1


def resolve_kernel(name: str) -> str:
    """Map a requested kernel (or ``"auto"``) to the one that will run.

    ``"auto"`` picks ``"vector"``.  Unknown names raise
    :class:`ValueError`.
    """
    if name == "auto":
        return "vector"
    if name not in KERNELS:
        raise ValueError(
            f"kernel must be 'auto' or one of {KERNELS}, got {name!r}"
        )
    return name


# -- numpy lookup tables (tiny; built eagerly at import) ----------------------

_SBOX_NP = _np.array(SBOX, dtype=_np.uint8)
_INV_SBOX_NP = _np.array(INV_SBOX, dtype=_np.uint8)
_MUL2_NP = _np.array(_MUL2, dtype=_np.uint8)
_MUL3_NP = _np.array(_MUL3, dtype=_np.uint8)
_MUL9_NP = _np.array(_MUL9, dtype=_np.uint8)
_MUL11_NP = _np.array(_MUL11, dtype=_np.uint8)
_MUL13_NP = _np.array(_MUL13, dtype=_np.uint8)
_MUL14_NP = _np.array(_MUL14, dtype=_np.uint8)
# ShiftRows / InvShiftRows as column permutations of the flat state
# (byte i = column i//4, row i%4 — identical to the scalar kernel).
_SHIFT_NP = _np.array(
    [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11],
    dtype=_np.intp,
)
_INV_SHIFT_NP = _np.array(
    [0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3],
    dtype=_np.intp,
)


def _blocks_to_array(blocks) -> "_np.ndarray":
    """Pack 16-byte blocks into an ``(N, 16)`` uint8 array."""
    if isinstance(blocks, _np.ndarray):
        if blocks.ndim != 2 or blocks.shape[1] != 16:
            raise ValueError("block array must have shape (N, 16)")
        return blocks.astype(_np.uint8, copy=False)
    joined = b"".join(blocks)
    if len(joined) % 16:
        raise ValueError("blocks must all be 16 bytes")
    return _np.frombuffer(joined, dtype=_np.uint8).reshape(-1, 16)


def _array_to_blocks(arr: "_np.ndarray") -> list[bytes]:
    flat = arr.tobytes()
    return [flat[i:i + 16] for i in range(0, len(flat), 16)]


# -- vectorized AES-128 -------------------------------------------------------


class VectorAES128:
    """AES-128 over ``(N, 16)`` uint8 batch states, bound to one key.

    Byte-identical to :class:`repro.crypto.aes.AES128`: same column-major
    state order, same (equivalent-inverse-cipher) decryption key schedule.
    Construction costs one key expansion; per-batch work is ten rounds of
    whole-array gathers and XORs.
    """

    __slots__ = ("key", "_rk_enc", "_rk_dec")

    def __init__(self, key: bytes):
        round_keys = expand_key(key)
        self.key = bytes(key)
        self._rk_enc = _np.array(round_keys, dtype=_np.uint8)
        # Equivalent inverse cipher: reversed round keys with InvMixColumns
        # applied to the nine middle ones (FIPS-197 section 5.3.5).
        dec_keys = [round_keys[NUM_ROUNDS]]
        for rnd in range(NUM_ROUNDS - 1, 0, -1):
            mixed = list(round_keys[rnd])
            _inv_mix_columns(mixed)
            dec_keys.append(mixed)
        dec_keys.append(round_keys[0])
        self._rk_dec = _np.array(dec_keys, dtype=_np.uint8)

    # The MixColumns matrix rows are cyclic shifts of (2 3 1 1), so one
    # round's column mix is eight gathers (xtime and xtime^3 of each input
    # row) plus twelve XORs over the whole batch.

    @staticmethod
    def _mix_columns(cols: "_np.ndarray") -> "_np.ndarray":
        a0 = cols[:, :, 0]
        a1 = cols[:, :, 1]
        a2 = cols[:, :, 2]
        a3 = cols[:, :, 3]
        m0 = _MUL2_NP[a0]
        m1 = _MUL2_NP[a1]
        m2 = _MUL2_NP[a2]
        m3 = _MUL2_NP[a3]
        n0 = _MUL3_NP[a0]
        n1 = _MUL3_NP[a1]
        n2 = _MUL3_NP[a2]
        n3 = _MUL3_NP[a3]
        out = _np.empty_like(cols)
        out[:, :, 0] = m0 ^ n1 ^ a2 ^ a3
        out[:, :, 1] = a0 ^ m1 ^ n2 ^ a3
        out[:, :, 2] = a0 ^ a1 ^ m2 ^ n3
        out[:, :, 3] = n0 ^ a1 ^ a2 ^ m3
        return out

    @staticmethod
    def _inv_mix_columns(cols: "_np.ndarray") -> "_np.ndarray":
        a0 = cols[:, :, 0]
        a1 = cols[:, :, 1]
        a2 = cols[:, :, 2]
        a3 = cols[:, :, 3]
        out = _np.empty_like(cols)
        out[:, :, 0] = (_MUL14_NP[a0] ^ _MUL11_NP[a1]
                        ^ _MUL13_NP[a2] ^ _MUL9_NP[a3])
        out[:, :, 1] = (_MUL9_NP[a0] ^ _MUL14_NP[a1]
                        ^ _MUL11_NP[a2] ^ _MUL13_NP[a3])
        out[:, :, 2] = (_MUL13_NP[a0] ^ _MUL9_NP[a1]
                        ^ _MUL14_NP[a2] ^ _MUL11_NP[a3])
        out[:, :, 3] = (_MUL11_NP[a0] ^ _MUL13_NP[a1]
                        ^ _MUL9_NP[a2] ^ _MUL14_NP[a3])
        return out

    def encrypt_array(self, state: "_np.ndarray") -> "_np.ndarray":
        """Encrypt an ``(N, 16)`` uint8 batch; returns a new array."""
        rk = self._rk_enc
        s = state ^ rk[0]
        for rnd in range(1, NUM_ROUNDS):
            s = _SBOX_NP[s][:, _SHIFT_NP]
            s = self._mix_columns(s.reshape(-1, 4, 4)).reshape(-1, 16)
            s ^= rk[rnd]
        s = _SBOX_NP[s][:, _SHIFT_NP]
        return s ^ rk[NUM_ROUNDS]

    def decrypt_array(self, state: "_np.ndarray") -> "_np.ndarray":
        """Decrypt an ``(N, 16)`` uint8 batch (equivalent inverse cipher)."""
        rk = self._rk_dec
        s = state ^ rk[0]
        for rnd in range(1, NUM_ROUNDS):
            s = _INV_SBOX_NP[s][:, _INV_SHIFT_NP]
            s = self._inv_mix_columns(s.reshape(-1, 4, 4)).reshape(-1, 16)
            s ^= rk[rnd]
        s = _INV_SBOX_NP[s][:, _INV_SHIFT_NP]
        return s ^ rk[NUM_ROUNDS]

    def encrypt_blocks(self, blocks) -> list[bytes]:
        """Encrypt many 16-byte blocks in one batch."""
        arr = _blocks_to_array(blocks)
        if arr.shape[0] == 0:
            return []
        return _array_to_blocks(self.encrypt_array(arr))

    def decrypt_blocks(self, blocks) -> list[bytes]:
        """Decrypt many 16-byte blocks in one batch."""
        arr = _blocks_to_array(blocks)
        if arr.shape[0] == 0:
            return []
        return _array_to_blocks(self.decrypt_array(arr))


# Per-key instance caches, bounded like the GHASH table cache: a full reset
# on overflow is fine (rebuild = one key expansion / one 8 KB table pair).
_VECTOR_AES_CACHE: dict[bytes, VectorAES128] = {}
_VECTOR_GHASH_CACHE: dict[bytes, "VectorGHASH"] = {}
_CACHE_MAX = 64


def vector_aes(key: bytes) -> VectorAES128:
    """Per-key :class:`VectorAES128`, cached across calls."""
    key = bytes(key)
    cipher = _VECTOR_AES_CACHE.get(key)
    if cipher is None:
        if len(_VECTOR_AES_CACHE) >= _CACHE_MAX:
            _VECTOR_AES_CACHE.clear()
        cipher = _VECTOR_AES_CACHE[key] = VectorAES128(key)
    return cipher


# -- vectorized GHASH ---------------------------------------------------------


class VectorGHASH:
    """Batched multiply-by-H chains for one GHASH subkey.

    Shoup's 8-bit-window tables, stored as two ``(16, 256)`` uint64 arrays
    (high/low halves of each precomputed 128-bit product).  One chain step
    for the whole batch is: XOR the incoming chunks into the running
    digests, gather the 32 half-products per byte position, XOR-reduce.
    """

    __slots__ = ("h", "_th", "_tl")

    def __init__(self, h: bytes):
        self.h = bytes(h)
        hval = block_to_int(self.h)
        # Same row construction as GF128Table (kept independent so the two
        # implementations cross-check each other rather than sharing bugs).
        powers = [hval]
        for _ in range(7):
            powers.append(_mulx(powers[-1]))
        single = {1 << k: powers[7 - k] for k in range(8)}
        row = [0] * 256
        for b in range(1, 256):
            low = b & -b
            row[b] = row[b ^ low] ^ single[low]
        rows = [row]
        for _ in range(15):
            prev = rows[-1]
            rows.append([(v >> 8) ^ _RED8[v & 0xFF] for v in prev])
        self._th = _np.array([[v >> 64 for v in r] for r in rows],
                             dtype=_np.uint64)
        self._tl = _np.array([[v & _MASK64 for v in r] for r in rows],
                             dtype=_np.uint64)

    def chain(self, chunks: "_np.ndarray") -> "_np.ndarray":
        """Run ``y = (y ^ chunk) * H`` over an ``(N, m, 16)`` chunk array.

        Returns the ``(N, 16)`` uint8 digests.  All lanes advance in
        lockstep, which is why callers group messages by chunk count.
        """
        n, m, _ = chunks.shape
        th, tl = self._th, self._tl
        y = _np.zeros((n, 16), dtype=_np.uint8)
        packed = _np.empty((n, 2), dtype=">u8")
        for j in range(m):
            # ``x`` materializes before ``packed`` (which ``y`` views) is
            # overwritten, so reusing the buffer across chunks is safe and
            # avoids an (n, 16) copy per chain step.
            x = y ^ chunks[:, j, :]
            hi = th[0, x[:, 0]]
            lo = tl[0, x[:, 0]]
            for i in range(1, 16):
                col = x[:, i]
                hi ^= th[i, col]
                lo ^= tl[i, col]
            packed[:, 0] = hi
            packed[:, 1] = lo
            y = packed.view(_np.uint8).reshape(n, 16)
        return y.copy() if m else y


def vector_ghash(h: bytes) -> VectorGHASH:
    """Per-subkey :class:`VectorGHASH`, cached across calls."""
    h = bytes(h)
    table = _VECTOR_GHASH_CACHE.get(h)
    if table is None:
        if len(_VECTOR_GHASH_CACHE) >= _CACHE_MAX:
            _VECTOR_GHASH_CACHE.clear()
        table = _VECTOR_GHASH_CACHE[h] = VectorGHASH(h)
    return table


def ghash_chunks_many(h: bytes, messages: Sequence[bytes]) -> list[bytes]:
    """GHASH many chunk streams under one subkey, batched by length.

    Each message must be a whole number of 16-byte chunks; a message is
    hashed exactly as :func:`repro.crypto.ghash.ghash_chunks` hashes its
    chunk list (no length block).  Messages of equal chunk count share one
    vector chain, so the common case — every message is one cache block —
    is a single batch.
    """
    out: list[bytes | None] = [None] * len(messages)
    groups: dict[int, list[int]] = {}
    for index, message in enumerate(messages):
        if len(message) % 16:
            raise ValueError("GHASH messages must be whole 16-byte chunks")
        groups.setdefault(len(message) // 16, []).append(index)
    table = vector_ghash(h)
    zero = bytes(16)
    for num_chunks, indices in groups.items():
        if num_chunks == 0:
            for index in indices:
                out[index] = zero
            continue
        arr = _np.frombuffer(
            b"".join(messages[i] for i in indices), dtype=_np.uint8
        ).reshape(len(indices), num_chunks, 16)
        digests = table.chain(arr).tobytes()
        for slot, index in enumerate(indices):
            out[index] = digests[slot * 16:(slot + 1) * 16]
    return out  # type: ignore[return-value]


# -- seed construction as an array program ------------------------------------


def make_seeds_array(block_addresses: Sequence[int],
                     counters: Sequence[int], num_chunks: int,
                     iv_tag: int) -> "_np.ndarray":
    """Build the per-chunk AES seeds for many blocks as one uint8 array.

    Mirrors :func:`repro.crypto.ctr.make_seeds` for each (address, counter)
    pair: byte layout ``[48-bit chunk index][64-bit counter][16-bit IV]``,
    big-endian, ``num_chunks`` consecutive chunk seeds per block.  Returns
    shape ``(len(block_addresses) * num_chunks, 16)``.
    """
    # Counters may exceed 64 bits (split: major||minor); mask in Python
    # ints first — np.asarray would overflow on >64-bit values.
    base = _np.asarray(
        [(a // CHUNK_SIZE) & _MASK48 for a in block_addresses],
        dtype=_np.uint64,
    )
    ctrs = _np.asarray([c & _MASK64 for c in counters], dtype=_np.uint64)
    idx = (_np.repeat(base, num_chunks)
           + _np.tile(_np.arange(num_chunks, dtype=_np.uint64), len(base)))
    idx &= _np.uint64(_MASK48)
    total = idx.shape[0]
    seeds = _np.empty((total, 16), dtype=_np.uint8)
    seeds[:, 0:6] = idx.astype(">u8").view(_np.uint8).reshape(total, 8)[:, 2:]
    seeds[:, 6:14] = (_np.repeat(ctrs, num_chunks)
                      .astype(">u8").view(_np.uint8).reshape(total, 8))
    seeds[:, 14] = (iv_tag >> 8) & 0xFF
    seeds[:, 15] = iv_tag & 0xFF
    return seeds


def _chunk_seeds_for_items(items) -> tuple["_np.ndarray", list[int]]:
    """Flat seed array + per-item chunk counts for (addr, counter, data)."""
    addresses: list[int] = []
    counters: list[int] = []
    counts: list[int] = []
    uniform = True
    for block_address, counter, data in items:
        if len(data) % CHUNK_SIZE:
            raise ValueError("data must be a whole number of 16-byte chunks")
        if block_address % CHUNK_SIZE:
            raise ValueError("chunk address must be 16-byte aligned")
        addresses.append(block_address)
        counters.append(counter)
        counts.append(len(data) // CHUNK_SIZE)
        uniform = uniform and counts[-1] == counts[0]
    if uniform and counts:
        return (make_seeds_array(addresses, counters, counts[0],
                                 ENCRYPTION_IV), counts)
    pieces = [
        make_seeds_array([address], [counter], count, ENCRYPTION_IV)
        for address, counter, count in zip(addresses, counters, counts)
        if count
    ]
    if not pieces:
        return _np.empty((0, 16), dtype=_np.uint8), counts
    return _np.concatenate(pieces), counts


def bulk_ctr_transform_vector(key: bytes, items, iv_tag: int = ENCRYPTION_IV
                              ) -> list[bytes]:
    """Counter-mode transform many blocks with the vector AES kernel.

    Drop-in peer of :func:`repro.crypto.ctr.bulk_ctr_transform`:
    ``items`` is ``(block_address, counter, data)`` triples, output order
    is input order, and the result is byte-identical to the table path.
    """
    if iv_tag == ENCRYPTION_IV:
        seeds, counts = _chunk_seeds_for_items(items)
    else:
        triples = [(a, c, d) for a, c, d in items]
        addresses = [a for a, _, _ in triples]
        counters = [c for _, c, _ in triples]
        counts = [len(d) // CHUNK_SIZE for _, _, d in triples]
        seeds = _np.concatenate([
            make_seeds_array([address], [counter], count, iv_tag)
            for address, counter, count in zip(addresses, counters, counts)
            if count
        ]) if any(counts) else _np.empty((0, 16), dtype=_np.uint8)
    if seeds.shape[0] == 0:
        return [b"" for _ in counts]
    pads = vector_aes(key).encrypt_array(seeds)
    data_flat = _np.frombuffer(
        b"".join(data for _, _, data in items), dtype=_np.uint8
    ).reshape(-1, 16)
    flat = (data_flat ^ pads).tobytes()
    out: list[bytes] = []
    offset = 0
    for count in counts:
        out.append(flat[offset:offset + count * CHUNK_SIZE])
        offset += count * CHUNK_SIZE
    return out


def gcm_block_macs_vector(key: bytes, ghash_key: bytes, items,
                          mac_bits: int = 64) -> list[bytes]:
    """Batched GCM block MACs (digest XOR authentication pad, truncated).

    ``items`` is ``(block_address, counter, ciphertext)`` triples; each
    result is byte-identical to
    :func:`repro.crypto.mac.gcm_block_mac` on the same inputs.
    """
    triples = list(items)
    if not triples:
        return []
    digests = ghash_chunks_many(ghash_key, [ct for _, _, ct in triples])
    seeds = make_seeds_array([a for a, _, _ in triples],
                             [c for _, c, _ in triples], 1,
                             AUTHENTICATION_IV)
    pads = vector_aes(key).encrypt_array(seeds)
    digest_arr = _np.frombuffer(b"".join(digests),
                                dtype=_np.uint8).reshape(-1, 16)
    macs = (digest_arr ^ pads)[:, : mac_bits // 8].tobytes()
    width = mac_bits // 8
    return [macs[i * width:(i + 1) * width] for i in range(len(triples))]


# -- kernel dispatch helpers --------------------------------------------------
#
# These are the names the rest of the system calls: they accept a kernel
# label (already passed through resolve_kernel by the config layer) and
# route to the scalar reference, the table kernel, or the vector path —
# falling back to the table kernel for sub-threshold batches, where the
# array overhead would make "vector" a de-facto slowdown.


def encrypt_blocks_kernel(aes: AES128, blocks: Sequence[bytes],
                          kernel: str = "table") -> list[bytes]:
    """Encrypt many 16-byte blocks with the named kernel."""
    if kernel == "vector" and len(blocks) >= VECTOR_MIN_BLOCKS:
        return vector_aes(aes.key).encrypt_blocks(blocks)
    if kernel == "scalar":
        return [aes.encrypt_block_scalar(block) for block in blocks]
    return aes.encrypt_blocks(blocks)


def decrypt_blocks_kernel(aes: AES128, blocks: Sequence[bytes],
                          kernel: str = "table") -> list[bytes]:
    """Decrypt many 16-byte blocks with the named kernel."""
    if kernel == "vector" and len(blocks) >= VECTOR_MIN_BLOCKS:
        return vector_aes(aes.key).decrypt_blocks(blocks)
    if kernel == "scalar":
        return [aes.decrypt_block_scalar(block) for block in blocks]
    return aes.decrypt_blocks(blocks)


def _ghash_chunks_scalar(h: bytes, chunks: Iterable[bytes]) -> bytes:
    """Bit-serial GHASH chain (the scalar reference, no tables)."""
    hval = block_to_int(h)
    y = 0
    for chunk in chunks:
        if len(chunk) != 16:
            raise ValueError("GHASH chunks must be 16 bytes")
        y = gf128_mul(y ^ block_to_int(chunk), hval)
    return y.to_bytes(16, "big")


def ghash_chunks_kernel(h: bytes, chunks: list[bytes],
                        kernel: str = "table") -> bytes:
    """GHASH one chunk list with the named kernel."""
    if kernel == "scalar":
        return _ghash_chunks_scalar(h, chunks)
    if kernel == "vector":
        return ghash_chunks_many(h, [b"".join(chunks)])[0]
    return ghash_chunks(h, chunks)
