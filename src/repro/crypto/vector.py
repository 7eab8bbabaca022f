"""NumPy-vectorized bulk crypto kernels — the batch hot path.

The table-driven kernels in :mod:`repro.crypto.aes` and
:mod:`repro.crypto.gf128` cost a fixed amount per 16-byte block; this
module makes a *batch* cost little more than one block.  The paper's
hardware argument is that pad generation and GHASH are embarrassingly
parallel across blocks (a multi-engine AES pipeline, one GF(2^128)
multiply per cycle), and the software analogue is the same computation
expressed as NumPy array programs whose call count does not grow with the
batch:

* **AES-128** — one round for the whole batch is one gather and one XOR
  reduction.  The gather reads the four classic T-tables (SubBytes and
  MixColumns fused: entry ``(r, b)`` is the ``<u4`` column that byte ``b``
  contributes when it arrives in row ``r``); ShiftRows is folded into the
  ``take`` that lays the state out for the next gather, one row per state
  byte.  Decryption follows the equivalent inverse cipher of FIPS-197
  section 5.3.5 with InvSubBytes/InvMixColumns tables.  The tables are
  built on the first vector cipher use of each direction, never at import.
* **GHASH** — Shoup's 8-bit-window method vectorized: the per-subkey table
  is two flat ``16 * 256`` uint64 arrays (high/low halves of each 128-bit
  product), and one chain step for N lanes is one gather per half for all
  sixteen byte positions, XOR-reduced over the contiguous byte axis.
  Lanes advance in lockstep, so a batch of same-length messages (the
  leaf-MAC case: every message is one cache block) costs one chain, not N.
* **Leaf MACs / CTR pads** — compositions of the two, with the per-chunk
  seeds themselves built as array programs.

Per-key state lives on the object that owns the key:
:meth:`repro.crypto.aes.AES128.vector` and
:meth:`repro.crypto.ghash.GHASH.vector` build it on first use and keep it,
so a service holding many tenants' keys never rebuilds a key's state while
the key is alive.  The functions below accept those objects, or raw key
bytes for one-off calls (which then build the state for that call only).

Everything here is *bit-identical* to the table and scalar kernels — the
Hypothesis suite in ``tests/crypto/test_vector_equivalence.py`` and the
fuzz harness's differential oracle prove it on every run.  No caller names
a kernel: the batch size picks it.  The dispatchers
(:func:`encrypt_blocks_kernel`, :func:`decrypt_blocks_kernel`,
:func:`repro.crypto.ctr.bulk_ctr_transform`,
:func:`repro.crypto.mac.gcm_block_macs`) run the vector kernel from a
measured batch size (``VECTOR_MIN_*``) up and the table kernel below it,
where the fixed cost of a vector call would lose.
"""

from __future__ import annotations

from typing import Sequence

import numpy as _np

from repro.crypto.aes import (
    AES128,
    INV_SBOX,
    NUM_ROUNDS,
    SBOX,
    _IMC_COEFF,
    _MC_COEFF,
    _MUL,
    _inv_mix_columns,
    expand_key,
)
from repro.crypto.ctr import AUTHENTICATION_IV, CHUNK_SIZE, ENCRYPTION_IV
from repro.crypto.gf128 import _mulx, _RED8, block_to_int
from repro.crypto.ghash import GHASH, ghash_of

# Dispatch thresholds: the smallest batch, in the unit each dispatcher
# counts, from which the vector kernel beats the table kernel on seeded
# random inputs.  ``repro bench`` records the crossover at 1-1024 cache
# blocks (its ``crossover`` section); the finer sweep that places each
# threshold between two sizes is in EXPERIMENTS.md, "Per-request cost:
# serve crypto kernels" (2-vCPU VM, Python 3.11.7, NumPy 2.4.6; median
# vector/table time over five interleaved runs).

#: :func:`encrypt_blocks_kernel` / :func:`decrypt_blocks_kernel`: 16-byte
#: AES blocks per call (vector/table 1.13-1.16 at 8 blocks, 0.78-0.86 at 12)
VECTOR_MIN_BLOCKS = 10
#: :func:`repro.crypto.ctr.bulk_ctr_transform`: 16-byte AES blocks, one
#: pad per chunk, per call (1.10 at 8 blocks, 0.85 at 10)
VECTOR_MIN_CTR_BLOCKS = 10
#: :func:`repro.crypto.mac.gcm_block_macs`: cache blocks, one MAC each,
#: per call (1.03 at 7 blocks, 0.97 at 8)
VECTOR_MIN_MAC_BLOCKS = 8

_MASK48 = (1 << 48) - 1
_MASK64 = (1 << 64) - 1


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
#
# The state between rounds is the previous round's output: four ``<u4``
# column words per lane, laid out ``(4, N)``, so its bytes sit in memory as
# [column][lane][row].  Slot ``j = 4c + r`` of the next round reads state
# byte ``P[j]`` (P = ShiftRows, or InvShiftRows when decrypting) of every
# lane; one ``take`` with a per-call flat index gathers all sixteen slots as
# a ``(16, N)`` array, and slot j looks up T-table row ``j % 4``.  The four
# looked-up columns of output column c are slots 4c..4c+3, so the round's
# MixColumns is one XOR reduction over axis 1 of a ``(4, 4, N)`` view.

_SBOX_NP = _np.array(SBOX, dtype=_np.uint8)
_INV_SBOX_NP = _np.array(INV_SBOX, dtype=_np.uint8)
# ShiftRows / InvShiftRows as the state byte each slot reads
# (byte i = column i//4, row i%4 — identical to the scalar kernel).
_SHIFT_NP = _np.array(
    [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11],
    dtype=_np.intp,
)
_INV_SHIFT_NP = _np.array(
    [0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3],
    dtype=_np.intp,
)
#: flat T-table offset of each slot: slot 4c + r reads the row-r table
_ROW_OFFSETS = (_np.arange(16, dtype=_np.intp) % 4 * 256).reshape(16, 1)

# Each direction's flat (4 * 256,) ``<u4`` T-table, built on that
# direction's first batch by _round_table().
_enc_round: "_np.ndarray | None" = None
_dec_round: "_np.ndarray | None" = None


def _build_round_table(encrypt: bool) -> "_np.ndarray":
    box, coeff = (SBOX, _MC_COEFF) if encrypt else (INV_SBOX, _IMC_COEFF)
    rows = []
    for r in range(4):
        m0, m1, m2, m3 = (_MUL[coeff[r_out][r]] for r_out in range(4))
        # little-endian word: byte k is output row k
        rows.append([m0[s] | m1[s] << 8 | m2[s] << 16 | m3[s] << 24
                     for s in box])
    return _np.array(rows, dtype="<u4").reshape(-1)


def _round_table(encrypt: bool) -> "_np.ndarray":
    global _enc_round, _dec_round
    if encrypt:
        if _enc_round is None:
            _enc_round = _build_round_table(True)
        return _enc_round
    if _dec_round is None:
        _dec_round = _build_round_table(False)
    return _dec_round


def _rounds(state: "_np.ndarray", slot_keys: "_np.ndarray",
            last_key: "_np.ndarray", table: "_np.ndarray",
            shift: "_np.ndarray", box: "_np.ndarray") -> "_np.ndarray":
    """Ten rounds over an ``(N, 16)`` batch; returns a new ``(N, 16)``.

    ``slot_keys[k]`` is round key k permuted into slot order (it is XORed
    after the ``take`` that applies the permutation, which commutes with
    the XOR); ``last_key`` is the final round key in byte order.
    """
    n = state.shape[0]
    lanes = 4 * _np.arange(n, dtype=_np.intp)
    between = (shift // 4 * (4 * n) + shift % 4)[:, None] + lanes
    s = _np.ascontiguousarray(state).reshape(-1).take(
        shift[:, None] + 4 * lanes)
    for rnd in range(NUM_ROUNDS - 1):
        s ^= slot_keys[rnd, :, None]
        words = _np.bitwise_xor.reduce(
            table[s + _ROW_OFFSETS].reshape(4, 4, n), axis=1)
        s = words.view(_np.uint8).reshape(-1).take(between)
    out = s.T ^ slot_keys[NUM_ROUNDS - 1]
    out = box[out]
    out ^= last_key
    return out


class VectorAES128:
    """AES-128 over ``(N, 16)`` uint8 batch states, bound to one key.

    Byte-identical to :class:`repro.crypto.aes.AES128`: same column-major
    state order, same (equivalent-inverse-cipher) decryption key schedule.
    Construction costs one key expansion; per-batch work is ten rounds of
    one gather and one XOR reduction each.
    """

    __slots__ = ("key", "_enc_keys", "_enc_last", "_dec_keys", "_dec_last")

    def __init__(self, key: bytes):
        round_keys = expand_key(key)
        self.key = bytes(key)
        # Equivalent inverse cipher: reversed round keys with InvMixColumns
        # applied to the nine middle ones (FIPS-197 section 5.3.5).
        dec_keys = [round_keys[NUM_ROUNDS]]
        for rnd in range(NUM_ROUNDS - 1, 0, -1):
            mixed = list(round_keys[rnd])
            _inv_mix_columns(mixed)
            dec_keys.append(mixed)
        dec_keys.append(round_keys[0])
        enc = _np.array(round_keys, dtype=_np.uint8)
        dec = _np.array(dec_keys, dtype=_np.uint8)
        self._enc_keys = enc[:NUM_ROUNDS, _SHIFT_NP]
        self._enc_last = enc[NUM_ROUNDS]
        self._dec_keys = dec[:NUM_ROUNDS, _INV_SHIFT_NP]
        self._dec_last = dec[NUM_ROUNDS]

    def encrypt_array(self, state: "_np.ndarray") -> "_np.ndarray":
        """Encrypt an ``(N, 16)`` uint8 batch; returns a new array."""
        return _rounds(state, self._enc_keys, self._enc_last,
                       _round_table(True), _SHIFT_NP, _SBOX_NP)

    def decrypt_array(self, state: "_np.ndarray") -> "_np.ndarray":
        """Decrypt an ``(N, 16)`` uint8 batch (equivalent inverse cipher)."""
        return _rounds(state, self._dec_keys, self._dec_last,
                       _round_table(False), _INV_SHIFT_NP, _INV_SBOX_NP)

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


def _vector_cipher(aes: AES128 | bytes) -> VectorAES128:
    """The vector twin a cipher keeps, or a one-off one for a raw key."""
    if isinstance(aes, AES128):
        return aes.vector()
    return VectorAES128(aes)


# -- vectorized GHASH ---------------------------------------------------------

#: flat table offset of each byte position of a GHASH chain input
_BYTE_OFFSETS = _np.arange(16, dtype=_np.intp) * 256


class VectorGHASH:
    """Batched multiply-by-H chains for one GHASH subkey.

    Shoup's 8-bit-window tables, stored as two flat ``16 * 256`` uint64
    arrays (high/low halves of each precomputed 128-bit product; entry
    ``256 * i + b`` is the product for byte value b at position i).  One
    chain step for the whole batch is: XOR the incoming chunks into the
    running digests, gather all sixteen high and sixteen low half-products
    per lane, XOR-reduce each over the byte axis.
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
        flat = [v for r in rows for v in r]
        self._th = _np.array([v >> 64 for v in flat], dtype=_np.uint64)
        self._tl = _np.array([v & _MASK64 for v in flat], dtype=_np.uint64)

    def chain(self, chunks: "_np.ndarray") -> "_np.ndarray":
        """Run ``y = (y ^ chunk) * H`` over an ``(N, m, 16)`` chunk array.

        Returns the ``(N, 16)`` uint8 digests.  All lanes advance in
        lockstep, which is why callers group messages by chunk count.
        """
        n, m, _ = chunks.shape
        th, tl = self._th, self._tl
        packed = _np.zeros((n, 2), dtype=">u8")
        # ``y`` views ``packed``; each step's gather index materializes
        # before ``packed`` is overwritten
        y = packed.view(_np.uint8)
        for j in range(m):
            index = (y ^ chunks[:, j, :]) + _BYTE_OFFSETS
            packed[:, 0] = _np.bitwise_xor.reduce(th[index], axis=1)
            packed[:, 1] = _np.bitwise_xor.reduce(tl[index], axis=1)
        return y


def _digest_array(table: VectorGHASH,
                  messages: Sequence[bytes]) -> "_np.ndarray":
    """``(len(messages), 16)`` digests; equal-length messages share a chain."""
    lengths = {len(message) for message in messages}
    for length in lengths:
        if length % 16:
            raise ValueError("GHASH messages must be whole 16-byte chunks")
    if len(lengths) == 1:
        (length,) = lengths
        return table.chain(_np.frombuffer(
            b"".join(messages), dtype=_np.uint8
        ).reshape(len(messages), length // 16, 16))
    out = _np.zeros((len(messages), 16), dtype=_np.uint8)
    groups: dict[int, list[int]] = {}
    for index, message in enumerate(messages):
        groups.setdefault(len(message) // 16, []).append(index)
    for num_chunks, indices in groups.items():
        if num_chunks:
            out[indices] = table.chain(_np.frombuffer(
                b"".join(messages[i] for i in indices), dtype=_np.uint8
            ).reshape(len(indices), num_chunks, 16))
    return out


def ghash_chunks_many(h: bytes | GHASH,
                      messages: Sequence[bytes]) -> list[bytes]:
    """GHASH many chunk streams under one subkey, batched by length.

    Each message must be a whole number of 16-byte chunks; a message is
    hashed exactly as :func:`repro.crypto.ghash.ghash_chunks` hashes its
    chunk list (no length block).  Messages of equal chunk count share one
    vector chain, so the common case — every message is one cache block —
    is a single batch.  ``h`` is the subkey, or the :class:`GHASH` object
    that keeps its tables.
    """
    if not messages:
        return []
    return _array_to_blocks(_digest_array(ghash_of(h).vector(), messages))


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
    # Each block's first seed as two 64-bit halves, in Python ints (a
    # split counter may exceed 64 bits and is masked first).  The chunk
    # index fills the high half's top 48 bits, so a later chunk's seed
    # adds its offset << 16 there, and uint64 wraparound is the 48-bit
    # wrap of the index.
    iv = iv_tag & 0xFFFF
    heads = []
    for address, counter in zip(block_addresses, counters):
        counter &= _MASK64
        heads.append(((address // CHUNK_SIZE) << 16 | counter >> 48) & _MASK64)
        heads.append((counter & _MASK48) << 16 | iv)
    steps = _np.zeros((num_chunks, 2), dtype=_np.uint64)
    steps[:, 0] = _np.arange(num_chunks, dtype=_np.uint64) << _np.uint64(16)
    seeds = _np.array(heads, dtype=_np.uint64).reshape(-1, 1, 2) + steps
    return seeds.astype(">u8").view(_np.uint8).reshape(-1, 16)


def _item_seeds(items, iv_tag: int) -> tuple["_np.ndarray", list[int]]:
    """Flat seed array + per-item chunk counts for (addr, counter, data)."""
    counts: list[int] = []
    for block_address, _, data in items:
        if len(data) % CHUNK_SIZE:
            raise ValueError("data must be a whole number of 16-byte chunks")
        if block_address % CHUNK_SIZE:
            raise ValueError("chunk address must be 16-byte aligned")
        counts.append(len(data) // CHUNK_SIZE)
    if counts and counts.count(counts[0]) == len(counts):
        return (make_seeds_array([a for a, _, _ in items],
                                 [c for _, c, _ in items], counts[0],
                                 iv_tag), counts)
    pieces = [
        make_seeds_array([address], [counter], count, iv_tag)
        for (address, counter, _), count in zip(items, counts)
        if count
    ]
    if not pieces:
        return _np.empty((0, 16), dtype=_np.uint8), counts
    return _np.concatenate(pieces), counts


def bulk_ctr_transform_vector(aes: AES128 | bytes, items,
                              iv_tag: int = ENCRYPTION_IV) -> list[bytes]:
    """Counter-mode transform many blocks with the vector AES kernel.

    Drop-in peer of :func:`repro.crypto.ctr.bulk_ctr_transform`:
    ``items`` is ``(block_address, counter, data)`` triples, output order
    is input order, and the result is byte-identical to the table path.
    ``aes`` is the cipher (whose vector state it keeps) or a raw key.
    """
    items = list(items)
    seeds, counts = _item_seeds(items, iv_tag)
    if seeds.shape[0] == 0:
        return [b"" for _ in counts]
    pads = _vector_cipher(aes).encrypt_array(seeds)
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


def gcm_block_macs_vector(aes: AES128 | bytes, ghash_key: bytes | GHASH,
                          items, mac_bits: int = 64) -> list[bytes]:
    """Batched GCM block MACs (digest XOR authentication pad, truncated).

    ``items`` is ``(block_address, counter, ciphertext)`` triples; each
    result is byte-identical to
    :func:`repro.crypto.mac.gcm_block_mac` on the same inputs.  ``aes``
    and ``ghash_key`` are the objects that keep their vector state, or raw
    key bytes.
    """
    triples = list(items)
    if not triples:
        return []
    digests = _digest_array(ghash_of(ghash_key).vector(),
                            [ct for _, _, ct in triples])
    seeds = make_seeds_array([a for a, _, _ in triples],
                             [c for _, c, _ in triples], 1,
                             AUTHENTICATION_IV)
    width = mac_bits // 8
    macs = (digests ^ _vector_cipher(aes).encrypt_array(seeds))[:, :width]
    flat = macs.tobytes()
    return [flat[i * width:(i + 1) * width] for i in range(len(triples))]


# -- block dispatch by batch size ---------------------------------------------


def encrypt_blocks_kernel(aes: AES128, blocks: Sequence[bytes]) -> list[bytes]:
    """Encrypt many 16-byte blocks: the vector kernel from
    ``VECTOR_MIN_BLOCKS`` blocks up, the table kernel below."""
    if len(blocks) >= VECTOR_MIN_BLOCKS:
        return aes.vector().encrypt_blocks(blocks)
    return aes.encrypt_blocks(blocks)


def decrypt_blocks_kernel(aes: AES128, blocks: Sequence[bytes]) -> list[bytes]:
    """Decrypt many 16-byte blocks: the vector kernel from
    ``VECTOR_MIN_BLOCKS`` blocks up, the table kernel below."""
    if len(blocks) >= VECTOR_MIN_BLOCKS:
        return aes.vector().decrypt_blocks(blocks)
    return aes.decrypt_blocks(blocks)
