"""AES-128 block cipher (FIPS-197), implemented from scratch.

This module provides the functional encryption substrate for the secure
memory system.  Two implementations coexist here, and a third beside it:

* A **table-driven kernel** — the hot path for single blocks and small
  batches.  SubBytes, ShiftRows, and MixColumns are folded into
  precomputed lookup tables (the classic "T-table" construction, one
  256-entry table per state byte, so one round is sixteen lookups and
  sixteen XORs over the whole 128-bit state held as a Python int).  The
  round function is fully unrolled.  Tables are built on first cipher use
  so that importing the module (or running the timing simulator, which
  never touches functional crypto) stays cheap.

* A **scalar reference** — the original per-byte round loops, kept as
  ``encrypt_block_scalar`` / ``decrypt_block_scalar``.  The test suite
  cross-checks the table kernel against it, and the micro-benchmarks use it
  as the before/after baseline.

* The **vector kernel** (:mod:`repro.crypto.vector`) runs large batches as
  NumPy array programs.  :meth:`AES128.vector` returns a cipher's vector
  twin, built on first use and kept on the cipher object, so a key's batch
  state lives exactly as long as the key does.

Bulk entry points (:meth:`AES128.encrypt_blocks`, :func:`encrypt_blocks`)
amortize the key schedule, round-key unpacking, and Python dispatch across
many blocks; the batched secure-memory paths route all pad generation
through them.

Only the 128-bit key size is implemented because the paper's hardware engine
is a 128-bit AES pipeline.  Both the forward cipher (used for pad generation
in counter mode and for direct encryption) and the inverse cipher (needed
only by direct encryption) are provided.
"""

from __future__ import annotations

import types
from typing import Iterable, Sequence

BLOCK_SIZE = 16
KEY_SIZE = 16
NUM_ROUNDS = 10


def _build_sbox() -> tuple[list[int], list[int]]:
    """Derive the AES S-box and its inverse from GF(2^8) arithmetic."""
    # Multiplicative inverse table via exp/log over generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply x by the generator 0x03 in GF(2^8)
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = [0] * 256
    inv_sbox = [0] * 256
    for value in range(256):
        inv = exp[255 - log[value]] if value else 0
        # Affine transformation over GF(2): b'_i = b_i ^ b_{i+4} ^ b_{i+5}
        # ^ b_{i+6} ^ b_{i+7} ^ c_i with c = 0x63 (FIPS-197 section 5.1.1).
        res = 0
        for bit in range(8):
            b = (
                (inv >> bit)
                ^ (inv >> ((bit + 4) % 8))
                ^ (inv >> ((bit + 5) % 8))
                ^ (inv >> ((bit + 6) % 8))
                ^ (inv >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            res |= b << bit
        sbox[value] = res
    for value in range(256):
        inv_sbox[sbox[value]] = value
    return sbox, inv_sbox


SBOX, INV_SBOX = _build_sbox()


def _xtime(value: int) -> int:
    """Multiply by x (0x02) in GF(2^8)."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) with the AES polynomial."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


# Precomputed multiplication tables for MixColumns / InvMixColumns.
_MUL2 = [gf_mul(i, 2) for i in range(256)]
_MUL3 = [gf_mul(i, 3) for i in range(256)]
_MUL9 = [gf_mul(i, 9) for i in range(256)]
_MUL11 = [gf_mul(i, 11) for i in range(256)]
_MUL13 = [gf_mul(i, 13) for i in range(256)]
_MUL14 = [gf_mul(i, 14) for i in range(256)]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def expand_key(key: bytes) -> list[list[int]]:
    """Expand a 16-byte key into 11 round keys of 16 bytes each."""
    if len(key) != KEY_SIZE:
        raise ValueError(f"AES-128 key must be {KEY_SIZE} bytes, got {len(key)}")
    words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
    for i in range(4, 4 * (NUM_ROUNDS + 1)):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]
            temp = [SBOX[b] for b in temp]
            temp[0] ^= _RCON[i // 4 - 1]
        words.append([words[i - 4][j] ^ temp[j] for j in range(4)])
    round_keys = []
    for r in range(NUM_ROUNDS + 1):
        rk = []
        for w in words[4 * r : 4 * r + 4]:
            rk.extend(w)
        round_keys.append(rk)
    return round_keys


# -- scalar reference transforms (the seed implementation) --------------------


def _sub_bytes(state: list[int]) -> None:
    for i in range(16):
        state[i] = SBOX[state[i]]


def _inv_sub_bytes(state: list[int]) -> None:
    for i in range(16):
        state[i] = INV_SBOX[state[i]]


def _shift_rows(state: list[int]) -> list[int]:
    # state is column-major: state[4*c + r]
    return [
        state[0], state[5], state[10], state[15],
        state[4], state[9], state[14], state[3],
        state[8], state[13], state[2], state[7],
        state[12], state[1], state[6], state[11],
    ]


def _inv_shift_rows(state: list[int]) -> list[int]:
    return [
        state[0], state[13], state[10], state[7],
        state[4], state[1], state[14], state[11],
        state[8], state[5], state[2], state[15],
        state[12], state[9], state[6], state[3],
    ]


def _mix_columns(state: list[int]) -> None:
    for c in range(0, 16, 4):
        a0, a1, a2, a3 = state[c], state[c + 1], state[c + 2], state[c + 3]
        state[c] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
        state[c + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
        state[c + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
        state[c + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]


def _inv_mix_columns(state: list[int]) -> None:
    for c in range(0, 16, 4):
        a0, a1, a2, a3 = state[c], state[c + 1], state[c + 2], state[c + 3]
        state[c] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
        state[c + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
        state[c + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
        state[c + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]


def _add_round_key(state: list[int], round_key: list[int]) -> None:
    for i in range(16):
        state[i] ^= round_key[i]


# -- table-driven kernel -----------------------------------------------------
#
# The 16-byte state is packed into one 128-bit int, big-endian, in the same
# column-major byte order as the scalar code (byte i = state[i] = column
# i//4, row i%4).  For the forward cipher, byte i of the round input routes
# through SubBytes, moves to column (c - r) mod 4 under ShiftRows, and
# spreads over that column's four rows under MixColumns; the entire
# per-byte contribution to the 128-bit round output is precomputed in
# ``rounds[i][b]`` of _build_tables.  The inverse cipher uses the
# *equivalent inverse cipher* of FIPS-197 section 5.3.5 (InvSubBytes/
# InvShiftRows/InvMixColumns order with InvMixColumns applied to the middle
# round keys), giving the same one-lookup-per-byte structure.
#
# One round is sixteen lookups into 256-entry tables and sixteen XORs; the
# round function is generated fully unrolled.  Each direction's tables
# (2 x 16 x 256 ints, ~0.4 MiB) are built from the GF(2^8) product tables
# above on that direction's first cipher call, in a few milliseconds, and
# stay cache-resident across calls: per random block the kernel costs about
# what it costs on one block encrypted over and over.  (Widening them to
# 65536-entry tables indexed by byte pairs halves the lookups but took
# 55 MiB and 0.2 s per direction to build, and missed the CPU cache on
# every lookup: 26-38 us per random block against 11-16 us here.)

_MC_COEFF = ((2, 3, 1, 1), (1, 2, 3, 1), (1, 1, 2, 3), (3, 1, 1, 2))
_IMC_COEFF = ((14, 11, 13, 9), (9, 14, 11, 13), (13, 9, 14, 11),
              (11, 13, 9, 14))
#: GF(2^8) product tables by coefficient, for the (Inv)MixColumns matrices
_MUL = {1: list(range(256)), 2: _MUL2, 3: _MUL3, 9: _MUL9, 11: _MUL11,
        13: _MUL13, 14: _MUL14}


def _build_tables(encrypt: bool) -> tuple[list, list]:
    """One direction's round and final-round tables, 16 x 256 ints each."""
    box, coeff = (SBOX, _MC_COEFF) if encrypt else (INV_SBOX, _IMC_COEFF)
    rounds, finals = [], []
    for i in range(16):
        c_in, r = divmod(i, 4)
        # (Inv)ShiftRows destination column
        c = (c_in - r) % 4 if encrypt else (c_in + r) % 4
        m0, m1, m2, m3 = (_MUL[coeff[r_out][r]] for r_out in range(4))
        shift = 8 * (12 - 4 * c)   # bit offset of the column's row 3
        rounds.append([(m0[s] << 24 | m1[s] << 16 | m2[s] << 8 | m3[s])
                       << shift for s in box])
        finals.append([s << (shift + 8 * (3 - r)) for s in box])
    return rounds, finals


def _compile_kernel_code():
    """Compile the fully-unrolled ten-round cipher, once.

    Every name the body uses — ``int.from_bytes``, the thirty-two byte
    tables, and the eleven round-key words — is a *parameter with a
    default*, so per-key kernels are stamped out by rebinding
    ``__defaults__`` on the shared code object (no exec, no compile, and no
    per-call tuple unpack: the bound kernel takes the block as its sole
    argument and resolves everything else as a local).
    """
    params = ["block", "frombytes=None"]
    params += [f"T{i}=None" for i in range(16)]
    params += [f"F{i}=None" for i in range(16)]
    params += [f"rk{r}=0" for r in range(NUM_ROUNDS + 1)]
    body = [f"def _rounds({', '.join(params)}):",
            "    s = frombytes(block, 'big') ^ rk0"]
    state_bytes = ", ".join(f"b{i}" for i in range(16))
    for rnd in range(1, NUM_ROUNDS + 1):
        table = "T" if rnd < NUM_ROUNDS else "F"
        lookups = " ^ ".join(f"{table}{i}[b{i}]" for i in range(16))
        body.append(f"    {state_bytes} = s.to_bytes(16, 'big')")
        body.append(f"    s = rk{rnd} ^ {lookups}")
    body.append("    return s.to_bytes(16, 'big')")
    namespace: dict = {}
    exec("\n".join(body), namespace)  # noqa: S102 - static generated source
    fn = namespace["_rounds"]
    return fn.__code__, fn.__globals__


_KERNEL_CODE, _KERNEL_GLOBALS = _compile_kernel_code()

# Each direction's (round, final-round) tables, built on that direction's
# first cipher call by _tables().
_enc_tables: tuple[list, list] | None = None
_dec_tables: tuple[list, list] | None = None


def _tables(encrypt: bool) -> tuple[list, list]:
    global _enc_tables, _dec_tables
    if encrypt:
        if _enc_tables is None:
            _enc_tables = _build_tables(True)
        return _enc_tables
    if _dec_tables is None:
        _dec_tables = _build_tables(False)
    return _dec_tables


def _bind_kernel(rk_words: tuple[int, ...], encrypt: bool):
    """Stamp a per-key single-argument round function from the shared code."""
    rounds, finals = _tables(encrypt)
    defaults = (int.from_bytes, *rounds, *finals, *rk_words)
    return types.FunctionType(_KERNEL_CODE, _KERNEL_GLOBALS, "_rounds",
                              defaults)


class AES128:
    """AES-128 cipher bound to a single key.

    The key schedule is computed once at construction; ``encrypt_block`` and
    ``decrypt_block`` then operate on 16-byte blocks, and
    ``encrypt_blocks`` / ``decrypt_blocks`` amortize dispatch over many.
    """

    __slots__ = ("key", "_round_keys", "_rk_enc", "_rk_dec",
                 "_enc_kernel", "_dec_kernel", "_vector")

    def __init__(self, key: bytes):
        self._round_keys = expand_key(key)
        self.key = bytes(key)
        self._enc_kernel = None
        self._dec_kernel = None
        self._vector = None
        self._rk_enc = tuple(
            int.from_bytes(bytes(rk), "big") for rk in self._round_keys
        )
        # Equivalent-inverse-cipher key schedule: reversed order, with
        # InvMixColumns applied to the nine middle round keys.
        dec_keys = [self._round_keys[NUM_ROUNDS]]
        for rnd in range(NUM_ROUNDS - 1, 0, -1):
            mixed = list(self._round_keys[rnd])
            _inv_mix_columns(mixed)
            dec_keys.append(mixed)
        dec_keys.append(self._round_keys[0])
        self._rk_dec = tuple(
            int.from_bytes(bytes(rk), "big") for rk in dec_keys
        )

    def vector(self):
        """This key's :class:`~repro.crypto.vector.VectorAES128`.

        Built on the first call and kept on this object, so a key used
        again costs no second key schedule, however many other keys are in
        use between the calls.
        """
        twin = self._vector
        if twin is None:
            from repro.crypto.vector import VectorAES128

            twin = self._vector = VectorAES128(self.key)
        return twin

    # -- table-driven hot path ------------------------------------------------

    def encrypt_block(self, plaintext: bytes) -> bytes:
        if len(plaintext) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes")
        kernel = self._enc_kernel
        if kernel is None:
            kernel = self._enc_kernel = _bind_kernel(self._rk_enc, True)
        return kernel(plaintext)

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes")
        kernel = self._dec_kernel
        if kernel is None:
            kernel = self._dec_kernel = _bind_kernel(self._rk_dec, False)
        return kernel(ciphertext)

    def encrypt_blocks(self, blocks: Iterable[bytes]) -> list[bytes]:
        """Encrypt many 16-byte blocks, amortizing dispatch and key setup."""
        kernel = self._enc_kernel
        if kernel is None:
            kernel = self._enc_kernel = _bind_kernel(self._rk_enc, True)
        out = []
        for block in blocks:
            if len(block) != BLOCK_SIZE:
                raise ValueError(f"block must be {BLOCK_SIZE} bytes")
            out.append(kernel(block))
        return out

    def decrypt_blocks(self, blocks: Iterable[bytes]) -> list[bytes]:
        """Decrypt many 16-byte blocks, amortizing dispatch and key setup."""
        kernel = self._dec_kernel
        if kernel is None:
            kernel = self._dec_kernel = _bind_kernel(self._rk_dec, False)
        out = []
        for block in blocks:
            if len(block) != BLOCK_SIZE:
                raise ValueError(f"block must be {BLOCK_SIZE} bytes")
            out.append(kernel(block))
        return out

    # -- scalar reference (the seed implementation) ---------------------------

    def encrypt_block_scalar(self, plaintext: bytes) -> bytes:
        """Per-byte round-loop reference used for cross-checks and benches."""
        if len(plaintext) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes")
        state = list(plaintext)
        _add_round_key(state, self._round_keys[0])
        for rnd in range(1, NUM_ROUNDS):
            _sub_bytes(state)
            state = _shift_rows(state)
            _mix_columns(state)
            _add_round_key(state, self._round_keys[rnd])
        _sub_bytes(state)
        state = _shift_rows(state)
        _add_round_key(state, self._round_keys[NUM_ROUNDS])
        return bytes(state)

    def decrypt_block_scalar(self, ciphertext: bytes) -> bytes:
        """Per-byte round-loop reference for the inverse cipher."""
        if len(ciphertext) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes")
        state = list(ciphertext)
        _add_round_key(state, self._round_keys[NUM_ROUNDS])
        for rnd in range(NUM_ROUNDS - 1, 0, -1):
            state = _inv_shift_rows(state)
            _inv_sub_bytes(state)
            _add_round_key(state, self._round_keys[rnd])
            _inv_mix_columns(state)
        state = _inv_shift_rows(state)
        _inv_sub_bytes(state)
        _add_round_key(state, self._round_keys[0])
        return bytes(state)


def encrypt_blocks(key: bytes, blocks: Sequence[bytes]) -> list[bytes]:
    """Encrypt many blocks under one key — the module-level bulk entry.

    Equivalent to ``[AES128(key).encrypt_block(b) for b in blocks]`` but
    performs the key schedule once and dispatches through the unrolled
    table kernel.
    """
    return AES128(key).encrypt_blocks(blocks)


def decrypt_blocks(key: bytes, blocks: Sequence[bytes]) -> list[bytes]:
    """Decrypt many blocks under one key (see :func:`encrypt_blocks`)."""
    return AES128(key).decrypt_blocks(blocks)
