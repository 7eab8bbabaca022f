"""Counter-mode pad generation and seed construction for memory encryption.

The paper encrypts a 64-byte cache block as four 16-byte *encryption chunks*.
Each chunk's keystream pad is AES_K(seed) where the seed concatenates the
chunk's address, the block's counter value (major || minor for the split
scheme, or the monolithic/global counter value otherwise), and a constant
*encryption initialization vector* (EIV).  Decryption is the identical XOR.

Security rests on seed uniqueness: the address field separates locations and
the counter field separates successive write-backs of one location, so no
(seed, key) pair ever recurs — the fundamental counter-mode requirement.

Seed layout (16 bytes, big-endian fields):

    bytes  0-5   chunk address >> 4  (48 bits — chunk index in memory)
    bytes  6-13  counter value       (64 bits)
    bytes 14-15  IV tag              (16 bits of the EIV / AIV constant)

The IV tag domain-separates encryption pads from authentication pads so the
same (address, counter) never produces the same AES input for both purposes.

:func:`bulk_ctr_transform` is the batch entry point the memory system calls,
and the batch size picks its kernel: the NumPy vector kernel from
``VECTOR_MIN_CTR_BLOCKS`` chunks up, the table kernel below.
:func:`bulk_ctr_transform_table` and :func:`bulk_ctr_transform_scalar` run
the table kernel and the scalar FIPS-197 reference at any size, for the
differential checks and ``repro bench``.  All three are byte-identical.
"""

from __future__ import annotations

from repro.crypto.aes import AES128

CHUNK_SIZE = 16

# Domain-separation constants: encryption IV and authentication IV.
ENCRYPTION_IV = 0x45E1  # "E"
AUTHENTICATION_IV = 0xA07A  # "A"


def make_seed(chunk_address: int, counter: int, iv_tag: int) -> bytes:
    """Build the 16-byte AES input for one chunk pad.

    ``chunk_address`` is the byte address of the 16-byte chunk;
    ``counter`` is the (possibly concatenated major||minor) counter value,
    truncated to 64 bits; ``iv_tag`` is ENCRYPTION_IV or AUTHENTICATION_IV.
    """
    if chunk_address % CHUNK_SIZE:
        raise ValueError("chunk address must be 16-byte aligned")
    chunk_index = (chunk_address // CHUNK_SIZE) & ((1 << 48) - 1)
    return (
        chunk_index.to_bytes(6, "big")
        + (counter & ((1 << 64) - 1)).to_bytes(8, "big")
        + (iv_tag & 0xFFFF).to_bytes(2, "big")
    )


def make_seeds(block_address: int, counter: int, num_chunks: int,
               iv_tag: int = ENCRYPTION_IV) -> list[bytes]:
    """Build the AES inputs for every chunk pad of one cache block."""
    return [
        make_seed(block_address + i * CHUNK_SIZE, counter, iv_tag)
        for i in range(num_chunks)
    ]


def generate_pads(aes: AES128, block_address: int, counter: int,
                  num_chunks: int, iv_tag: int = ENCRYPTION_IV) -> list[bytes]:
    """Generate the keystream pads for every chunk of a cache block."""
    return aes.encrypt_blocks(
        make_seeds(block_address, counter, num_chunks, iv_tag)
    )


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError("xor_bytes requires equal lengths")
    return (
        int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    ).to_bytes(len(a), "big")


def ctr_transform(aes: AES128, block_address: int, counter: int,
                  data: bytes, iv_tag: int = ENCRYPTION_IV) -> bytes:
    """Encrypt or decrypt a cache block in counter mode (self-inverse)."""
    if len(data) % CHUNK_SIZE:
        raise ValueError("data must be a whole number of 16-byte chunks")
    num_chunks = len(data) // CHUNK_SIZE
    pads = generate_pads(aes, block_address, counter, num_chunks, iv_tag)
    return xor_bytes(data, b"".join(pads))


def bulk_ctr_transform(aes: AES128, items: list[tuple[int, int, bytes]],
                       iv_tag: int = ENCRYPTION_IV) -> list[bytes]:
    """Counter-mode transform many cache blocks with one AES dispatch.

    ``items`` is a list of ``(block_address, counter, data)``; the result
    preserves order.  All chunk seeds across the whole batch are generated
    first and encrypted in a single batch call — the software analogue of
    the paper's multi-engine pad pipeline.  The batch size picks the
    kernel: from ``VECTOR_MIN_CTR_BLOCKS`` chunks per call the NumPy
    vector kernel runs, below it :func:`bulk_ctr_transform_table`.  Both
    are byte-identical.
    """
    from repro.crypto import vector as _vector

    total_chunks = sum(len(data) // CHUNK_SIZE for _, _, data in items)
    if total_chunks >= _vector.VECTOR_MIN_CTR_BLOCKS:
        return _vector.bulk_ctr_transform_vector(aes, items, iv_tag)
    return bulk_ctr_transform_table(aes, items, iv_tag)


def _transform_with(encrypt_seeds, items: list[tuple[int, int, bytes]],
                    iv_tag: int) -> list[bytes]:
    """XOR each item's data with the pads ``encrypt_seeds`` makes from
    the whole batch's chunk seeds, generated in one list."""
    seeds: list[bytes] = []
    spans: list[tuple[int, int]] = []
    for block_address, counter, data in items:
        if len(data) % CHUNK_SIZE:
            raise ValueError("data must be a whole number of 16-byte chunks")
        num_chunks = len(data) // CHUNK_SIZE
        spans.append((len(seeds), num_chunks))
        seeds.extend(make_seeds(block_address, counter, num_chunks, iv_tag))
    pads = encrypt_seeds(seeds)
    return [xor_bytes(data, b"".join(pads[start:start + count]))
            for (start, count), (_, _, data) in zip(spans, items)]


def bulk_ctr_transform_table(aes: AES128,
                             items: list[tuple[int, int, bytes]],
                             iv_tag: int = ENCRYPTION_IV) -> list[bytes]:
    """:func:`bulk_ctr_transform` on the table AES kernel at any size."""
    return _transform_with(aes.encrypt_blocks, items, iv_tag)


def bulk_ctr_transform_scalar(aes: AES128,
                              items: list[tuple[int, int, bytes]],
                              iv_tag: int = ENCRYPTION_IV) -> list[bytes]:
    """:func:`bulk_ctr_transform` on the FIPS-197 reference cipher
    (:meth:`~repro.crypto.aes.AES128.encrypt_block_scalar`)."""
    return _transform_with(
        lambda seeds: [aes.encrypt_block_scalar(seed) for seed in seeds],
        items, iv_tag)
