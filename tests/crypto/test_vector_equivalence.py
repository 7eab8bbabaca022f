"""Property campaign: the vector kernels are byte-identical to table/scalar.

Every fast path introduced by the NumPy vector backend — batched AES
blocks, batched CTR pad generation, batched GHASH, batched GCM block
MACs — must agree with both the table kernel and the bitwise scalar
reference on arbitrary keys, addresses, counters, and message lengths.
Hypothesis drives the input space; any divergence shrinks to a minimal
counterexample.

The counter strategy deliberately exceeds 64 bits: split counters are
concatenated ``major << minor_bits | minor`` values and the seed layout
truncates them to 64 bits, so the vector path's Python-side masking must
match :func:`repro.crypto.ctr.make_seed` exactly.
"""

from hypothesis import given, settings, strategies as st

from repro.crypto.aes import AES128
from repro.crypto.ctr import (
    AUTHENTICATION_IV,
    ENCRYPTION_IV,
    bulk_ctr_transform,
    bulk_ctr_transform_scalar,
    bulk_ctr_transform_table,
    ctr_transform,
    make_seed,
    make_seeds,
)
from repro.crypto.ghash import ghash_chunks, ghash_chunks_scalar
from repro.crypto.mac import (
    VALID_MAC_BITS,
    gcm_block_mac,
    gcm_block_macs,
    gcm_block_macs_scalar,
    gcm_block_macs_table,
)
from repro.crypto.vector import (
    bulk_ctr_transform_vector,
    decrypt_blocks_kernel,
    encrypt_blocks_kernel,
    gcm_block_macs_vector,
    ghash_chunks_many,
    make_seeds_array,
)
from repro.counters.split import SplitCounterScheme

keys = st.binary(min_size=16, max_size=16)
# 16-byte-aligned byte addresses whose chunk index stays within the
# 48-bit seed field.
addresses = st.integers(min_value=0, max_value=(1 << 44)).map(
    lambda v: v * 16
)
# Split counters can exceed 64 bits once major||minor is concatenated;
# the seed layout keeps only the low 64.
counters = st.integers(min_value=0, max_value=(1 << 80) - 1)
block_data = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.binary(min_size=16 * n, max_size=16 * n)
)
ctr_items = st.lists(st.tuples(addresses, counters, block_data),
                     min_size=1, max_size=12)


def _split_chunks(data):
    return [data[i:i + 16] for i in range(0, len(data), 16)]


class TestAESBlockKernels:
    @settings(max_examples=25, deadline=None)
    @given(key=keys, blocks=st.lists(st.binary(min_size=16, max_size=16),
                                     min_size=1, max_size=16))
    def test_encrypt_decrypt_all_kernels_agree(self, key, blocks):
        aes = AES128(key)
        expected_enc = [aes.encrypt_block_scalar(b) for b in blocks]
        expected_dec = [aes.decrypt_block_scalar(b) for b in blocks]
        for cipher in (aes, aes.vector()):
            assert cipher.encrypt_blocks(blocks) == expected_enc
            assert cipher.decrypt_blocks(blocks) == expected_dec
        assert encrypt_blocks_kernel(aes, blocks) == expected_enc
        assert decrypt_blocks_kernel(aes, blocks) == expected_dec

    @settings(max_examples=25, deadline=None)
    @given(key=keys, blocks=st.lists(st.binary(min_size=16, max_size=16),
                                     min_size=1, max_size=16))
    def test_vector_round_trip(self, key, blocks):
        aes = AES128(key)
        encrypted = aes.vector().encrypt_blocks(blocks)
        assert aes.vector().decrypt_blocks(encrypted) == blocks


class TestCTRPadEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(key=keys, items=ctr_items,
           iv_tag=st.sampled_from((ENCRYPTION_IV, AUTHENTICATION_IV)))
    def test_bulk_transform_all_kernels_agree(self, key, items, iv_tag):
        aes = AES128(key)
        scalar = bulk_ctr_transform_scalar(aes, items, iv_tag)
        table = bulk_ctr_transform_table(aes, items, iv_tag)
        vector = bulk_ctr_transform_vector(key, items, iv_tag)
        assert scalar == table == vector == bulk_ctr_transform(aes, items,
                                                               iv_tag)

    @settings(max_examples=25, deadline=None)
    @given(key=keys, address=addresses, counter=counters, data=block_data)
    def test_vector_matches_single_block_reference(self, key, address,
                                                   counter, data):
        aes = AES128(key)
        expected = ctr_transform(aes, address, counter, data)
        got = bulk_ctr_transform_vector(key, [(address, counter, data)])
        assert got == [expected]

    @settings(max_examples=25, deadline=None)
    @given(key=keys, items=ctr_items)
    def test_vector_transform_is_self_inverse(self, key, items):
        once = bulk_ctr_transform_vector(key, items)
        back = bulk_ctr_transform_vector(
            key, [(a, c, ct) for (a, c, _), ct in zip(items, once)]
        )
        assert back == [data for _, _, data in items]

    @settings(max_examples=50, deadline=None)
    @given(address=addresses, counter=counters,
           num_chunks=st.integers(min_value=1, max_value=4),
           iv_tag=st.sampled_from((ENCRYPTION_IV, AUTHENTICATION_IV)))
    def test_seed_array_matches_make_seeds(self, address, counter,
                                           num_chunks, iv_tag):
        arr = make_seeds_array([address], [counter], num_chunks, iv_tag)
        flat = arr.tobytes()
        got = [flat[i * 16:(i + 1) * 16] for i in range(num_chunks)]
        assert got == make_seeds(address, counter, num_chunks, iv_tag)


class TestGHASHEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(h=keys, messages=st.lists(
        st.integers(min_value=0, max_value=4).flatmap(
            lambda n: st.binary(min_size=16 * n, max_size=16 * n)),
        min_size=1, max_size=12))
    def test_batched_matches_table_and_bitwise(self, h, messages):
        batched = ghash_chunks_many(h, messages)
        for message, digest in zip(messages, batched):
            chunks = _split_chunks(message)
            assert digest == ghash_chunks(h, chunks)
            assert digest == ghash_chunks_scalar(h, chunks)

    @settings(max_examples=25, deadline=None)
    @given(h=keys, message=block_data)
    def test_kernel_dispatch_agrees(self, h, message):
        chunks = _split_chunks(message)
        digests = {ghash_chunks_scalar(h, chunks), ghash_chunks(h, chunks),
                   ghash_chunks_many(h, [message])[0]}
        assert len(digests) == 1


class TestGCMTagEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(key=keys, hkey=keys, items=ctr_items,
           mac_bits=st.sampled_from(VALID_MAC_BITS))
    def test_batched_macs_all_kernels_agree(self, key, hkey, items,
                                            mac_bits):
        aes = AES128(key)
        expected = [gcm_block_mac(aes, hkey, a, c, ct, mac_bits)
                    for a, c, ct in items]
        for macs in (gcm_block_macs_scalar, gcm_block_macs_table,
                     gcm_block_macs):
            assert macs(aes, hkey, items, mac_bits) == expected
        assert gcm_block_macs_vector(key, hkey, items, mac_bits) == expected

    @settings(max_examples=10, deadline=None)
    @given(key=keys, hkey=keys, address=addresses, counter=counters,
           mac_bits=st.sampled_from(VALID_MAC_BITS))
    def test_zero_length_ciphertext(self, key, hkey, address, counter,
                                    mac_bits):
        aes = AES128(key)
        items = [(address, counter, b"")]
        expected = [gcm_block_mac(aes, hkey, address, counter, b"",
                                  mac_bits)]
        assert gcm_block_macs_vector(key, hkey, items, mac_bits) == expected


class TestSplitVsMonolithicCounters:
    """A split counter encrypts exactly like its concatenated value.

    The paper's split scheme feeds ``major << minor_bits | minor`` into
    the same seed slot a monolithic counter occupies, so pads — and thus
    ciphertexts — must agree between the two schemes whenever the
    concatenated value equals the monolithic value, on every kernel.
    """

    @settings(max_examples=25, deadline=None)
    @given(key=keys, address=addresses, data=block_data,
           major=st.integers(min_value=0, max_value=(1 << 60) - 1),
           minor=st.integers(min_value=0, max_value=(1 << 7) - 1),
           minor_bits=st.integers(min_value=1, max_value=16))
    def test_concat_counter_matches_monolithic(self, key, address, data,
                                               major, minor, minor_bits):
        minor &= (1 << minor_bits) - 1
        scheme = SplitCounterScheme(minor_bits=minor_bits)
        concatenated = scheme._concat(major, minor)
        aes = AES128(key)
        mono = ctr_transform(aes, address, concatenated, data)
        for transform in (bulk_ctr_transform_scalar,
                          bulk_ctr_transform_table):
            assert transform(aes, [(address, concatenated, data)]) == [mono]
        assert bulk_ctr_transform_vector(
            key, [(address, concatenated, data)]) == [mono]

    @settings(max_examples=50, deadline=None)
    @given(major=st.integers(min_value=0, max_value=(1 << 60) - 1),
           minor=st.integers(min_value=0, max_value=(1 << 7) - 1),
           address=addresses)
    def test_concat_seed_truncation_matches_scalar(self, major, minor,
                                                   address):
        # Concatenated values can exceed 64 bits; both paths must keep
        # the same low-order 64 bits in the seed.
        scheme = SplitCounterScheme(minor_bits=7)
        value = scheme._concat(major, minor)
        arr = make_seeds_array([address], [value], 1, ENCRYPTION_IV)
        assert arr.tobytes() == make_seed(address, value, ENCRYPTION_IV)
