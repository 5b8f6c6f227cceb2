"""Tests for the coded convolution pipeline."""

from itertools import combinations

import numpy as np
import pytest

from codedmm.blocks import partition_vector
from codedmm.convolution import conv_decode, conv_encode, conv_spec, conv_worker, field_convolve
from codedmm.errors import (
    FieldTooSmall,
    InsufficientResults,
    MissingResult,
    TooFewWorkers,
    UnknownWorker,
)
from codedmm.field import PrimeField, interpolate_arrays

from oracles import direct_convolution


def encode_all(spec, a, b):
    a_blocks = partition_vector(spec.field, a, spec.m, block_len=spec.s)
    b_blocks = partition_vector(spec.field, b, spec.n, block_len=spec.s)
    results = {}
    for i in range(spec.N):
        ca, cb = conv_encode(spec, a_blocks, b_blocks, i)
        results[i] = conv_worker(spec, ca, cb)
    return results


class TestConvSpec:
    def test_threshold(self, gf257):
        assert conv_spec(3, 2, 6, 3, gf257).recovery_threshold() == 4

    def test_too_few_workers(self, gf257):
        with pytest.raises(TooFewWorkers):
            conv_spec(3, 2, 3, 4, gf257)

    def test_field_too_small(self, gf7):
        with pytest.raises(FieldTooSmall):
            conv_spec(2, 2, 7, 3, gf7)


class TestConvEncode:
    def test_single_block_is_uncoded(self, gf257):
        spec = conv_spec(1, 1, 3, 4, gf257)
        a = [5, 6, 7, 8]
        b = [1, 2, 3, 4]
        for i in range(3):
            ca, cb = conv_encode(spec, [np.array(a)], [np.array(b)], i)
            assert ca.tolist() == a and cb.tolist() == b

    def test_two_block_formula(self, gf257):
        spec = conv_spec(2, 1, 5, 2, gf257)
        a_blocks = [np.array([1, 2]), np.array([3, 4])]
        b_blocks = [np.array([5, 6])]
        for i in range(5):
            ca, cb = conv_encode(spec, a_blocks, b_blocks, i)
            assert ca.tolist() == [(1 + 3 * i) % 257, (2 + 4 * i) % 257]
            assert cb.tolist() == [5, 6]

    def test_linearity(self, gf257, rng):
        spec = conv_spec(2, 2, 6, 3, gf257)
        a1 = [rng.randrange(257) for _ in range(6)]
        a2 = [rng.randrange(257) for _ in range(6)]
        summed = [(x + y) % 257 for x, y in zip(a1, a2)]
        blocks = lambda v: partition_vector(gf257, v, 2, block_len=3)
        bb = blocks([1] * 6)
        for i in (0, 2, 5):
            ca1, _ = conv_encode(spec, blocks(a1), bb, i)
            ca2, _ = conv_encode(spec, blocks(a2), bb, i)
            cas, _ = conv_encode(spec, blocks(summed), bb, i)
            assert cas.tolist() == ((ca1 + ca2) % 257).tolist()


class TestConvWorker:
    def test_delta_padding(self, gf7):
        spec = conv_spec(1, 1, 3, 3, gf7)
        out = conv_worker(spec, np.array([1, 0, 0]), np.array([2, 3, 4]))
        assert out.tolist() == [2, 3, 4, 0, 0]

    def test_ones_square(self, gf7):
        assert field_convolve(PrimeField(7), [1, 1], [1, 1]).tolist() == [1, 2, 1]

    def test_random_against_oracle(self, gf257, rng):
        for _ in range(20):
            a = [rng.randrange(257) for _ in range(5)]
            b = [rng.randrange(257) for _ in range(7)]
            assert field_convolve(gf257, a, b).tolist() == direct_convolution(257, a, b)

    def test_operands_longer_than_one_float_chunk(self):
        # at q = 2^21 - 9 float64 sums only 2048 products exactly, so both
        # operand lengths force the shorter one to be cut into pieces; near
        # maximal entries make the full-overlap sums odd and above 2^53
        q = 2097143
        a = [q - 2 if i % 7 == 0 else q - 1 for i in range(2049)]
        b = [q - 2 if i % 5 == 0 else q - 1 for i in range(2050)]
        want = direct_convolution(q, a, b)
        assert field_convolve(PrimeField(q), a, b).tolist() == want
        assert field_convolve(PrimeField(q), b, a).tolist() == want


class TestConvDecode:
    def test_all_subsets_m3_n2(self, gf257, rng):
        spec = conv_spec(3, 2, 6, 3, gf257)
        a = [rng.randrange(257) for _ in range(9)]
        b = [rng.randrange(257) for _ in range(6)]
        results = encode_all(spec, a, b)
        want = direct_convolution(257, a, b)
        subsets = list(combinations(range(6), 4))
        assert len(subsets) == 15
        for sub in subsets:
            got = conv_decode(spec, results, sub, true_lens=(9, 6))
            assert got.tolist() == want

    def test_single_worker_suffices_m1_n1(self, gf257, rng):
        spec = conv_spec(1, 1, 4, 5, gf257)
        a = [rng.randrange(257) for _ in range(5)]
        b = [rng.randrange(257) for _ in range(5)]
        results = encode_all(spec, a, b)
        for w in range(4):
            got = conv_decode(spec, results, [w], true_lens=(5, 5))
            assert got.tolist() == direct_convolution(257, a, b)

    def test_zero_inputs(self, gf257):
        spec = conv_spec(2, 2, 5, 3, gf257)
        results = encode_all(spec, [0] * 6, [0] * 6)
        assert not conv_decode(spec, results, [0, 1, 2]).any()

    def test_bad_subset_raises_typed_errors(self, gf257):
        spec = conv_spec(2, 2, 5, 3, gf257)
        results = encode_all(spec, [1] * 6, [2] * 6)
        for bad in (5, -1):
            with pytest.raises(UnknownWorker):
                conv_decode(spec, results, [bad, 0, 1])
        del results[1]
        with pytest.raises(MissingResult):
            conv_decode(spec, results, [0, 1, 2])

    def test_padded_lengths(self, gf257, rng):
        spec = conv_spec(2, 3, 7, 4, gf257)
        a = [rng.randrange(257) for _ in range(7)]   # pads to 8
        b = [rng.randrange(257) for _ in range(10)]  # pads to 12
        results = encode_all(spec, a, b)
        got = conv_decode(spec, results, [6, 2, 0, 3], true_lens=(7, 10))
        assert got.tolist() == direct_convolution(257, a, b)

    def test_product_coefficient_structure(self, gf257, rng):
        # coefficient d of the interpolated polynomial is the anti-diagonal
        # block convolution sum over j + k = d
        spec = conv_spec(3, 2, 6, 3, gf257)
        a = [rng.randrange(257) for _ in range(9)]
        b = [rng.randrange(257) for _ in range(6)]
        a_blocks = partition_vector(gf257, a, 3)
        b_blocks = partition_vector(gf257, b, 2)
        results = encode_all(spec, a, b)
        use = [0, 1, 2, 3]
        coeffs = interpolate_arrays(
            gf257, [spec.x_points[w] for w in use], [results[w] for w in use]
        )
        for d in range(4):
            acc = [0] * 5
            for j in range(3):
                k = d - j
                if 0 <= k < 2:
                    conv = direct_convolution(257, a_blocks[j].tolist(), b_blocks[k].tolist())
                    acc = [(x + y) % 257 for x, y in zip(acc, conv)]
            assert coeffs[d].tolist() == acc

    def test_underdetermined_below_threshold(self, gf257, rng):
        spec = conv_spec(3, 2, 6, 3, gf257)
        results = encode_all(spec, [1] * 9, [1] * 6)
        with pytest.raises(InsufficientResults):
            conv_decode(spec, results, [0, 1, 2])
        # m+n-2 points cannot pin down m+n-1 coefficients
        assert spec.recovery_threshold() - 1 < spec.m + spec.n - 1
