"""Tests for the coded convolution pipeline."""

import math
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from codedmm import convolution as convolution_module
from codedmm.blocks import partition_vector
from codedmm.convolution import ConvCodeSpec, conv_decode, conv_encode, conv_spec, conv_worker, field_convolve
from codedmm.errors import (
    BlockShapeMismatch,
    DuplicateEvaluationPoint,
    FieldTooSmall,
    InsufficientResults,
    MissingResult,
    NonIntegerEntry,
    TooFewWorkers,
    UnknownWorker,
)
from codedmm.field import PrimeField, interpolate_arrays

from oracles import direct_convolution

Q_INT64_MAX = 2097143  # the largest prime of the int64 path
Q_BIG = (1 << 61) - 1  # a field past the FFT path, convolved as Python ints


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

    def test_points_equal_mod_q(self, gf257):
        # 1 and 1 + q are distinct integers but the same point of the field
        with pytest.raises(DuplicateEvaluationPoint):
            ConvCodeSpec(1, 1, 3, 2, (0, 1, 1 + gf257.modulus), gf257)


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


    def test_each_worker_at_the_benchmark_shape(self, gf65537):
        # m = 3, n = 2, N = 6, s = 4096, one worker at a time: coded vector i
        # is sum_j x_i^j * block j, entries q - 1 in every third place
        q = 65537
        spec = conv_spec(3, 2, 6, 4096, gf65537)
        rng = np.random.default_rng(4096)
        a_blocks, b_blocks = list(rng.integers(0, q, size=(3, 4096))), list(rng.integers(0, q, size=(2, 4096)))
        for blk in (*a_blocks, *b_blocks):
            blk[::3] = q - 1
        for i in range(spec.N):
            for coded, blocks in zip(conv_encode(spec, a_blocks, b_blocks, i), (a_blocks, b_blocks)):
                want = [sum(i ** j * int(blk[e]) for j, blk in enumerate(blocks)) % q for e in range(4096)]
                assert coded.tolist() == want

    def test_non_canonical_blocks(self, gf65537):
        # 2^62 is a representative of 49153; on the float64 path 2^62 + 4 loses the 4
        spec = conv_spec(2, 2, 4, 3, gf65537)
        a_blocks = [np.array([2**62, 0, 0]), np.array([4, 0, 0])]
        b_blocks = [np.array([1, 0, 0]), np.array([0, 0, 0])]
        ca, _ = conv_encode(spec, a_blocks, b_blocks, 1)
        assert int(ca[0]) == (2**62 + 4) % 65537 == 49157
        with pytest.raises(NonIntegerEntry):
            conv_encode(spec, [np.array([1.5, 2, 3]), np.array([1, 2, 3])], b_blocks, 1)

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


@pytest.mark.parametrize("q", [65537, Q_BIG])
class TestOperandChecks:
    @pytest.mark.parametrize("a, b", [([], [1, 2]), ([1, 2], []), ([], []), (np.zeros(0, dtype=np.int64), [3])])
    def test_empty_operands_are_refused(self, q, a, b):
        with pytest.raises(ValueError, match="operands must be non-empty"):
            field_convolve(PrimeField(q), a, b)

    @pytest.mark.parametrize(
        "bad",
        [
            [1.5, 2.0],
            np.array([1.0, 2.0]),
            np.array([1 + 0j, 2]),
            np.array([1, 2.5], dtype=object),
            np.array([1, "2"], dtype=object),
        ],
        ids=["list", "float-array", "complex-array", "object-float", "object-str"],
    )
    def test_non_integer_entries_are_refused(self, q, bad):
        field = PrimeField(q)
        with pytest.raises(NonIntegerEntry):
            field_convolve(field, bad, [1, 2])
        with pytest.raises(NonIntegerEntry):
            field_convolve(field, [1, 2], bad)

    def test_integer_kinds_reduce_exactly(self, q):
        field = PrimeField(q)
        a = [np.uint64(2**64 - 1), 2**70, np.int64(-1), True]
        want = direct_convolution(q, [(2**64 - 1) % q, 2**70 % q, q - 1, 1], [1, 2])
        assert field_convolve(field, np.array(a, dtype=object), [1, 2]).tolist() == want
        wide = np.array([2**64 - 1, 5], dtype=np.uint64)
        assert field_convolve(field, wide, [1]).tolist() == [(2**64 - 1) % q, 5]


def near_maximal(q: int, n: int, stride: int) -> list[int]:
    """q - 1 everywhere but every stride-th entry, which is q - 2 (or 0)."""
    return [max(q - 2, 0) if i % stride == 0 else q - 1 for i in range(n)]


def fft_cases():
    # output widths 2^k - 1, 2^k and 2^k + 1, split evenly and as 1 x N
    for k in (1, 2, 5, 8, 10):
        for width in (2**k - 1, 2**k, 2**k + 1):
            yield (width + 1) // 2, width + 1 - (width + 1) // 2
            yield 1, width
    # unequal lengths, and a longer operand cut into several 2^13 pieces
    yield from ((3, 2000), (100, 1500), (2, 1), (1, 1), (1, 3 * 8192 + 5), (7, 20000))


class TestFFTConvolution:
    @pytest.mark.parametrize("q", [2, 3, Q_INT64_MAX])
    @pytest.mark.parametrize("la, lb", sorted(set(fft_cases())))
    def test_near_maximal_entries(self, q, la, lb):
        a, b = near_maximal(q, la, 7), near_maximal(q, lb, 5)
        want = direct_convolution(q, a, b)
        assert field_convolve(PrimeField(q), a, b).tolist() == want
        assert field_convolve(PrimeField(q), b, a).tolist() == want

    @pytest.mark.parametrize("piece", [1, 2, 5, 8])
    @pytest.mark.parametrize("la, lb", [(1, 17), (8, 8), (9, 16), (23, 37), (5, 40), (40, 5)])
    def test_operands_longer_than_the_piece_cap(self, monkeypatch, piece, la, lb):
        monkeypatch.setattr(convolution_module, "_FFT_PIECE", piece)
        gen = random.Random(la * 100 + lb)
        for q in (7, 257, Q_INT64_MAX):
            for a, b in (
                (near_maximal(q, la, 3), near_maximal(q, lb, 4)),
                ([gen.randrange(q) for _ in range(la)], [gen.randrange(q) for _ in range(lb)]),
            ):
                assert field_convolve(PrimeField(q), a, b).tolist() == direct_convolution(q, a, b)

    def test_transform_buffers_come_from_the_workspace(self):
        # after one warm-up call the spectra, products and rounded products
        # (about 13 times the output at this size) reuse the thread's
        # workspace; only the operand copies, their pieces and the output are new
        field = PrimeField(65537)
        a = np.arange(4096, dtype=np.int64) * 37 % 65537
        b = np.arange(4096, dtype=np.int64) * 101 % 65537
        want = field_convolve(field, a, b)
        tracemalloc.start()
        try:
            got = field_convolve(field, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak <= 4 * want.nbytes + 64 * 1024

    def test_piece_cap_keeps_rounding_and_recombination_exact(self):
        # C. Percival, Math. Comp. 72 (2003): a length-2^k FFT product of x
        # and y errs by less than |x| |y| ((1+e)^3k (1+e sqrt5)^(3k+1)
        # (1+b)^3k - 1), e = 2^-53 and b the error of the roots of unity,
        # taken as e here, with one more (1+e) for the spectral sum of cross
        piece, bits = convolution_module._FFT_PIECE, convolution_module._LIMB_BITS
        low, high = (1 << bits) - 1, Q_INT64_MAX - 1 >> bits
        k = (2 * piece - 2).bit_length()
        eps = 2.0**-53
        growth = math.expm1(
            (3 * k + 1) * math.log1p(eps) + (3 * k + 1) * math.log1p(eps * math.sqrt(5)) + 3 * k * math.log1p(eps)
        )
        assert piece * max(low * low, 2 * low * high, high * high) * growth < 0.25
        # the recombined lo*lo + cross * 2^11 + hi*hi * 2^22 fits int64
        assert piece * (low * low + (2 * low * high << bits) + (high * high << 2 * bits)) < 2**63


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

    @pytest.mark.parametrize("wrong", [[1], [0, 1, 2]], ids=["one-result", "every-result"])
    def test_results_of_the_wrong_length(self, gf257, wrong):
        # each result is 2s - 1 = 5 long; a shorter one is a typed refusal
        spec = conv_spec(2, 2, 5, 3, gf257)
        results = encode_all(spec, [1] * 6, [2] * 6)
        for w in wrong:
            results[w] = results[w][:4]
        with pytest.raises(BlockShapeMismatch):
            conv_decode(spec, results, [0, 1, 2])

    def test_padded_lengths(self, gf257, rng):
        spec = conv_spec(2, 3, 7, 4, gf257)
        a = [rng.randrange(257) for _ in range(7)]   # pads to 8
        b = [rng.randrange(257) for _ in range(10)]  # pads to 12
        results = encode_all(spec, a, b)
        got = conv_decode(spec, results, [6, 2, 0, 3], true_lens=(7, 10))
        assert got.tolist() == direct_convolution(257, a, b)

    def test_true_lens_outside_one_to_the_padded_length(self, gf257):
        # a and b pad to m*s = n*s = 6 entries: 7 would ask for more than was
        # encoded, (-3, 2) would cut the 11-entry convolution to 9 entries,
        # and an empty operand has no convolution
        spec = conv_spec(2, 2, 5, 3, gf257)
        results = encode_all(spec, [1] * 6, [2] * 6)
        for lens in ((7, 6), (6, 7), (-3, 2), (2, -3), (0, 6), (6, 0)):
            with pytest.raises(BlockShapeMismatch):
                conv_decode(spec, results, [0, 1, 2], true_lens=lens)
        assert len(conv_decode(spec, results, [0, 1, 2], true_lens=(6, 6))) == 11

    def test_true_lens_that_are_not_two_integers(self, gf257):
        # refused by type, not by a slice or an unpacking; numpy integers are integers
        spec = conv_spec(2, 2, 5, 3, gf257)
        results = encode_all(spec, [1] * 6, [2] * 6)
        for lens in ((1.5, 2), (6,), (6, 6, 6), 6, "66"):
            with pytest.raises(BlockShapeMismatch):
                conv_decode(spec, results, [0, 1, 2], true_lens=lens)
        assert len(conv_decode(spec, results, [0, 1, 2], true_lens=(np.int64(6), np.int32(5)))) == 10

    def test_results_that_are_not_vectors(self, gf257):
        # results 2s - 1 long with a trailing axis, or scalars, are refused by
        # shape, not by numpy's broadcast in the overlap-add
        spec = conv_spec(2, 2, 5, 3, gf257)
        stack = spec.worker_products(np.arange(6), np.arange(6))
        for results in (stack[:, :, None], stack[:, None, :], stack[:, 0]):
            with pytest.raises(BlockShapeMismatch):
                spec.decode(results, [0, 1, 2])

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
            gf257, [spec.points[w] for w in use], [results[w] for w in use]
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
