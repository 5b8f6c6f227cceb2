"""Spot checks for moduli too large for the float64 tile loop.

Fields with 2^21 <= q < 2^62 keep int64 arrays, whose products run on
21-bit limbs or Python ints; from 2^62 up arrays hold Python ints (object
dtype).  These tests run each pipeline once over the 61-bit Mersenne prime,
and every code, with entries at q - 1, at the largest int64 field and at an
object field below 2^63, where an unguarded int64 product or sum of three
entries would overflow.
"""

import numpy as np
import pytest

from codedmm.bilinear import (
    ElementwiseProductCode, ImprovedBilinearCode, strassen_construction, tensor_power, validate_construction,
)
from codedmm.blocks import MatrixF, partition_vector
from codedmm.convolution import conv_decode, conv_encode, conv_spec, conv_worker
from codedmm.field import PrimeField, lagrange_basis, random_elements, vandermonde
from codedmm.linalg import solve_linear_system
from codedmm.robust import FaultModel, correct_errors, detect_errors, inject_faults
from codedmm.schemes import EntangledCode, RandomLinearCode, UncodedRepetitionCode, worker_multiply

from oracles import (
    direct_convolution, elementwise_product, naive_matmul_t, oracle_product, random_matrix, vandermonde_inverse,
)

BIG = PrimeField((1 << 61) - 1)


@pytest.fixture(scope="module")
def big_setup():
    rng = np.random.default_rng(61)

    def randm(r, c):
        return MatrixF(BIG, [[int(v) for v in row] for row in rng.integers(0, BIG.modulus, size=(r, c))])

    return rng, randm


@pytest.mark.parametrize("q", [65537, (1 << 61) - 1, 1 << 63])
def test_draws_below_2_pow_63_keep_numpys_stream(q):
    want = np.random.default_rng(5).integers(0, q, size=(3, 4))
    assert np.array_equal(random_elements(np.random.default_rng(5), q, (3, 4)), want)
    assert random_elements(np.random.default_rng(5), q) == np.random.default_rng(5).integers(0, q)


def test_draws_past_int64():
    # 2^89 - 1: Python ints below q, repeatable from the generator's seed
    q = (1 << 89) - 1
    draws = random_elements(np.random.default_rng(5), q, (40, 5))
    assert draws.dtype == object and draws.shape == (40, 5)
    assert all(0 <= v < q for v in draws.flat)
    assert max(draws.flat) >= 1 << 64
    assert draws.tolist() == random_elements(np.random.default_rng(5), q, (40, 5)).tolist()
    assert 0 <= PrimeField(q).random(np.random.default_rng(5)) < q


def test_object_dtype_selected():
    # int64 below 2^62, where two canonical entries sum below 2^63; Python
    # ints from 2^62 up
    for q in (65537, BIG.modulus, (1 << 62) - 57):
        assert PrimeField(q).array_dtype is np.int64
    for q in ((1 << 63) - 25, (1 << 89) - 1):
        assert PrimeField(q).array_dtype is object


# the largest int64 field, and an object field whose entries still fit int64
BOUND_MODULI = [(1 << 62) - 57, (1 << 63) - 25]


def extreme(field: PrimeField, rows: int, cols: int) -> MatrixF:
    """A matrix of entries q - 1, with q - 2 on every 5th, so that no sum is a plain multiple."""
    data = np.full((rows, cols), field.modulus - 1, dtype=object)
    data.flat[::5] = field.modulus - 2
    return MatrixF(field, data)


@pytest.mark.parametrize("q", BOUND_MODULI)
def test_matrix_codes_at_the_storage_bound(q):
    # the polynomial codes' generators and decode maps, the uncoded sum over
    # p = 3 sub-products, the random linear code's product generator,
    # elimination and sum over p, and repair, against the oracle.  b has
    # ones on every other row, so that every sub-product of two rows holds
    # entries q - 1 or q - 2 and their sums pass 2^63
    field = PrimeField(q)
    a, b = extreme(field, 6, 5), MatrixF(field, [[1 - i % 2] * 4 for i in range(6)])
    want = oracle_product(a, b)
    codes = [EntangledCode(3, 1, 1, 9, field), UncodedRepetitionCode(3, 1, 1, 4, field),
             RandomLinearCode(3, 1, 1, 10, field, seed=3)]
    for code in codes:
        stack = code.worker_products(a, b)
        assert stack.dtype == field.array_dtype
        subset = list(range(code.N - code.recovery_threshold(), code.N))
        assert code.decode(stack, subset, dims=(5, 4)).tolist() == want.data.tolist()
    code = codes[0]
    results = [worker_multiply(ca, cb) for ca, cb in code.encode_all(a, b)]
    corrupted, _ = FaultModel(2, seed=7).inject(results)
    assert correct_errors(code, corrupted, dims=(5, 4)) == want
    assert detect_errors(code, results, dims=(5, 4)).matrix == want


@pytest.mark.parametrize("q", BOUND_MODULI)
def test_vector_codes_and_kernels_at_the_storage_bound(q):
    # the element-wise product, construction validation, the improved code,
    # convolution, scaling, Vandermonde tables and bases, elimination and
    # fault injection, with entries at q - 1
    field = PrimeField(q)
    top = [q - 1, q - 2, q - 1]
    code = ElementwiseProductCode(3, 6, field)
    assert code.decode(code.worker_products(top, top), range(6)).tolist() == elementwise_product(q, top, top)
    assert validate_construction(strassen_construction(), field).ok
    # strassen^2 multiplies -1 by -1, q - 1 by q - 1, in its pair tensors
    assert validate_construction(tensor_power(strassen_construction(), 2), field).ok
    improved = ImprovedBilinearCode(strassen_construction(), 14, field)
    a, b = extreme(field, 4, 4), extreme(field, 4, 4)
    got = improved.decode(improved.worker_products(a, b), range(1, 14), dims=(4, 4))
    assert got.tolist() == oracle_product(a, b).data.tolist()
    spec = conv_spec(2, 2, 5, 3, field)
    vec = [q - 1] * 6
    assert spec.decode(spec.worker_products(vec, vec), [0, 3, 4]).tolist()[:11] == direct_convolution(q, vec, vec)
    assert a.scale(-1).data.tolist() == [[(q - x) % q for x in row] for row in a.data.tolist()]
    xs = [q - 1, q - 2, q - 3, 5]
    assert vandermonde(field, xs, 4).tolist() == [[pow(x, d, q) for d in range(4)] for x in xs]
    assert lagrange_basis(field, xs).tolist() == vandermonde_inverse(q, xs)
    m = a.data.tolist()
    rhs = naive_matmul_t(q, [list(c) for c in zip(*m)], [[1], [q - 1], [2], [q - 2]])
    assert solve_linear_system(field, m, rhs).tolist() == [[1], [q - 1], [2], [q - 2]]
    stack = np.full((5, 2, 2), q - 1, dtype=field.array_dtype)
    victims = inject_faults(np.random.default_rng(1), stack, 2, q)
    assert all(0 <= int(x) < q for x in stack.flat) and len(victims) == 2


def test_entangled_and_correction(big_setup):
    _, randm = big_setup
    code = EntangledCode(2, 2, 1, 9, BIG)
    a, b = randm(4, 4), randm(4, 3)
    oracle = oracle_product(a, b)
    results = [worker_multiply(ca, cb) for ca, cb in code.encode_all(a, b)]
    got = code.decode({i: r for i, r in enumerate(results)}, [8, 1, 2, 3, 4], dims=(4, 3))
    assert got == oracle
    corrupted, _ = FaultModel(2, seed=7).inject(results)
    assert correct_errors(code, corrupted, dims=(4, 3)) == oracle


def test_improved_code(big_setup):
    _, randm = big_setup
    assert validate_construction(strassen_construction(), BIG).ok
    code = ImprovedBilinearCode(strassen_construction(), 14, BIG)
    a, b = randm(4, 4), randm(4, 4)
    results = {i: worker_multiply(ca, cb) for i, (ca, cb) in enumerate(code.encode_all(a, b))}
    assert code.decode(results, list(range(1, 14)), dims=(4, 4)) == oracle_product(a, b)


def test_convolution(big_setup):
    rng, _ = big_setup
    spec = conv_spec(2, 2, 5, 3, BIG)
    a = [int(v) for v in rng.integers(0, BIG.modulus, size=6)]
    b = [int(v) for v in rng.integers(0, BIG.modulus, size=6)]
    a_blocks = partition_vector(BIG, a, 2)
    b_blocks = partition_vector(BIG, b, 2)
    results = {}
    for i in range(5):
        ca, cb = conv_encode(spec, a_blocks, b_blocks, i)
        results[i] = conv_worker(spec, ca, cb)
    got = conv_decode(spec, results, [0, 3, 4], true_lens=(6, 6))
    assert got.tolist() == direct_convolution(BIG.modulus, a, b)
