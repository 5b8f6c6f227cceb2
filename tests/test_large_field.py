"""Spot checks for moduli too large for the int64 fast path.

Fields with q >= 2^21 switch to Python-int (object dtype) arrays; these
tests run each pipeline once over the 61-bit Mersenne prime to keep that
path honest.
"""

import numpy as np
import pytest

from codedmm.bilinear import ImprovedBilinearCode, strassen_construction, validate_construction
from codedmm.blocks import MatrixF, partition_vector
from codedmm.convolution import conv_decode, conv_encode, conv_spec, conv_worker
from codedmm.field import PrimeField, random_elements
from codedmm.robust import FaultModel, correct_errors
from codedmm.schemes import EntangledCode, worker_multiply

from oracles import direct_convolution, oracle_product, random_matrix

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
    assert BIG.array_dtype is object
    assert PrimeField(65537).array_dtype is np.int64


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
