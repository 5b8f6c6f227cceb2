"""The exact modular kernel against the Python-int oracle.

modmatmul runs int64 operands on float64 BLAS, which is exact only while a
dot product of canonical entries stays below 2^53; these tests sit on both
sides of that chunk boundary, on output-column tiles, and on the worst-case
entry q - 1.
"""

import numpy as np
import pytest

from codedmm import field as field_module
from codedmm.blocks import MatrixF
from codedmm.field import PrimeField, exact_float_terms, modmatmul
from codedmm.schemes import worker_multiply

from oracles import naive_matmul_t

# the largest prime below 2^21, the largest modulus on the int64 path
Q_INT64_MAX = 2097143
MODULI = (2, 7, 65537, Q_INT64_MAX, (1 << 61) - 1)
SHAPES = [(1, 1, 1), (1, 5, 1), (3, 1, 4), (2, 7, 3), (5, 4, 1), (4, 6, 9)]


def operands(q: int, rows: int, inner: int, cols: int, seed: int, dtype=None):
    """Random canonical operands with every third entry at the extreme q - 1."""
    dtype = dtype or PrimeField(q).array_dtype
    rng = np.random.default_rng(seed)
    a = rng.integers(0, q, size=(rows, inner), dtype=np.int64)
    b = rng.integers(0, q, size=(inner, cols), dtype=np.int64)
    a.flat[::3] = q - 1
    b.flat[::3] = q - 1
    return a.astype(dtype), b.astype(dtype)


def near_maximal(q: int, rows: int, inner: int, cols: int):
    """Entries q - 1, with every 7th at q - 2 so that the exact sums are odd.

    At q = Q_INT64_MAX a sum of more than 2048 such products exceeds 2^53,
    where float64 holds only even integers: one pass too long is inexact.
    """
    dtype = PrimeField(q).array_dtype
    a = np.full((rows, inner), q - 1, dtype=np.int64)
    b = np.full((inner, cols), q - 1, dtype=np.int64)
    a.flat[::7] = q - 2
    b.flat[::7] = q - 2
    return a.astype(dtype), b.astype(dtype)


def check(q: int, a: np.ndarray, b: np.ndarray):
    got = modmatmul(a, b, q)
    assert got.dtype == a.dtype
    assert got.shape == (a.shape[0], b.shape[1])
    assert got.tolist() == naive_matmul_t(q, a.T.tolist(), b.tolist())


@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("shape", SHAPES)
def test_matches_oracle(q, shape):
    check(q, *operands(q, *shape, seed=sum(shape)))


@pytest.mark.parametrize("q", MODULI)
def test_near_maximal_entries(q):
    check(q, *near_maximal(q, 3, 40, 2))


def test_int64_operands_beyond_the_float_bound():
    # no contraction of int64 entries is float-exact here; Python ints take over
    q = (1 << 61) - 1
    assert exact_float_terms(q) == 0
    check(q, *operands(q, 3, 4, 2, seed=1, dtype=np.int64))


def test_chunk_length_at_the_largest_int64_modulus():
    assert exact_float_terms(Q_INT64_MAX) == 2048
    assert exact_float_terms(65537) == 2**21 - 1


@pytest.mark.parametrize("inner", [2047, 2048, 2049])
def test_contraction_lengths_around_one_chunk(inner):
    q = Q_INT64_MAX
    check(q, *operands(q, 2, inner, 3, seed=inner))
    check(q, *near_maximal(q, 2, inner, 3))


@pytest.mark.parametrize("cols", [1, 2, 3, 5, 7])
def test_output_widths_straddling_column_tiles(monkeypatch, cols):
    # 6 entries per tile over 3 rows: tiles are 2 columns wide
    monkeypatch.setattr(field_module, "_TILE_ELEMS", 6)
    for q in (7, Q_INT64_MAX):
        check(q, *operands(q, 3, 2049, cols, seed=cols))
        check(q, *near_maximal(q, 3, 2049, cols))


def test_real_tile_width_straddled():
    q = 65537
    cols = field_module._TILE_ELEMS // 2 + 1  # with two rows, one column past a tile
    check(q, *operands(q, 2, 3, cols, seed=2))


def test_empty_contraction_is_zero():
    got = modmatmul(np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3), dtype=np.int64), 7)
    assert got.tolist() == [[0, 0, 0], [0, 0, 0]]


def test_worker_product_of_length_2_pow_22_does_not_overflow():
    # 2^22 * (q-1)^2 overflows int64; the answer is 2^22 mod q = 18
    q = Q_INT64_MAX
    field = PrimeField(q)
    col = MatrixF(field, np.full((1 << 22, 1), q - 1, dtype=np.int64))
    assert worker_multiply(col, col).data.tolist() == [[18]]
