"""Tests for the GF(q) linear solver, checked against the brute-force oracles.

Systems are planted with known structure (an invertible L·U core, columns
that are combinations of earlier ones), so the expected rank and solution
come from the construction, and M x = b is checked with naive_matmul_t.
"""

import math
import random

import numpy as np
import pytest

from codedmm.blocks import MatrixF
from codedmm.errors import NonIntegerEntry
from codedmm.field import PrimeField
from codedmm.linalg import solve_linear_system
from codedmm.schemes import RandomLinearCode, worker_multiply
from oracles import naive_matmul_t, oracle_product

MODULI = [7, 65537, 2097143, 2**61 - 1]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def matmul(q, a, b):
    """a @ b mod q through the oracle (which computes a^T b)."""
    return naive_matmul_t(q, transpose(a), b)


def invertible(q, size, rng):
    """L·U with L unit lower triangular and U upper triangular, nonzero diagonal."""
    lower = [[1 if i == j else (rng.randrange(q) if j < i else 0) for j in range(size)]
             for i in range(size)]
    upper = [[rng.randrange(1, q) if i == j else (rng.randrange(q) if j > i else 0)
              for j in range(size)] for i in range(size)]
    return matmul(q, lower, upper)


def random_rows(q, rows, cols, rng):
    return [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]


def as_columns(x, rhs_shape):
    """(cols, *rhs_shape) solution as a list of rows of flattened RHS entries."""
    return np.asarray(x, dtype=object).reshape(len(x), math.prod(rhs_shape)).tolist()


def solve(q, coeffs, rhs_rows, rhs_shape, **kw):
    rhs = np.array(rhs_rows, dtype=object).reshape((len(rhs_rows),) + rhs_shape)
    return solve_linear_system(PrimeField(q), coeffs, rhs.tolist(), **kw)


@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("rhs_shape", [(), (2, 3)], ids=["vector", "block"])
@pytest.mark.parametrize("extra_rows", [0, 3], ids=["square", "tall"])
def test_full_rank_solution_is_the_planted_one(q, rhs_shape, extra_rows):
    rng = random.Random(q + extra_rows + len(rhs_shape))
    cols = 6
    coeffs = invertible(q, cols, rng) + random_rows(q, extra_rows, cols, rng)
    planted = random_rows(q, cols, math.prod(rhs_shape), rng)
    rhs = matmul(q, coeffs, planted)
    x = solve(q, coeffs, rhs, rhs_shape, require_full_column_rank=True)
    assert x is not None and x.shape == (cols,) + rhs_shape
    got = as_columns(x, rhs_shape)
    assert got == planted
    assert matmul(q, coeffs, got) == rhs


@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("rhs_shape", [(), (2, 2)], ids=["vector", "block"])
def test_rank_deficient_consistent_zeroes_free_columns(q, rhs_shape):
    rng = random.Random(q)
    rows, cols = 6, 7
    basis = transpose(invertible(q, rows, rng))[:4]  # four independent columns
    # columns 2, 4 and 6 combine earlier ones, so they are the free columns
    c1, c2 = rng.randrange(q), rng.randrange(q)
    combos = {
        2: lambda i: (c1 * basis[0][i] + c2 * basis[1][i]) % q,
        4: lambda i: (basis[2][i] + c1 * basis[0][i]) % q,
        6: lambda i: (c2 * basis[3][i] + basis[1][i]) % q,
    }
    pivots = iter(basis)
    columns = [
        [combos[j](i) for i in range(rows)] if j in combos else next(pivots)
        for j in range(cols)
    ]
    coeffs = transpose(columns)
    width = math.prod(rhs_shape)
    rhs = matmul(q, coeffs, random_rows(q, cols, width, rng))
    x = solve(q, coeffs, rhs, rhs_shape)
    assert x is not None and x.shape == (cols,) + rhs_shape
    got = as_columns(x, rhs_shape)
    for j in combos:
        assert got[j] == [0] * width
    assert matmul(q, coeffs, got) == rhs
    assert solve(q, coeffs, rhs, rhs_shape, require_full_column_rank=True) is None


@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("rhs_shape", [(), (3,)], ids=["vector", "block"])
def test_inconsistent_system_has_no_solution(q, rhs_shape):
    rng = random.Random(q + 1)
    cols = 5
    coeffs = invertible(q, cols, rng) + random_rows(q, 2, cols, rng)
    width = math.prod(rhs_shape)
    rhs = matmul(q, coeffs, random_rows(q, cols, width, rng))
    rhs[-1][-1] = (rhs[-1][-1] + 1) % q  # off the column space of a tall full-rank M
    assert solve(q, coeffs, rhs, rhs_shape) is None
    # and a rank-deficient square system: last row is the sum of the others
    square = invertible(q, cols, rng)[:-1]
    square.append([sum(col) % q for col in zip(*square)])
    rhs = [[rng.randrange(q) for _ in range(width)] for _ in range(cols)]
    rhs[-1] = [(sum(col) + 1) % q for col in zip(*rhs[:-1])]
    assert solve(q, square, rhs, rhs_shape) is None


@pytest.mark.parametrize("q", MODULI)
def test_system_without_equations(q):
    # no rows: solvable only with no unknowns, the solution then being empty
    field = PrimeField(q)
    assert solve_linear_system(field, np.zeros((0, 2)), np.zeros((0, 3)), True) is None
    got = solve_linear_system(field, np.zeros((0, 0)), np.zeros((0, 3, 4)), True)
    assert got.shape == (0, 3, 4)


@pytest.mark.parametrize("q", MODULI)
def test_non_integer_entries_are_refused(q):
    # 1.5 x = 2.7 must not be solved as 1 x = 2 after silent truncation
    field = PrimeField(q)
    with pytest.raises(NonIntegerEntry):
        solve_linear_system(field, [[1.5]], [2.7])
    with pytest.raises(NonIntegerEntry):
        solve_linear_system(field, [[1]], np.array([[0.5, 1.0]]))


def test_random_linear_decode_at_largest_int64_field():
    # q = 2097143 is the largest prime below 2^21, so int64 arrays; the
    # elimination's outer products reach just below 2^42
    field = PrimeField(2097143)
    assert field.array_dtype == np.int64
    rng = random.Random(11)
    code = RandomLinearCode(2, 2, 1, N=10, field=field, seed=3)
    a = MatrixF(field, [[rng.randrange(field.modulus - 100, field.modulus)
                         for _ in range(4)] for _ in range(6)])
    b = MatrixF(field, random_rows(field.modulus, 6, 2, rng))
    results = {i: worker_multiply(ca, cb) for i, (ca, cb) in enumerate(code.encode_all(a, b))}
    subset = list(range(code.recovery_threshold()))
    assert code.decode(results, subset, dims=(4, 2)) == oracle_product(a, b)
