"""Gauss-Jordan elimination over GF(q).

One solver covers every linear system in the package, all of them the
random linear code's: its construction, whose right-hand side is an
identity, and its decode, whose right-hand sides are whole matrix blocks.
The right-hand sides are carried as extra columns, [M | b], and each pivot
clears its column in every other row with one vectorized rank-1 update,
leaving M in reduced row echelon form.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .field import PrimeField, canonical_array, mulmod


def solve_linear_system(
    field: PrimeField, coeffs, rhs, require_full_column_rank: bool = False
) -> np.ndarray | None:
    """Solve M x = b over GF(q); returns None when no solution exists.

    coeffs: (rows, cols) array-like of integers, rows >= cols allowed.
    rhs:    (rows, ...) array-like; trailing dimensions ride along.
    Entries are reduced mod q; a non-integer entry raises NonIntegerEntry.
    Underdetermined-but-consistent systems get the particular solution with
    free variables set to zero, unless require_full_column_rank is set, in
    which case rank < cols also returns None.
    """
    q = field.modulus
    m = canonical_array(field, coeffs)
    b = canonical_array(field, rhs)
    rows, cols = m.shape
    aug = np.concatenate([m, b.reshape(rows, prod(b.shape[1:]))], axis=1)

    pivot_cols: list[int] = []
    for col in range(cols):
        row = len(pivot_cols)
        if row == rows:
            break
        nonzero = np.flatnonzero(aug[row:, col])
        if not nonzero.size:
            continue
        pivot = row + int(nonzero[0])
        if pivot != row:
            aug[[row, pivot]] = aug[[pivot, row]]
        aug[row] = mulmod(aug[row], field.inv(int(aug[row, col])), q)
        factors = aug[:, col].copy()
        factors[row] = 0
        # columns left of col are already zero in the pivot row
        aug[:, col:] = (aug[:, col:] - mulmod(factors[:, None], aug[row, col:], q)) % q
        pivot_cols.append(col)
    rank = len(pivot_cols)
    if require_full_column_rank and rank < cols:
        return None
    # consistency: eliminated rows below the rank must have zero RHS
    if np.any(aug[rank:, cols:] != 0):
        return None
    x = np.zeros((cols, aug.shape[1] - cols), dtype=field.array_dtype)
    x[pivot_cols] = aug[:rank, cols:]
    return x.reshape((cols,) + b.shape[1:])
