"""Gaussian elimination over GF(q).

One solver covers both uses in the package: scalar systems (Berlekamp-Welch)
and systems whose right-hand sides are whole matrix blocks (random linear
decoding) -- the RHS is just carried as extra columns.
"""

from __future__ import annotations

import numpy as np

from .field import PrimeField


def solve_linear_system(
    field: PrimeField, coeffs, rhs, require_full_column_rank: bool = False
) -> np.ndarray | None:
    """Solve M x = b over GF(q); returns None when no solution exists.

    coeffs: (rows, cols) array-like of canonical ints, rows >= cols allowed.
    rhs:    (rows, ...) array-like; trailing dimensions ride along.
    Underdetermined-but-consistent systems get the particular solution with
    free variables set to zero, unless require_full_column_rank is set, in
    which case rank < cols also returns None.
    """
    q = field.modulus
    m = np.array(coeffs, dtype=field.array_dtype) % q
    b = np.array(rhs, dtype=field.array_dtype) % q
    rows, cols = m.shape
    rhs_shape = b.shape[1:]
    b = b.reshape(rows, -1)

    pivot_cols: list[int] = []
    row = 0
    for col in range(cols):
        pivot = None
        for r in range(row, rows):
            if m[r, col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != row:
            m[[row, pivot]] = m[[pivot, row]]
            b[[row, pivot]] = b[[pivot, row]]
        inv = field.inv(int(m[row, col]))
        m[row] = m[row] * inv % q
        b[row] = b[row] * inv % q
        for r in range(rows):
            if r != row and m[r, col] != 0:
                f = m[r, col]
                m[r] = (m[r] - f * m[row]) % q
                b[r] = (b[r] - f * b[row]) % q
        pivot_cols.append(col)
        row += 1
        if row == rows:
            break
    if require_full_column_rank and len(pivot_cols) < cols:
        return None
    # consistency: eliminated rows below the rank must have zero RHS
    for r in range(row, rows):
        if np.any(b[r] % q != 0):
            return None
    x = np.zeros((cols,) + b.shape[1:], dtype=field.array_dtype)
    for r, col in enumerate(pivot_cols):
        x[col] = b[r]
    return x.reshape((cols,) + rhs_shape)

