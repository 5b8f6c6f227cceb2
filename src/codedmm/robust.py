"""Fault-tolerant decoding: arbitrary worker errors instead of stragglers.

With all N results present and the polynomial code's threshold K, up to
N - K corrupted results are detectable and up to floor((N-K)/2) are
correctable.  Corruption is per worker (a whole result block is perturbed),
so error positions located on one scalar coordinate apply to the entire
block; a corrupted block that happens to leave the pilot coordinate
unchanged is caught by full-block verification, after which the next
coordinate serves as pilot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blocks import MatrixF, combine_blocks
from .errors import BlockShapeMismatch, TooManyErrors, UnsupportedScheme
from .field import FieldPolynomial, PrimeField, lagrange_matrix
from .linalg import solve_linear_system
from .schemes import GeneralPolynomialCode


def hamming_relations(N: int, d: int) -> tuple[int, int, int]:
    """(K, E_detect, E_correct) implied by a code of Hamming distance d.

    K = N - d + 1, E_detect = d - 1, E_correct = floor((d - 1) / 2).
    """
    if not 1 <= d <= N:
        raise ValueError(f"need 1 <= d <= N, got d={d}, N={N}")
    return N - d + 1, d - 1, (d - 1) // 2


@dataclass(frozen=True)
class Clean:
    """Detection passed; carries the decoded product."""

    matrix: MatrixF


@dataclass(frozen=True)
class ErrorDetected:
    """Some result is inconsistent with the rest; worker is the first one."""

    worker: int


@dataclass(frozen=True)
class FaultModel:
    """Corrupts `errors` workers by adding a random nonzero block each."""

    errors: int
    seed: int = 0

    def inject(self, results: Sequence[MatrixF]) -> tuple[list[MatrixF], list[int]]:
        """Returns (results with corruption applied, corrupted worker indices)."""
        if self.errors > len(results):
            raise ValueError(f"cannot corrupt {self.errors} of {len(results)} workers")
        rng = np.random.default_rng(self.seed)
        victims = sorted(rng.choice(len(results), size=self.errors, replace=False).tolist())
        out = list(results)
        for w in victims:
            blk = results[w]
            q = blk.field.modulus
            while True:
                delta = rng.integers(0, q, size=blk.shape)
                if delta.any():
                    break
            out[w] = MatrixF(blk.field, blk.data + delta.astype(blk.field.array_dtype))
        return out, victims


def _mismatches(
    code: GeneralPolynomialCode,
    results: Sequence[MatrixF],
    fit: Sequence[int],
    others: Sequence[int],
) -> list[int]:
    """The workers in others whose results are off the polynomial through fit's results."""
    xs = code.points
    at_others = lagrange_matrix(code.field, [xs[w] for w in fit], [xs[w] for w in others])
    predicted = combine_blocks(code.field, at_others, np.stack([results[w].data for w in fit]))
    return [w for w, blk in zip(others, predicted) if not np.array_equal(blk, results[w].data)]


def _decode(code: GeneralPolynomialCode, results: Sequence[MatrixF], fit: Sequence[int], dims):
    """The product decoded from the results of the workers in fit."""
    received = np.stack([results[w].data for w in fit])
    return MatrixF._wrap(code.field, code.decode_received(received, fit, dims))


def _repair_threshold(code, results: Sequence[MatrixF]) -> int:
    """Check that code is a polynomial code and results are N blocks of one shape; returns K.

    Detection and repair interpolate through the workers' evaluation points;
    they are supported for the polynomial codes only.
    """
    if not isinstance(code, GeneralPolynomialCode):
        raise UnsupportedScheme(
            f"error detection and correction need a polynomial code, got {type(code).__name__}"
        )
    if len(results) != code.N:
        raise ValueError(f"need all {code.N} results, got {len(results)}")
    if len({r.shape for r in results}) > 1:
        raise BlockShapeMismatch("worker results differ in shape")
    return code.recovery_threshold()


def detect_errors(
    code: GeneralPolynomialCode,
    results: Sequence[MatrixF],
    dims: tuple[int, int] | None = None,
):
    """Decode from the first K workers and cross-check everyone else.

    Returns Clean(C) when every result matches the fitted polynomial, else
    ErrorDetected.  With at most N - K corrupted workers this never returns
    a wrong Clean: the fit would disagree with some uncorrupted worker.
    """
    k_need = _repair_threshold(code, results)
    fit = range(k_need)
    wrong = _mismatches(code, results, fit, range(k_need, code.N))
    if wrong:
        return ErrorDetected(worker=wrong[0])
    return Clean(_decode(code, results, fit, dims))


def _berlekamp_welch(
    field: PrimeField,
    xs: Sequence[int],
    ys: Sequence[int],
    msg_len: int,
    max_errors: int,
) -> tuple[FieldPolynomial, list[int]] | None:
    """Decode a degree < msg_len polynomial from values with some errors.

    Solves Q(x_i) = y_i * E(x_i) with E monic of degree e, trying
    e = 0..max_errors and keeping the first e whose solution divides cleanly
    and mismatches the stream in at most e places; those mismatch positions
    are exactly the error locations.  Returns None if no e works.
    """
    q = field.modulus
    npts = len(xs)
    for e in range(max_errors + 1):
        q_len = msg_len + e
        rows = []
        rhs = []
        for x, y in zip(xs, ys):
            row = [0] * (e + q_len)
            xp = 1
            for d in range(e):
                row[d] = y * xp % q
                xp = xp * x % q
            # xp is now x^e
            rhs.append(-y * xp % q)
            xp = 1
            for d in range(q_len):
                row[e + d] = -xp % q
                xp = xp * x % q
            rows.append(row)
        sol = solve_linear_system(field, rows, rhs)
        if sol is None:
            continue
        locator = FieldPolynomial(field, [int(v) for v in sol[:e]] + [1])
        quotient = FieldPolynomial(field, [int(v) for v in sol[e:]])
        candidate, rem = divmod(quotient, locator)
        if not rem.is_zero():
            continue
        if candidate.degree is not None and candidate.degree >= msg_len:
            continue
        mismatches = [
            i for i, (x, y) in enumerate(zip(xs, ys))
            if candidate.evaluate(x).value != y
        ]
        if len(mismatches) <= e and msg_len + 2 * len(mismatches) <= npts:
            return candidate, mismatches
    return None


def correct_errors(
    code: GeneralPolynomialCode,
    results: Sequence[MatrixF],
    dims: tuple[int, int] | None = None,
) -> MatrixF:
    """Recover the exact product despite up to floor((N-K)/2) corrupted workers.

    One scalar coordinate at a time serves as the pilot: Berlekamp-Welch on
    the pilot stream locates the workers corrupted there, those are erased
    everywhere, and the decode from the survivors is verified against every
    surviving block.  A corruption invisible on the pilot fails that
    verification and the scan moves to the next coordinate.  Raises
    TooManyErrors when no pilot produces a verified decode.
    """
    N = code.N
    k_need = _repair_threshold(code, results)
    xs = code.points
    e_max = (N - k_need) // 2
    shape = results[0].shape

    remaining = list(range(N))
    erased = 0
    for u in range(shape[0]):
        for v in range(shape[1]):
            budget = (len(remaining) - k_need) // 2
            stream_x = [xs[w] for w in remaining]
            stream_y = [int(results[w].data[u, v]) for w in remaining]
            decoded = _berlekamp_welch(code.field, stream_x, stream_y, k_need, budget)
            if decoded is None:
                continue
            _, mismatches = decoded
            located = [remaining[i] for i in mismatches]
            if located:
                if erased + len(located) > e_max:
                    continue
                erased += len(located)
                gone = set(located)
                remaining = [w for w in remaining if w not in gone]
            fit = remaining[:k_need]
            if not _mismatches(code, results, fit, remaining[k_need:]):
                return _decode(code, results, fit, dims)
    raise TooManyErrors(
        f"no pilot coordinate yields a consistent decode within {e_max} errors"
    )
