"""Fault-tolerant decoding: arbitrary worker errors instead of stragglers.

With all N results of an evaluation code present (an InterpolationCode:
polynomial, improved, element-wise or convolution, whose results lie on one
product polynomial of degree < K), up to N - K corrupted results are
detectable and up to floor((N-K)/2) are correctable.  The results come
indexed by worker, as CodingScheme.decode takes them: results[w] is worker
w's result in a mapping, a list or the (N, ...) stack that worker_products
returns, as arrays or MatrixF, and the product goes back in the same form.
Corruption is per worker (a whole result block is perturbed), so error
positions located on one scalar stream apply to the entire block.
Correction locates them on projections of the blocks: each worker's block
is reduced to one field element by a seeded random linear combination of its
entries (the interleaved Reed-Solomon technique of Bleichenbacher, Kiayias
and Yung), the errors on that stream are located by Gao's Reed-Solomon
decoder, and the decode from the survivors is then verified against every
surviving block.  A corrupted block whose delta is orthogonal to one
projection (probability 1/q) is caught by that verification, and the next
projection serves as pilot; correction refuses when none is left.

A code's evaluation points and the projection seed are fixed, so repair
meets the same few point sets job after job.  What depends only on them is
built once and kept in bounded caches: the Lagrange bases with their
vanishing polynomials (Gao's g0), the prediction maps from K survivors to
the rest (field.lagrange_matrix) and the seeded pilots (_seeded_pilots).
Every caller shares the cached arrays, so they are read-only: a write
raises ValueError instead of corrupting the next job's repair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blocks import MatrixF
from .errors import TooManyErrors, UnsupportedScheme
from .field import (
    FieldPolynomial,
    PrimeField,
    combine,
    interpolate_arrays,
    lagrange_matrix,
    modmatmul,
    random_elements,
    vanishing_polynomial,
)
from .schemes import InterpolationCode


def hamming_relations(N: int, d: int) -> tuple[int, int, int]:
    """(K, E_detect, E_correct) implied by a code of Hamming distance d.

    K = N - d + 1, E_detect = d - 1, E_correct = floor((d - 1) / 2).
    """
    if not 1 <= d <= N:
        raise ValueError(f"need 1 <= d <= N, got d={d}, N={N}")
    return N - d + 1, d - 1, (d - 1) // 2


@dataclass(frozen=True)
class Clean:
    """Detection passed; carries the decoded product, a MatrixF for MatrixF results."""

    matrix: MatrixF | np.ndarray


@dataclass(frozen=True)
class ErrorDetected:
    """Some result is inconsistent with the rest; worker is the first one."""

    worker: int


def inject_faults(rng: np.random.Generator, stack, errors: int, q: int) -> list[int]:
    """Add a random nonzero block to `errors` seeded rows of stack, in place.

    stack holds N canonical blocks or scalars, as one array or a list.  The
    victims are drawn first, then one delta per victim in worker order;
    returns them sorted.
    """
    if not 0 <= errors <= len(stack):
        raise ValueError(f"cannot corrupt {errors} of {len(stack)} workers")
    victims = sorted(rng.choice(len(stack), size=errors, replace=False).tolist()) if errors else []
    for w in victims:
        block = stack[w]
        while True:
            delta = random_elements(rng, q, np.shape(block))
            if delta.any():
                break
        # a scalar of an object stack is a Python int, and stays one
        stack[w] = (block + delta.astype(getattr(block, "dtype", object))) % q
    return victims


@dataclass(frozen=True)
class FaultModel:
    """Corrupts `errors` workers by adding a random nonzero block each."""

    errors: int
    seed: int = 0

    def inject(self, results: Sequence[MatrixF]) -> tuple[list[MatrixF], list[int]]:
        """Returns (results with corruption applied, corrupted worker indices)."""
        data = [r.data for r in results]
        q = results[0].field.modulus if results else 1  # no victims to corrupt without results
        victims = inject_faults(np.random.default_rng(self.seed), data, self.errors, q)
        return [MatrixF._wrap(r.field, d) for r, d in zip(results, data)], victims


def _mismatches(
    code: InterpolationCode,
    stack: np.ndarray,
    fit: Sequence[int],
    others: Sequence[int],
) -> list[int]:
    """The workers in others whose results are off the polynomial through fit's results."""
    xs = code.points
    at_others = lagrange_matrix(code.field, [xs[w] for w in fit], [xs[w] for w in others])
    predicted = combine(code.field, at_others, stack[fit])
    return [w for w, blk in zip(others, predicted) if not np.array_equal(blk, stack[w])]


def _all_results(code, results) -> np.ndarray:
    """The N results of an evaluation code as one canonical stack, read as decode reads them.

    Detection and repair interpolate through the workers' evaluation points,
    so they need an InterpolationCode, whose N results lie on one polynomial
    (else UnsupportedScheme).  results[w] is worker w's result, and there
    must be N of them (else ValueError); code._result_arrays reads them.
    """
    if not isinstance(code, InterpolationCode):
        raise UnsupportedScheme(
            f"error detection and correction need an evaluation code, got {type(code).__name__}"
        )
    if len(results) != code.N:
        raise ValueError(f"need all {code.N} results, got {len(results)}")
    return np.asarray(code._result_arrays(results, range(code.N))[0])


def detect_errors(code: InterpolationCode, results, dims: tuple[int, int] | None = None):
    """Decode from the first K workers and cross-check everyone else.

    results are all N results, indexed by worker as decode takes them (see
    _all_results).  Returns Clean(C) when every result matches the fitted
    polynomial, else ErrorDetected.  C is code.decode's product from the
    first K.  With at most N - K corrupted workers this never returns a
    wrong Clean: the fit would disagree with some uncorrupted worker.
    Raises ValueError for other than N results.
    """
    stack = _all_results(code, results)
    k_need = code.recovery_threshold()
    wrong = _mismatches(code, stack, range(k_need), range(k_need, code.N))
    if wrong:
        return ErrorDetected(worker=wrong[0])
    return Clean(code.decode(results, range(k_need), dims))


def _locate_errors(
    field: PrimeField,
    xs: Sequence[int],
    ys: np.ndarray,
    msg_len: int,
    max_errors: int,
) -> list[int] | None:
    """Locate the errors in values of a degree < msg_len polynomial.

    Gao's decoder (S. Gao, "A New Algorithm for Decoding Reed-Solomon
    Codes", 2003): with g0 = prod_i (x - xs[i]) and g1 the interpolant of
    the stream, the extended Euclidean algorithm on (g0, g1) stops at the
    first remainder g with 2 deg g < n + msg_len, where g = u g0 + v g1.
    When the stream is within floor((n - msg_len)/2) of a codeword f, v
    divides g and f = g / v.  Returns the positions where f disagrees with
    the stream if the division is exact, f has degree < msg_len and there
    are at most max_errors of them (the unique codeword within that
    radius); otherwise None.  g0 is kept with the basis of xs
    (field.vanishing_polynomial), so on repeated points only the Euclidean
    steps and the final scan, Horner's rule on ints, are paid.
    """
    n = len(xs)
    r0 = vanishing_polynomial(field, xs)
    r1 = FieldPolynomial(field, interpolate_arrays(field, xs, ys).tolist())
    v0, v1 = FieldPolynomial(field, []), FieldPolynomial(field, [1])
    while not r1.is_zero() and 2 * r1.degree >= n + msg_len:
        quotient, remainder = divmod(r0, r1)
        r0, r1 = r1, remainder
        v0, v1 = v1, v0 - quotient * v1
    codeword, remainder = divmod(r1, v1)
    if not remainder.is_zero() or len(codeword.coeffs) > msg_len:
        return None
    # the mismatches are roots of v, so there are at most floor((n - msg_len)/2)
    q = field.modulus
    high_first = codeword.coeffs[::-1]
    mismatches = []
    for i, (x, y) in enumerate(zip(map(int, xs), ys.tolist())):
        value = 0
        for c in high_first:
            value = (value * x + c) % q  # scalar: Python ints
        if value != y:
            mismatches.append(i)
    return mismatches if len(mismatches) <= max_errors else None


# Fixed, so repeated runs pick the same projections and report the same outcomes.
_PROJECTION_SEED = 0x5EED_C0DE
# Every pilot misses some within-budget corrupted worker with probability below 2**-_MISS_BITS.
_MISS_BITS = 40
# _seeded_pilots keeps the pilots of this many recent keys; one entry holds
# t vectors of a block's size, so the bound is small.
_PILOT_CACHE = 4


def _pilot_vectors(field: PrimeField, e_max: int, coords: int):
    """Yield the projections that correct_errors reduces each block with.

    A random projection misses a given corrupted worker (its delta is
    orthogonal to the vector) with probability 1/q, so t seeded random
    vectors, t the least count with (e_max / q)^t < 2^-40, locate every one
    of up to e_max errors unless that small chance hits.  When t would
    reach the coordinate count, or q <= e_max makes no t enough, the unit
    vectors are cheaper and exact: they scan every coordinate in row-major
    order.  The seeded vectors are drawn once per (field, t, span, coords)
    and kept (_seeded_pilots); they are shared, so they are read-only.
    """
    # numpy draws int64 entries; drawn below span, a projection misses with chance 1/span
    span = min(field.modulus, 1 << 62)
    t = 1
    while t < coords and e_max**t << _MISS_BITS >= span**t:
        t += 1
    if t >= coords or span <= e_max:
        for j in range(coords):
            unit = np.zeros(coords, dtype=field.array_dtype)
            unit[j] = 1
            yield unit
        return
    yield from _seeded_pilots(field, t, span, coords)


@functools.lru_cache(maxsize=_PILOT_CACHE)
def _seeded_pilots(field: PrimeField, t: int, span: int, coords: int) -> tuple[np.ndarray, ...]:
    """The first t draws below span from _PROJECTION_SEED, read-only: they are shared."""
    rng = np.random.default_rng(_PROJECTION_SEED)
    pilots = tuple(rng.integers(0, span, size=coords).astype(field.array_dtype) for _ in range(t))
    for pilot in pilots:
        pilot.flags.writeable = False
    return pilots


def correct_errors(code: InterpolationCode, results, dims: tuple[int, int] | None = None):
    """Recover the exact product despite up to floor((N-K)/2) corrupted workers.

    results are all N results, indexed by worker as decode takes them (see
    _all_results); the product is code.decode's from the survivors, a
    MatrixF for MatrixF results, else an array.  Each pilot projects every
    surviving block onto one vector (see _pilot_vectors: t seeded random
    vectors, t the least count with (e_max / q)^t < 2^-40, or the unit
    vectors when t would reach the block size).  Gao's decoder on the projected stream (_locate_errors) locates
    the workers corrupted there, those are erased everywhere, and the
    decode from the survivors is verified against every surviving block.
    A corruption invisible on one pilot fails that verification and the
    next pilot takes over.  The projection seed is a fixed constant, so
    repeated runs agree.  A within-budget corruption independent of that
    seed is refused with probability below 2^-40; one crafted against the
    seed can at worst be refused.  No product is returned unverified: it
    agrees with at least N - floor((N-K)/2) results, so it is the true
    product whenever at most ceil((N-K)/2) workers are corrupted.  Past
    that only corruptions that together fit another codeword pass (at
    N = K, any).  Raises TooManyErrors when no pilot produces a verified decode,
    FieldMismatch for results over another field, and ValueError for other
    than N results.
    """
    N = code.N
    stack = _all_results(code, results)
    k_need = code.recovery_threshold()
    xs = code.points
    e_max = (N - k_need) // 2
    flat = stack.reshape(N, -1)

    remaining = list(range(N))
    erased = 0
    for pilot in _pilot_vectors(code.field, e_max, flat.shape[1]):
        budget = (len(remaining) - k_need) // 2
        stream_x = [xs[w] for w in remaining]
        stream = modmatmul(flat[remaining], pilot[:, None], code.field.modulus)[:, 0]
        mismatches = _locate_errors(code.field, stream_x, stream, k_need, budget)
        if mismatches is None:
            continue
        if mismatches:
            if erased + len(mismatches) > e_max:
                continue
            erased += len(mismatches)
            remaining = [w for i, w in enumerate(remaining) if i not in mismatches]
        fit = remaining[:k_need]
        if not _mismatches(code, stack, fit, remaining[k_need:]):
            return code.decode(results, fit, dims)
    raise TooManyErrors(
        f"no pilot projection yields a consistent decode within {e_max} errors"
    )
