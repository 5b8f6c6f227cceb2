"""Coded distributed convolution with recovery threshold m + n - 1.

Both inputs are split into equal-length blocks (m of a, n of b); worker i
stores the two block combinations

    a~_i = sum_{j<m} a_j * x_i^j,        b~_i = sum_{k<n} b_k * x_i^k

and returns their full convolution.  That result is the evaluation at x_i of
a degree m+n-2 polynomial whose x^d coefficient is the anti-diagonal sum
over j+k = d of a_j * b_k, exactly the blocks overlap-add needs, so any
m+n-1 workers decode and no product coefficient is wasted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .blocks import overlap_add
from .errors import (
    BlockShapeMismatch,
    DuplicateEvaluationPoint,
    FieldTooSmall,
    InsufficientResults,
    TooFewWorkers,
)
from .field import PrimeField, exact_float_terms, interpolate_arrays, modmatmul
from .schemes import gather_results


@dataclass(frozen=True)
class ConvCodeSpec:
    """Parameters of the convolution code; workers store length-s vectors."""

    m: int
    n: int
    N: int
    s: int
    x_points: tuple[int, ...]
    field: PrimeField

    def __post_init__(self):
        if min(self.m, self.n, self.N, self.s) < 1:
            raise ValueError("m, n, N, s must all be >= 1")
        if self.N < self.recovery_threshold():
            raise TooFewWorkers(f"N={self.N} < m+n-1={self.recovery_threshold()}")
        if len(self.x_points) != self.N:
            raise ValueError(f"need {self.N} evaluation points")
        q = self.field.modulus
        if len({x % q for x in self.x_points}) != self.N:
            raise DuplicateEvaluationPoint("evaluation points must be distinct mod q")

    def recovery_threshold(self) -> int:
        return self.m + self.n - 1


def conv_spec(m: int, n: int, N: int, s: int, field: PrimeField) -> ConvCodeSpec:
    """Spec over x_i = i; needs q > N for distinct points."""
    if field.modulus <= N:
        raise FieldTooSmall(f"need q > N, got q={field.modulus}, N={N}")
    return ConvCodeSpec(m=m, n=n, N=N, s=s, x_points=tuple(range(N)), field=field)


def field_convolve(field: PrimeField, a, b) -> np.ndarray:
    """Full linear convolution over GF(q), length len(a) + len(b) - 1.

    int64 operands convolve in float64, which is exact while an output entry
    sums at most exact_float_terms(q) products, so the shorter operand is
    cut into pieces of that length, each reduced before the overlap-add.
    """
    q = field.modulus
    av = np.asarray(a, dtype=field.array_dtype) % q
    bv = np.asarray(b, dtype=field.array_dtype) % q
    if av.dtype == object:
        return np.convolve(av, bv) % q
    if len(av) > len(bv):
        av, bv = bv, av
    step = exact_float_terms(q)
    bf = bv.astype(np.float64)
    out = np.zeros(len(av) + len(bv) - 1, dtype=np.int64)
    for i0 in range(0, len(av), step):
        part = np.convolve(av[i0:i0 + step].astype(np.float64), bf)
        out[i0:i0 + len(part)] += part.astype(np.int64) % q
    return out % q


def conv_encode(
    spec: ConvCodeSpec, a_blocks: Sequence[np.ndarray], b_blocks: Sequence[np.ndarray], i: int
) -> tuple[np.ndarray, np.ndarray]:
    """The coded pair of length-s vectors stored by worker i.

    Blocks are canonical, as partition_vector returns them.
    """
    if not 0 <= i < spec.N:
        raise ValueError(f"worker index {i} out of range for N={spec.N}")
    if len(a_blocks) != spec.m or len(b_blocks) != spec.n:
        raise BlockShapeMismatch(
            f"got {len(a_blocks)}/{len(b_blocks)} blocks, expected {spec.m}/{spec.n}"
        )
    for blk in (*a_blocks, *b_blocks):
        if len(blk) != spec.s:
            raise BlockShapeMismatch(f"block of length {len(blk)}, expected {spec.s}")
    q = spec.field.modulus
    dtype = spec.field.array_dtype
    powers = np.array(
        [[pow(spec.x_points[i], d, q) for d in range(max(spec.m, spec.n))]], dtype=dtype
    )
    coded_a = modmatmul(powers[:, :spec.m], np.array(a_blocks, dtype=dtype), q)
    coded_b = modmatmul(powers[:, :spec.n], np.array(b_blocks, dtype=dtype), q)
    return coded_a[0], coded_b[0]


def conv_worker(spec: ConvCodeSpec, coded_a: np.ndarray, coded_b: np.ndarray) -> np.ndarray:
    """Per-worker computation: full convolution of the stored pair (2s-1 long)."""
    if len(coded_a) != spec.s or len(coded_b) != spec.s:
        raise BlockShapeMismatch("coded vectors must have length s")
    return field_convolve(spec.field, coded_a, coded_b)


def conv_decode(
    spec: ConvCodeSpec,
    results: Mapping[int, np.ndarray],
    subset: Sequence[int],
    true_lens: tuple[int, int] | None = None,
) -> np.ndarray:
    """Recover a * b from any m + n - 1 worker results.

    true_lens, when given, is (len(a), len(b)) before padding and the output
    is truncated to the true convolution length.
    """
    k_need = spec.recovery_threshold()
    if len(subset) < k_need:
        raise InsufficientResults(f"got {len(subset)} results, need {k_need}")
    use = list(subset)[:k_need]
    expect = 2 * spec.s - 1
    vals = []
    for v in gather_results(results, subset, spec.N)[:k_need]:
        v = np.asarray(v)
        if len(v) != expect:
            raise BlockShapeMismatch(f"result of length {len(v)}, expected {expect}")
        vals.append(v % spec.field.modulus)
    coeffs = interpolate_arrays(spec.field, [spec.x_points[w] for w in use], vals)
    full = overlap_add(spec.field, [coeffs[d] for d in range(k_need)], spec.s)
    if true_lens is not None:
        la, lb = true_lens
        full = full[: la + lb - 1]
    return full
