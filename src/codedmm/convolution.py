"""Coded distributed convolution with recovery threshold m + n - 1.

Both inputs are split into equal-length blocks (m of a, n of b); worker i
stores the two block combinations

    a~_i = sum_{j<m} a_j * x_i^j,        b~_i = sum_{k<n} b_k * x_i^k

and returns their full convolution.  That result is the evaluation at x_i of
a degree m+n-2 polynomial whose x^d coefficient is the anti-diagonal sum
over j+k = d of a_j * b_k, exactly the blocks overlap-add needs, so any
m+n-1 workers decode and no product coefficient is wasted.  ConvCodeSpec is
therefore an InterpolationCode whose output map is the identity: conv_decode
runs the shared interpolation decoder, then overlap-adds the coefficients.
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
    TooFewWorkers,
)
from .field import PrimeField, combine, exact_float_terms, vandermonde
from .schemes import InterpolationCode


@dataclass(frozen=True)
class ConvCodeSpec(InterpolationCode):
    """Parameters of the convolution code; workers store length-s vectors.

    Its product polynomial's K = m + n - 1 coefficients are the block
    convolutions overlap-add needs, so output_map is the K x K identity.
    The generators, worker i's powers x_i^j, are built once here.
    """

    m: int
    n: int
    N: int
    s: int
    x_points: tuple[int, ...]
    field: PrimeField

    def __post_init__(self):
        if min(self.m, self.n, self.N, self.s) < 1:
            raise ValueError("m, n, N, s must all be >= 1")
        k = self.m + self.n - 1
        if self.N < k:
            raise TooFewWorkers(f"N={self.N} < m+n-1={k}")
        if len(self.x_points) != self.N:
            raise ValueError(f"need {self.N} evaluation points")
        q = self.field.modulus
        if len({x % q for x in self.x_points}) != self.N:
            raise DuplicateEvaluationPoint("evaluation points must be distinct mod q")
        powers = vandermonde(self.field, self.x_points, max(self.m, self.n))
        object.__setattr__(self, "gen_a", powers[:, :self.m])
        object.__setattr__(self, "gen_b", powers[:, :self.n])
        object.__setattr__(self, "points", self.x_points)
        object.__setattr__(self, "output_map", np.eye(k, dtype=self.field.array_dtype))

    def _assemble(self, weights: np.ndarray, parts, true_lens: tuple[int, int] | None) -> np.ndarray:
        """a * b from its K per-diagonal block convolutions, combine(weights, parts), cut to the true length."""
        full = overlap_add(self.field, combine(self.field, weights, parts), self.s)
        if true_lens is not None:
            la, lb = true_lens
            if la > self.m * self.s or lb > self.n * self.s:
                raise BlockShapeMismatch(f"true lengths {true_lens} exceed the padded m*s, n*s")
            full = full[: la + lb - 1]
        return full


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
    dtype = spec.field.array_dtype
    coded_a = combine(spec.field, spec.gen_a[i:i + 1], np.array(a_blocks, dtype=dtype))
    coded_b = combine(spec.field, spec.gen_b[i:i + 1], np.array(b_blocks, dtype=dtype))
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
    is truncated to the true convolution length; lengths beyond the padded
    m*s and n*s raise BlockShapeMismatch, as do results not 2s - 1 long.
    """
    return spec._decode_results(results, subset, true_lens)
