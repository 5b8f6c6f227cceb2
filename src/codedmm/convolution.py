"""Coded distributed convolution with recovery threshold m + n - 1.

Both inputs are split into equal-length blocks (m of a, n of b); worker i
stores the two block combinations

    a~_i = sum_{j<m} a_j * x_i^j,        b~_i = sum_{k<n} b_k * x_i^k

and returns their full convolution.  That result is the evaluation at x_i of
a degree m+n-2 polynomial whose x^d coefficient is the anti-diagonal sum
over j+k = d of a_j * b_k, exactly the blocks overlap-add needs, so any
m+n-1 workers decode and no product coefficient is wasted.  ConvCodeSpec is
therefore an InterpolationCode, built through its constructor, whose output
map is the identity: its parts are the length-s blocks, its workers
convolve, and decode interpolates, then overlap-adds the coefficients.
conv_encode/worker/decode wrap those steps.

Each worker's convolution (field_convolve) runs, for q < 2^21, as an exact
float64 FFT product in O(s log s).  A canonical entry splits into an 11-bit
low limb and a high limb below 2^10, and np.fft.rfft transforms each limb.
The three limb products lo*lo, cross and hi*hi come back through one
np.fft.irfft and are rounded with np.rint; cross is Karatsuba's middle term
(lo+hi)*(lo+hi) - lo*lo - hi*hi, which equals lo*hi + hi*lo, so it is formed
from the spectra before the inverse transform and no lo+hi limb is
transformed.  lo*lo + cross * 2^11 + hi*hi * 2^22 stays below 2^56 in int64
for pieces of at most 2^13 entries and is reduced mod q once.  The limbs,
spectra, products and rounded products live, when the shorter operand fits
one piece, in the thread's kernel workspace (field._workspace), so a worker's
convolution allocates only its operand copies and its result.

Rounding is exact while the FFT errs by less than 1/2.  C. Percival ("Rapid
multiplication modulo the sum and difference of highly composite numbers",
Math. Comp. 72, 2003) bounds the error of a length-2^k FFT product of x and
y by

    |x| |y| ((1+e)^3k (1+e sqrt5)^(3k+1) (1+b)^3k - 1),

e = 2^-53 and b the error of the roots of unity, |.| the Euclidean norm;
cross, a sum of two products, errs by at most the sum of their bounds.
Operands are cut into pieces of at most _FFT_PIECE = 2^13 entries, which
overlap-add, so products have length at most 2^14 and the largest bound,
2^13 * 2047^2 * (that factor at k = 14, b = e), is about 2^-10.5, below
1/4.  The bound is proved for a radix-2 transform; the factor of about 2^9
between it and 1/2 covers the constant-factor differences of numpy's
pocketfft and its real-input packing.  Larger moduli convolve Python ints
directly, returned in the field's dtype.
"""

from __future__ import annotations

from math import prod
from typing import Mapping, Sequence

import numpy as np

from .blocks import _int_pair, overlap_add, partition_vector
from .errors import BlockShapeMismatch, TooFewWorkers
from .field import _INT64_SAFE_MODULUS, PrimeField, _workspace, canonical_array, combine, vandermonde
from .schemes import InterpolationCode, worker_points

# Entries below 2^21 split into a low limb of this many bits
# and a high limb below 2^10.
_LIMB_BITS = 11

# The longest operand piece one FFT product takes; 2^13 keeps Percival's
# bound near 2^-10.5 (see the module docstring), below 1/4.
_FFT_PIECE = 1 << 13


class ConvCodeSpec(InterpolationCode):
    """The convolution code over the points x_points; workers store length-s vectors.

    Its product polynomial's K = m + n - 1 coefficients are the block
    convolutions overlap-add needs, so output_map is the K x K identity.
    The generators, worker i's powers x_i^j, are built once here and handed,
    with the points, to InterpolationCode's constructor, which refuses
    points that are not distinct mod q.
    """

    def __init__(self, m: int, n: int, N: int, s: int, x_points: Sequence[int], field: PrimeField):
        if min(m, n, N, s) < 1:
            raise ValueError("m, n, N, s must all be >= 1")
        k = m + n - 1
        if N < k:
            raise TooFewWorkers(f"N={N} < m+n-1={k}")
        if len(x_points) != N:
            raise ValueError(f"need {N} evaluation points")
        self.m, self.n, self.s = m, n, s
        powers = vandermonde(field, x_points, max(m, n))
        super().__init__(field, x_points, powers[:, :m], powers[:, :n], np.eye(k, dtype=field.array_dtype))

    def _split(self, vec, count: int) -> list[np.ndarray]:
        """The count blocks of length s of vec, zero-padded and canonical."""
        return partition_vector(self.field, vec, count, block_len=self.s)

    def _work(self, coded_a, coded_b) -> np.ndarray:
        """Every worker's result: the full convolution of its stored pair (2s - 1 long)."""
        return np.stack([field_convolve(self.field, ca, cb) for ca, cb in zip(coded_a, coded_b)])

    def _assemble(self, weights: np.ndarray, parts, true_lens: tuple[int, int] | None) -> np.ndarray:
        """a * b from its K per-diagonal block convolutions, combine(weights, parts), cut to the true length."""
        full = overlap_add(self.field, combine(self.field, weights, parts), self.s)
        if true_lens is not None:
            la, lb = _int_pair(true_lens, "true lengths")
            if not (1 <= la <= self.m * self.s and 1 <= lb <= self.n * self.s):
                raise BlockShapeMismatch(f"true lengths {true_lens} lie outside 1..m*s, 1..n*s")
            full = full[: la + lb - 1]
        return full


def conv_spec(m: int, n: int, N: int, s: int, field: PrimeField) -> ConvCodeSpec:
    """The convolution code over the points 0..N-1 (worker_points: needs q > N)."""
    return ConvCodeSpec(m, n, N, s, worker_points(N, field), field)


def field_convolve(field: PrimeField, a, b) -> np.ndarray:
    """Full linear convolution over GF(q), length len(a) + len(b) - 1.

    Operands must be non-empty 1-D vectors (else ValueError) of integers
    (else NonIntegerEntry).  For q < 2^21 both are cut into pieces of at
    most _FFT_PIECE entries, each pair of pieces is one exact float64 FFT
    product of 11-bit and 10-bit limbs (see the module docstring for the
    error bound), and the pair products, recombined in int64 and reduced
    mod q, overlap-add.  Larger moduli convolve Python ints with np.convolve,
    exact at any length, into the field's dtype.
    """
    q = field.modulus
    av, bv = canonical_array(field, a), canonical_array(field, b)
    if av.ndim != 1 or bv.ndim != 1 or not len(av) or not len(bv):
        raise ValueError(f"operands must be non-empty 1-D vectors, got shapes {av.shape} and {bv.shape}")
    if q >= _INT64_SAFE_MODULUS:
        return (np.convolve(av.astype(object), bv.astype(object)) % q).astype(field.array_dtype)
    if len(av) > len(bv):
        av, bv = bv, av
    pa, pb = min(len(av), _FFT_PIECE), min(len(bv), _FFT_PIECE)
    a_pieces, b_pieces = _pieces(av, pa), _pieces(bv, pb)
    width = pa + pb - 1
    size = 1 << (width - 1).bit_length()
    bins = size // 2 + 1
    limbs, a_spectra, b_spectrum, products, inverse, rounded = _buffers(
        ((2, pb), float), ((len(a_pieces), 2, bins), complex), ((2, bins), complex),
        ((3, bins), complex), ((3, size), float), ((3, width), np.int64),
    )
    for piece, spectrum in zip(a_pieces, a_spectra):
        _limb_spectra(piece, limbs, size, spectrum)
    out = np.zeros(len(a_pieces) * pa + len(b_pieces) * pb - 1, dtype=np.int64)
    low, cross, high = rounded
    for j, piece in enumerate(b_pieces):
        _limb_spectra(piece, limbs, size, b_spectrum)
        b_low, b_high = b_spectrum
        for i, (a_low, a_high) in enumerate(a_spectra):
            np.multiply(a_low, b_low, out=products[0])
            np.multiply(a_low, b_high, out=products[1])
            np.multiply(a_high, b_low, out=products[2])
            products[1] += products[2]
            np.multiply(a_high, b_high, out=products[2])
            np.fft.irfft(products, size, out=inverse)
            np.rint(inverse[:, :width], out=inverse[:, :width])
            np.copyto(rounded, inverse[:, :width], casting="unsafe")
            cross <<= _LIMB_BITS
            high <<= 2 * _LIMB_BITS
            low += cross
            low += high
            low %= q
            out[i * pa + j * pb:i * pa + j * pb + width] += low
    out %= q
    return out[:len(av) + len(bv) - 1]


def _buffers(*specs: tuple[tuple[int, ...], type]) -> list[np.ndarray]:
    """One view per (shape, dtype) spec, back to back in the thread's workspace.

    field._workspace hands out fresh memory past its size, which only a
    shorter operand cut into several pieces needs.
    """
    sizes = [prod(shape) * np.dtype(dtype).itemsize // 8 for shape, dtype in specs]
    buf = _workspace(sum(sizes))
    views, at = [], 0
    for (shape, dtype), n in zip(specs, sizes):
        views.append(buf[at:at + n].view(dtype).reshape(shape))
        at += n
    return views


def _pieces(v: np.ndarray, piece: int) -> np.ndarray:
    """v zero-padded to a whole number of pieces, one piece per row."""
    rows = np.zeros((-(-len(v) // piece), piece), dtype=np.int64)
    rows.reshape(-1)[:len(v)] = v
    return rows


def _limb_spectra(piece: np.ndarray, limbs: np.ndarray, size: int, out: np.ndarray):
    """out = the length-size rffts of piece's lo and hi limbs, formed in the float rows of limbs."""
    lo_hi = limbs[:, :len(piece)]
    np.bitwise_and(piece, (1 << _LIMB_BITS) - 1, out=lo_hi[0], casting="unsafe")
    np.right_shift(piece, _LIMB_BITS, out=lo_hi[1], casting="unsafe")
    np.fft.rfft(lo_hi, size, out=out)


def conv_encode(
    spec: ConvCodeSpec, a_blocks: Sequence[np.ndarray], b_blocks: Sequence[np.ndarray], i: int
) -> tuple[np.ndarray, np.ndarray]:
    """The coded pair of length-s vectors stored by worker i.

    Block entries may be any integer representatives; a non-integer entry
    raises NonIntegerEntry.
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
    field = spec.field
    coded_a = combine(field, spec.gen_a[i:i + 1], [canonical_array(field, blk) for blk in a_blocks])
    coded_b = combine(field, spec.gen_b[i:i + 1], [canonical_array(field, blk) for blk in b_blocks])
    return coded_a[0], coded_b[0]


def conv_worker(spec: ConvCodeSpec, coded_a: np.ndarray, coded_b: np.ndarray) -> np.ndarray:
    """Per-worker computation: full convolution of the stored pair (2s-1 long)."""
    if len(coded_a) != spec.s or len(coded_b) != spec.s:
        raise BlockShapeMismatch("coded vectors must have length s")
    return spec._work([coded_a], [coded_b])[0]


def conv_decode(
    spec: ConvCodeSpec,
    results: Mapping[int, np.ndarray],
    subset: Sequence[int],
    true_lens: tuple[int, int] | None = None,
) -> np.ndarray:
    """Recover a * b from any m + n - 1 worker results: spec.decode.

    true_lens, when given, is (len(a), len(b)) before padding and the output
    is truncated to the true convolution length; lengths below 1 or beyond
    the padded m*s and n*s raise BlockShapeMismatch, as do true_lens that
    are not two integers and results not 2s - 1 long.
    """
    return spec.decode(results, subset, true_lens)
