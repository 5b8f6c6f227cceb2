"""Exact arithmetic in GF(q) for prime q, plus polynomial evaluation and
Lagrange interpolation.

Field elements are canonical integers in [0, q), kept raw in numpy arrays;
the ``FieldElement`` wrapper serves scalar work with operator syntax.

Arrays are int64 for every q < 2^62, where the sum of two canonical
entries stays below 2^63, and hold Python ints (object) from 2^62 up.
Every element-wise product goes through ``mulmod``, and every contraction,
a sum of more than two entries included, through ``modmatmul`` or
``combine``; one rule (``_path``) picks a contraction's path.  Below 2^21,
contractions of at most 4096 multiply-adds are one int64 matmul and one
``%``; larger ones run on float64 BLAS with delayed modular reduction
(Dumas, Giorgi & Pernet, FFLAS-FFPACK) in one tile loop (``_tiled``),
chunks of the contraction that float64 sums exactly reduced between chunks
without division, in tiles (Goto & van de Geijn) that live in one
per-thread workspace.  convolution.field_convolve keeps its FFT buffers in
the workspace too; no kernel function calls another while it holds it.
Results of 64 KB or more, and the products that schemes assemble, come from
one result pool shared by every thread (``_fresh``), so results of the same
shapes job after job reuse memory that is already mapped.  From 2^21 up to
2^63 the larger products run on the same float64 BLAS with no Python int on
the way: entries split into 21-bit limbs whose products sum exactly in
float64, and a Barrett reduction in float64 and wrapping uint64 takes the
sums to canonical residues, which int64 results view uncopied.  Smaller
products, and every product at q >= 2^63, multiply as Python ints.

Decoding interpolates through ``lagrange_basis``, which returns only the
rows of the inverse Vandermonde matrix that a decoder reads: synthetic
division of the points' vanishing polynomial, run for every point at once
over the degrees, scaled by barycentric weights that take one modular
inverse in all.  The rows of recent point sets are cached.
"""

from __future__ import annotations

import functools
import mmap
import random
import sys
import threading
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .errors import DivisionByZero, DuplicateEvaluationPoint, FieldMismatch, NonIntegerEntry

# int64 contractions over moduli below this run on the float64 tile loop, in
# chunks of at least 256 terms; over larger ones, on 21-bit limbs.
_INT64_SAFE_MODULUS = 1 << 21

# Moduli below this get int64 arrays, where the sum of two canonical entries
# stays below 2^63; larger moduli get Python-int (object) arrays.
_OBJECT_MODULUS = 1 << 62

# _reduce takes float64 integers below this bound to their exact residues.
_REDUCE_EXACT = 1 << 50

# The size of each thread's workspace, in 8-byte entries (2 MB): a tile's
# float64 operand slices, product and scratch fit it.
_TILE_ELEMS = 1 << 18

# Contractions of at most this many multiply-adds take one int64 matmul and
# one %, which below it costs less than float64 copies: measured on numpy's
# int64 matmul against one float64 matmul on fresh copies, single products
# stop gaining near 3000-4000 multiply-adds and stacks of tiny ones past it.
# A sum of inner <= _INT64_MUL_ADDS products stays below 2^63 at every
# int64-path prime: 2^12 (q-1)^2 < 2^54 for q < 2^21.
_INT64_MUL_ADDS = 1 << 12

# Products over moduli from _INT64_SAFE_MODULUS up to this bound run on
# 21-bit limbs (_limb_product, mulmod); larger moduli multiply as Python ints.
_LIMB_MODULUS = 1 << 63
_LIMB_BITS = 21
_LIMB_MASK = np.uint64((1 << _LIMB_BITS) - 1)
_LIMB_SHIFTS = np.array([0, _LIMB_BITS, 2 * _LIMB_BITS], dtype=np.uint64).reshape(3, 1, 1)

# Products over those moduli of fewer multiply-adds (for mulmod, entries)
# multiply as Python ints, about 0.1 us each, below the limb path's fixed
# cost of about 25 numpy calls (measured at q = 2^61 - 1, see modmatmul).
_LIMB_MIN_MUL_ADDS = 1 << 9

# The limb path keeps its per-modulus tables for this many recent moduli.
_FIELD_CACHE = 16

# Results of at least this many bytes come from the result pool (_fresh);
# smaller ones cost less fresh than a scan of the pool.
_POOL_MIN_BYTES = 1 << 16

# The pool keeps buffers of at most this many bytes in all, idle and in use.
_POOL_CAP_BYTES = 64 << 20

# Decoding, detection and repair interpolate through the same few point
# sets job after job; lagrange_basis and lagrange_matrix each keep this many
# recent results.
_BASIS_CACHE = 64

# Per-thread state of the kernel: its workspace (see _workspace).
_local = threading.local()

# The result pool: uint8 buffers of power-of-two sizes, shared by every
# thread and scanned under the lock (see _fresh).
_pool: list[np.ndarray] = []
_pool_lock = threading.Lock()

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2^64."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field GF(q) for a prime modulus q.

    Instances are immutable and hashable; two fields compare equal iff their
    moduli agree.
    """

    __slots__ = ("modulus", "array_dtype")

    def __init__(self, modulus: int):
        if not is_prime(modulus):
            raise ValueError(f"modulus must be prime, got {modulus}")
        object.__setattr__(self, "modulus", modulus)
        # a sum of two canonical entries past 2^62 could pass 2^63
        dtype = np.int64 if modulus < _OBJECT_MODULUS else object
        object.__setattr__(self, "array_dtype", dtype)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeField is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("PrimeField", self.modulus))

    def __repr__(self) -> str:
        return f"PrimeField({self.modulus})"

    # -- integer arithmetic on canonical representatives --

    def inv(self, a: int) -> int:
        """Multiplicative inverse, ``pow(a, -1, q)``; DivisionByZero for 0."""
        a = int(a) % self.modulus
        if a == 0:
            raise DivisionByZero(f"0 has no inverse in GF({self.modulus})")
        return pow(a, -1, self.modulus)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.modulus)
        return pow(a % self.modulus, e, self.modulus)

    # -- element construction --

    def __call__(self, value: int) -> "FieldElement":
        return FieldElement(self, value)

    def random(self, rng) -> int:
        """Uniform canonical element; rng is a random.Random or numpy Generator."""
        if hasattr(rng, "integers"):
            return int(random_elements(rng, self.modulus))
        return rng.randrange(self.modulus)


def _element_operator(value):
    """The FieldElement operator that returns value(element, v), v the other operand reduced mod q."""
    def method(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else FieldElement(self.field, value(self, v))
    return method


class FieldElement:
    """A canonical representative of GF(q), with operator syntax."""

    __slots__ = ("field", "value")

    def __init__(self, field: PrimeField, value: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value % field.modulus)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch(
                    f"GF({self.field.modulus}) vs GF({other.field.modulus})"
                )
            return other.value
        if isinstance(other, int):
            return other % self.field.modulus
        return NotImplemented

    # each operator reduces the other operand (_coerce) and returns
    # NotImplemented for one it does not take
    __add__ = __radd__ = _element_operator(lambda x, v: x.value + v)
    __sub__ = _element_operator(lambda x, v: x.value - v)
    __rsub__ = _element_operator(lambda x, v: v - x.value)
    __mul__ = __rmul__ = _element_operator(lambda x, v: x.value * v)
    __truediv__ = _element_operator(lambda x, v: x.value * x.field.inv(v))
    __rtruediv__ = _element_operator(lambda x, v: v * x.field.inv(x.value))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow(self.value, e))

    def __neg__(self):
        return FieldElement(self.field, -self.value)

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return other.field == self.field and other.value == self.value
        if isinstance(other, int):
            return self.value == other % self.field.modulus
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.modulus, self.value))

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.field.modulus})"


class FieldPolynomial:
    """Univariate polynomial over GF(q); coeffs[d] is the degree-d coefficient.

    The zero polynomial is the empty coefficient tuple and has degree None
    (an explicit sentinel, so accidental arithmetic on "degree -1" cannot
    happen silently).
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Iterable[int]):
        q = field.modulus
        cs = [c % q for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("FieldPolynomial is immutable")

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, d: int) -> int:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def evaluate(self, x) -> FieldElement:
        """Horner evaluation; x may be an int or a FieldElement of this field."""
        if isinstance(x, FieldElement):
            if x.field != self.field:
                raise FieldMismatch("evaluation point from a different field")
            x = x.value
        q = self.field.modulus
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % q
        return FieldElement(self.field, acc)

    def _check(self, other: "FieldPolynomial"):
        if other.field != self.field:
            raise FieldMismatch("polynomials over different fields")

    def __add__(self, other: "FieldPolynomial") -> "FieldPolynomial":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for d, c in enumerate(b):
            out[d] += c
        return FieldPolynomial(self.field, out)

    def __sub__(self, other: "FieldPolynomial") -> "FieldPolynomial":
        self._check(other)
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for d, c in enumerate(other.coeffs):
            out[d] -= c
        return FieldPolynomial(self.field, out)

    def __mul__(self, other: "FieldPolynomial") -> "FieldPolynomial":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return FieldPolynomial(self.field, ())
        q = self.field.modulus
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % q
        return FieldPolynomial(self.field, out)

    def scale(self, k: int) -> "FieldPolynomial":
        q = self.field.modulus
        return FieldPolynomial(self.field, [c * k % q for c in self.coeffs])

    def __divmod__(self, other: "FieldPolynomial"):
        """Long division; raises DivisionByZero for a zero divisor."""
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        q = self.field.modulus
        rem = list(self.coeffs)
        dlen = len(other.coeffs)
        lead_inv = self.field.inv(other.coeffs[-1])
        quot = [0] * max(0, len(rem) - dlen + 1)
        for top in range(len(rem) - 1, dlen - 2, -1):
            factor = rem[top] * lead_inv % q
            if factor == 0:
                continue
            quot[top - dlen + 1] = factor
            for j, c in enumerate(other.coeffs):
                rem[top - dlen + 1 + j] = (rem[top - dlen + 1 + j] - factor * c) % q
        return (
            FieldPolynomial(self.field, quot),
            FieldPolynomial(self.field, rem[: dlen - 1]),
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldPolynomial)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.modulus, self.coeffs))

    def __repr__(self) -> str:
        return f"FieldPolynomial(GF({self.field.modulus}), {list(self.coeffs)})"


def _as_point(field: PrimeField | None, x) -> tuple[PrimeField, int]:
    if isinstance(x, FieldElement):
        if field is not None and x.field != field:
            raise FieldMismatch("mixed fields among interpolation points")
        return x.field, x.value
    if field is None:
        raise TypeError("plain-int points need at least one FieldElement to fix the field")
    return field, x % field.modulus


def lagrange_basis(field: PrimeField, xs: Sequence[int], rows: Sequence[int] | None = None) -> np.ndarray:
    """Rows of V_xs^-1, the inverse of the Vandermonde matrix at distinct points xs: all K by default.

    Column i of V_xs^-1 holds the coefficients of l_i, the unique degree<K
    polynomial with l_i(xs[i]) = 1 and l_i(xs[j]) = 0 for j != i, so entry
    [d, i] is l_i's degree-d coefficient.  rows, when given, picks the
    degrees returned, in order: a decoder that reads only some of the
    coefficients scales only their rows.  O(K^2) the first time
    (_cached_basis); the rows of the last _BASIS_CACHE (field, points, rows)
    keys are kept, so the array is read-only.  Points repeating mod q raise
    DuplicateEvaluationPoint, and a row outside [0, K) ValueError.
    """
    key = None if rows is None else tuple(map(int, rows))
    return _cached_basis(field, tuple(map(int, xs)), key)[0]


def vanishing_polynomial(field: PrimeField, xs: Sequence[int]) -> FieldPolynomial:
    """prod_i (x - xs[i]) over distinct points xs, kept with their basis."""
    return _cached_basis(field, tuple(map(int, xs)), None)[1]


@functools.lru_cache(maxsize=_BASIS_CACHE)
def _cached_basis(field: PrimeField, xs: tuple[int, ...],
                  rows: tuple[int, ...] | None) -> tuple[np.ndarray, FieldPolynomial]:
    """Rows `rows` (None: all) of V_xs^-1, and master = prod_j (x - xs[j]).

    l_i = master / ((x - xs[i]) master'(xs[i])).  Synthetic division gives
    the quotient's coefficients from the top, quot[K-1] = 1 and quot[d] =
    master[d+1] + xs[i] quot[d+1], and Horner on them gives quot(xs[i]) =
    master'(xs[i]); both run for every point at once, K numpy steps of K
    entries, on int64 below 2^21 and on Python ints past it, where a step is
    too small for the limbs.  master'(xs[i]) = prod_{j != i} (xs[i] - xs[j])
    is zero exactly when a point repeats mod q (DuplicateEvaluationPoint).  The
    barycentric weights w_i = 1 / master'(xs[i]) (Berrut & Trefethen, SIAM
    Review 2004) take one pow in all, by Montgomery's trick: the exact
    product P of the K values is inverted once, and w_i = (P / master'(xs[i]))
    P^-1.  Row d is w_i times quot[d], in the field's dtype.
    """
    q = field.modulus
    k = len(xs)
    dtype = field.array_dtype if q < _INT64_SAFE_MODULUS else object
    if rows and (min(rows) < 0 or max(rows) >= k):
        raise ValueError(f"rows {list(rows)} are not all degrees below {k}")
    # master(x) = prod_j (x - xs[j]), low-to-high coefficients
    master = [1]
    for x in xs:
        master = [(a - x * b) % q for a, b in zip([0, *master], [*master, 0])]
    points = np.array([x % q for x in xs], dtype=dtype)
    quot = np.empty((k, k), dtype=dtype)
    # state[1] is the division's carry, quot[d] at step d, and state[0]
    # Horner's sum over the quotient; state[2] holds master[d], so one step
    # is state[:2] <- state[:2] * xs + state[1:], for every point at once
    state = np.zeros((3, k), dtype=dtype)
    state[1] = 1
    for d in range(k - 1, -1, -1):
        quot[d] = state[1]
        state[2] = master[d]
        np.remainder(state[:2] * points + state[1:], q, out=state[:2])
    derivatives = state[0].tolist()
    total = prod(derivatives)
    if total % q == 0:
        raise DuplicateEvaluationPoint(f"points {list(xs)} are not distinct mod {q}")
    weights = (total * pow(total, -1, q) // np.array(derivatives, dtype=object) % q).astype(dtype)
    basis = mulmod(quot if rows is None else quot[list(rows)], weights, q).astype(field.array_dtype, copy=False)
    basis.flags.writeable = False
    return basis, FieldPolynomial(field, master)


def lagrange_interpolate(points) -> FieldPolynomial:
    """The unique polynomial of degree < len(points) through the given points.

    points: sequence of (x, y) pairs of FieldElements (ints are accepted once
    the field is pinned by at least one FieldElement).  Duplicate x values
    raise DuplicateEvaluationPoint.
    """
    pts = list(points)
    if not pts:
        raise ValueError("need at least one point")
    field: PrimeField | None = None
    xs: list[int] = []
    ys: list[int] = []
    for x, y in pts:
        field, xv = _as_point(field, x)
        field, yv = _as_point(field, y)
        xs.append(xv)
        ys.append(yv)
    coeffs = interpolate_arrays(field, xs, np.array(ys, dtype=field.array_dtype))
    return FieldPolynomial(field, coeffs.tolist())


def canonical_array(field: PrimeField, data) -> np.ndarray:
    """data as a fresh array of canonical entries in the field's dtype: int64 below 2^62, else object.

    Integer, boolean and unsigned arrays, nested sequences of ints and object
    arrays of ints are reduced exactly, whatever their size.  A float,
    complex or other non-integer array, or an object array holding anything
    but ints, raises NonIntegerEntry rather than being truncated.  An empty
    array holds no entry to lose, so its dtype is not checked.
    """
    q = field.modulus
    arr = np.asarray(data)
    if arr.dtype.kind in "bi" or arr.size == 0:
        return arr.astype(field.array_dtype, copy=False) % q
    # other arrays are checked entry by entry and reduced as Python ints: a
    # uint64 past 2^63 would wrap in int64, and a Python int past it would
    # not convert
    entries = arr.ravel().tolist()
    for x in entries:
        if not isinstance(x, (int, np.integer)):
            raise NonIntegerEntry(f"GF({q}) entries must be integers, got {type(x).__name__} {x!r}")
    out = np.empty(arr.shape, dtype=field.array_dtype)
    out.flat = [int(x) % q for x in entries]
    return out


def random_elements(rng: np.random.Generator, q: int, size=None):
    """Uniform draws from [0, q) by a numpy Generator: an int, or an array of shape size.

    Below 2^63 this is exactly rng.integers(0, q, size), int64, so seeded
    streams keep their values.  Larger moduli, past numpy's int64 draws,
    take one seed from rng for a random.Random that draws Python ints,
    returned as an object array when size is given.
    """
    if q <= 1 << 63:
        return rng.integers(0, q, size=size)
    draw = random.Random(int(rng.integers(1 << 63))).randrange
    if size is None:
        return draw(q)
    out = np.empty(size, dtype=object)
    out.flat = [draw(q) for _ in range(out.size)]
    return out


def exact_float_terms(q: int) -> int:
    """Longest dot product of canonical entries that the int64 kernel sums and reduces exactly.

    A sum of k products of canonical entries is at most k * (q-1)^2, and one
    canonical partial below q is added to it before _reduce, which is exact
    below 2^50: so k is at most (2^50 - q) // (q-1)^2, 262143 terms at
    q = 65537 and 256 at the largest int64-path prime, 2097143.  Zero when
    not even one product fits.
    """
    terms = (_REDUCE_EXACT - q) // (q - 1) ** 2
    return terms if terms > 0 else 0


def _workspace(n: int) -> np.ndarray:
    """The first n float64 entries of this thread's workspace.

    The workspace is one buffer of _TILE_ELEMS 8-byte entries per thread,
    made on first use.  A request past it, which only a budget too small
    for one row or column of a tile or a convolution whose shorter operand
    spans several FFT pieces makes, gets fresh memory instead.
    """
    buf = getattr(_local, "workspace", None)
    if buf is None or len(buf) < _TILE_ELEMS:
        buf = _local.workspace = np.empty(_TILE_ELEMS)
    return buf[:n] if n <= len(buf) else np.empty(n)


def _refcounts(buffers: list[np.ndarray]) -> list[int]:
    # the baseline below and every scan of the pool count through this one
    # function, so both include the same temporary references
    return [sys.getrefcount(buf) for buf in buffers]


# The reference count of a buffer that only its list holds, or None where
# the interpreter keeps no reference counts and _fresh does not pool.
_IDLE_REFS = _refcounts([np.empty(0, dtype=np.uint8)])[0] if hasattr(sys, "getrefcount") else None


def _mapped(size: int) -> np.ndarray:
    """A uint8 array over a fresh anonymous mapping of size bytes.

    numpy asks for huge pages for arrays of 4 MB or more, and the kernel
    then faults in 2 MB at a time, up to 2 MB past what a result uses of a
    rounded-up buffer; a private mapping is faulted in 4 KB pages.
    """
    if not hasattr(mmap, "MAP_PRIVATE"):
        return np.empty(size, dtype=np.uint8)
    return np.frombuffer(mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE), dtype=np.uint8)


def _fresh(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised C-order array of shape and dtype, for a kernel result.

    Results of _POOL_MIN_BYTES or more that are not object arrays are views
    of a buffer from the result pool, rounded up to a power-of-two size, so
    a program that takes results of the same shapes again and again reuses
    memory whose pages are already mapped instead of faulting fresh ones in.
    A buffer is idle when only the pool holds it: every numpy view keeps its
    base buffer referenced, so memory that a caller or any view of it still
    holds is never handed out again.  A new buffer that would take the pool
    past _POOL_CAP_BYTES first drops idle buffers; if it still does not fit,
    the result is fresh memory outside the pool.
    """
    dtype = np.dtype(dtype)
    nbytes = prod(shape) * dtype.itemsize
    if nbytes < _POOL_MIN_BYTES or dtype.hasobject or _IDLE_REFS is None:
        return np.empty(shape, dtype=dtype)
    size = 1 << (nbytes - 1).bit_length()
    with _pool_lock:
        idle = [i for i, refs in enumerate(_refcounts(_pool)) if refs == _IDLE_REFS]
        fits = [i for i in idle if len(_pool[i]) == size]
        if fits:
            buf = _pool[fits[0]]
        else:
            held = sum(len(b) for b in _pool)
            while idle and held + size > _POOL_CAP_BYTES:
                held -= len(_pool.pop(idle.pop()))
            if held + size > _POOL_CAP_BYTES:
                return np.empty(shape, dtype=dtype)
            buf = _mapped(size)
            _pool.append(buf)
    return buf[:nbytes].view(dtype).reshape(shape)


def _fill(buf: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x copied to float64 at the head of buf, in C order."""
    dst = buf[:x.size].reshape(x.shape)
    np.copyto(dst, x)
    return dst


def _reduce(product: np.ndarray, scratch: np.ndarray, q: int, out: np.ndarray, accumulate: bool):
    """out = (product + out if accumulate else product) mod q, without division.

    product is a float64 workspace tile of integers below 2^50 - q and out
    canonical, so the sum p is an integer below 2^50.  Let t = floor(p * c),
    with c = fl((1 + 2^-51) / q) the reciprocal rounded up.  c and p * c
    are each rounded to nearest, so p * c = (p / q)(1 + eta) with eta
    between about 2^-52 and 1.5 * 2^-51.  p * c is never below p / q, so t
    is at least floor(p / q); and since p / q lies at least 1 / q below
    floor(p / q) + 1, t stays below that while p * eta < 1, which holds for
    every p < 2^50.  So p - t * q, formed in float64 on integers below 2^53,
    is p mod q exactly.  The passes run on contiguous workspace (t in the
    float64 scratch, the remainder in the spent product), and out, which
    may be a strided view, is written once: a ufunc writing a strided view
    with short rows goes through buffers of its own.
    """
    if accumulate:
        product += out
    np.multiply(product, (1 + 2.0**-51) / q, out=scratch)
    np.floor(scratch, out=scratch)
    scratch *= q
    product -= scratch
    np.copyto(out, product, casting="unsafe")


@functools.lru_cache(maxsize=_FIELD_CACHE)
def exact_limb_terms(q: int) -> int:
    """Longest contraction whose limb diagonal sums float64 forms exactly, for _limb_product.

    A canonical entry below q splits into 21-bit limbs x_s = (x >> 21s) &
    (2^21 - 1), each at most L_s = min(2^21 - 1, (q-1) >> 21s).  A diagonal
    sum D_d = sum over s + t = d of a_s b_t, over k terms, is at most k m
    with m = max_d sum_{s+t=d} L_s L_t, and float64 holds every integer up
    to 2^53: so k is at most 2^53 // m, 1024 terms at q = 2^61 - 1, where
    m = 2 (2^21 - 1)^2 is reached at d = 1 by the entry 2^42 - 1.
    """
    top = [min((1 << _LIMB_BITS) - 1, (q - 1) >> (_LIMB_BITS * s)) for s in range(3)]
    worst = max(sum(top[s] * top[d - s] for s in range(3) if 0 <= d - s < 3) for d in range(5))
    return (1 << 53) // worst


def _limb_operand(x: np.ndarray, q: int) -> np.ndarray:
    """x's integer entries as canonical uint64, for _limb_product.

    int64 entries are viewed uncopied, object ones (stored only at q >=
    2^62) converted.  Entries outside [0, q), negative or past 2^64
    included, are reduced mod q first, so a limb product equals (a @ b) % q
    on Python ints for any integer representatives.
    """
    try:
        u = x.astype(np.uint64) if x.dtype == object else x.astype(np.int64, copy=False).view(np.uint64)
    except OverflowError:  # a negative Python int, or one of 2^64 or more
        return (x % q).astype(np.uint64)
    if u.size and u.max() >= q:  # a negative int64 reads as 2^63 or more
        return (x % q).astype(np.uint64)
    return u


@functools.lru_cache(maxsize=_FIELD_CACHE)
def _limb_weights(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The tables that _limb_reduce reduces limb diagonal sums with.

    weights is (4, 10) float64: column (j, d) holds the three 22-bit limbs
    of w = 2^(21d + 27j) mod q and, below them, fl(fl(w / q)(1 - 2^-47)).
    horner is the uint64 row (1, 2^22, 2^44, 2^64 - q).  Both are
    read-only, as every product over q shares them.
    """
    powers = [pow(2, _LIMB_BITS * d + 27 * j, q) for j in range(2) for d in range(5)]
    limbs = [[(w >> 22 * l) & ((1 << 22) - 1) for w in powers] for l in range(3)]
    weights = np.array([*limbs, [w / q * (1 - 2.0**-47) for w in powers]])
    horner = np.array([1, 1 << 22, 1 << 44, (1 << 64) - q], dtype=np.uint64)
    weights.flags.writeable = horner.flags.writeable = False
    return weights, horner


def _limb_diagonals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The limb diagonal sums D_d = sum_{s+t=d} a_s @ b_t of canonical uint64 stacks, float64 (..., 5, rows, cols).

    One float64 matmul: the (5 rows x 3 inner) Toeplitz stack of a's limbs,
    block (d, t) = a_{d-t}, times the (3 inner x cols) stack of b's.  The
    contraction is at most exact_limb_terms(q), so every sum is exact.
    """
    rows, inner = a.shape[-2:]
    lead = a.shape[:-2]
    # a's limbs between two zero blocks on each side, so that block (d, t)
    # is padded[2 + d - t]: a view with a negative stride along t
    padded = np.zeros((*lead, 7, rows, inner), dtype=np.uint64)
    np.bitwise_and(a[..., None, :, :] >> _LIMB_SHIFTS, _LIMB_MASK, out=padded[..., 2:5, :, :])
    st = padded.strides
    toeplitz = np.ndarray((*lead, 5, rows, 3, inner), np.uint64, padded, 2 * st[-3],
                          (*st[:-3], st[-3], st[-2], -st[-3], st[-1]))
    b_limbs = (b[..., None, :, :] >> _LIMB_SHIFTS) & _LIMB_MASK
    diagonals = np.matmul(toeplitz.astype(np.float64, order="C").reshape(*lead, 5 * rows, 3 * inner),
                          b_limbs.astype(np.float64).reshape(*b.shape[:-2], 3 * inner, b.shape[-1]))
    return diagonals.reshape(*diagonals.shape[:-2], 5, rows, b.shape[-1])


def _limb_reduce(diagonals: np.ndarray, q: int) -> np.ndarray:
    """sum_d D_d 2^(21d) mod q, canonical uint64 (..., rows, cols), from float64 diagonal sums D_d <= 2^53.

    Each D_d splits exactly in float64 into halves e_dj below 2^27, D_d =
    e_d0 + e_d1 2^27, so the sum is congruent to x = sum e_dj w_dj with
    w_dj = 2^(21d + 27j) mod q: ten terms below 2^27 q, so x < 2^31 q.
    One float64 matmul with _limb_weights forms x's three parts F_l = sum
    e_dj (w_dj's 22-bit limb l), below 10 * 2^49 < 2^53 and exact, with
    x = F_0 + F_1 2^22 + F_2 2^44, and the quotient estimate f = sum e_dj
    fl(fl(w_dj / q)(1 - 2^-47)) (Barrett, CRYPTO 1986).  Every term is
    non-negative and each weight is rounded twice, so f is x / q (1 - 2^-47)
    times a factor within gamma_12 = 12u / (1 - 12u) of 1, u = 2^-53: never
    above x / q, so Q = floor(f) is never above floor(x / q), and below it
    by at most 77u x / q < 2^-15, so Q is at most one below.  Then r = x -
    Q q lies in [0, 2q), below 2^64 as q < 2^63: one uint64 matmul with the
    row (1, 2^22, 2^44, 2^64 - q) forms it exactly, as the wraps of its
    parts cancel, and min(r, r - q) in wrapping uint64 makes it canonical.
    """
    weights, horner = _limb_weights(q)
    lead, shape = diagonals.shape[:-3], diagonals.shape[-2:]
    halves = np.empty((*lead, 2, *diagonals.shape[-3:]))
    low, high = halves[..., 0, :, :, :], halves[..., 1, :, :, :]
    np.floor(np.multiply(diagonals, 2.0**-27, out=high), out=high)
    np.subtract(diagonals, high * 2.0**27, out=low)
    parts = np.matmul(weights, halves.reshape(*lead, 10, -1)).astype(np.uint64)
    r = np.matmul(horner, parts)
    return np.minimum(r, r - np.uint64(q), out=r).reshape(*lead, *shape)


def _limb_product(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Canonical (a @ b) mod q, uint64, for canonical uint64 stacks at 2^21 <= q < 2^63.

    The Toeplitz stack is built from the operand with fewer entries: a
    larger a runs as (b^T a^T)^T.  Products run in slabs of rows of a and
    chunks of exact_limb_terms(q) terms of the contraction: a slab's
    Toeplitz stack and the arrays its reduction passes through take about
    _TILE_ELEMS entries.  Each chunk's diagonal sums (_limb_diagonals) are
    reduced (_limb_reduce) and added mod q to the chunks before it.
    """
    if a.size > b.size:
        return np.ascontiguousarray(_limb_product(b.swapaxes(-1, -2), a.swapaxes(-1, -2), q).swapaxes(-1, -2))
    rows, inner = a.shape[-2:]
    cols = b.shape[-1]
    stack = a.shape[:-2] if a.ndim >= b.ndim else b.shape[:-2]
    terms = exact_limb_terms(q)
    height = max(1, _TILE_ELEMS // (prod(stack) * (15 * min(inner, terms) + 25 * cols)))
    if rows <= height and inner <= terms:
        return _limb_reduce(_limb_diagonals(a, b), q)
    out = np.empty((*stack, rows, cols), dtype=np.uint64)
    for r0 in range(0, rows, height):
        tile = out[..., r0:r0 + height, :]
        for k0 in range(0, inner, terms):
            part = _limb_reduce(_limb_diagonals(a[..., r0:r0 + height, k0:k0 + terms], b[..., k0:k0 + terms, :]), q)
            if k0 == 0:
                tile[...] = part
            else:
                tile += part
                np.minimum(tile, tile - np.uint64(q), out=tile)
    return out


def mulmod(a, b, q: int) -> np.ndarray:
    """Canonical a * b mod q, element-wise and broadcast, for arrays of canonical entries.

    Object operands multiply as Python ints, int64 ones in one int64 product
    where (q-1)^2 < 2^63.  Past that, below 2^63, a product of at least
    _LIMB_MIN_MUL_ADDS entries takes 21-bit limbs, whose diagonal sums
    sum_{s+t=d} a_s b_t stay below 2^44, exact in float64, for _limb_reduce;
    other int64 operands multiply as Python ints and come back int64.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype == object or b.dtype == object or (q - 1) ** 2 < 1 << 63:
        return a * b % q
    shape = np.broadcast(a, b).shape
    if q >= _LIMB_MODULUS or prod(shape) < _LIMB_MIN_MUL_ADDS:
        return (a.astype(object) * b % q).astype(np.int64)
    a_limbs, b_limbs = ((np.broadcast_to(x, shape).reshape(1, -1).view(np.uint64) >> _LIMB_SHIFTS[:, 0]
                         & _LIMB_MASK).astype(np.float64) for x in (a, b))
    diagonals = np.zeros((5, 1, a_limbs.shape[1]))
    for s in range(3):
        diagonals[s:s + 3, 0] += a_limbs[s] * b_limbs
    return _limb_reduce(diagonals, q).view(np.int64).reshape(shape)


def _path(size: int, inner: int, q: int, objects: bool) -> str:
    """The path of a contraction of inner terms into size result entries mod q, for modmatmul and combine.

    int64 operands take one int64 "matmul" for at most _INT64_MUL_ADDS
    multiply-adds (size * inner) whose sums stay below 2^63; below 2^21 the
    others take the tile loop, "tiled", or "zeros" for an empty result.  Up
    to 2^63, at least _LIMB_MIN_MUL_ADDS take "limbs"; the rest "python".
    """
    if not objects and size * inner <= _INT64_MUL_ADDS and inner * (q - 1) ** 2 < 1 << 63:
        return "matmul"
    if not objects and q < _INT64_SAFE_MODULUS:
        return "tiled" if size else "zeros"
    if not _INT64_SAFE_MODULUS <= q < _LIMB_MODULUS or size * inner < _LIMB_MIN_MUL_ADDS:
        return "python"
    return "limbs"


def modmatmul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Canonical (a @ b) mod q for arrays of canonical entries.

    Operands are matrices or equal-length stacks of them, (..., rows, inner)
    @ (..., inner, cols); one operand may be a single matrix, shared by every
    entry.  Operands whose inner dimensions or stacks disagree raise
    ValueError, and so do int64 operands at q >= 2^63.  The path is _path's:
    one int64 matmul and one ``%``; zeros; the tile loop (_tiled), whose
    parts are the rows of b, into a result from the result pool (_fresh);
    21-bit limbs (_limb_product) on canonical uint64 operands, reduced on
    entry only when an entry lies outside [0, q); or Python ints.  At q =
    2^61 - 1 on int64 operands, best of 5, Python ints against limbs:
    (9 x 9)(9 x 1) 12.6 against 27.8 us, 8^3 53 against 29 us, the repair's
    (9 x 128)(128 x 1) 131 against 41 us, 256^2 about 1.8 s against 30-50
    ms.  The result is int64, or object for object operands.
    """
    if (a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]
            or a.ndim > 2 and b.ndim > 2 and a.shape[:-2] != b.shape[:-2]):
        raise ValueError(f"operands of shapes {a.shape} and {b.shape} do not multiply")
    objects = a.dtype == object or b.dtype == object
    if q >= _LIMB_MODULUS and not objects:
        raise ValueError(f"{a.dtype} operands cannot hold residues mod {q}")
    (rows, inner), cols = a.shape[-2:], b.shape[-1]
    stack = a.shape[:-2] if a.ndim >= b.ndim else b.shape[:-2]
    path = _path(prod(stack) * rows * cols, inner, q, objects)
    if path == "matmul":
        return np.remainder(np.matmul(a, b, dtype=np.int64), q)
    if path == "zeros":
        return np.zeros((*stack, rows, cols), dtype=np.int64)
    if path in ("python", "limbs"):
        product = a.astype(object) @ b % q if path == "python" else _limb_product(
            _limb_operand(a, q), _limb_operand(b, q), q).view(np.int64)
        return product.astype(object if objects else np.int64, copy=False)
    out = _fresh((*stack, rows, cols), np.int64)
    # a shared operand is one stack entry, which matmul broadcasts
    _tiled(a.reshape(-1, rows, inner), b.reshape(-1, inner, cols), out.reshape(-1, rows, cols), q)
    return out


def combine(field: PrimeField, weights: np.ndarray, parts, out=None) -> np.ndarray:
    """Array whose [i] is sum_t weights[i, t] * parts[t], of shape (len(weights), *shape).

    parts is a stack of T = weights.shape[1] equal-shape canonical arrays
    (scalars, vectors or blocks): one (T, *shape) array or a sequence of
    arrays, such as strided block views or gathered worker results.
    Encoding, decoding and fault prediction all combine through here.
    out, when given, receives the result and is returned: one array of the
    result's shape, or a sequence of len(weights) arrays of the parts'
    shape, such as the block views of an assembled product.

    A combination that modmatmul would tile (_path) is the tile loop
    (_tiled) with the weights as its a, the parts read where they lie and
    the result, from the result pool (_fresh) unless out is given, all it
    allocates; every other one is one modmatmul of the stacked parts.
    """
    k, t = weights.shape
    first = np.asarray(parts[0])
    if out is not None:
        shapes = {out.shape[1:]} if isinstance(out, np.ndarray) else {np.shape(o) for o in out}
        if len(out) != k or shapes != {first.shape}:
            raise ValueError(f"out needs {k} arrays of shape {first.shape}")
    objects = weights.dtype == object or first.dtype == object
    if _path(k * first.size, t, field.modulus, objects) != "tiled" or first.ndim == 0:
        stack = np.asarray(parts)
        result = modmatmul(weights, stack.reshape(len(stack), -1), field.modulus).reshape(k, *stack.shape[1:])
        if isinstance(out, np.ndarray):
            out[...] = result
        elif out is not None:
            for o, r in zip(out, result):
                o[...] = r
        return result if out is None else out
    if len(parts) != t or any(np.shape(p) != first.shape for p in parts):
        raise ValueError(f"{t} weights per row need {t} parts of one shape")
    if out is None:
        out = _fresh((k, *first.shape), np.int64)
    _tiled(weights[None], parts[None] if isinstance(parts, np.ndarray) else parts,
           out[None] if isinstance(out, np.ndarray) else out, field.modulus)
    return out


def _tiled(a: np.ndarray, parts, out, q: int):
    """out[s][i] = sum_t a[s][i, t] * parts[s][t] mod q, in tiles of this thread's workspace.

    a is a (S, rows, T) stack, or (1, rows, T) shared by every entry.  parts
    is a (S or 1, T, *shape) stack, or for S = 1 a sequence of T arrays of
    shape, and out is a (S, rows, *shape) stack, or for S = 1 a sequence of
    rows arrays of shape; both may be strided views, read and written where
    they lie.  modmatmul's parts are the rows of b; combine's are its
    blocks or vectors, with its weights as the one entry of a.

    A tile is as many whole stack entries as fit the workspace of
    _TILE_ELEMS entries, else a slab of rows of a times a cut of the parts'
    shape: whole part-rows, or one part-row cut evenly along the last axis
    when one row does not fit (a vector is one part-row).  The slab starts as
    all of a's rows and is halved until the cuts are about as wide as it is
    high (Goto & van de Geijn).  The float64 copies of a's slab and of the
    cut of every part, their float64 product and _reduce's scratch all live
    in the workspace.  Each chunk of exact_float_terms(q) terms is reduced
    into out without division (_reduce), accumulating after the first.  A
    cut of the parts is copied once per chunk, and a slab of a once per
    cut, or once per chunk when one slab holds every row.
    """
    stacked_parts, stacked_out = isinstance(parts, np.ndarray), isinstance(out, np.ndarray)
    rows, terms = a.shape[1:]
    shape = out.shape[2:] if stacked_out else out[0].shape
    entries, n = len(out) if stacked_out else 1, prod(shape)
    step = exact_float_terms(q)
    chunk = min(terms, step)
    group, height = max(1, min(entries, _TILE_ELEMS // (rows * chunk + (chunk + 2 * rows) * n))), rows
    # width: the entries of every part that a tile of one entry's height
    # rows has room for; halve the slab until it is about as high as wide
    while (width := (_TILE_ELEMS - height * chunk) // (chunk + 2 * height)) < min(height, n) and height > 1:
        height = (height + 1) // 2
    # cut every part into tiles of at most width entries: slabs of h whole
    # part-rows, else single part-rows in even pieces of w along the last
    # axis (a vector is one part-row)
    lead, last = shape[0] if len(shape) > 1 else 1, shape[-1]
    row = n // lead
    h, w = max(1, width // row), -(-last // -(-last // max(1, width * last // row)))
    cuts = [(slice(r, r + h),) * (len(shape) > 1) + (..., slice(c, c + w))
            for r in range(0, lead, h) for c in range(0, last, w)]
    cut_len = h * row // last * w
    a_len, p_len, t_len = group * height * chunk, group * chunk * cut_len, group * height * cut_len
    ws = _workspace(a_len + p_len + 2 * t_len)
    a_buf, p_buf = ws[:a_len], ws[a_len:a_len + p_len]
    product = ws[a_len + p_len:a_len + p_len + t_len]
    scratch = ws[a_len + p_len + t_len:]
    for s0 in range(0, entries, group):
        a_g = a if len(a) == 1 else a[s0:s0 + group]
        p_g = parts if not stacked_parts or len(parts) == 1 else parts[s0:s0 + group]
        for k0 in range(0, terms, step):
            for c, cut in enumerate(cuts):
                if stacked_parts:
                    p_part = _fill(p_buf, p_g[(slice(None), slice(k0, k0 + step), *cut)])
                else:
                    gathered = parts[k0:k0 + step]
                    cut_shape = np.shape(gathered[0][cut])
                    p_part = p_buf[:len(gathered) * prod(cut_shape)].reshape(1, len(gathered), *cut_shape)
                    for g, part in zip(p_part[0], gathered):
                        np.copyto(g, part[cut])
                for r0 in range(0, rows, height):
                    if height < rows or c == 0:  # one slab's a chunk serves every cut
                        a_part = _fill(a_buf, a_g[:, r0:r0 + height, k0:k0 + step])
                    tile = (max(len(a_part), len(p_part)), a_part.shape[1], *p_part.shape[2:])
                    p = product[:prod(tile)].reshape(tile)
                    np.matmul(a_part, p_part.reshape(*p_part.shape[:2], -1), out=p.reshape(*tile[:2], -1))
                    s = scratch[:p.size].reshape(tile)
                    if stacked_out:
                        _reduce(p, s, q, out[(slice(s0, s0 + group), slice(r0, r0 + height), *cut)], k0 > 0)
                    else:
                        for i, o in enumerate(out[r0:r0 + height]):
                            _reduce(p[0, i], s[0, i], q, o[cut], k0 > 0)


def interpolate_arrays(field: PrimeField, xs: Sequence[int], values) -> np.ndarray:
    """Coefficients, [d] of degree d, of the polynomial through (xs, equal-shape values)."""
    return combine(field, lagrange_basis(field, xs), values)


def lagrange_matrix(field: PrimeField, xs: Sequence[int], ys: Sequence[int]) -> np.ndarray:
    """M[r, i] = l_i(ys[r]) for the Lagrange basis over distinct points xs.

    M @ values maps a degree < len(xs) polynomial's values at xs to its
    values at ys.  Error detection and repair predict the same few survivor
    sets job after job, so, like the bases, the maps of the last
    _BASIS_CACHE (xs, ys) pairs are kept and the array is read-only.
    """
    return _cached_lagrange_matrix(field, tuple(int(x) for x in xs), tuple(int(y) for y in ys))


@functools.lru_cache(maxsize=_BASIS_CACHE)
def _cached_lagrange_matrix(field: PrimeField, xs: tuple[int, ...], ys: tuple[int, ...]) -> np.ndarray:
    values = modmatmul(vandermonde(field, ys, len(xs)), lagrange_basis(field, xs), field.modulus)
    values.flags.writeable = False
    return values


def vandermonde(field: PrimeField, xs: Sequence[int], n_cols: int) -> np.ndarray:
    """Matrix V with V[i, d] = xs[i]^d, canonical, shape (len(xs), n_cols).

    Built by doubling: the first s columns times xs^s are the next s, so
    log2(n_cols) steps of whole-column products fill the table.
    """
    q = field.modulus
    table = np.empty((len(xs), n_cols), dtype=field.array_dtype)
    table[:, :1] = 1
    power = (np.array(xs, dtype=object) % q).astype(field.array_dtype)[:, None]  # xs^s
    s = 1
    while s < n_cols:
        step = min(s, n_cols - s)
        table[:, s:s + step] = mulmod(table[:, :step], power, q)
        power = mulmod(power, power, q)
        s *= 2
    return table
