"""Exact arithmetic in GF(q) for prime q, plus polynomial evaluation and
Lagrange interpolation.

Field elements are canonical integers in [0, q).  The heavier matrix paths
elsewhere in the package keep raw canonical ints in numpy arrays; the
``FieldElement`` wrapper exists for scalar work where operator syntax and
field-mixing checks are worth having.

Every matrix contraction over GF(q) goes through ``modmatmul``.  For q < 2^21
arrays are int64 and the product runs on float64 BLAS with delayed modular
reduction (Dumas, Giorgi & Pernet, FFLAS-FFPACK): a sum of k products of
canonical entries is an integer of at most k*(q-1)^2, which float64 holds
exactly, so contractions are split into chunks of at most
(2^50 - q) // (q-1)^2 terms (256 or more for q < 2^21) and reduced between
chunks.  Tiny products are one matmul reduced with one ``%``.  Every larger
product, and every larger weighted sum formed by ``combine``, allocates
nothing but the array it returns: it runs in tiles of rows and columns
(Goto & van de Geijn) whose float64 operand copies, product and scratch
live in one per-thread workspace of _TILE_ELEMS entries, where each tile is
reduced without division, x - floor(x * c) * q with c a reciprocal of q
rounded up, exact below 2^50, and copied into the result once.  ``combine``
reads its parts where they lie, strided views included, and can write into
the caller's array or views (``out``).  convolution.field_convolve keeps its FFT buffers there too.
No kernel function calls another while it holds the workspace.
Results of 64 KB or more, and the products that schemes assemble, come from
one result pool shared by every thread (``_fresh``): a buffer that no result
or view of one holds any longer is handed out again, so a program that takes
results of the same shapes job after job writes into memory that is already
mapped instead of faulting fresh pages in.
Larger moduli use Python-int (object) arrays, exact at any length.
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

# Moduli below this get int64 arrays, whose contractions modmatmul runs on
# float64 BLAS in chunks of at least 256 terms; larger moduli get Python-int
# (object) arrays.
_INT64_SAFE_MODULUS = 1 << 21

# _reduce takes float64 integers below this bound to their exact residues.
_REDUCE_EXACT = 1 << 50

# The size of each thread's workspace, in 8-byte entries (2 MB): a tile's
# float64 operand slices, product and scratch fit it.
_TILE_ELEMS = 1 << 18

# Products of at most this many 8-byte operand, product and result entries
# take one matmul on fresh copies and one %, which at this size costs less
# than slicing the workspace and the passes of _reduce.
_SMALL_ELEMS = 1 << 15

# Results of at least this many bytes come from the result pool (_fresh);
# smaller ones cost less fresh than a scan of the pool.
_POOL_MIN_BYTES = 1 << 16

# The pool keeps buffers of at most this many bytes in all, idle and in use.
_POOL_CAP_BYTES = 64 << 20

# Decoding, detection and repair interpolate through the same few point
# sets job after job; lagrange_basis keeps this many recent bases.
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
        # Larger moduli fall back to Python-int (object) arrays to keep
        # matrix contractions exact.
        dtype = np.int64 if modulus < _INT64_SAFE_MODULUS else object
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

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, v - self.value)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value * v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value * self.field.inv(v))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, v * self.field.inv(self.value))

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


def lagrange_basis(field: PrimeField, xs: Sequence[int]) -> np.ndarray:
    """V_xs^-1, the inverse of the Vandermonde matrix at distinct points xs.

    Column i holds the coefficients of l_i, the unique degree<K polynomial
    with l_i(xs[i]) = 1 and l_i(xs[j]) = 0 for j != i, so entry [d, i] is
    l_i's degree-d coefficient.  O(K^2) the first time; the bases of the
    last _BASIS_CACHE point sets are kept, so the array is read-only.
    """
    return _cached_basis(field, tuple(int(x) for x in xs))


@functools.lru_cache(maxsize=_BASIS_CACHE)
def _cached_basis(field: PrimeField, xs: tuple[int, ...]) -> np.ndarray:
    q = field.modulus
    k = len(xs)
    if len({x % q for x in xs}) != k:
        raise DuplicateEvaluationPoint(f"points {list(xs)} are not distinct mod {q}")
    # master(x) = prod_j (x - xs[j]), low-to-high coefficients
    master = [1] + [0] * k
    deg = 0
    for x in xs:
        for d in range(deg, -1, -1):
            master[d + 1] = (master[d + 1] + master[d]) % q
            master[d] = master[d] * (q - x % q) % q
        deg += 1
    basis = []
    for x in xs:
        # synthetic division of master by (x - xs[i])
        quot = [0] * k
        carry = master[k]
        for d in range(k - 1, -1, -1):
            quot[d] = carry
            carry = (master[d] + x * carry) % q
        # scale so l_i(xs[i]) = 1
        denom = 0
        for c in reversed(quot):
            denom = (denom * x + c) % q
        scale = field.inv(denom)
        basis.append([c * scale % q for c in quot])
    inverse = np.array(basis, dtype=field.array_dtype).reshape(k, k).T
    inverse.flags.writeable = False
    return inverse


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
    """data as a fresh array of canonical entries in the field's dtype.

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

    Below 2^63 this is exactly rng.integers(0, q, size), so seeded streams
    keep their values.  Larger moduli, past numpy's int64 draws, take one
    seed from rng for a random.Random that draws Python ints, returned as
    an object array when size is given.
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


def modmatmul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Canonical (a @ b) mod q for arrays of canonical entries.

    Operands are matrices or equal-length stacks of them, (..., rows, inner)
    @ (..., inner, cols), one product per stack entry; one operand may be a
    single matrix, shared by every entry.  Object operands multiply as
    Python ints.  int64 operands run on float64 BLAS, in chunks of the
    contraction that _reduce takes exactly (exact_float_terms), reduced
    mod q between chunks.
    A one-chunk product of at most _SMALL_ELEMS operand, product and result
    entries ((rows + cols) * inner + 2 * rows * cols for two matrices) is
    one matmul on fresh float64 copies, reduced with one ``%``.  Every other
    product allocates nothing but its result, which comes from the result
    pool (_fresh): it runs in tiles in this thread's workspace of
    _TILE_ELEMS 8-byte entries, which holds a tile's float64 operand
    slices, its float64 product and its float64 scratch.  A tile is as many
    whole stack entries as fit, else a slab of one entry's rows times a
    slice of its columns (Goto & van de Geijn): the slab starts as all the
    rows and is halved until its tiles are about as wide as they are high.
    Each column slice of b is copied once per chunk, and a slab of a once
    per column slice, or once in all when one slab holds every row.  Each
    tile is reduced into the result without division (_reduce).  The
    result has the operands' dtype.
    """
    if a.dtype == object or b.dtype == object:
        return (a @ b) % q
    step = exact_float_terms(q)
    if step == 0:
        return modmatmul(a.astype(object), b.astype(object), q).astype(np.int64)
    rows, inner = a.shape[-2:]
    cols = b.shape[-1]
    stack = a.shape[:-2] if a.ndim >= b.ndim else b.shape[:-2]
    size = prod(stack) * rows * cols
    if size == 0 or inner == 0 or (inner <= step and a.size + b.size + 2 * size <= _SMALL_ELEMS):
        out = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
        return np.remainder(out, q, out=out)
    out = _fresh((*stack, rows, cols), np.int64)
    entries = out.reshape(-1, rows, cols)
    # a shared operand is one stack entry, which matmul broadcasts
    a_s, b_s = a.reshape(-1, rows, inner), b.reshape(-1, inner, cols)
    chunk = min(inner, step)
    entry = rows * chunk + chunk * cols + 2 * rows * cols
    if entry <= _TILE_ELEMS:
        group, height, width = min(len(entries), _TILE_ELEMS // entry), rows, cols
    else:
        # one entry in slabs of rows: halve the slab until its tiles are
        # about as wide as they are high, then even out their widths
        group, height = 1, rows
        width = (_TILE_ELEMS - height * chunk) // (chunk + 2 * height)
        while width < min(height, cols) and height > 1:
            height = (height + 1) // 2
            width = (_TILE_ELEMS - height * chunk) // (chunk + 2 * height)
        width = -(-cols // -(-cols // max(1, width)))
    a_len, b_len, t_len = group * height * chunk, group * chunk * width, group * height * width
    ws = _workspace(a_len + b_len + 2 * t_len)
    a_buf, b_buf = ws[:a_len], ws[a_len:a_len + b_len]
    product = ws[a_len + b_len:a_len + b_len + t_len]
    scratch = ws[a_len + b_len + t_len:]
    for s0 in range(0, len(entries), group):
        a_g = a_s if len(a_s) == 1 else a_s[s0:s0 + group]
        b_g = b_s if len(b_s) == 1 else b_s[s0:s0 + group]
        for k0 in range(0, inner, step):
            for c0 in range(0, cols, width):
                b_part = _fill(b_buf, b_g[:, k0:k0 + step, c0:c0 + width])
                for r0 in range(0, rows, height):
                    if height < rows or c0 == 0:  # one slab's a chunk serves every column tile
                        a_part = _fill(a_buf, a_g[:, r0:r0 + height, k0:k0 + step])
                    tile = entries[s0:s0 + group, r0:r0 + height, c0:c0 + width]
                    p = product[:tile.size].reshape(tile.shape)
                    np.matmul(a_part, b_part, out=p)
                    _reduce(p, scratch[:tile.size].reshape(tile.shape), q, tile, k0 > 0)
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

    Combinations that modmatmul would take as one small matmul are one
    modmatmul of the stacked parts.  Larger int64 ones read the parts
    where they lie: each slab of rows of every part, cut along the last
    axis when one row of every part does not fit, is gathered straight
    into this thread's workspace, multiplied by the weights in one float64
    matmul, and reduced without division into the result (_reduce), so the
    result, taken from the result pool (_fresh) unless out is given, is all
    they allocate.
    """
    k, t = weights.shape
    first = np.asarray(parts[0])
    size = first.size
    stacked_out = isinstance(out, np.ndarray)
    if out is not None:
        shapes = {out.shape[1:]} if stacked_out else {np.shape(o) for o in out}
        if len(out) != k or shapes != {first.shape}:
            raise ValueError(f"out needs {k} arrays of shape {first.shape}")
    if (weights.size + (t + 2 * k) * size <= _SMALL_ELEMS or weights.dtype == object
            or first.dtype == object or first.ndim == 0 or size == 0):
        stack = np.asarray(parts)
        flat = modmatmul(weights, stack.reshape(len(stack), -1), field.modulus)
        if stacked_out:
            out[...] = flat.reshape(out.shape)
            return out
        result = flat.reshape(k, *stack.shape[1:])
        if out is None:
            return result
        for o, r in zip(out, result):
            o[...] = r
        return out
    if len(parts) != t or any(np.shape(p) != first.shape for p in parts):
        raise ValueError(f"{t} weights per row need {t} parts of one shape")
    q = field.modulus
    if out is None:
        out, stacked_out = _fresh((k, *first.shape), np.int64), True
    rows = first.shape[0]
    # a slab is rows of every part, cut along the last axis when one row of
    # every part, the product and the scratch outgrows the workspace
    last = first.shape[-1] if first.ndim > 1 else 1
    mid = size // (rows * last)  # entries of a row at each index of the last axis
    step = exact_float_terms(q)
    chunk = min(t, step)
    room = _TILE_ELEMS - k * chunk
    if mid * last * (chunk + 2 * k) <= room:
        height, width = max(1, room // (mid * last * (chunk + 2 * k))), last
    else:
        height, width = 1, max(1, room // (mid * (chunk + 2 * k)))
        width = -(-last // -(-last // width))
    w_len, in_len, t_len = k * chunk, chunk * height * mid * width, k * height * mid * width
    ws = _workspace(w_len + in_len + 2 * t_len)
    w_buf, in_buf = ws[:w_len], ws[w_len:w_len + in_len]
    product = ws[w_len + in_len:w_len + in_len + t_len]
    scratch = ws[w_len + in_len + t_len:]
    for k0 in range(0, t, step):
        w = _fill(w_buf, weights[:, k0:k0 + step])
        terms = w.shape[1]
        for r0 in range(0, rows, height):
            for c0 in range(0, last, width):
                cut = (slice(r0, r0 + height),)
                if first.ndim > 1:
                    cut += (..., slice(c0, c0 + width))
                shape = first[cut].shape
                n = prod(shape)
                gathered = in_buf[:terms * n].reshape(terms, *shape)
                for j, g in enumerate(gathered):
                    np.copyto(g, parts[k0 + j][cut])
                p = product[:k * n].reshape(k, n)
                np.matmul(w, gathered.reshape(terms, n), out=p)
                p = p.reshape(k, *shape)
                s = scratch[:k * n].reshape(k, *shape)
                if stacked_out:
                    _reduce(p, s, q, out[(slice(None), *cut)], k0 > 0)
                else:
                    for i, o in enumerate(out):
                        _reduce(p[i], s[i], q, o[cut], k0 > 0)
    return out


def interpolate_arrays(field: PrimeField, xs: Sequence[int], values) -> np.ndarray:
    """Coefficients, [d] of degree d, of the polynomial through (xs, equal-shape values)."""
    return combine(field, lagrange_basis(field, xs), values)


def lagrange_matrix(field: PrimeField, xs: Sequence[int], ys: Sequence[int]) -> np.ndarray:
    """M[r, i] = l_i(ys[r]) for the Lagrange basis over distinct points xs.

    M @ values maps a degree < len(xs) polynomial's values at xs to its
    values at ys.
    """
    return modmatmul(vandermonde(field, ys, len(xs)), lagrange_basis(field, xs), field.modulus)


def vandermonde(field: PrimeField, xs: Sequence[int], n_cols: int) -> np.ndarray:
    """Matrix V with V[i, d] = xs[i]^d, canonical, shape (len(xs), n_cols)."""
    q = field.modulus
    rows = [[1] * n_cols for _ in xs]
    for row, x in zip(rows, xs):
        for d in range(1, n_cols):
            row[d] = row[d - 1] * x % q
    return np.array(rows, dtype=field.array_dtype).reshape(len(xs), n_cols)
