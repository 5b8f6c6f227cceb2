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
exactly while it stays below 2^53, so contractions are split into chunks of
at most (2^53 - 1) // (q-1)^2 terms (2048 or more for q < 2^21) and reduced
between chunks.  Larger moduli use Python-int (object) arrays, exact at any
length.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Sequence

import numpy as np

from .errors import DivisionByZero, DuplicateEvaluationPoint, FieldMismatch

# Moduli below this get int64 arrays, whose contractions modmatmul runs on
# float64 BLAS in chunks of at least 2048 terms; larger moduli get Python-int
# (object) arrays.
_INT64_SAFE_MODULUS = 1 << 21

# Integers up to this bound are exact in float64.
_FLOAT_EXACT = 1 << 53

# modmatmul does an exact product with at most this many output entries in
# one dgemm call; larger ones go in tiles whose float64 operands and product
# hold about this many entries.
_TILE_ELEMS = 1 << 18

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

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.modulus

    def mul(self, a: int, b: int) -> int:
        return a * b % self.modulus

    def neg(self, a: int) -> int:
        return -a % self.modulus

    def inv(self, a: int) -> int:
        """Multiplicative inverse, ``pow(a, -1, q)``; DivisionByZero for 0."""
        a = int(a) % self.modulus
        if a == 0:
            raise DivisionByZero(f"0 has no inverse in GF({self.modulus})")
        return pow(a, -1, self.modulus)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.modulus)
        return pow(a % self.modulus, e, self.modulus)

    # -- element construction --

    def __call__(self, value: int) -> "FieldElement":
        return FieldElement(self, value)

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def random(self, rng) -> int:
        """Uniform canonical element; rng is a random.Random or numpy Generator."""
        if hasattr(rng, "integers"):
            return int(rng.integers(0, self.modulus))
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


def lagrange_basis(field: PrimeField, xs: Sequence[int]) -> list[list[int]]:
    """Coefficient vectors of the Lagrange basis through distinct points xs.

    basis[i][d] is the degree-d coefficient of l_i, the unique degree<K
    polynomial with l_i(xs[i]) = 1 and l_i(xs[j]) = 0 for j != i.  O(K^2).
    """
    q = field.modulus
    k = len(xs)
    if len({x % q for x in xs}) != k:
        raise DuplicateEvaluationPoint(f"points {xs} are not distinct mod {q}")
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
    return basis


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
    q = field.modulus
    basis = lagrange_basis(field, xs)
    out = [0] * len(pts)
    for yv, b in zip(ys, basis):
        if yv == 0:
            continue
        for d, c in enumerate(b):
            out[d] = (out[d] + yv * c) % q
    return FieldPolynomial(field, out)


def exact_float_terms(q: int) -> int:
    """Longest dot product of canonical entries that float64 sums exactly."""
    return (_FLOAT_EXACT - 1) // (q - 1) ** 2


def modmatmul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Canonical (a @ b) mod q for arrays of canonical entries.

    Operands are matrices or equal-length stacks of them, (..., rows, inner)
    @ (..., inner, cols), one product per stack entry; one operand may be a
    single matrix, shared by every entry.  Object operands multiply as
    Python ints.  int64 operands run on float64 BLAS, in chunks of the
    contraction that float64 sums exactly, reduced with an int64 ``%``
    between chunks.  An output of at most _TILE_ELEMS entries that needs one
    chunk is a single matmul.  Larger products go in tiles whose float64
    operands and product hold about _TILE_ELEMS entries: whole stack entries
    when one fits, else column slices of one entry.  The result has the
    operands' dtype.
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
    if size == 0 or (inner <= step and size <= _TILE_ELEMS):
        out = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
        return np.remainder(out, q, out=out)
    out = np.empty((*stack, rows, cols), dtype=np.int64)
    entries = out.reshape(-1, rows, cols)
    a_s = np.broadcast_to(a.reshape(-1, rows, inner), (len(entries), rows, inner))
    b_s = np.broadcast_to(b.reshape(-1, inner, cols), (len(entries), inner, cols))
    chunk = min(inner, step)
    entry = rows * chunk + chunk * cols + rows * cols
    group = max(1, _TILE_ELEMS // entry)
    width = cols if entry <= _TILE_ELEMS else max(1, (_TILE_ELEMS - rows * chunk) // (chunk + rows))
    for s0 in range(0, len(entries), group):
        for c0 in range(0, cols, width):
            tile = entries[s0:s0 + group, :, c0:c0 + width]
            for k0 in range(0, inner, step):
                part = a_s[s0:s0 + group, :, k0:k0 + step].astype(np.float64) @ b_s[
                    s0:s0 + group, k0:k0 + step, c0:c0 + width
                ].astype(np.float64)
                if k0:
                    tile += part.astype(np.int64)
                else:
                    tile[...] = part
                np.remainder(tile, q, out=tile)
    return out


def interpolate_arrays(field: PrimeField, xs: Sequence[int], values: Sequence[np.ndarray]) -> np.ndarray:
    """Coefficient stack of the array-valued polynomial through (xs, values).

    values are equal-shaped canonical arrays; returns an array of shape
    (len(xs), *value_shape) whose [d] slice is the degree-d coefficient.
    Equivalent to running lagrange_interpolate entry-wise.
    """
    basis = np.array(lagrange_basis(field, xs), dtype=field.array_dtype)
    stack = np.stack(values)
    # coeff[d] = sum_i basis[i][d] * values[i]
    flat = modmatmul(basis.T, stack.reshape(len(stack), -1), field.modulus)
    return flat.reshape(stack.shape)


def lagrange_matrix(field: PrimeField, xs: Sequence[int], ys: Sequence[int]) -> np.ndarray:
    """M[r, i] = l_i(ys[r]) for the Lagrange basis over distinct points xs.

    M @ values maps a degree < len(xs) polynomial's values at xs to its
    values at ys.
    """
    basis = np.array(lagrange_basis(field, xs), dtype=field.array_dtype)
    return modmatmul(vandermonde(field, ys, len(xs)), basis.T, field.modulus)


def vandermonde(field: PrimeField, xs: Sequence[int], n_cols: int) -> np.ndarray:
    """Matrix V with V[i, d] = xs[i]^d, canonical, shape (len(xs), n_cols)."""
    q = field.modulus
    out = np.ones((len(xs), n_cols), dtype=field.array_dtype)
    for i, x in enumerate(xs):
        acc = 1
        for d in range(1, n_cols):
            acc = acc * x % q
            out[i, d] = acc
    return out
