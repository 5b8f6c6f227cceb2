"""Bilinear constructions and the rank-driven improved code.

A construction is a tensor triple (a, b, c) of rank R that rewrites the
p x m by p x n block product as R element-wise multiplications.  Any such
triple yields a straggler code with recovery threshold 2R - 1: the
element-wise product code of length R views the two length-R coded vectors
as evaluations of degree R-1 polynomials, hands each worker one evaluation
of each at a fresh point, and interpolates the product polynomial from any
2R - 1 results.  Both codes are InterpolationCodes: they encode, run their
workers and decode through the one CodingScheme interface in schemes.

Tensor entries are kept as small centered integers (e.g. -1) and mapped into
the working field at the point of use, so one construction serves every
field.  The exhaustive basis-pair identity check is the ground truth for
every construction shipped or composed here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    BlockShapeMismatch,
    ConstructionTooLarge,
    FieldTooSmall,
    TooFewWorkers,
)
from .field import PrimeField, canonical_array, combine, lagrange_matrix, modmatmul, vandermonde
from .schemes import InterpolationCode

_RANK_BUDGET = 10**6
_TENSOR_ELEMENT_BUDGET = 10**7

CONSTRUCTIONS_DIR = Path(__file__).parent / "constructions"


@dataclass(frozen=True, eq=False)
class BilinearConstruction:
    """Rank-R tensors (a, b, c) computing the p x m by p x n block product.

    a has shape (R, p, m), b has shape (R, p, n), c has shape (R, m, n);
    entries are centered integers.
    """

    p: int
    m: int
    n: int
    rank: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    name: str = ""

    def __post_init__(self):
        expect = {
            "a": (self.rank, self.p, self.m),
            "b": (self.rank, self.p, self.n),
            "c": (self.rank, self.m, self.n),
        }
        for label, shape in expect.items():
            arr = np.asarray(getattr(self, label), dtype=np.int64)
            if arr.shape != shape:
                raise BlockShapeMismatch(
                    f"tensor {label} has shape {arr.shape}, expected {shape}"
                )
            object.__setattr__(self, label, arr)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BilinearConstruction)
            and (other.p, other.m, other.n, other.rank) == (self.p, self.m, self.n, self.rank)
            and np.array_equal(other.a, self.a)
            and np.array_equal(other.b, self.b)
            and np.array_equal(other.c, self.c)
        )

    def shape(self) -> tuple[int, int, int]:
        return self.p, self.m, self.n


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violation: tuple[int, int, int, int, int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_construction(bc: BilinearConstruction, field: PrimeField) -> ValidationResult:
    """Exhaustively check the defining identity on all basis pairs.

    For unit inputs A = e_(j',k') and B = e_(j'',k'') the construction must
    output [j'=j''] [k'=j] [k''=k] at block (j, k); by bilinearity that
    settles all inputs.  Returns the first violating index tuple
    (j', k', j'', k'', j, k) on failure.
    """
    q = field.modulus
    p, m, n, r = bc.p, bc.m, bc.n, bc.rank
    a = bc.a.astype(field.array_dtype, copy=True) % q
    b = bc.b.astype(field.array_dtype, copy=True) % q
    c = bc.c.astype(field.array_dtype, copy=True) % q
    pair = a.reshape(r, p * m, 1) * b.reshape(r, 1, p * n) % q
    got = modmatmul(pair.reshape(r, p * m * p * n).T, c.reshape(r, m * n), q)
    got = got.reshape(p * m, p * n, m * n)

    expected = np.zeros((p * m, p * n, m * n), dtype=field.array_dtype)
    for jj in range(p):
        for kp in range(m):
            for kpp in range(n):
                expected[jj * m + kp, jj * n + kpp, kp * n + kpp] = 1

    diff = np.argwhere(got != expected)
    if diff.size == 0:
        return ValidationResult(True)
    x, y, z = (int(v) for v in diff[0])
    return ValidationResult(False, (x // m, x % m, y // n, y % n, z // n, z % n))


def standard_construction(p: int, m: int, n: int) -> BilinearConstruction:
    """The rank-pmn construction: one multiplication per aligned block pair."""
    r = p * m * n
    a = np.zeros((r, p, m), dtype=np.int64)
    b = np.zeros((r, p, n), dtype=np.int64)
    c = np.zeros((r, m, n), dtype=np.int64)
    i = 0
    for ell in range(p):
        for j in range(m):
            for k in range(n):
                a[i, ell, j] = 1
                b[i, ell, k] = 1
                c[i, j, k] = 1
                i += 1
    return BilinearConstruction(p, m, n, r, a, b, c, name=f"standard-{p}x{m}x{n}")


# The seven classical products for a 2x2 product X @ Y, written against our
# A^T B convention (X = A^T, so X's row index is A's column index).
_STRASSEN_A = [
    [[1, 0], [0, 1]],
    [[0, 1], [0, 1]],
    [[1, 0], [0, 0]],
    [[0, 0], [0, 1]],
    [[1, 0], [1, 0]],
    [[-1, 1], [0, 0]],
    [[0, 0], [1, -1]],
]
_STRASSEN_B = [
    [[1, 0], [0, 1]],
    [[1, 0], [0, 0]],
    [[0, 1], [0, -1]],
    [[-1, 0], [1, 0]],
    [[0, 0], [0, 1]],
    [[1, 1], [0, 0]],
    [[0, 0], [1, 1]],
]
_STRASSEN_C = [
    [[1, 0], [0, 1]],
    [[0, 0], [1, -1]],
    [[0, 1], [0, 1]],
    [[1, 0], [1, 0]],
    [[-1, 1], [0, 0]],
    [[0, 0], [0, 1]],
    [[1, 0], [0, 0]],
]


def strassen_construction() -> BilinearConstruction:
    """The rank-7 construction for 2x2x2 blocks."""
    return BilinearConstruction(
        2, 2, 2, 7,
        np.array(_STRASSEN_A), np.array(_STRASSEN_B), np.array(_STRASSEN_C),
        name="strassen",
    )


def compose(left: BilinearConstruction, right: BilinearConstruction) -> BilinearConstruction:
    """Tensor (Kronecker) composition: block-recursive use of both constructions.

    Shapes multiply and ranks multiply; composite indices pair row-major, so
    the result acts on the blockwise-refined partition of the same product.
    """
    rank = left.rank * right.rank
    p = left.p * right.p
    m = left.m * right.m
    n = left.n * right.n
    if rank > _RANK_BUDGET:
        raise ConstructionTooLarge(f"composite rank {rank} > {_RANK_BUDGET}")
    if rank * (p * m + p * n + m * n) > _TENSOR_ELEMENT_BUDGET:
        raise ConstructionTooLarge("composite tensors exceed the element budget")

    def kron3(t1: np.ndarray, t2: np.ndarray, d1: tuple[int, int], d2: tuple[int, int]) -> np.ndarray:
        out = (
            t1[:, None, :, None, :, None] * t2[None, :, None, :, None, :]
        )
        return out.reshape(rank, d1[0] * d2[0], d1[1] * d2[1])

    return BilinearConstruction(
        p, m, n, rank,
        kron3(left.a, right.a, (left.p, left.m), (right.p, right.m)),
        kron3(left.b, right.b, (left.p, left.n), (right.p, right.n)),
        kron3(left.c, right.c, (left.m, left.n), (right.m, right.n)),
        name=f"{left.name}*{right.name}" if left.name and right.name else "",
    )


def tensor_power(bc: BilinearConstruction, k: int) -> BilinearConstruction:
    """k-fold composition of a construction with itself."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = bc
    for _ in range(k - 1):
        out = compose(out, bc)
    if k > 1 and bc.name:
        object.__setattr__(out, "name", f"{bc.name}^{k}")
    return out


class ElementwiseProductCode(InterpolationCode):
    """Straggler code for the element-wise product of two length-R vectors.

    Worker i stores the values at y_i = i of the degree R-1 polynomials that
    take each vector's entries at x_j = j, j < R.  Its result is h(y_i) for
    their product h, and output_map, the Vandermonde matrix at the x points,
    maps h's coefficients to the R products.  Threshold min(N, 2R - 1): when
    N < 2R - 1 the all-workers subset reads the first R workers, whose
    points are the x points.  Entries may be field scalars or equal blocks.
    """

    def __init__(self, length: int, N: int, field: PrimeField):
        if length < 1:
            raise ValueError("vector length must be >= 1")
        if N < length:
            raise TooFewWorkers(f"N={N} < R={length}")
        if field.modulus <= max(N, length):
            raise FieldTooSmall(f"need q > max(N, R) = {max(N, length)}, got q={field.modulus}")
        self.length = length
        self.N = N
        self.field = field
        self.x_points = tuple(range(length))
        self.points = tuple(range(N))
        # gen_a[i, j] = l_j(y_i) over the x points: worker i stores
        # sum_j gen_a[i, j] * vec[j] of each vector
        self.gen_a = self.gen_b = lagrange_matrix(field, self.x_points, self.points)
        self.output_map = vandermonde(field, self.x_points, 2 * length - 1)

    def recovery_threshold(self) -> int:
        return min(self.N, super().recovery_threshold())

    def _split(self, vec, count: int) -> np.ndarray:
        """The vector's entries, canonical, stacked: the parts are the entries themselves."""
        stack = canonical_array(self.field, vec)
        if len(stack) != count:
            raise BlockShapeMismatch(f"vector has {len(stack)} entries, expected {count}")
        return stack

    def _work(self, coded_a: np.ndarray, coded_b: np.ndarray) -> np.ndarray:
        """Every worker's result: the element-wise product of its stored pair."""
        return coded_a * coded_b % self.field.modulus

    def _decode_received(self, received, workers: list[int], dims) -> np.ndarray:
        if len(workers) < self.output_map.shape[1]:
            # below 2R - 1 results every worker is present, and y_i = x_i for
            # i < R: those workers hold the products directly
            products = np.asarray(received)[[workers.index(w) for w in self.x_points]]
            return products % self.field.modulus
        return super()._decode_received(received, workers, dims)

    def _assemble(self, weights: np.ndarray, parts, dims) -> np.ndarray:
        """The R products as one (R, *entry shape) stack."""
        return combine(self.field, weights, parts)


class ImprovedBilinearCode(InterpolationCode):
    """The 2R - 1 threshold code driven by a rank-R construction.

    It is the element-wise product code of length R applied to the
    construction's coded vectors: worker i stores the element-wise code's
    combination of the R coded A-blocks sum_{j,k} a[r, j, k] A[j, k] (and
    likewise of the B-blocks), its result is the product polynomial at
    y_i = i, and c maps the R decoded products to the output blocks.
    """

    def __init__(self, bc: BilinearConstruction, N: int, field: PrimeField):
        r = bc.rank
        if N < 2 * r - 1:
            raise TooFewWorkers(f"N={N} < 2R-1={2 * r - 1}")
        elementwise = ElementwiseProductCode(r, N, field)
        self.construction = bc
        self.p, self.m, self.n, self.N = bc.p, bc.m, bc.n, N
        self.field = field
        self.points = elementwise.points
        q = field.modulus
        a, b, c = (t.astype(field.array_dtype).reshape(r, -1) % q for t in (bc.a, bc.b, bc.c))
        self.gen_a = modmatmul(elementwise.gen_a, a, q)
        self.gen_b = modmatmul(elementwise.gen_b, b, q)
        # output block (j, k) is sum_r c[r, j, k] * (product r)
        self.output_map = modmatmul(c.T, elementwise.output_map, q)


# -- on-disk registry -------------------------------------------------------

def construction_to_dict(bc: BilinearConstruction) -> dict:
    return {
        "name": bc.name,
        "p": bc.p,
        "m": bc.m,
        "n": bc.n,
        "rank": bc.rank,
        "a": bc.a.tolist(),
        "b": bc.b.tolist(),
        "c": bc.c.tolist(),
    }


def construction_from_dict(data: Mapping) -> BilinearConstruction:
    return BilinearConstruction(
        p=int(data["p"]),
        m=int(data["m"]),
        n=int(data["n"]),
        rank=int(data["rank"]),
        a=np.array(data["a"], dtype=np.int64),
        b=np.array(data["b"], dtype=np.int64),
        c=np.array(data["c"], dtype=np.int64),
        name=str(data.get("name", "")),
    )


def save_construction(bc: BilinearConstruction, path) -> None:
    data = construction_to_dict(bc)
    head = ",\n".join(f' "{k}": {json.dumps(data[k])}' for k in ("name", "p", "m", "n", "rank"))
    tensors = []
    for key in ("a", "b", "c"):
        rows = ",\n  ".join(json.dumps(slice_) for slice_ in data[key])
        tensors.append(f' "{key}": [\n  {rows}\n ]')
    Path(path).write_text("{\n" + head + ",\n" + ",\n".join(tensors) + "\n}\n")


def load_construction(name_or_path) -> BilinearConstruction:
    """Load by registry name (e.g. 'strassen') or by explicit JSON path."""
    candidate = CONSTRUCTIONS_DIR / f"{name_or_path}.json"
    path = candidate if candidate.exists() else Path(name_or_path)
    if not path.exists():
        known = ", ".join(sorted(registry_names())) or "(none)"
        raise FileNotFoundError(
            f"no construction named or at {name_or_path!r}; registry has: {known}"
        )
    return construction_from_dict(json.loads(path.read_text()))


def registry_names() -> list[str]:
    return [p.stem for p in CONSTRUCTIONS_DIR.glob("*.json")]
