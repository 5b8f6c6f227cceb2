"""Coding schemes for straggler-tolerant distributed A^T B.

Every scheme maps the block grids of A and B to one coded block pair per
worker; worker i multiplies its pair and returns the product, and the master
decodes the full product from any recovery_threshold() many results.

Schemes here: the exponent-parameterized polynomial code family, its
(1, p, pm) instantiation that hits threshold pmn + p - 1, uncoded
round-robin repetition, and random linear combinations.  The polynomial
codes and the bilinear improved code share one interpolation decoder.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .blocks import MatrixF, assemble_array, combine_blocks, padded_blocks
from .errors import (
    BlockShapeMismatch,
    DegreeCollision,
    DuplicateEvaluationPoint,
    FieldTooSmall,
    InsufficientResults,
    MissingResult,
    SingularDecodeSystem,
    TooFewWorkers,
    UnknownWorker,
)
from .field import PrimeField, lagrange_basis, modmatmul
from .linalg import solve_linear_system


def worker_multiply(coded_a: MatrixF, coded_b: MatrixF) -> MatrixF:
    """The per-worker computation: transpose product of the stored pair."""
    if coded_a.rows != coded_b.rows:
        raise BlockShapeMismatch(
            f"coded blocks disagree on inner dimension: {coded_a.shape} vs {coded_b.shape}"
        )
    return coded_a.transpose() @ coded_b


def gather_results(results: Mapping, subset: Sequence[int], N: int) -> list:
    """The results of the workers in subset, in order.

    Raises UnknownWorker for an index outside [0, N), checked over the whole
    subset first, then MissingResult for a worker with no entry in results.
    """
    for w in subset:
        if not 0 <= w < N:
            raise UnknownWorker(f"worker index {w} out of range for N={N}")
    for w in subset:
        if w not in results:
            raise MissingResult(f"no result from worker {w}")
    return [results[w] for w in subset]


@dataclass(frozen=True)
class PolynomialCodeSpec:
    """Parameters of an (alpha, beta, theta)-polynomial code.

    Worker i stores the two linear combinations
        A~_i = sum_{j<p, k<m} A[j,k] * x_i^(j*alpha + k*beta)
        B~_i = sum_{j<p, k<n} B[j,k] * x_i^((p-1-j)*alpha + k*theta)
    over distinct evaluation points x_0..x_{N-1}.
    """

    p: int
    m: int
    n: int
    N: int
    alpha: int
    beta: int
    theta: int
    x_points: tuple[int, ...]
    field: PrimeField

    def __post_init__(self):
        if min(self.p, self.m, self.n, self.N) < 1:
            raise ValueError("p, m, n, N must all be >= 1")
        if min(self.alpha, self.beta, self.theta) < 0:
            raise ValueError("exponents must be non-negative")
        if len(self.x_points) != self.N:
            raise ValueError(f"need {self.N} evaluation points, got {len(self.x_points)}")
        q = self.field.modulus
        if len({x % q for x in self.x_points}) != self.N:
            raise DuplicateEvaluationPoint("evaluation points must be distinct mod q")

    def product_degree(self) -> int:
        """Highest exponent appearing in a worker's product polynomial."""
        return (
            (2 * self.p - 2) * self.alpha
            + (self.m - 1) * self.beta
            + (self.n - 1) * self.theta
        )

    def output_degree(self, k: int, kp: int) -> int:
        """Degree whose coefficient is the output block C[k, kp]."""
        return (self.p - 1) * self.alpha + k * self.beta + kp * self.theta

    def generators(self) -> tuple[np.ndarray, np.ndarray]:
        """Worker weights (G_A, G_B) on the row-major A and B blocks.

        G_A[i, j*m + k] = x_i^(j*alpha + k*beta) and
        G_B[i, j*n + k] = x_i^((p-1-j)*alpha + k*theta).
        """
        q = self.field.modulus
        p, a, b, t = self.p, self.alpha, self.beta, self.theta
        gen_a = [[pow(x, j * a + k * b, q) for j in range(p) for k in range(self.m)]
                 for x in self.x_points]
        gen_b = [[pow(x, (p - 1 - j) * a + k * t, q) for j in range(p) for k in range(self.n)]
                 for x in self.x_points]
        dtype = self.field.array_dtype
        return np.array(gen_a, dtype=dtype), np.array(gen_b, dtype=dtype)

    def check_degree_separation(self):
        """Verify each needed degree is hit only by its aligned product terms.

        The product polynomial's x^e coefficient aggregates every pair
        (j, k) x (j', k') with e = (p-1+j-j')*alpha + k*beta + k'*theta; the
        code is decodable only if, at each output degree, all contributing
        pairs have j = j' and the output's own (k, k').
        """
        needed = {
            self.output_degree(k, kp): (k, kp)
            for k in range(self.m)
            for kp in range(self.n)
        }
        if len(needed) != self.m * self.n:
            raise DegreeCollision("two output blocks share one degree")
        for j in range(self.p):
            for jp in range(self.p):
                for k in range(self.m):
                    for kp in range(self.n):
                        e = (
                            (self.p - 1 + j - jp) * self.alpha
                            + k * self.beta
                            + kp * self.theta
                        )
                        tgt = needed.get(e)
                        if tgt is not None and (j != jp or (k, kp) != tgt):
                            raise DegreeCollision(
                                f"term (j={j},k={k},j'={jp},k'={kp}) lands on the "
                                f"degree of output block {tgt}"
                            )


def entangled_spec(p: int, m: int, n: int, N: int, field: PrimeField) -> PolynomialCodeSpec:
    """The (1, p, pm) polynomial code over x_i = i, threshold pmn + p - 1.

    N below the threshold is rejected outright: the threshold-N regime is
    not constructed here.
    """
    threshold = p * m * n + p - 1
    if N < threshold:
        raise TooFewWorkers(f"N={N} < pmn+p-1={threshold}")
    if field.modulus <= N:
        raise FieldTooSmall(f"need q > N, got q={field.modulus}, N={N}")
    return PolynomialCodeSpec(
        p=p, m=m, n=n, N=N, alpha=1, beta=p, theta=p * m,
        x_points=tuple(range(N)), field=field,
    )


class CodingScheme(ABC):
    """Encode/decode bundle with the any-K-subset recovery contract.

    Every scheme is linear: worker i stores sum_t gen_a[i, t] * (A block t)
    and likewise for B, with the p x m (p x n) blocks in row-major order, so
    encoding is one modmatmul of a generator matrix with the stacked blocks.
    """

    p: int
    m: int
    n: int
    N: int
    field: PrimeField
    gen_a: np.ndarray
    gen_b: np.ndarray

    @abstractmethod
    def recovery_threshold(self) -> int:
        """Minimum number of worker results that always suffices to decode."""

    def _encode(self, matrix: MatrixF, parts: int, weights: np.ndarray) -> np.ndarray:
        """(len(weights), br, bc) stack whose [i] is sum_t weights[i, t] * (block t)."""
        return combine_blocks(self.field, weights, padded_blocks(matrix, self.p, parts))

    def _worker_rows(self, gen: np.ndarray, i: int) -> np.ndarray:
        if not 0 <= i < self.N:
            raise ValueError(f"worker index {i} out of range for N={self.N}")
        return gen[i:i + 1]

    def encode_a(self, a: MatrixF, i: int) -> MatrixF:
        (coded,) = self._encode(a, self.m, self._worker_rows(self.gen_a, i))
        return MatrixF._wrap(self.field, coded)

    def encode_b(self, b: MatrixF, i: int) -> MatrixF:
        (coded,) = self._encode(b, self.n, self._worker_rows(self.gen_b, i))
        return MatrixF._wrap(self.field, coded)

    def fewest_results(self) -> int:
        """Smallest subset size that can decode at all."""
        return self.recovery_threshold()

    def decode(
        self,
        results: Mapping[int, MatrixF],
        subset: Sequence[int],
        dims: tuple[int, int] | None = None,
    ) -> MatrixF:
        """Recover A^T B from the results of the workers in `subset`.

        dims, when given, is the true (rows, cols) of A^T B used to strip
        padding; otherwise the padded product is returned.  Raises
        InsufficientResults for a subset below fewest_results(), then
        UnknownWorker or MissingResult for a bad worker index.
        """
        self._check_count(subset)
        received = np.stack([r.data for r in gather_results(results, subset, self.N)])
        return MatrixF._wrap(self.field, self._decode_received(received, subset, dims))

    def decode_received(
        self,
        received: np.ndarray,
        subset: Sequence[int],
        dims: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """A^T B as an array, from received[i], the result of worker subset[i].

        received is the (len(subset), br, bc) stack of results, such as
        worker_products(a, b)[subset]; its entries may be any integer
        representatives of their field elements.  subset holds valid
        worker indices.
        """
        self._check_count(subset)
        if len(received) != len(subset):
            raise BlockShapeMismatch(f"{len(received)} results for {len(subset)} workers")
        q = self.field.modulus
        # the float64 kernel is exact only on canonical int64 entries
        if received.dtype != object and received.size and (received.min() < 0 or received.max() >= q):
            received = received % q
        return self._decode_received(received, subset, dims)

    def _check_count(self, subset: Sequence[int]):
        need = self.fewest_results()
        if len(subset) < need:
            raise InsufficientResults(f"got {len(subset)} results, need {need}")

    @abstractmethod
    def _decode_received(
        self, received: np.ndarray, subset: Sequence[int], dims: tuple[int, int] | None
    ) -> np.ndarray:
        """decode_received once its arguments are checked."""

    def _assemble(self, blocks: np.ndarray, dims: tuple[int, int] | None) -> np.ndarray:
        """A^T B from its m x n output blocks, in row-major order, cut to dims."""
        return assemble_array(blocks.reshape(self.m, self.n, *blocks.shape[-2:]), dims)

    def encode_all(self, a: MatrixF, b: MatrixF) -> list[tuple[MatrixF, MatrixF]]:
        """Coded pairs for every worker (partitions the inputs only once)."""
        coded_a, coded_b = self._encode(a, self.m, self.gen_a), self._encode(b, self.n, self.gen_b)
        return [(MatrixF._wrap(self.field, ca), MatrixF._wrap(self.field, cb))
                for ca, cb in zip(coded_a, coded_b)]

    def worker_products(self, a: MatrixF, b: MatrixF) -> np.ndarray:
        """Every worker's result as one (N, br, bc) stack, from one modmatmul.

        Entry i equals worker_multiply(*self.encode_all(a, b)[i]).data.
        """
        coded_a, coded_b = self._encode(a, self.m, self.gen_a), self._encode(b, self.n, self.gen_b)
        return modmatmul(coded_a.swapaxes(1, 2), coded_b, self.field.modulus)


class InterpolationCode(CodingScheme):
    """A code whose results are one product polynomial at the workers' points.

    Worker w returns h(points[w]) for a matrix-valued polynomial h of degree
    < K = recovery_threshold(), and the row-major output blocks are
    output_map @ (h's coefficients), with output_map an mn x K matrix.  The
    results of any K workers S therefore decode through the one map
    output_map V_S^-1, V_S being the Vandermonde matrix at their points.
    """

    points: tuple[int, ...]
    output_map: np.ndarray

    def _decode_received(
        self, received: np.ndarray, subset: Sequence[int], dims: tuple[int, int] | None
    ) -> np.ndarray:
        k_need = self.recovery_threshold()
        xs = [self.points[w] for w in subset[:k_need]]
        # basis[i][d] is the degree-d coefficient of l_i, so basis^T = V_S^-1
        basis = np.array(lagrange_basis(self.field, xs), dtype=self.field.array_dtype)
        decode_map = modmatmul(self.output_map, basis.T, self.field.modulus)
        return self._assemble(combine_blocks(self.field, decode_map, received[:k_need]), dims)


class GeneralPolynomialCode(InterpolationCode):
    """Polynomial code for an arbitrary valid exponent choice."""

    def __init__(self, spec: PolynomialCodeSpec):
        spec.check_degree_separation()
        if spec.N < spec.product_degree() + 1:
            raise TooFewWorkers(
                f"N={spec.N} < threshold {spec.product_degree() + 1} for these exponents"
            )
        self.spec = spec
        self.p, self.m, self.n, self.N = spec.p, spec.m, spec.n, spec.N
        self.field = spec.field
        self.gen_a, self.gen_b = spec.generators()
        self.points = spec.x_points
        # output block (k, k') is the product polynomial's coefficient at its output degree
        degrees = [spec.output_degree(k, kp) for k in range(self.m) for kp in range(self.n)]
        self.output_map = np.eye(spec.product_degree() + 1, dtype=self.field.array_dtype)[degrees]

    def recovery_threshold(self) -> int:
        return self.spec.product_degree() + 1


class EntangledCode(GeneralPolynomialCode):
    """The (1, p, pm) polynomial code; threshold pmn + p - 1."""

    def __init__(self, p: int, m: int, n: int, N: int, field: PrimeField):
        super().__init__(entangled_spec(p, m, n, N, field))


class UncodedRepetitionCode(CodingScheme):
    """Round-robin replication of the pmn sub-products.

    Worker w computes task w mod pmn, where task t = (j, k, k') contributes
    A[j,k]^T B[j,k'] to output block (k, k').  Any
    N - floor(N / pmn) + 1 results are guaranteed to cover every task.
    """

    def __init__(self, p: int, m: int, n: int, N: int, field: PrimeField):
        tasks = p * m * n
        if N < tasks:
            raise TooFewWorkers(f"N={N} < pmn={tasks}")
        self.p, self.m, self.n, self.N = p, m, n, N
        self.field = field
        self.num_tasks = tasks
        # unit generator rows: worker w stores A[j,k] and B[j,k'] of its task
        self.gen_a = np.zeros((N, p * m), dtype=field.array_dtype)
        self.gen_b = np.zeros((N, p * n), dtype=field.array_dtype)
        for w in range(N):
            t = w % tasks
            j, k, kp = t % p, (t // p) % m, t // (p * m)
            self.gen_a[w, j * m + k] = 1
            self.gen_b[w, j * n + kp] = 1

    def recovery_threshold(self) -> int:
        return self.N - self.N // self.num_tasks + 1

    def fewest_results(self) -> int:
        return self.num_tasks

    def _decode_received(
        self, received: np.ndarray, subset: Sequence[int], dims: tuple[int, int] | None
    ) -> np.ndarray:
        first: dict[int, int] = {}  # task -> row of its first result
        for row, w in enumerate(subset):
            first.setdefault(int(w) % self.num_tasks, row)
        missing = self.num_tasks - len(first)
        if missing:
            raise InsufficientResults(f"{missing} of {self.num_tasks} sub-products missing")
        # task (j, k, k') is j + k*p + k'*pm; output block (k, k') sums over j
        by_task = received[[first[t] for t in range(self.num_tasks)]].reshape(
            self.n, self.m, self.p, *received.shape[1:]
        )
        blocks = by_task.sum(axis=2).swapaxes(0, 1) % self.field.modulus
        return self._assemble(blocks, dims)


class RandomLinearCode(CodingScheme):
    """Uniformly random linear combinations on both sides.

    Each result is a random combination of all p^2·mn pairwise block
    products, so any p^2·mn results suffice with high probability, and a
    singular draw is reported rather than hidden (callers wait for one more
    worker and retry).

    The results form a linear code: R = G X, with G the N x p^2mn product
    generator and X the stacked pairwise products.  A decode from the
    workers S either solves G[S] X = R_S directly (p^2mn pivots over |S|
    rows) or, when few workers are missing, decodes erasures through parity
    checks H (H G = 0): the missing results solve H[:, E] R_E = -H[:, S] R_S,
    an elimination with |E| pivots over N rows, and X = L R for a left
    inverse L of G (L G = I).  Both give the same product and fail on the
    same subsets; decode picks one by counting the row updates each makes.
    """

    def __init__(self, p: int, m: int, n: int, N: int, field: PrimeField, seed: int = 0):
        unknowns = p * p * m * n
        if N < unknowns:
            raise TooFewWorkers(f"N={N} < p^2mn={unknowns}")
        self.p, self.m, self.n, self.N = p, m, n, N
        self.field = field
        self.seed = seed
        rng = np.random.default_rng(seed)
        q = field.modulus
        self.gen_a = np.array(
            rng.integers(0, q, size=(N, p * m)), dtype=field.array_dtype
        )
        self.gen_b = np.array(
            rng.integers(0, q, size=(N, p * n)), dtype=field.array_dtype
        )
        # row w: result_w = sum over pairs ((j,k),(j',k')) of
        #        gen_a[w,(j,k)] * gen_b[w,(j',k')] * (A[j,k]^T B[j',k'])
        self._gen = (self.gen_a[:, :, None] * self.gen_b[:, None, :] % q).reshape(N, -1)

    @cached_property
    def _parity_decoder(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(L, H) with L G = I and H = I - G L, or None when rank(G) < p^2mn.

        Built on the first erasure decode: H is N x N, and a code with many
        more workers than unknowns may never need it.
        """
        gen, q = self._gen, self.field.modulus
        unknowns = gen.shape[1]
        # G^T Y = I gives the left inverse L = Y^T
        inverse_t = solve_linear_system(self.field, gen.T, np.eye(unknowns, dtype=np.int64))
        if inverse_t is None:
            return None
        left_inverse = inverse_t.T
        parity = (np.eye(self.N, dtype=self.field.array_dtype) - modmatmul(gen, left_inverse, q)) % q
        return left_inverse, parity

    def recovery_threshold(self) -> int:
        return self.p * self.p * self.m * self.n

    def _decode_received(
        self, received: np.ndarray, subset: Sequence[int], dims: tuple[int, int] | None
    ) -> np.ndarray:
        unknowns = self.recovery_threshold()
        first: dict[int, int] = {}  # worker -> row of its first result
        for row, w in enumerate(subset):
            first.setdefault(int(w), row)
        known = sorted(first)
        erased = [w for w in range(self.N) if w not in first]
        br, bc = received.shape[1:]
        flat = received[[first[w] for w in known]].reshape(len(known), -1)
        # each pivot updates every row of its system: |E| pivots over N rows
        # for the erasures against p^2mn pivots over |S| rows for G[S]; the
        # erasure system's row updates, with its two modmatmuls, measured up
        # to twice as costly as the direct solve's
        if 2 * len(erased) * self.N < unknowns * len(known):
            solved = self._decode_erasures(known, erased, flat)
        else:
            solved = solve_linear_system(
                self.field, self._gen[known], flat, require_full_column_rank=True
            )
        # X is unique exactly when G's rows at the known workers have full
        # column rank; there is none when the known results fit no codeword
        if solved is None:
            raise SingularDecodeSystem(
                f"no unique decode from this subset of {len(subset)} workers: "
                "the coefficient matrix is rank-deficient or the results are inconsistent"
            )
        p, m, n = self.p, self.m, self.n
        products = solved.reshape(p, m, p, n, br, bc)
        # output block (k, k') sums the aligned products A[j,k]^T B[j,k'] over j
        blocks = products[range(p), :, range(p)].sum(axis=0) % self.field.modulus
        return self._assemble(blocks, dims)

    def _decode_erasures(
        self, known: list[int], erased: list[int], received: np.ndarray
    ) -> np.ndarray | None:
        """X = L R with R_E filled in from H[:, E] R_E = -H[:, S] R_S; None if not unique."""
        decoder = self._parity_decoder
        if decoder is None:
            return None
        left_inverse, parity = decoder
        q = self.field.modulus
        filled = solve_linear_system(
            self.field,
            parity[:, erased],
            -modmatmul(parity[:, known], received, q),
            require_full_column_rank=True,
        )
        if filled is None:
            return None
        full = np.empty((self.N, received.shape[1]), dtype=self.field.array_dtype)
        full[known] = received
        full[erased] = filled
        return modmatmul(left_inverse, full, q)
