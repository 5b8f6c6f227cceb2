"""Coding schemes for straggler-tolerant distributed A^T B, and the one code interface.

CodingScheme is the base of every code, the vector codes included: worker i
stores one combination of each input's parts, returns the result of one
operation on that pair, and the master decodes the product from any
recovery_threshold() many results.  Every code is built through one of two
constructors: CodingScheme(field, gen_a, gen_b), or, for an evaluation
code, InterpolationCode(field, points, gen_a, gen_b, output_map).

Schemes here: the exponent-parameterized polynomial code family, its
(1, p, pm) instantiation that hits threshold pmn + p - 1, uncoded
round-robin repetition, and random linear combinations.  InterpolationCode
is the one evaluation-code core: the polynomial codes, the bilinear improved
code, the element-wise product code and the convolution code all subclass it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .blocks import MatrixF, assemble_array, grid_blocks, padded_blocks
from .errors import (
    BlockShapeMismatch,
    DegreeCollision,
    DuplicateEvaluationPoint,
    FieldMismatch,
    FieldTooSmall,
    InsufficientResults,
    MissingResult,
    SingularDecodeSystem,
    TooFewWorkers,
    UnknownWorker,
)
from .field import (
    PrimeField, _fresh, canonical_array, combine, lagrange_basis, modmatmul, random_elements, vandermonde,
)
from .linalg import solve_linear_system


def worker_multiply(coded_a: MatrixF, coded_b: MatrixF) -> MatrixF:
    """The per-worker computation: transpose product of the stored pair."""
    if coded_a.rows != coded_b.rows:
        raise BlockShapeMismatch(
            f"coded blocks disagree on inner dimension: {coded_a.shape} vs {coded_b.shape}"
        )
    return coded_a.transpose() @ coded_b


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
        p, a, b, t = self.p, self.alpha, self.beta, self.theta
        powers = vandermonde(self.field, self.x_points, self.product_degree() + 1)
        gen_a = powers[:, [j * a + k * b for j in range(p) for k in range(self.m)]]
        gen_b = powers[:, [(p - 1 - j) * a + k * t for j in range(p) for k in range(self.n)]]
        return gen_a, gen_b

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

    Every code is linear: worker i stores sum_t gen_a[i, t] * (part t of A)
    and likewise for B.  Per code, _split cuts an input into the parts (by
    default the p x m, or p x n, blocks of a MatrixF in row-major order) and
    _work runs every worker's operation on the coded stacks (by default the
    block products A~^T B~), so encoding is one combine of a generator with
    the parts.  Every code is built through this constructor, which sets
    field, gen_a, gen_b and N = len(gen_a), the number of workers.
    """

    def __init__(self, field: PrimeField, gen_a: np.ndarray, gen_b: np.ndarray):
        self.field = field
        self.gen_a, self.gen_b = gen_a, gen_b
        self.N = len(gen_a)

    @abstractmethod
    def recovery_threshold(self) -> int:
        """Minimum number of worker results that always suffices to decode."""

    def _split(self, matrix, count: int):
        """The count = p x (m or n) zero-padded blocks of matrix, a MatrixF or integer array, row-major."""
        if not isinstance(matrix, MatrixF):
            matrix = MatrixF(self.field, matrix)
        elif matrix.field != self.field:
            raise FieldMismatch(f"input over {matrix.field}, code over {self.field}")
        return grid_blocks(padded_blocks(matrix, self.p, count // self.p))

    def _work(self, coded_a: np.ndarray, coded_b: np.ndarray) -> np.ndarray:
        """Every worker's result from the stacked coded pairs: the block products A~^T B~."""
        return modmatmul(coded_a.swapaxes(1, 2), coded_b, self.field.modulus)

    def _encode(self, x, weights: np.ndarray) -> np.ndarray:
        """(len(weights), *part shape) stack whose [i] is sum_t weights[i, t] * (part t of x)."""
        return combine(self.field, weights, self._split(x, weights.shape[1]))

    def fewest_results(self) -> int:
        """Smallest subset size that can decode at all."""
        return self.recovery_threshold()

    def decode(
        self,
        results: Mapping | Sequence,
        subset: Sequence[int],
        dims: tuple[int, int] | None = None,
    ):
        """The product from the results of the workers in `subset`.

        results is indexed by worker, results[w] the result of worker w: a
        mapping, a list, or the worker_products stack.  Results are MatrixF,
        which decode to a MatrixF, or arrays of any integer representatives.
        dims, when given, is the product's true size used to strip padding:
        (rows, cols) of A^T B, (len(a), len(b)) of a convolution.  The
        subset is checked first (_check_subset), then the results:
        MissingResult for a worker without one, then the errors of
        _result_arrays.
        """
        first = self._check_subset(subset)
        picked = []
        for w in first:
            try:
                picked.append(results[w])
            except (KeyError, IndexError):
                raise MissingResult(f"no result from worker {w}") from None
        received, matrices = self._result_arrays(picked)
        product = self._decode_received(received, list(first), dims)
        return MatrixF._wrap(self.field, product) if matrices else product

    def _result_arrays(self, results) -> tuple[Sequence[np.ndarray], bool]:
        """results as canonical arrays of the field's dtype and one shape, and whether every result is a MatrixF.

        Every worker result passes here before a decoder or repair reads
        it.  MatrixF results must be over the code's field (else
        FieldMismatch) and are taken uncopied, and so is an int64 stack of
        canonical entries over an int64 field.  Every other stack is reduced
        at once, and other results one by one, through canonical_array,
        which raises NonIntegerEntry for a non-integer entry.  Raises
        BlockShapeMismatch when the results differ in shape.
        """
        if isinstance(results, np.ndarray):
            # the float64 kernel is exact only on canonical int64 entries; as
            # unsigned, a negative entry reads as at least 2^63
            if results.dtype == self.field.array_dtype == np.int64 and (
                    not results.size or results.view(np.uint64).max() < self.field.modulus):
                return results, False
            return canonical_array(self.field, results), False
        matrices = all(isinstance(r, MatrixF) for r in results)
        if matrices:
            if any(r.field != self.field for r in results):
                raise FieldMismatch(f"a result is not over the code's {self.field}")
            arrays = [r.data for r in results]
        else:
            arrays = [canonical_array(self.field, r) for r in results]
        if len({r.shape for r in arrays}) > 1:
            raise BlockShapeMismatch("worker results differ in shape")
        return arrays, matrices

    def decode_received(
        self,
        received: np.ndarray,
        subset: Sequence[int],
        dims: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """The product as an array, from received[i], the result of worker subset[i].

        received is the (len(subset), *result shape) stack of results, such
        as worker_products(a, b)[subset], or a list of them; its entries may
        be any integer representatives of their field elements.  A worker
        that subset repeats is decoded from its first result.  The subset is
        checked first (_check_subset), then the stack: BlockShapeMismatch
        for a stack of another length, then the errors of _result_arrays on
        the rows that decode.
        """
        first = self._check_subset(subset)
        if len(received) != len(subset):
            raise BlockShapeMismatch(f"{len(received)} results for {len(subset)} workers")
        if len(first) < len(subset):
            received = [received[i] for i in first.values()]
        return self._decode_received(self._result_arrays(received)[0], list(first), dims)

    def _check_subset(self, subset: Sequence[int]) -> dict[int, int]:
        """Each distinct worker of subset, in order of first appearance, with the position of its first result.

        Raises InsufficientResults below fewest_results() results, then
        UnknownWorker for an index outside [0, N) or a subset that is not
        one-dimensional, a ragged one included, then InsufficientResults
        below fewest_results() distinct workers.
        """
        need = self.fewest_results()
        if len(subset) < need:
            raise InsufficientResults(f"got {len(subset)} results, need {need}")
        try:
            index = np.asarray(subset)
        except ValueError:  # a ragged subset
            raise UnknownWorker(f"subset is not a sequence of worker indices: {subset!r}") from None
        if index.ndim != 1 or index.dtype.kind not in "iu" or index.min() < 0 or index.max() >= self.N:
            raise UnknownWorker(f"worker index out of range for N={self.N} in {index.tolist()}")
        first: dict[int, int] = {}
        for row, w in enumerate(index.tolist()):
            first.setdefault(w, row)
        if len(first) < need:
            raise InsufficientResults(f"got {len(first)} distinct workers, need {need}")
        return first

    @abstractmethod
    def _decode_received(
        self, received, workers: list[int], dims: tuple[int, int] | None
    ) -> np.ndarray:
        """The product from received[i], the result of workers[i].

        The workers are distinct and at least fewest_results() many.
        received is what _result_arrays returns: one stack of results or a
        sequence of equal-shape ones, canonical entries of the field's dtype.
        """

    def _assemble(self, weights: np.ndarray, parts, dims: tuple[int, int] | None) -> np.ndarray:
        """A^T B cut to dims, whose m x n output blocks, in row-major order, are combine(weights, parts).

        The blocks are combined straight into the assembled product.
        """
        br, bc = parts[0].shape
        blocks = _fresh((self.m, br, self.n, bc), self.field.array_dtype).swapaxes(1, 2)
        combine(self.field, weights, parts, out=grid_blocks(blocks))
        return assemble_array(blocks, dims)

    def encode_all(self, a, b) -> list[tuple]:
        """Coded pairs for every worker (splits the inputs only once).

        The pairs are MatrixF for MatrixF inputs, else arrays.
        """
        coded_a, coded_b = self._encode(a, self.gen_a), self._encode(b, self.gen_b)
        if isinstance(a, MatrixF):
            return [(MatrixF._wrap(self.field, ca), MatrixF._wrap(self.field, cb))
                    for ca, cb in zip(coded_a, coded_b)]
        return list(zip(coded_a, coded_b))

    def worker_products(self, a, b) -> np.ndarray:
        """Every worker's result as one (N, *result shape) stack.

        For a matrix code, entry i equals worker_multiply(*self.encode_all(a, b)[i]).data.
        """
        return self._work(self._encode(a, self.gen_a), self._encode(b, self.gen_b))


class InterpolationCode(CodingScheme):
    """An evaluation code: worker w returns h(points[w]) for one product polynomial h.

    h has degree < K, the number of columns of output_map, and the product's
    parts are output_map @ (h's coefficients), so the results of any K
    workers S, of any shape, decode through the one map output_map V_S^-1,
    V_S being the Vandermonde matrix at their points.  _assemble(weights,
    parts, dims) then builds the product from the parts' combination: A^T B
    from its mn blocks, written in place, the R element-wise products, or
    the overlap-add of K block convolutions.  Every evaluation code is
    built through this constructor, the one code check that the points are
    distinct mod q (else DuplicateEvaluationPoint).
    """

    def __init__(self, field: PrimeField, points: Sequence[int], gen_a: np.ndarray,
                 gen_b: np.ndarray, output_map: np.ndarray):
        if len({x % field.modulus for x in points}) != len(points):
            raise DuplicateEvaluationPoint("evaluation points must be distinct mod q")
        super().__init__(field, gen_a, gen_b)
        self.points = points
        self.output_map = output_map

    def recovery_threshold(self) -> int:
        return self.output_map.shape[1]

    def _decode_received(self, received, workers: list[int], dims):
        """The product, interpolated through the first K workers."""
        k_need = self.output_map.shape[1]
        basis = lagrange_basis(self.field, [self.points[w] for w in workers[:k_need]])
        decode_map = modmatmul(self.output_map, basis, self.field.modulus)
        return self._assemble(decode_map, received[:k_need], dims)


class GeneralPolynomialCode(InterpolationCode):
    """Polynomial code for an arbitrary valid exponent choice."""

    def __init__(self, spec: PolynomialCodeSpec):
        spec.check_degree_separation()
        if spec.N < spec.product_degree() + 1:
            raise TooFewWorkers(
                f"N={spec.N} < threshold {spec.product_degree() + 1} for these exponents"
            )
        self.spec = spec
        self.p, self.m, self.n = spec.p, spec.m, spec.n
        # output block (k, k') is the product polynomial's coefficient at its output degree
        degrees = [spec.output_degree(k, kp) for k in range(self.m) for kp in range(self.n)]
        output_map = np.eye(spec.product_degree() + 1, dtype=spec.field.array_dtype)[degrees]
        super().__init__(spec.field, spec.x_points, *spec.generators(), output_map)


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
        self.p, self.m, self.n = p, m, n
        self.num_tasks = tasks
        # unit generator rows: worker w stores A[j,k] and B[j,k'] of its task
        gen_a = np.zeros((N, p * m), dtype=field.array_dtype)
        gen_b = np.zeros((N, p * n), dtype=field.array_dtype)
        for w in range(N):
            t = w % tasks
            j, k, kp = t % p, (t // p) % m, t // (p * m)
            gen_a[w, j * m + k] = 1
            gen_b[w, j * n + kp] = 1
        super().__init__(field, gen_a, gen_b)

    def recovery_threshold(self) -> int:
        return self.N - self.N // self.num_tasks + 1

    def fewest_results(self) -> int:
        return self.num_tasks

    def _decode_received(
        self, received: np.ndarray, workers: list[int], dims: tuple[int, int] | None
    ) -> np.ndarray:
        first: dict[int, int] = {}  # task -> row of its first result
        for row, w in enumerate(workers):
            first.setdefault(w % self.num_tasks, row)
        missing = self.num_tasks - len(first)
        if missing:
            raise InsufficientResults(f"{missing} of {self.num_tasks} sub-products missing")
        # task (j, k, k') is j + k*p + k'*pm; output block (k, k') sums over j
        received = np.asarray(received)
        by_task = received[[first[t] for t in range(self.num_tasks)]].reshape(
            self.n, self.m, self.p, *received.shape[1:]
        )
        blocks = by_task.sum(axis=2).swapaxes(0, 1) % self.field.modulus
        return assemble_array(blocks, dims)


class RandomLinearCode(CodingScheme):
    """Uniformly random linear combinations on both sides.

    Each result is a random combination of all p^2·mn pairwise block
    products, so any p^2·mn results suffice with high probability, and a
    singular draw is reported rather than hidden (callers wait for one more
    worker and retry).

    The results form a linear code, R = G X, with G the N x p^2mn product
    generator and X the stacked pairwise products, decoded in systematic
    form.  The information set I is the first p^2mn linearly independent
    rows of G; in the variables Y = G[I] X the results are R = G' Y with
    G' = G G[I]^-1, whose rows at I are the identity, and the output blocks
    are Omega' Y.  The workers S give Y at I & S outright, and Y at I - S
    solves G'[S - I, I - S] Y[I - S] = R[S - I] - G'[S - I, I & S] R[I & S]:
    |I - S| <= N - |S| pivots over |S - I| <= N - p^2mn rows.  That is the
    system G[S] X = R_S after an invertible change of variables, so it fails
    on the same subsets (G[S] below rank p^2mn, or results that fit no
    codeword) and otherwise gives the same product.
    """

    def __init__(self, p: int, m: int, n: int, N: int, field: PrimeField, seed: int = 0):
        unknowns = p * p * m * n
        if N < unknowns:
            raise TooFewWorkers(f"N={N} < p^2mn={unknowns}")
        self.p, self.m, self.n = p, m, n
        self.seed = seed
        rng = np.random.default_rng(seed)
        q = field.modulus
        super().__init__(
            field,
            np.array(random_elements(rng, q, (N, p * m)), dtype=field.array_dtype),
            np.array(random_elements(rng, q, (N, p * n)), dtype=field.array_dtype),
        )
        # row w: result_w = sum over pairs ((j,k),(j',k')) of
        #        gen_a[w,(j,k)] * gen_b[w,(j',k')] * (A[j,k]^T B[j',k'])
        gen = (self.gen_a[:, :, None] * self.gen_b[:, None, :] % q).reshape(N, -1)
        # G^T Z = I is solvable exactly when rank G = p^2mn; free variables
        # come back zero, so Z's nonzero rows are I and Z[I]^T = G[I]^-1
        solved = solve_linear_system(field, gen.T, np.eye(unknowns, dtype=np.int64))
        self._info_pos = None  # worker -> its position in I, or -1
        if solved is None:
            return
        info = np.flatnonzero(solved.any(axis=1))
        inverse = solved[info].T
        self._info_pos = np.full(N, -1)
        self._info_pos[info] = np.arange(unknowns)
        self._systematic = modmatmul(gen, inverse, q)
        # output block (k, k') sums the aligned products A[j,k]^T B[j,k'] over j
        aligned = inverse.reshape(p, m, p, n, unknowns)[range(p), :, range(p)]
        self._output_map = aligned.sum(axis=0).reshape(m * n, unknowns) % q

    def recovery_threshold(self) -> int:
        return self.p * self.p * self.m * self.n

    def _decode_received(
        self, received: np.ndarray, workers: list[int], dims: tuple[int, int] | None
    ) -> np.ndarray:
        if self._info_pos is None:
            raise SingularDecodeSystem("G has rank below p^2mn: no subset decodes")
        where = self._info_pos[workers]
        inside = where >= 0
        received = np.asarray(received)
        br, bc = received.shape[1:]
        flat = received.reshape(len(received), -1)
        q = self.field.modulus
        # Y is R at I & S, and zero at I - S until solved for
        y = np.zeros((self.recovery_threshold(), br * bc), dtype=self.field.array_dtype)
        y[where[inside]] = flat[inside]
        absent = np.ones(len(y), dtype=bool)
        absent[where[inside]] = False
        coeffs = self._systematic[np.asarray(workers)[~inside]]
        solved = solve_linear_system(
            self.field,
            coeffs[:, absent],
            flat[~inside] - modmatmul(coeffs, y, q),
            require_full_column_rank=True,
        )
        if solved is None:
            raise SingularDecodeSystem(
                f"no unique decode from this subset of {len(workers)} workers: "
                "the coefficient matrix is rank-deficient or the results are inconsistent"
            )
        y[absent] = solved
        blocks = modmatmul(self._output_map, y, q)
        return assemble_array(blocks.reshape(self.m, self.n, br, bc), dims)
