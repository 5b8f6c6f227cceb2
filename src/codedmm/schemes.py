"""Coding schemes for straggler-tolerant distributed A^T B, and the one code interface.

CodingScheme is the base of every code, the vector codes included: worker i
stores one combination of each input's parts, returns the result of one
operation on that pair, and the master decodes the product from any
recovery_threshold() many results through decode, the one decode, which
reads results[w] as worker w's result.  Every code is built through one
of two constructors: CodingScheme(field, gen_a, gen_b), or, for an
evaluation code, InterpolationCode(field, points, gen_a, gen_b, output_map).

Schemes here: the (alpha, beta, theta)-polynomial code, its (1, p, pm)
case, the entangled code, that hits threshold pmn + p - 1, uncoded
round-robin repetition, and random linear combinations.  InterpolationCode
is the one evaluation-code core: the polynomial codes, the bilinear improved
code, the element-wise product code and the convolution code all subclass it.

Each code parameter is checked in one place: CodingScheme._set_partition
refuses partition counts or N below 1 (ValueError), InterpolationCode
refuses points that repeat mod q (DuplicateEvaluationPoint), worker_points
refuses the points 0..N-1 unless q > N (FieldTooSmall), and
GeneralPolynomialCode refuses N below the polynomial family's threshold
(TooFewWorkers).
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
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
    PrimeField, _fresh, canonical_array, combine, lagrange_basis, modmatmul, mulmod, random_elements, vandermonde,
)
from .linalg import solve_linear_system


def worker_multiply(coded_a: MatrixF, coded_b: MatrixF) -> MatrixF:
    """The per-worker computation: transpose product of the stored pair."""
    if coded_a.rows != coded_b.rows:
        raise BlockShapeMismatch(
            f"coded blocks disagree on inner dimension: {coded_a.shape} vs {coded_b.shape}"
        )
    return coded_a.transpose() @ coded_b


def _block_shape(received) -> tuple[int, int]:
    """The (rows, cols) of a matrix code's results; results that are not 2-D blocks raise BlockShapeMismatch."""
    shape = received[0].shape
    if len(shape) != 2:
        raise BlockShapeMismatch(f"worker results of shape {shape} are not 2-D blocks")
    return shape


def worker_points(N: int, field: PrimeField) -> tuple[int, ...]:
    """The evaluation points 0..N-1, which are distinct mod q only for q > N (else FieldTooSmall)."""
    if field.modulus <= N:
        raise FieldTooSmall(f"need q > N, got q={field.modulus}, N={N}")
    return tuple(range(N))


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

    def _set_partition(self, p: int, m: int, n: int, N: int) -> None:
        """Set a matrix code's partition counts p, m, n, refusing them or N below 1 (ValueError)."""
        if min(p, m, n, N) < 1:
            raise ValueError(f"p, m, n, N must all be >= 1, got {p}, {m}, {n}, {N}")
        self.p, self.m, self.n = p, m, n

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
        A worker that subset repeats is read once.  dims, when given, is the
        product's true size used to strip padding: (rows, cols) of A^T B,
        (len(a), len(b)) of a convolution.  The subset is checked first
        (_check_subset), then the results (_result_arrays).
        """
        workers = self._check_subset(subset)
        received, matrices = self._result_arrays(results, workers)
        product = self._decode_received(received, workers, dims)
        return MatrixF._wrap(self.field, product) if matrices else product

    def _result_arrays(self, results, workers: Sequence[int]) -> tuple[Sequence[np.ndarray], bool]:
        """results[w] for each w of workers, as canonical arrays of one shape, and whether all are MatrixF.

        The one reading of worker results: decode, detect_errors and
        correct_errors all pass here.  results is indexed by worker (see
        decode); the rows of a stack are picked with one index, and a worker
        without a result raises MissingResult.  The arrays have the field's
        dtype, so a decoder reduces nothing again.  MatrixF results, alone or
        mixed with arrays, must be over the code's field (else FieldMismatch)
        and are read uncopied through their data, and the pick of an int64
        stack of canonical entries over an int64 field is not copied again.
        Every other pick is reduced at once, and other results one by one,
        through canonical_array, which raises NonIntegerEntry for a
        non-integer entry.  Raises BlockShapeMismatch when the results differ
        in shape.
        """
        if isinstance(results, np.ndarray):
            try:
                picked = results[workers]
            except IndexError:
                raise MissingResult(
                    f"no result from worker {max(workers)} in a stack of shape {results.shape}"
                ) from None
            # the float64 kernel is exact only on canonical int64 entries; as
            # unsigned, a negative entry reads as at least 2^63
            if picked.dtype == self.field.array_dtype == np.int64 and (
                    not picked.size or picked.view(np.uint64).max() < self.field.modulus):
                return picked, False
            return canonical_array(self.field, picked), False
        picked = []
        for w in workers:
            try:
                picked.append(results[w])
            except (KeyError, IndexError):
                raise MissingResult(f"no result from worker {w}") from None
        if any(isinstance(r, MatrixF) and r.field != self.field for r in picked):
            raise FieldMismatch(f"a result is not over the code's {self.field}")
        arrays = [r.data if isinstance(r, MatrixF) else canonical_array(self.field, r) for r in picked]
        matrices = all(isinstance(r, MatrixF) for r in picked)
        if len({r.shape for r in arrays}) > 1:
            raise BlockShapeMismatch("worker results differ in shape")
        return arrays, matrices

    def _check_subset(self, subset: Sequence[int]) -> list[int]:
        """The distinct workers of subset, in order of first appearance.

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
        workers = list(dict.fromkeys(index.tolist()))
        if len(workers) < need:
            raise InsufficientResults(f"got {len(workers)} distinct workers, need {need}")
        return workers

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
        br, bc = _block_shape(parts)
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
    V_S being the Vandermonde matrix at their points.  That map reads only
    the rows of V_S^-1 at the degrees where output_map has a nonzero
    column, so the constructor keeps those degrees and output_map cut to
    them, and a decode asks lagrange_basis for just those rows: 3 of 11 for
    the (3, 3, 1) entangled code; where each part is one coefficient, those
    rows, in the parts' order, are the map itself.  _assemble(weights, parts,
    dims) then builds the product from the parts' combination: A^T B from
    its mn blocks, written in place, the R element-wise products, or the
    overlap-add of K block convolutions.  Every evaluation code is built
    through this constructor, the one code check that the points are
    distinct mod q (else DuplicateEvaluationPoint).
    """

    def __init__(self, field: PrimeField, points: Sequence[int], gen_a: np.ndarray,
                 gen_b: np.ndarray, output_map: np.ndarray):
        if len({x % field.modulus for x in points}) != len(points):
            raise DuplicateEvaluationPoint("evaluation points must be distinct mod q")
        super().__init__(field, gen_a, gen_b)
        self.points = points
        self.output_map = output_map
        # where each part is one coefficient, the decode map is those rows, in order
        select = np.isin(output_map, (0, 1)).all() and (output_map.sum(axis=1) == 1).all()
        self._degrees = tuple((output_map.argmax(axis=1) if select else np.flatnonzero(output_map.any(axis=0))).tolist())
        self._degree_map = None if select else output_map[:, self._degrees]

    def recovery_threshold(self) -> int:
        return self.output_map.shape[1]

    def _decode_received(self, received, workers: list[int], dims):
        """The product, interpolated through the first K workers."""
        first = workers[:self.output_map.shape[1]]
        rows = lagrange_basis(self.field, [self.points[w] for w in first], self._degrees)
        decode_map = rows if self._degree_map is None else modmatmul(self._degree_map, rows, self.field.modulus)
        return self._assemble(decode_map, received[:len(first)], dims)


class GeneralPolynomialCode(InterpolationCode):
    """The (alpha, beta, theta)-polynomial code over the evaluation points x_points.

    Worker i stores the two linear combinations
        A~_i = sum_{j<p, k<m} A[j,k] * x_i^(j*alpha + k*beta)
        B~_i = sum_{j<p, k<n} B[j,k] * x_i^((p-1-j)*alpha + k*theta)
    and the output block C[k, k'] is its product polynomial's coefficient at
    output_degree(k, k').  The exponents must separate the output degrees
    (else DegreeCollision), and N must reach the threshold
    product_degree() + 1 (else TooFewWorkers): the threshold-N regime is
    not constructed here.
    """

    def __init__(self, p: int, m: int, n: int, N: int, alpha: int, beta: int, theta: int,
                 x_points: Sequence[int], field: PrimeField):
        self._set_partition(p, m, n, N)
        if min(alpha, beta, theta) < 0:
            raise ValueError("exponents must be non-negative")
        if len(x_points) != N:
            raise ValueError(f"need {N} evaluation points, got {len(x_points)}")
        self.alpha, self.beta, self.theta = alpha, beta, theta
        self.check_degree_separation()
        threshold = self.product_degree() + 1
        if N < threshold:
            raise TooFewWorkers(f"N={N} < threshold {threshold} for these exponents")
        # G_A[i, j*m + k] = x_i^(j*alpha + k*beta), G_B[i, j*n + k] = x_i^((p-1-j)*alpha + k*theta)
        powers = vandermonde(field, x_points, threshold)
        gen_a = powers[:, [j * alpha + k * beta for j in range(p) for k in range(m)]]
        gen_b = powers[:, [(p - 1 - j) * alpha + k * theta for j in range(p) for k in range(n)]]
        # output block (k, k') is the product polynomial's coefficient at its output degree
        degrees = [self.output_degree(k, kp) for k in range(m) for kp in range(n)]
        output_map = np.eye(threshold, dtype=field.array_dtype)[degrees]
        super().__init__(field, x_points, gen_a, gen_b, output_map)

    def product_degree(self) -> int:
        """Highest exponent appearing in a worker's product polynomial."""
        return (2 * self.p - 2) * self.alpha + (self.m - 1) * self.beta + (self.n - 1) * self.theta

    def output_degree(self, k: int, kp: int) -> int:
        """Degree whose coefficient is the output block C[k, kp]."""
        return (self.p - 1) * self.alpha + k * self.beta + kp * self.theta

    def check_degree_separation(self):
        """Verify each needed degree is hit only by its aligned product terms.

        The product polynomial's x^e coefficient aggregates every pair
        (j, k) x (j', k') with e = (p-1+j-j')*alpha + k*beta + k'*theta; the
        code is decodable only if, at each output degree, all contributing
        pairs have j = j' and the output's own (k, k').
        """
        needed = {self.output_degree(k, kp): (k, kp) for k in range(self.m) for kp in range(self.n)}
        if len(needed) != self.m * self.n:
            raise DegreeCollision("two output blocks share one degree")
        js, ks, kps = range(self.p), range(self.m), range(self.n)
        for j, jp, k, kp in itertools.product(js, js, ks, kps):
            tgt = needed.get(self.output_degree(k, kp) + (j - jp) * self.alpha)
            if tgt is not None and (j != jp or (k, kp) != tgt):
                raise DegreeCollision(
                    f"term (j={j},k={k},j'={jp},k'={kp}) lands on the degree of output block {tgt}"
                )


class EntangledCode(GeneralPolynomialCode):
    """The (1, p, pm) polynomial code over the points 0..N-1; threshold pmn + p - 1."""

    def __init__(self, p: int, m: int, n: int, N: int, field: PrimeField):
        super().__init__(p, m, n, N, 1, p, p * m, worker_points(N, field), field)


class UncodedRepetitionCode(CodingScheme):
    """Round-robin replication of the pmn sub-products.

    Worker w computes task w mod pmn, where task t = (j, k, k') contributes
    A[j,k]^T B[j,k'] to output block (k, k').  Any
    N - floor(N / pmn) + 1 results are guaranteed to cover every task.
    """

    def __init__(self, p: int, m: int, n: int, N: int, field: PrimeField):
        self._set_partition(p, m, n, N)
        tasks = p * m * n
        if N < tasks:
            raise TooFewWorkers(f"N={N} < pmn={tasks}")
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
        br, bc = _block_shape(received)
        by_task = received[[first[t] for t in range(self.num_tasks)]].reshape(self.n * self.m, self.p, br * bc)
        ones = np.ones((1, self.p), dtype=self.field.array_dtype)
        blocks = modmatmul(ones, by_task, self.field.modulus).reshape(self.n, self.m, br, bc)
        return assemble_array(blocks.swapaxes(0, 1), dims)


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
        self._set_partition(p, m, n, N)
        unknowns = p * p * m * n
        if N < unknowns:
            raise TooFewWorkers(f"N={N} < p^2mn={unknowns}")
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
        gen = mulmod(self.gen_a[:, :, None], self.gen_b[:, None, :], q).reshape(N, -1)
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
        aligned = inverse.reshape(p, m, p, n, unknowns)[range(p), :, range(p)].reshape(p, -1)
        self._output_map = modmatmul(np.ones((1, p), dtype=field.array_dtype), aligned, q).reshape(m * n, unknowns)

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
        br, bc = _block_shape(received)
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
