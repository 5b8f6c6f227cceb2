"""Tests for the polynomial, uncoded-repetition, and random linear schemes."""

from itertools import combinations

import numpy as np
import pytest

from codedmm.bilinear import (
    ElementwiseProductCode,
    ImprovedBilinearCode,
    standard_construction,
    strassen_construction,
)
from codedmm.blocks import MatrixF
from codedmm.errors import (
    BlockShapeMismatch,
    CodedmmError,
    DegreeCollision,
    FieldMismatch,
    FieldTooSmall,
    InsufficientResults,
    MissingResult,
    NonIntegerEntry,
    SingularDecodeSystem,
    TooFewWorkers,
    UnknownWorker,
)
from codedmm.field import PrimeField, interpolate_arrays, modmatmul
from codedmm.linalg import solve_linear_system
from codedmm.schemes import (
    EntangledCode,
    GeneralPolynomialCode,
    RandomLinearCode,
    UncodedRepetitionCode,
    worker_multiply,
)

from oracles import block_grid, elementwise_product, oracle_product, random_matrix, rank_mod


def run_workers(scheme, a, b):
    return {i: worker_multiply(ca, cb) for i, (ca, cb) in enumerate(scheme.encode_all(a, b))}


class TestGeneralPolyEncode:
    def test_half_split_formulas(self, gf7):
        # (alpha, beta, theta) = (1, p, pm) with p=2, m=n=1:
        # A~_i = A0 + i A1 and B~_i = i B0 + B1
        code = EntangledCode(2, 1, 1, 5, gf7)
        a, b = MatrixF(gf7, [[1], [2]]), MatrixF(gf7, [[3], [4]])
        for i, (ca, cb) in enumerate(code.encode_all(a, b)):
            assert int(ca.data[0, 0]) == (1 + i * 2) % 7
            assert int(cb.data[0, 0]) == (i * 3 + 4) % 7

    def test_x_zero_keeps_only_corner_block(self, gf65537, rng):
        code = EntangledCode(2, 2, 2, 11, gf65537)
        a = random_matrix(gf65537, 4, 4, rng)
        b = random_matrix(gf65537, 4, 4, rng)
        ca, cb = code.encode_all(a, b)[0]
        assert ca == block_grid(a, 2, 2)[0][0]
        # B's exponent (p-1-j) vanishes at j = p-1 instead
        assert cb == block_grid(b, 2, 2)[1][0]

    def test_encoding_linearity(self, gf65537, rng):
        code = EntangledCode(2, 2, 1, 9, gf65537)
        a1 = random_matrix(gf65537, 4, 4, rng)
        a2 = random_matrix(gf65537, 4, 4, rng)
        for i in (0, 3, 8):
            lhs = code.encode_all(a1 + a2, a1)[i][0]
            rhs = code.encode_all(a1, a1)[i][0] + code.encode_all(a2, a2)[i][0]
            assert lhs == rhs


class TestEntangledSpec:
    def test_threshold_examples(self, gf65537):
        assert EntangledCode(2, 1, 1, 5, gf65537).recovery_threshold() == 3
        assert EntangledCode(3, 3, 1, 12, gf65537).recovery_threshold() == 11
        # p = 1 reduces to the column-split code with threshold mn
        assert EntangledCode(1, 3, 4, 12, gf65537).recovery_threshold() == 12

    def test_too_few_workers(self, gf65537):
        with pytest.raises(TooFewWorkers):
            EntangledCode(2, 2, 2, 8, gf65537)  # threshold 9

    def test_field_too_small(self, gf7):
        with pytest.raises(FieldTooSmall):
            EntangledCode(2, 1, 1, 7, gf7)

    def test_degree_separation_holds_for_entangled(self, gf65537):
        for p, m, n in ((1, 1, 1), (2, 3, 2), (4, 1, 3), (3, 3, 3)):
            code = EntangledCode(p, m, n, p * m * n + p - 1, gf65537)
            code.check_degree_separation()  # must not raise

    def test_colliding_exponents_rejected(self, gf65537):
        # beta = alpha folds distinct blocks onto the same degree
        with pytest.raises(DegreeCollision):
            GeneralPolynomialCode(
                p=2, m=2, n=1, N=10, alpha=1, beta=1, theta=4,
                x_points=tuple(range(10)), field=gf65537,
            )


class TestWorkerMultiply:
    def test_worked_example(self, gf7):
        # A blocks [1],[2], B blocks [3],[4], worker 2: A~=5, B~=3, product 1
        code = EntangledCode(2, 1, 1, 5, gf7)
        ca, cb = code.encode_all(MatrixF(gf7, [[1], [2]]), MatrixF(gf7, [[3], [4]]))[2]
        assert (int(ca.data[0, 0]), int(cb.data[0, 0])) == (5, 3)
        assert int(worker_multiply(ca, cb).data[0, 0]) == 1

    def test_zero_block(self, gf7):
        z = MatrixF(gf7, [[0], [0]])
        v = MatrixF(gf7, [[3], [4]])
        assert not worker_multiply(z, v).data.any()

    def test_identity_blocks(self, gf7):
        eye = MatrixF(gf7, [[1, 0], [0, 1]])
        assert worker_multiply(eye, eye) == eye


BATCHED = {
    "entangled": lambda f: EntangledCode(2, 2, 1, 6, f),
    "general-poly": lambda f: GeneralPolynomialCode(
        p=2, m=2, n=1, N=6, alpha=2, beta=1, theta=6, x_points=tuple(range(6)), field=f,
    ),
    "uncoded": lambda f: UncodedRepetitionCode(2, 2, 1, 6, f),
    "random-linear": lambda f: RandomLinearCode(2, 2, 1, 8, f, seed=3),
    "improved": lambda f: ImprovedBilinearCode(standard_construction(2, 1, 1), 5, f),
}


# every matrix code that takes partition counts, from (p, m, n, N) and its field
COUNTED = {
    "entangled": EntangledCode,
    "general-poly": lambda p, m, n, N, f: GeneralPolynomialCode(
        p, m, n, N, alpha=1, beta=1, theta=1, x_points=tuple(range(N)), field=f,
    ),
    "uncoded": UncodedRepetitionCode,
    "random-linear": RandomLinearCode,
}


@pytest.mark.parametrize("counts", [(0, 1, 1, 5), (1, 0, 1, 5), (1, 1, 0, 5), (1, 1, 1, 0), (-1, 2, 2, 5)])
@pytest.mark.parametrize("name", sorted(COUNTED))
def test_counts_below_one_are_refused(name, counts, gf65537):
    # one check for every code: no ZeroDivisionError, and no code built with threshold 0
    with pytest.raises(ValueError, match="p, m, n, N must all be >= 1"):
        COUNTED[name](*counts, gf65537)


class TestWorkerProducts:
    @pytest.mark.parametrize("q", [7, 65537, 2097143, (1 << 61) - 1])
    @pytest.mark.parametrize("name", sorted(BATCHED))
    def test_equals_per_worker_loop(self, name, q, rng):
        # 5 x 3 and 5 x 2 inputs leave every block grid padded
        field = PrimeField(q)
        scheme = BATCHED[name](field)
        a, b = random_matrix(field, 5, 3, rng), random_matrix(field, 5, 2, rng)
        got = scheme.worker_products(a, b)
        want = [worker_multiply(ca, cb).data for ca, cb in scheme.encode_all(a, b)]
        assert isinstance(got, np.ndarray)
        assert got.shape == (scheme.N, *want[0].shape)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
            assert g.dtype == w.dtype
            assert [type(v) for v in g.flat] == [type(v) for v in w.flat]


@pytest.mark.parametrize("q", [65537, (1 << 61) - 1])
@pytest.mark.parametrize("name", sorted(BATCHED))
def test_encoding_leaves_the_inputs_alone(name, q, rng):
    # 4 x 4 and 4 x 2 inputs split evenly, so the blocks encoded are views of them
    field = PrimeField(q)
    scheme = BATCHED[name](field)
    a, b = random_matrix(field, 4, 4, rng), random_matrix(field, 4, 2, rng)
    a_before, b_before = a.data.copy(), b.data.copy()
    outputs = [scheme.worker_products(a, b)]
    outputs += [m.data for pair in scheme.encode_all(a, b) for m in pair]
    for out in outputs:
        assert not np.shares_memory(out, a.data)
        assert not np.shares_memory(out, b.data)
    assert np.array_equal(a.data, a_before) and np.array_equal(b.data, b_before)


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_inputs_over_another_field_rejected(name, gf7, gf65537, rng):
    # GF(7) inputs to a GF(65537) code would decode to their product mod 65537
    scheme = BATCHED[name](gf65537)
    a, b = random_matrix(gf7, 5, 3, rng), random_matrix(gf7, 5, 2, rng)
    good_a, good_b = random_matrix(gf65537, 5, 3, rng), random_matrix(gf65537, 5, 2, rng)
    for call in (lambda: scheme.encode_all(a, good_b), lambda: scheme.encode_all(good_a, b),
                 lambda: scheme.worker_products(a, b)):
        with pytest.raises(FieldMismatch):
            call()


class TestDecodeEntryPoint:
    """decode reads results[w] for each distinct worker w of the subset, then decodes."""

    @pytest.mark.parametrize("q", [7, 65537, (1 << 61) - 1])
    @pytest.mark.parametrize("name", sorted(BATCHED))
    def test_the_stack_decodes_as_matrixf_results_do(self, name, q, rng):
        field = PrimeField(q)
        scheme = BATCHED[name](field)
        a, b = random_matrix(field, 5, 3, rng), random_matrix(field, 5, 2, rng)
        stack = scheme.worker_products(a, b)
        results = {w: MatrixF._wrap(field, blk) for w, blk in enumerate(stack)}
        k, n = scheme.recovery_threshold(), scheme.N
        subsets = [tuple(range(k)), tuple(range(n - 1, n - 1 - k, -1)), tuple(range(n)),
                   tuple(range(k)) + (0,)]
        for sub in subsets:
            for index in (sub, np.array(sub)):
                try:
                    want = scheme.decode(results, sub, dims=(3, 2))
                except SingularDecodeSystem:
                    with pytest.raises(SingularDecodeSystem):
                        scheme.decode(stack, index, dims=(3, 2))
                    continue
                got = scheme.decode(stack, index, dims=(3, 2))
                assert isinstance(got, np.ndarray)
                assert got.dtype == want.data.dtype
                assert np.array_equal(got, want.data)
                assert want == oracle_product(a, b)

    @pytest.mark.parametrize("name", sorted(BATCHED))
    def test_decode_takes_results_indexed_by_worker(self, name, gf65537, rng):
        # a mapping, a list or the worker_products stack: results[w] is worker w's
        scheme = BATCHED[name](gf65537)
        a, b = random_matrix(gf65537, 5, 3, rng), random_matrix(gf65537, 5, 2, rng)
        stack = scheme.worker_products(a, b)
        subset = list(range(scheme.N - scheme.recovery_threshold(), scheme.N))
        for results in (dict(enumerate(stack)), list(stack), stack):
            got = scheme.decode(results, subset, dims=(3, 2))
            assert np.array_equal(got, oracle_product(a, b).data)
        for short in (list(stack[:-1]), stack[:-1]):
            with pytest.raises(MissingResult):
                scheme.decode(short, subset, dims=(3, 2))

    @pytest.mark.parametrize("name", sorted(BATCHED))
    def test_decode_takes_matrixf_and_arrays_mixed(self, name, gf7, gf65537, rng):
        # a MatrixF over the code's field among array results is read through
        # its data; one over another field is refused as a field mismatch
        scheme = BATCHED[name](gf65537)
        a, b = random_matrix(gf65537, 5, 3, rng), random_matrix(gf65537, 5, 2, rng)
        stack = scheme.worker_products(a, b)
        subset = list(range(scheme.N))
        mixed = {**dict(enumerate(stack)), 0: MatrixF(gf65537, stack[0])}
        got = scheme.decode(mixed, subset, dims=(3, 2))
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, oracle_product(a, b).data)
        foreign = {**mixed, 1: MatrixF(gf7, stack[1] % 7)}
        with pytest.raises(FieldMismatch):
            scheme.decode(foreign, subset, dims=(3, 2))

    @pytest.mark.parametrize("name", sorted(BATCHED))
    def test_error_order(self, name, gf7, gf65537, rng):
        # one sequence for a mapping and for the stack: the subset is checked
        # in full before any result, a missing result before the results' entries
        scheme = BATCHED[name](gf65537)
        results = run_workers(scheme, random_matrix(gf65537, 5, 3, rng), random_matrix(gf65537, 5, 2, rng))
        floats = {w: r.data.astype(np.float64) + 0.5 for w, r in results.items()}
        stack = np.stack(list(floats.values()))  # no entry an integer
        foreign = {**results, 0: random_matrix(gf7, *results[0].shape, rng)}
        missing = {w: r for w, r in foreign.items() if w != 1}
        misshapen = {**results, 2: MatrixF.zeros(gf65537, *(d + 1 for d in results[2].shape))}
        n, unknown = scheme.N, scheme.N + 3
        every = list(range(n))
        cases = [
            (InsufficientResults, missing, [1, unknown], stack),
            # worker 1 has no result, but the unknown index is reported first
            (UnknownWorker, missing, every + [unknown], stack),
            (InsufficientResults, missing, [1] * n, stack),
            (MissingResult, missing, every, stack[:-1]),
            (BlockShapeMismatch, misshapen, every, None),
            (FieldMismatch, foreign, every, None),
            (NonIntegerEntry, floats, every, stack),
        ]
        for error, mapping, subset, received in cases:
            with pytest.raises(error):
                scheme.decode(mapping, subset)
            if received is not None:
                with pytest.raises(error):
                    scheme.decode(received, subset)


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_malformed_shapes_are_refused(name, gf65537, rng):
    # dims that are not two integers, and results that are not 2-D blocks
    # (scalars or vectors), are refused by type; numpy integers are integers
    scheme = BATCHED[name](gf65537)
    a, b = random_matrix(gf65537, 5, 3, rng), random_matrix(gf65537, 5, 2, rng)
    stack = scheme.worker_products(a, b)
    subset = list(range(scheme.N))
    for dims in ((1.5, 2), (1,), (1, 2, 3), 3, "32"):
        with pytest.raises(BlockShapeMismatch):
            scheme.decode(stack, subset, dims=dims)
    flat = stack.reshape(scheme.N, -1)
    for results in (flat[:, 0], flat, dict(enumerate(flat))):
        with pytest.raises(BlockShapeMismatch):
            scheme.decode(results, subset)
    got = scheme.decode(stack, subset, dims=(np.int64(3), np.uint8(2)))
    assert np.array_equal(got, oracle_product(a, b).data)


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_decode_takes_any_representative(name, gf65537, rng):
    # results shifted by multiples of q up to 2^30 q (entries near 2^46, both
    # signs) are the same field elements and must decode to the same product
    scheme = BATCHED[name](gf65537)
    a, b = random_matrix(gf65537, 5, 3, rng), random_matrix(gf65537, 5, 2, rng)
    stack = scheme.worker_products(a, b)
    draw = np.random.default_rng(5)
    shifted = stack + 65537 * draw.integers(-(1 << 30), 1 << 30, size=stack.shape)
    subset = sorted(draw.choice(scheme.N, scheme.recovery_threshold(), replace=False).tolist())
    got = scheme.decode(shifted, subset, dims=(3, 2))
    assert np.array_equal(got, oracle_product(a, b).data)



@pytest.mark.parametrize("name", sorted(BATCHED))
def test_decode_refuses_a_float_stack(name, gf65537, rng):
    # an entry 0.9 off its field element must not be truncated into a wrong product
    scheme = BATCHED[name](gf65537)
    stack = scheme.worker_products(random_matrix(gf65537, 5, 3, rng), random_matrix(gf65537, 5, 2, rng))
    subset = list(range(scheme.N))
    floats = stack.astype(np.float64)
    floats[1, 0, 0] += 0.9
    # an object stack is checked too, as a stack and as a mapping
    objects = stack.astype(object)
    objects[1, 0, 0] += 0.5
    for bad in (floats, objects):
        with pytest.raises(NonIntegerEntry):
            scheme.decode(bad, subset, dims=(3, 2))
        with pytest.raises(NonIntegerEntry):
            scheme.decode(dict(enumerate(bad)), subset, dims=(3, 2))


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_int64_stack_over_an_object_field(name, rng):
    # at q near 2^63 every entry fits int64 but a sum of two does not: an
    # int64 stack is taken as the field's Python ints, not summed in int64.
    # Small entries times entries near -1 give results near q.
    field = PrimeField((1 << 63) - 25)
    scheme = BATCHED[name](field)
    a = MatrixF(field, [[1 + rng.randrange(3) for _ in range(3)] for _ in range(5)])
    b = MatrixF(field, [[-1 - rng.randrange(3) for _ in range(2)] for _ in range(5)])
    stack = scheme.worker_products(a, b).astype(np.int64)
    subset = list(range(scheme.N))
    got = scheme.decode(stack, subset, dims=(3, 2))
    assert got.tolist() == oracle_product(a, b).data.tolist()


@pytest.mark.parametrize("q", [65537, (1 << 61) - 1])
@pytest.mark.parametrize("name", sorted(BATCHED))
def test_array_inputs_equal_matrixf_inputs(name, q, rng):
    # integer arrays, any representatives, encode as the MatrixF of their entries
    field = PrimeField(q)
    scheme = BATCHED[name](field)
    a, b = random_matrix(field, 5, 3, rng), random_matrix(field, 5, 2, rng)
    a_np, b_np = a.data.astype(np.int64) - q, b.data.astype(np.int64) + 3 * q
    got = scheme.worker_products(a_np, b_np)
    want = scheme.worker_products(a, b)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    for (ca, cb), (wa, wb) in zip(scheme.encode_all(a_np, b_np), scheme.encode_all(a, b)):
        assert isinstance(ca, np.ndarray) and isinstance(cb, np.ndarray)
        assert np.array_equal(ca, wa.data) and np.array_equal(cb, wb.data)

INTERPOLATION = {
    "entangled": lambda f: EntangledCode(2, 2, 1, 8, f),
    "general-poly": BATCHED["general-poly"],
    "improved-strassen": lambda f: ImprovedBilinearCode(strassen_construction(), 15, f),
    "improved-standard": lambda f: ImprovedBilinearCode(standard_construction(2, 1, 2), 8, f),
}


@pytest.mark.parametrize("name", sorted(INTERPOLATION))
def test_output_map_takes_coefficients_to_output_blocks(name, gf65537, rng):
    # the results are one polynomial at the workers' points; output_map takes
    # its coefficients, interpolated from any K of them, to the blocks of A^T B
    code = INTERPOLATION[name](gf65537)
    p, m, n, k = code.p, code.m, code.n, code.recovery_threshold()
    assert code.output_map.shape == (m * n, k)
    a, b = random_matrix(gf65537, 2 * p, 2 * m, rng), random_matrix(gf65537, 2 * p, 2 * n, rng)
    stack = code.worker_products(a, b)
    subset = sorted(rng.sample(range(code.N), k))
    coeffs = interpolate_arrays(gf65537, [code.points[w] for w in subset], stack[subset])
    blocks = modmatmul(code.output_map, coeffs.reshape(k, -1), 65537).reshape(m, n, 2, 2)
    want = block_grid(oracle_product(a, b), m, n)
    for j in range(m):
        for kp in range(n):
            assert np.array_equal(blocks[j, kp], want[j][kp].data)


class TestEntangledDecode:
    def test_worked_example_all_subsets(self, gf7):
        code = EntangledCode(2, 1, 1, 5, gf7)
        a = MatrixF(gf7, [[1], [2]])
        b = MatrixF(gf7, [[3], [4]])
        results = run_workers(code, a, b)
        assert [int(results[i].data[0, 0]) for i in (1, 2, 4)] == [0, 1, 4]
        for sub in combinations(range(5), 3):
            got = code.decode(results, sub, dims=(1, 1))
            assert got.data.tolist() == [[4]]

    def test_decode_free_function(self, gf7):
        code = EntangledCode(2, 1, 1, 5, gf7)
        a = MatrixF(gf7, [[1], [2]])
        b = MatrixF(gf7, [[3], [4]])
        results = run_workers(code, a, b)
        general = GeneralPolynomialCode(
            p=2, m=1, n=1, N=5, alpha=1, beta=2, theta=2, x_points=tuple(range(5)), field=gf7,
        )
        got = general.decode(results, (0, 3, 4), dims=(1, 1))
        assert got.data.tolist() == [[4]]

    def test_all_zero_inputs(self, gf65537):
        code = EntangledCode(2, 2, 1, 10, gf65537)
        a = MatrixF.zeros(gf65537, 4, 4)
        b = MatrixF.zeros(gf65537, 4, 2)
        results = run_workers(code, a, b)
        got = code.decode(results, list(range(5, 10)), dims=(4, 2))
        assert not got.data.any()

    def test_exhaustive_2_2_2(self, gf65537, rng):
        code = EntangledCode(2, 2, 2, 12, gf65537)
        a = random_matrix(gf65537, 4, 4, rng)
        b = random_matrix(gf65537, 4, 4, rng)
        oracle = oracle_product(a, b)
        results = run_workers(code, a, b)
        subsets = list(combinations(range(12), 9))
        assert len(subsets) == 220
        for sub in subsets:
            assert code.decode(results, sub, dims=(4, 4)) == oracle

    def test_h_coefficient_structure(self, gf65537, rng):
        # interpolated coefficient at degree p-1+kp+k'pm equals the direct
        # block sum over j of A[j,k]^T B[j,k']
        p, m, n = 2, 2, 2
        code = EntangledCode(p, m, n, 12, gf65537)
        a = random_matrix(gf65537, 4, 4, rng)
        b = random_matrix(gf65537, 4, 4, rng)
        results = run_workers(code, a, b)
        fit = range(code.recovery_threshold())
        coeffs = interpolate_arrays(
            gf65537, [code.points[w] for w in fit], [results[w].data for w in fit]
        )
        a_grid = block_grid(a, p, m)
        b_grid = block_grid(b, p, n)
        for k in range(m):
            for kp in range(n):
                acc = a_grid[0][k].transpose() @ b_grid[0][kp]
                for j in range(1, p):
                    acc = acc + (a_grid[j][k].transpose() @ b_grid[j][kp])
                assert np.array_equal(coeffs[(p - 1) + k * p + kp * p * m], acc.data)

    def test_insufficient_results(self, gf65537, rng):
        code = EntangledCode(2, 2, 2, 12, gf65537)
        a = random_matrix(gf65537, 4, 4, rng)
        b = random_matrix(gf65537, 4, 4, rng)
        results = run_workers(code, a, b)
        k = code.recovery_threshold()
        with pytest.raises(InsufficientResults):
            code.decode(results, list(range(k - 1)), dims=(4, 4))
        # one fewer point than unknown polynomial coefficients
        assert k - 1 < code.product_degree() + 1

    def test_padding_dims(self, gf65537, rng):
        code = EntangledCode(3, 2, 2, 15, gf65537)
        a = random_matrix(gf65537, 7, 5, rng)
        b = random_matrix(gf65537, 7, 3, rng)
        results = run_workers(code, a, b)
        got = code.decode(results, list(range(1, 15)), dims=(5, 3))
        assert got == oracle_product(a, b)

    def test_optimality_witness_at_edge_shapes(self, gf65537):
        from codedmm.bounds import converse_linear

        for p in range(1, 7):
            for other in range(1, 5):
                for m, n in ((1, other), (other, 1)):
                    k = p * m * n + p - 1
                    assert k == converse_linear(p, m, n, N=10 * k)


class TestUncodedRepetition:
    def test_threshold_formula(self, gf65537):
        code = UncodedRepetitionCode(3, 3, 1, 18, gf65537)
        assert code.recovery_threshold() == 17  # 18 - 2 + 1

    def test_no_redundancy_needs_everyone(self, gf65537):
        code = UncodedRepetitionCode(2, 2, 2, 8, gf65537)
        assert code.recovery_threshold() == 8

    def test_too_few(self, gf65537):
        with pytest.raises(TooFewWorkers):
            UncodedRepetitionCode(2, 2, 2, 7, gf65537)

    def test_decode_and_replica_loss(self, gf65537, rng):
        p, m, n = 2, 2, 1
        code = UncodedRepetitionCode(p, m, n, 8, gf65537)  # two replicas per task
        a = random_matrix(gf65537, 4, 4, rng)
        b = random_matrix(gf65537, 4, 2, rng)
        oracle = oracle_product(a, b)
        results = run_workers(code, a, b)
        # losing one full replica (workers 0..3) leaves the other replica
        assert code.decode(results, [4, 5, 6, 7], dims=(4, 2)) == oracle
        # threshold-size subsets always decode
        k = code.recovery_threshold()
        for sub in combinations(range(8), k):
            assert code.decode(results, sub, dims=(4, 2)) == oracle

    def test_missing_task_detected(self, gf65537, rng):
        code = UncodedRepetitionCode(2, 2, 1, 8, gf65537)
        a = random_matrix(gf65537, 4, 4, rng)
        b = random_matrix(gf65537, 4, 2, rng)
        results = run_workers(code, a, b)
        with pytest.raises(InsufficientResults):
            code.decode(results, [0, 4], dims=(4, 2))  # same task twice


class TestRandomLinear:
    def test_threshold_values(self, gf65537):
        assert RandomLinearCode(3, 3, 1, 27, gf65537).recovery_threshold() == 27
        assert RandomLinearCode(1, 1, 1, 1, gf65537).recovery_threshold() == 1

    def test_decode_matches_oracle(self, gf65537, rng):
        code = RandomLinearCode(2, 2, 1, 10, gf65537, seed=11)
        a = random_matrix(gf65537, 4, 4, rng)
        b = random_matrix(gf65537, 4, 2, rng)
        results = run_workers(code, a, b)
        got = code.decode(results, list(range(8)), dims=(4, 2))
        assert got == oracle_product(a, b)

    def test_decode_various_subsets(self, gf65537, rng):
        code = RandomLinearCode(2, 1, 2, 9, gf65537, seed=5)
        a = random_matrix(gf65537, 4, 2, rng)
        b = random_matrix(gf65537, 4, 4, rng)
        oracle = oracle_product(a, b)
        results = run_workers(code, a, b)
        k = code.recovery_threshold()
        for sub in ((0, 2, 3, 4, 5, 6, 7, 8), tuple(range(k)), (8, 7, 6, 5, 4, 3, 2, 1)):
            assert code.decode(results, sub, dims=(2, 4)) == oracle

    def test_singular_system_reported(self, gf7):
        # tiny field makes singular draws likely; scan seeds for one
        hit = False
        for seed in range(40):
            code = RandomLinearCode(2, 1, 1, 6, gf7, seed=seed)
            a = MatrixF(gf7, [[1], [2]])
            b = MatrixF(gf7, [[3], [4]])
            results = run_workers(code, a, b)
            try:
                got = code.decode(results, list(range(4)), dims=(1, 1))
                assert got == oracle_product(a, b)
            except SingularDecodeSystem:
                hit = True
        assert hit, "expected at least one singular subset over GF(7)"


def product_generator_rows(code, workers):
    """Rows of G at the given workers, as Python ints: gen_a[w] (x) gen_b[w] mod q."""
    q = code.field.modulus
    ga, gb = code.gen_a.tolist(), code.gen_b.tolist()
    return [[x * y % q for x in ga[w] for y in gb[w]] for w in workers]


class TestRandomLinearErasureDecode:
    """Decoding from any subset against the rank of G on the subset."""

    @pytest.mark.parametrize("q", [7, 11, 65537, 2097143, 2**61 - 1])
    def test_every_subset_decodes_exactly_when_full_rank(self, q, rng):
        field = PrimeField(q)
        outcomes = {"decoded": 0, "singular": 0}
        for seed in range(4):
            code = RandomLinearCode(2, 1, 1, 6, field, seed=seed)
            k = code.recovery_threshold()
            a = random_matrix(field, 4, 2, rng)
            b = random_matrix(field, 4, 3, rng)
            oracle = oracle_product(a, b)
            results = run_workers(code, a, b)
            for size in range(k, code.N + 1):
                for sub in combinations(range(code.N), size):
                    full_rank = rank_mod(q, product_generator_rows(code, sub)) == k
                    try:
                        got = code.decode(results, list(sub), dims=(2, 3))
                    except SingularDecodeSystem:
                        assert not full_rank, (seed, sub)
                        outcomes["singular"] += 1
                    else:
                        assert full_rank, (seed, sub)
                        assert got == oracle, (seed, sub)
                        outcomes["decoded"] += 1
        assert outcomes["decoded"] > 0
        if q < 12:
            assert outcomes["singular"] > 0

    @pytest.mark.parametrize("q", [65537, 2**61 - 1])
    def test_corrupted_result_with_all_workers_raises(self, q, rng):
        field = PrimeField(q)
        code = RandomLinearCode(2, 1, 1, 6, field, seed=1)
        a = random_matrix(field, 4, 2, rng)
        b = random_matrix(field, 4, 3, rng)
        results = run_workers(code, a, b)
        assert code.decode(results, list(range(code.N)), dims=(2, 3)) == oracle_product(a, b)
        for w in range(code.N):
            # a corruption fits some codeword only if G without row w loses rank
            rest = [v for v in range(code.N) if v != w]
            assert rank_mod(q, product_generator_rows(code, rest)) == code.recovery_threshold()
            bad = dict(results)
            bad[w] = MatrixF(field, results[w].data + 1)
            with pytest.raises(SingularDecodeSystem):
                code.decode(bad, list(range(code.N)), dims=(2, 3))

    @pytest.mark.parametrize("q", [7, 65537, 2**61 - 1])
    def test_systematic_and_direct_solves_agree(self, q, rng):
        """decode fails exactly where solving G[S] X = R_S directly fails,
        and otherwise returns the product of that solution."""
        field = PrimeField(q)
        outcomes = {"decoded": 0, "singular": 0}
        # K = 4 of N = 6 and K = 2 of N = 7
        for code in (RandomLinearCode(2, 1, 1, 6, field, seed=2),
                     RandomLinearCode(1, 2, 1, 7, field, seed=2)):
            p, m, n = code.p, code.m, code.n
            a = random_matrix(field, 2 * p, 2 * m, rng)
            b = random_matrix(field, 2 * p, 3 * n, rng)
            clean = run_workers(code, a, b)
            bad = dict(clean)
            bad[0] = MatrixF(field, (clean[0].data + 1) % q)
            for results in (clean, bad):
                for size in range(code.recovery_threshold(), code.N + 1):
                    for sub in combinations(range(code.N), size):
                        known = list(sub)
                        flat = np.stack([results[w].data.reshape(-1) for w in known])
                        direct = solve_linear_system(
                            field, product_generator_rows(code, known), flat,
                            require_full_column_rank=True,
                        )
                        if direct is None:
                            with pytest.raises(SingularDecodeSystem):
                                code.decode(results, known, dims=(a.cols, b.cols))
                            outcomes["singular"] += 1
                            continue
                        got = code.decode(results, known, dims=(a.cols, b.cols))
                        # output block (k, k') sums the aligned products over j
                        pairs = direct.reshape(p, m, p, n, 2, 3)
                        blocks = sum(pairs[j, :, j] for j in range(p)) % q
                        want = blocks.swapaxes(1, 2).reshape(2 * m, 3 * n)
                        assert np.array_equal(got.data, want), sub
                        if results is clean:
                            assert got == oracle_product(a, b), sub
                        outcomes["decoded"] += 1
        assert outcomes["decoded"] > 0 and outcomes["singular"] > 0

    def test_rank_deficient_generator_never_decodes(self, gf7, rng):
        code = RandomLinearCode(2, 1, 1, 6, gf7, seed=0)
        everyone = list(range(code.N))
        assert rank_mod(7, product_generator_rows(code, everyone)) < code.recovery_threshold()
        results = run_workers(code, random_matrix(gf7, 4, 2, rng), random_matrix(gf7, 4, 3, rng))
        with pytest.raises(SingularDecodeSystem):
            code.decode(results, everyone, dims=(2, 3))

    def test_repeated_workers(self, gf65537, rng):
        code = RandomLinearCode(2, 1, 1, 6, gf65537, seed=0)
        assert rank_mod(65537, product_generator_rows(code, range(4))) == 4
        a = random_matrix(gf65537, 4, 2, rng)
        b = random_matrix(gf65537, 4, 3, rng)
        results = run_workers(code, a, b)
        with pytest.raises(InsufficientResults):
            code.decode(results, [0, 0, 1, 2], dims=(2, 3))
        assert code.decode(results, [0, 1, 2, 3, 3], dims=(2, 3)) == oracle_product(a, b)


SCHEMES = {
    "entangled": lambda f: EntangledCode(2, 2, 1, 9, f),
    "uncoded": lambda f: UncodedRepetitionCode(2, 1, 1, 4, f),
    "random-linear": lambda f: RandomLinearCode(1, 2, 1, 4, f, seed=3),
    "improved": lambda f: ImprovedBilinearCode(strassen_construction(), 13, f),
}


class TestDecodeSubsetErrors:
    """A bad subset is a typed CodedmmError, never IndexError or KeyError."""

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_worker_index_out_of_range(self, name, gf65537, rng):
        scheme = SCHEMES[name](gf65537)
        results = run_workers(scheme, random_matrix(gf65537, 4, 4, rng), random_matrix(gf65537, 4, 4, rng))
        k = scheme.recovery_threshold()
        stack = np.stack([results[w].data for w in range(scheme.N)])
        assert issubclass(UnknownWorker, CodedmmError)
        for bad in (scheme.N, scheme.N + 7, -1, 1 << 64):
            subset = [bad] + list(range(k))
            with pytest.raises(UnknownWorker):
                scheme.decode(results, subset)
            # the stack with a bad label, as a list or an array
            for index in (subset, np.array(subset)):
                with pytest.raises(UnknownWorker):
                    scheme.decode(stack, index)

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_subset_that_is_not_one_dimensional(self, name, gf65537, rng):
        scheme = SCHEMES[name](gf65537)
        results = run_workers(scheme, random_matrix(gf65537, 4, 4, rng), random_matrix(gf65537, 4, 4, rng))
        k = scheme.recovery_threshold()
        subset = np.arange(2 * k).reshape(k, 2) % scheme.N
        # k entries, the first of them two workers: numpy makes no array of it
        ragged = [[0, 1]] + [[w] for w in range(1, k)]
        stack = np.stack([results[w].data for w in range(scheme.N)])
        for index in (subset, subset.tolist(), ragged):
            for received in (results, stack):
                with pytest.raises(UnknownWorker):
                    scheme.decode(received, index)

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_repeated_worker_leaves_too_few_distinct_workers(self, name, gf65537, rng):
        # K results from K - 1 distinct workers; the uncoded code's workers 0
        # and 2 hold the same task, so its subset misses a task
        scheme = SCHEMES[name](gf65537)
        results = run_workers(scheme, random_matrix(gf65537, 4, 4, rng), random_matrix(gf65537, 4, 4, rng))
        k = scheme.recovery_threshold()
        subset = [0, 0, 2] if name == "uncoded" else [0] + list(range(k - 1))
        assert len(subset) == k > len(set(subset))
        for received in (results, np.stack([results[w].data for w in range(scheme.N)])):
            with pytest.raises(InsufficientResults):
                scheme.decode(received, subset)

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_subset_worker_without_result(self, name, gf65537, rng):
        scheme = SCHEMES[name](gf65537)
        results = run_workers(scheme, random_matrix(gf65537, 4, 4, rng), random_matrix(gf65537, 4, 4, rng))
        del results[0]
        assert issubclass(MissingResult, CodedmmError)
        with pytest.raises(MissingResult):
            scheme.decode(results, list(range(scheme.N)))


class TestRepeatedWorkers:
    """A subset that repeats a worker reads that worker's result once."""

    def test_interpolation_through_a_repeated_worker(self, gf65537, rng):
        # threshold 3: workers 0, 1 and 2 decode, from the stack, a list or a mapping
        code = EntangledCode(2, 1, 1, 5, gf65537)
        a, b = random_matrix(gf65537, 4, 3, rng), random_matrix(gf65537, 4, 2, rng)
        stack = code.worker_products(a, b)
        for results in (stack, list(stack)):
            got = code.decode(results, [0, 1, 1, 2], dims=(3, 2))
            assert np.array_equal(got, oracle_product(a, b).data)
        results = run_workers(code, a, b)
        assert code.decode(results, [2, 2, 0, 1], dims=(3, 2)) == oracle_product(a, b)

    def test_too_few_distinct_workers(self, gf65537, rng):
        code = EntangledCode(2, 1, 1, 5, gf65537)
        stack = code.worker_products(random_matrix(gf65537, 4, 3, rng), random_matrix(gf65537, 4, 2, rng))
        with pytest.raises(InsufficientResults):
            code.decode(stack, [0, 1, 1], dims=(3, 2))

    def test_elementwise_direct_read_through_a_repeated_worker(self, gf65537, rng):
        # N = 4 < 2R - 1 = 5: five results from four workers are read
        # directly from workers 0, 1 and 2
        code = ElementwiseProductCode(3, 4, gf65537)
        a, b = ([rng.randrange(65537) for _ in range(3)] for _ in range(2))
        stack = code.worker_products(a, b)
        got = code.decode(stack, [3, 1, 0, 2, 1])
        assert got.tolist() == elementwise_product(65537, a, b)
        with pytest.raises(InsufficientResults):
            code.decode(stack, [3, 1, 1, 2])


@pytest.mark.parametrize("q", [65537, (1 << 61) - 1])
def test_elementwise_direct_read_reduces_its_results(q, rng):
    # N = 4 < 2R - 1 = 5: the products are read straight from workers 0, 1
    # and 2, so results past q, Python ints at 2^61 - 1, are reduced there
    field = PrimeField(q)
    code = ElementwiseProductCode(3, 4, field)
    a, b = ([rng.randrange(q) for _ in range(3)] for _ in range(2))
    shifted = code.worker_products(a, b).astype(object) + 5 * q
    subset = [3, 1, 0, 2]
    assert code.decode(shifted, subset).tolist() == elementwise_product(q, a, b)
