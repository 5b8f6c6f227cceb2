"""Tests for the polynomial, uncoded-repetition, and random linear schemes."""

from itertools import combinations

import numpy as np
import pytest

from codedmm.bilinear import ImprovedBilinearCode, standard_construction, strassen_construction
from codedmm.blocks import MatrixF, partition
from codedmm.errors import (
    BlockShapeMismatch,
    CodedmmError,
    DegreeCollision,
    FieldTooSmall,
    InsufficientResults,
    MissingResult,
    SingularDecodeSystem,
    TooFewWorkers,
    UnknownWorker,
)
from codedmm.field import PrimeField
from codedmm.linalg import solve_linear_system
from codedmm.schemes import (
    EntangledCode,
    GeneralPolynomialCode,
    PolynomialCodeSpec,
    RandomLinearCode,
    UncodedRepetitionCode,
    entangled_spec,
    general_poly_encode,
    worker_multiply,
)

from oracles import oracle_product, random_matrix, rank_mod


def run_workers(scheme, a, b):
    return {i: worker_multiply(ca, cb) for i, (ca, cb) in enumerate(scheme.encode_all(a, b))}


class TestGeneralPolyEncode:
    def test_half_split_formulas(self, gf7):
        # (alpha, beta, theta) = (1, p, pm) with p=2, m=n=1:
        # A~_i = A0 + i A1 and B~_i = i B0 + B1
        spec = entangled_spec(2, 1, 1, 5, gf7)
        a_grid = partition(MatrixF(gf7, [[1], [2]]), 2, 1)
        b_grid = partition(MatrixF(gf7, [[3], [4]]), 2, 1)
        for i in range(5):
            ca, cb = general_poly_encode(spec, a_grid, b_grid, i)
            assert int(ca.data[0, 0]) == (1 + i * 2) % 7
            assert int(cb.data[0, 0]) == (i * 3 + 4) % 7

    def test_x_zero_keeps_only_corner_block(self, gf65537, rng):
        spec = entangled_spec(2, 2, 2, 11, gf65537)
        a = random_matrix(gf65537, 4, 4, rng)
        b = random_matrix(gf65537, 4, 4, rng)
        ca, cb = general_poly_encode(spec, partition(a, 2, 2), partition(b, 2, 2), 0)
        assert ca == partition(a, 2, 2)[0, 0]
        # B's exponent (p-1-j) vanishes at j = p-1 instead
        assert cb == partition(b, 2, 2)[1, 0]

    def test_encoding_linearity(self, gf65537, rng):
        code = EntangledCode(2, 2, 1, 9, gf65537)
        a1 = random_matrix(gf65537, 4, 4, rng)
        a2 = random_matrix(gf65537, 4, 4, rng)
        for i in (0, 3, 8):
            lhs = code.encode_a(a1 + a2, i)
            rhs = code.encode_a(a1, i) + code.encode_a(a2, i)
            assert lhs == rhs


class TestEntangledSpec:
    def test_threshold_examples(self, gf65537):
        assert EntangledCode(2, 1, 1, 5, gf65537).recovery_threshold() == 3
        assert EntangledCode(3, 3, 1, 12, gf65537).recovery_threshold() == 11
        # p = 1 reduces to the column-split code with threshold mn
        assert EntangledCode(1, 3, 4, 12, gf65537).recovery_threshold() == 12

    def test_too_few_workers(self, gf65537):
        with pytest.raises(TooFewWorkers):
            entangled_spec(2, 2, 2, 8, gf65537)  # threshold 9

    def test_field_too_small(self, gf7):
        with pytest.raises(FieldTooSmall):
            entangled_spec(2, 1, 1, 7, gf7)

    def test_degree_separation_holds_for_entangled(self, gf65537):
        for p, m, n in ((1, 1, 1), (2, 3, 2), (4, 1, 3), (3, 3, 3)):
            spec = entangled_spec(p, m, n, p * m * n + p - 1, gf65537)
            spec.check_degree_separation()  # must not raise

    def test_colliding_exponents_rejected(self, gf65537):
        # beta = alpha folds distinct blocks onto the same degree
        spec = PolynomialCodeSpec(
            p=2, m=2, n=1, N=10, alpha=1, beta=1, theta=4,
            x_points=tuple(range(10)), field=gf65537,
        )
        with pytest.raises(DegreeCollision):
            GeneralPolynomialCode(spec)


class TestWorkerMultiply:
    def test_worked_example(self, gf7):
        # A blocks [1],[2], B blocks [3],[4], worker 2: A~=5, B~=3, product 1
        spec = entangled_spec(2, 1, 1, 5, gf7)
        a_grid = partition(MatrixF(gf7, [[1], [2]]), 2, 1)
        b_grid = partition(MatrixF(gf7, [[3], [4]]), 2, 1)
        ca, cb = general_poly_encode(spec, a_grid, b_grid, 2)
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
    "general-poly": lambda f: GeneralPolynomialCode(PolynomialCodeSpec(
        p=2, m=2, n=1, N=6, alpha=2, beta=1, theta=6, x_points=tuple(range(6)), field=f,
    )),
    "uncoded": lambda f: UncodedRepetitionCode(2, 2, 1, 6, f),
    "random-linear": lambda f: RandomLinearCode(2, 2, 1, 8, f, seed=3),
    "improved": lambda f: ImprovedBilinearCode(standard_construction(2, 1, 1), 5, f),
}


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


class TestDecodeEntryPoint:
    """decode checks the count, gathers and stacks once, then calls decode_received."""

    @pytest.mark.parametrize("q", [7, 65537, (1 << 61) - 1])
    @pytest.mark.parametrize("name", sorted(BATCHED))
    def test_decode_equals_decode_received(self, name, q, rng):
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
                        scheme.decode_received(stack[list(sub)], index, dims=(3, 2))
                    continue
                got = scheme.decode_received(stack[list(sub)], index, dims=(3, 2))
                assert isinstance(got, np.ndarray)
                assert got.dtype == want.data.dtype
                assert np.array_equal(got, want.data)
                assert want == oracle_product(a, b)

    @pytest.mark.parametrize("name", sorted(BATCHED))
    def test_decode_received_checks_its_stack(self, name, gf65537, rng):
        # too few rows would fit a lower-degree polynomial: refused, not decoded
        scheme = BATCHED[name](gf65537)
        stack = scheme.worker_products(random_matrix(gf65537, 5, 3, rng), random_matrix(gf65537, 5, 2, rng))
        short = list(range(scheme.fewest_results() - 1))
        with pytest.raises(InsufficientResults):
            scheme.decode_received(stack[short], short)
        full = list(range(scheme.N))
        with pytest.raises(BlockShapeMismatch):
            scheme.decode_received(stack[full[:-1]], full)

    @pytest.mark.parametrize("name", sorted(BATCHED))
    def test_error_order(self, name, gf65537, rng):
        scheme = BATCHED[name](gf65537)
        results = run_workers(scheme, random_matrix(gf65537, 5, 3, rng), random_matrix(gf65537, 5, 2, rng))
        del results[1]
        unknown = scheme.N + 3
        with pytest.raises(InsufficientResults):
            scheme.decode(results, [1, unknown])
        # worker 1 has no result, but the unknown index is reported first
        with pytest.raises(UnknownWorker):
            scheme.decode(results, list(range(scheme.N)) + [unknown])
        with pytest.raises(MissingResult):
            scheme.decode(results, list(range(scheme.N)))


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
        spec = entangled_spec(2, 1, 1, 5, gf7)
        code = EntangledCode(2, 1, 1, 5, gf7)
        a = MatrixF(gf7, [[1], [2]])
        b = MatrixF(gf7, [[3], [4]])
        results = run_workers(code, a, b)
        got = GeneralPolynomialCode(spec).decode(results, (0, 3, 4), dims=(1, 1))
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
        from codedmm.blocks import interpolate_block_polynomial

        p, m, n = 2, 2, 2
        code = EntangledCode(p, m, n, 12, gf65537)
        a = random_matrix(gf65537, 4, 4, rng)
        b = random_matrix(gf65537, 4, 4, rng)
        results = run_workers(code, a, b)
        pts = [(code.spec.x_points[w], results[w]) for w in range(code.recovery_threshold())]
        coeffs = interpolate_block_polynomial(pts)
        a_grid = partition(a, p, m)
        b_grid = partition(b, p, n)
        for k in range(m):
            for kp in range(n):
                acc = a_grid[0, k].transpose() @ b_grid[0, kp]
                for j in range(1, p):
                    acc = acc + (a_grid[j, k].transpose() @ b_grid[j, kp])
                assert coeffs[(p - 1) + k * p + kp * p * m] == acc

    def test_insufficient_results(self, gf65537, rng):
        code = EntangledCode(2, 2, 2, 12, gf65537)
        a = random_matrix(gf65537, 4, 4, rng)
        b = random_matrix(gf65537, 4, 4, rng)
        results = run_workers(code, a, b)
        k = code.recovery_threshold()
        with pytest.raises(InsufficientResults):
            code.decode(results, list(range(k - 1)), dims=(4, 4))
        # one fewer point than unknown polynomial coefficients
        assert k - 1 < code.spec.product_degree() + 1

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
    """Decoding through parity checks against the rank of G on the subset."""

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
    def test_erasure_and_direct_solves_agree(self, q, rng):
        """decode picks its elimination by size; both agree on every subset."""
        field = PrimeField(q)
        taken = {"erasure": 0, "direct": 0}
        # K = 4 of N = 6 and K = 2 of N = 7: both paths occur in each
        for code in (RandomLinearCode(2, 1, 1, 6, field, seed=2),
                     RandomLinearCode(1, 2, 1, 7, field, seed=2)):
            erasure_solve = code._decode_erasures

            def counted(*args, erasure_solve=erasure_solve):
                taken["erasure"] += 1
                return erasure_solve(*args)

            code._decode_erasures = counted
            a = random_matrix(field, 2 * code.p, 2 * code.m, rng)
            b = random_matrix(field, 2 * code.p, 3 * code.n, rng)
            clean = run_workers(code, a, b)
            bad = dict(clean)
            bad[0] = MatrixF(field, (clean[0].data + 1) % q)
            for results in (clean, bad):
                for size in range(code.recovery_threshold(), code.N + 1):
                    for sub in combinations(range(code.N), size):
                        known = list(sub)
                        erased = [w for w in range(code.N) if w not in sub]
                        flat = np.stack([results[w].data.reshape(-1) for w in known])
                        direct = solve_linear_system(
                            field, product_generator_rows(code, known), flat,
                            require_full_column_rank=True,
                        )
                        erasure = erasure_solve(known, erased, flat)
                        assert (direct is None) == (erasure is None), sub
                        if direct is not None:
                            assert direct.tolist() == erasure.tolist(), sub
                        before = taken["erasure"]
                        try:
                            got = code.decode(results, known, dims=(a.cols, b.cols))
                        except SingularDecodeSystem:
                            assert direct is None, sub
                        else:
                            assert direct is not None, sub
                            if results is clean:
                                assert got == oracle_product(a, b), sub
                        if taken["erasure"] == before:
                            taken["direct"] += 1
        assert taken["erasure"] > 0 and taken["direct"] > 0

    def test_repeated_workers(self, gf65537, rng):
        code = RandomLinearCode(2, 1, 1, 6, gf65537, seed=0)
        assert rank_mod(65537, product_generator_rows(code, range(4))) == 4
        a = random_matrix(gf65537, 4, 2, rng)
        b = random_matrix(gf65537, 4, 3, rng)
        results = run_workers(code, a, b)
        with pytest.raises(SingularDecodeSystem):
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
        assert issubclass(UnknownWorker, CodedmmError)
        for bad in (scheme.N, scheme.N + 7, -1):
            with pytest.raises(UnknownWorker):
                scheme.decode(results, [bad] + list(range(k)))

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_subset_worker_without_result(self, name, gf65537, rng):
        scheme = SCHEMES[name](gf65537)
        results = run_workers(scheme, random_matrix(gf65537, 4, 4, rng), random_matrix(gf65537, 4, 4, rng))
        del results[0]
        assert issubclass(MissingResult, CodedmmError)
        with pytest.raises(MissingResult):
            scheme.decode(results, list(range(scheme.N)))
