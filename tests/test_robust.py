"""Tests for error detection, Berlekamp-Welch correction, and the distance
relations."""

import pytest

from codedmm.bilinear import ImprovedBilinearCode, strassen_construction
from codedmm.blocks import MatrixF
from codedmm.errors import BlockShapeMismatch, CodedmmError, TooManyErrors
from codedmm.robust import (
    Clean,
    ErrorDetected,
    FaultModel,
    correct_errors,
    detect_errors,
    hamming_relations,
)
from codedmm.schemes import (
    EntangledCode,
    RandomLinearCode,
    UncodedRepetitionCode,
    worker_multiply,
)

from oracles import oracle_product, random_matrix


def make_results(code, a, b):
    return [worker_multiply(ca, cb) for ca, cb in code.encode_all(a, b)]


@pytest.fixture
def setup_9_workers(gf65537, rng):
    code = EntangledCode(2, 2, 1, 9, gf65537)  # K = 5
    a = random_matrix(gf65537, 4, 4, rng)
    b = random_matrix(gf65537, 4, 2, rng)
    return code, a, b, oracle_product(a, b), make_results(code, a, b)


class TestHammingRelations:
    def test_worked_example(self):
        assert hamming_relations(9, 5) == (5, 4, 2)

    def test_distance_one(self):
        for n in (1, 5, 100):
            assert hamming_relations(n, 1) == (n, 0, 0)

    def test_distance_n(self):
        for n in (1, 6, 9):
            assert hamming_relations(n, n) == (1, n - 1, (n - 1) // 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            hamming_relations(5, 0)
        with pytest.raises(ValueError):
            hamming_relations(5, 6)


class TestFaultModel:
    def test_corrupted_blocks_always_differ(self, setup_9_workers):
        _, _, _, _, results = setup_9_workers
        for seed in range(30):
            corrupted, victims = FaultModel(3, seed).inject(results)
            assert len(victims) == 3
            for w in range(9):
                if w in victims:
                    assert corrupted[w] != results[w]
                else:
                    assert corrupted[w] == results[w]

    def test_too_many_victims(self, setup_9_workers):
        _, _, _, _, results = setup_9_workers
        with pytest.raises(ValueError):
            FaultModel(10).inject(results)


class TestDetect:
    def test_clean_inputs(self, setup_9_workers):
        code, _, _, oracle, results = setup_9_workers
        out = detect_errors(code, results, dims=(4, 2))
        assert isinstance(out, Clean)
        assert out.matrix == oracle

    def test_never_silently_wrong_at_full_budget(self, setup_9_workers):
        code, _, _, oracle, results = setup_9_workers
        budget = code.N - code.recovery_threshold()  # 4
        outcomes = {"clean": 0, "detected": 0}
        for seed in range(100):
            corrupted, _ = FaultModel(budget, seed).inject(results)
            out = detect_errors(code, corrupted, dims=(4, 2))
            if isinstance(out, Clean):
                assert out.matrix == oracle  # no silent corruption
                outcomes["clean"] += 1
            else:
                assert isinstance(out, ErrorDetected)
                outcomes["detected"] += 1
        assert outcomes["detected"] > 0

    def test_vacuous_when_n_equals_k(self, gf65537, rng):
        code = EntangledCode(2, 1, 1, 3, gf65537)
        a = random_matrix(gf65537, 2, 2, rng)
        b = random_matrix(gf65537, 2, 2, rng)
        out = detect_errors(code, make_results(code, a, b), dims=(2, 2))
        assert isinstance(out, Clean)
        assert out.matrix == oracle_product(a, b)


@pytest.mark.parametrize("repair", [detect_errors, correct_errors])
@pytest.mark.parametrize("worker", [0, 8])
def test_result_of_another_shape_is_refused(repair, worker, setup_9_workers):
    # inside the fit (worker 0) or outside it (worker 8), one typed error
    code, _, _, _, results = setup_9_workers
    results = list(results)
    results[worker] = MatrixF.zeros(code.field, *(d + 1 for d in results[worker].shape))
    with pytest.raises(BlockShapeMismatch):
        repair(code, results, dims=(4, 2))


class TestCorrect:
    def test_no_errors_equals_plain_decode(self, setup_9_workers):
        code, _, _, oracle, results = setup_9_workers
        assert correct_errors(code, results, dims=(4, 2)) == oracle

    def test_exact_recovery_within_budget(self, setup_9_workers):
        code, _, _, oracle, results = setup_9_workers
        for seed in range(100):
            corrupted, _ = FaultModel(2, seed).inject(results)
            assert correct_errors(code, corrupted, dims=(4, 2)) == oracle

    def test_single_error(self, setup_9_workers):
        code, _, _, oracle, results = setup_9_workers
        for seed in range(20):
            corrupted, _ = FaultModel(1, seed).inject(results)
            assert correct_errors(code, corrupted, dims=(4, 2)) == oracle

    def test_over_budget_never_silently_wrong(self, setup_9_workers):
        code, _, _, oracle, results = setup_9_workers
        refused = 0
        for seed in range(100):
            corrupted, _ = FaultModel(3, seed).inject(results)
            try:
                assert correct_errors(code, corrupted, dims=(4, 2)) == oracle
            except TooManyErrors:
                refused += 1
        assert refused > 0

    def test_pilot_invisible_corruption(self, setup_9_workers):
        # corrupt only entry (1, 1) of two workers: the (0, 0) pilot stream
        # is clean, so location must come from a later coordinate
        code, _, _, oracle, results = setup_9_workers
        corrupted = list(results)
        for w in (2, 6):
            data = corrupted[w].data.copy()
            data[1, 1] = (data[1, 1] + 1) % 65537
            corrupted[w] = MatrixF(code.field, data)
        assert correct_errors(code, corrupted, dims=(4, 2)) == oracle

    def test_other_shapes_and_budgets(self, gf65537, rng):
        for p, m, n, N in ((2, 1, 1, 9), (3, 1, 1, 12), (2, 2, 2, 13)):
            code = EntangledCode(p, m, n, N, gf65537)
            budget = (N - code.recovery_threshold()) // 2
            a = random_matrix(gf65537, 2 * p, 2 * m, rng)
            b = random_matrix(gf65537, 2 * p, 2 * n, rng)
            oracle = oracle_product(a, b)
            results = make_results(code, a, b)
            for seed in range(10):
                corrupted, _ = FaultModel(budget, seed).inject(results)
                got = correct_errors(code, corrupted, dims=(2 * m, 2 * n))
                assert got == oracle


class TestNonPolynomialSchemes:
    """Repair needs evaluation points; other schemes get a typed refusal."""

    @pytest.mark.parametrize("make_code", [
        lambda f: RandomLinearCode(1, 2, 1, 4, f, seed=3),
        lambda f: UncodedRepetitionCode(2, 1, 1, 4, f),
        lambda f: ImprovedBilinearCode(strassen_construction(), 13, f),
    ], ids=["random-linear", "uncoded", "improved"])
    @pytest.mark.parametrize("repair", [detect_errors, correct_errors])
    def test_typed_error_names_the_scheme(self, make_code, repair, gf65537, rng):
        code = make_code(gf65537)
        results = make_results(code, random_matrix(gf65537, 4, 4, rng), random_matrix(gf65537, 4, 4, rng))
        with pytest.raises(CodedmmError, match=type(code).__name__):
            repair(code, results)


class TestConsistencyTriangle:
    def test_straggler_and_fault_budgets_agree(self):
        # the K exercised by subset decoding and the correction budget are
        # tied through the same distance: d = N - K + 1
        for N in range(1, 101):
            for K in range(1, N + 1):
                d = N - K + 1
                assert hamming_relations(N, d) == (K, N - K, (N - K) // 2)

    def test_entangled_code_budgets(self, gf65537):
        code = EntangledCode(2, 2, 1, 9, gf65537)
        K = code.recovery_threshold()
        d = code.N - K + 1
        assert hamming_relations(code.N, d) == (K, 4, 2)
