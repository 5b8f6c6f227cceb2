"""Tests for error detection, correction (Gao's decoder on pilot
projections, checked against a brute-force nearest-codeword oracle), and
the distance relations."""

import random
import time

import numpy as np
import pytest

from codedmm.bilinear import (
    ElementwiseProductCode,
    ImprovedBilinearCode,
    load_construction,
    strassen_construction,
)
from codedmm.blocks import MatrixF
from codedmm.convolution import conv_spec
from codedmm.errors import BlockShapeMismatch, CodedmmError, FieldMismatch, MissingResult, TooManyErrors
from codedmm.field import PrimeField
from codedmm.robust import (
    _PILOT_CACHE,
    _PROJECTION_SEED,
    Clean,
    ErrorDetected,
    FaultModel,
    _locate_errors,
    _pilot_vectors,
    _seeded_pilots,
    correct_errors,
    detect_errors,
    hamming_relations,
    inject_faults,
)
from codedmm.schemes import (
    EntangledCode,
    RandomLinearCode,
    UncodedRepetitionCode,
    worker_multiply,
)

from oracles import (
    direct_convolution,
    elementwise_product,
    nearest_codeword_errors,
    oracle_product,
    random_matrix,
)


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


@pytest.mark.parametrize("q, dtype", [(65537, np.int64), ((1 << 61) - 1, object)])
@pytest.mark.parametrize("errors", [0, 1, 3, 6])
def test_injector_changes_exactly_the_victims(q, dtype, errors):
    # one stack shared by the simulator and FaultModel: each victim's block
    # moves by a nonzero canonical delta, every other block is untouched
    clean = np.random.default_rng(errors).integers(0, min(q, 1 << 62), size=(6, 2, 3)).astype(dtype)
    for seed in range(20):
        stack = clean.copy()
        victims = inject_faults(np.random.default_rng(seed), stack, errors, q)
        assert victims == sorted(set(victims)) and len(victims) == errors
        assert stack.dtype == clean.dtype
        for w in range(6):
            delta = (stack[w] - clean[w]) % q
            assert delta.any() == (w in victims)
            assert all(0 <= int(v) < q for v in stack[w].flat)


def test_injector_refuses_more_victims_than_blocks():
    for errors in (-1, 4):
        with pytest.raises(ValueError):
            inject_faults(np.random.default_rng(0), np.zeros((3, 1, 1), dtype=np.int64), errors, 7)


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
def test_fewer_than_n_results_are_refused(repair, setup_9_workers):
    code, a, b, _, _ = setup_9_workers
    with pytest.raises(ValueError, match="need all 9 results, got 8"):
        repair(code, code.worker_products(a, b)[:8], dims=(4, 2))


def test_an_entry_written_as_q_is_read_as_zero(gf65537, rng):
    # A = 0, so every result is zero; worker 8 writes one zero entry as its
    # representative q.  The int64 stack's canonical check must reduce it:
    # read unreduced, worker 8 would disagree with the fit and be blamed
    code = EntangledCode(2, 2, 1, 9, gf65537)
    zero = MatrixF(gf65537, np.zeros((4, 4), dtype=np.int64))
    stack = code.worker_products(zero, random_matrix(gf65537, 4, 2, rng))
    assert not stack.any()
    stack[8].flat[0] = gf65537.modulus
    out = detect_errors(code, stack, dims=(4, 2))
    assert isinstance(out, Clean) and out.matrix.tolist() == [[0, 0]] * 4
    assert correct_errors(code, stack, dims=(4, 2)).tolist() == [[0, 0]] * 4


@pytest.mark.parametrize("repair", [detect_errors, correct_errors])
@pytest.mark.parametrize("worker", [0, 8])
def test_result_of_another_shape_is_refused(repair, worker, setup_9_workers):
    # inside the fit (worker 0) or outside it (worker 8), one typed error
    code, _, _, _, results = setup_9_workers
    results = list(results)
    results[worker] = MatrixF.zeros(code.field, *(d + 1 for d in results[worker].shape))
    with pytest.raises(BlockShapeMismatch):
        repair(code, results, dims=(4, 2))


def _decode_all(code, results, dims):
    return code.decode(dict(enumerate(results)), range(code.N), dims=dims)


@pytest.mark.parametrize("use", [_decode_all, detect_errors, correct_errors])
def test_results_over_another_field_are_refused(use, setup_9_workers, gf257):
    # GF(257) results handed to a GF(65537) code: one typed error, not a
    # product, a verdict or a refusal computed from the wrong field
    code, _, _, _, results = setup_9_workers
    foreign = [MatrixF(gf257, r.data % 257) for r in results]
    with pytest.raises(FieldMismatch):
        use(code, foreign, (4, 2))


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
        # corrupt only entry (1, 1) of two workers: a pilot that ignores
        # that entry, such as the (0, 0) coordinate, sees a clean stream, so
        # location must come from projections that weigh every entry
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


M61 = (1 << 61) - 1


def _bump_last_entry(results, workers, q):
    """Results with 1 added to the last entry of each listed worker's block."""
    out = list(results)
    for w in workers:
        data = out[w].data.copy()
        data[-1, -1] = (data[-1, -1] + 1) % q
        out[w] = MatrixF._wrap(out[w].field, data)
    return out


class TestRepairBudget:
    """One wrong entry in a large block: the pilots look at every entry at once."""

    BUDGET_S = 2.0

    def _setup(self, q, side, rng):
        # s = 2 keeps the inputs thin: each worker's block is side x side
        field = PrimeField(q)
        code = EntangledCode(2, 2, 1, 12, field)  # K = 5, corrects 3
        a = random_matrix(field, 2, 2 * side, rng)
        b = random_matrix(field, 2, side, rng)
        results = make_results(code, a, b)
        assert results[0].shape == (side, side)
        return code, results, a, b

    @pytest.mark.parametrize("q, side", [(65537, 256), (M61, 64)])
    def test_single_entry_repair_within_budget(self, q, side, rng):
        code, results, a, b = self._setup(q, side, rng)
        corrupted = _bump_last_entry(results, [7], q)
        start = time.perf_counter()
        got = correct_errors(code, corrupted, dims=(2 * side, side))
        elapsed = time.perf_counter() - start
        assert got == oracle_product(a, b)
        assert elapsed < self.BUDGET_S, f"repair took {elapsed:.2f}s"

    def test_over_budget_refusal_within_budget(self, rng):
        code, results, _, _ = self._setup(65537, 256, rng)
        corrupted = _bump_last_entry(results, [1, 4, 7, 10], 65537)
        start = time.perf_counter()
        with pytest.raises(TooManyErrors):
            correct_errors(code, corrupted, dims=(512, 256))
        elapsed = time.perf_counter() - start
        assert elapsed < self.BUDGET_S, f"refusal took {elapsed:.2f}s"


@pytest.mark.parametrize("q", [7, 11, 65537, M61])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_locator_agrees_with_the_nearest_codeword_oracle(q, k):
    # every error count from 0 to n - k, so streams one error past the
    # radius and the locator's refusals are covered, plus the all-zero
    # stream and a clean codeword of degree exactly k - 1
    field = PrimeField(q)
    rng = random.Random(q * 10 + k)
    for n in range(k + 1, min(9, q) + 1):
        for _ in range(3):
            xs = rng.sample(range(q), n)
            coeffs = [rng.randrange(q) for _ in range(k - 1)] + [rng.randrange(1, q)]
            codeword = [sum(c * pow(x, d, q) for d, c in enumerate(coeffs)) % q for x in xs]
            streams = [[0] * n, codeword]
            for errors in range(n - k + 1):
                ys = list(codeword)
                for i in rng.sample(range(n), errors):
                    ys[i] = (ys[i] + rng.randrange(1, q)) % q
                streams.append(ys)
            for ys in streams:
                expected = nearest_codeword_errors(q, xs, ys, k)
                stream = np.array(ys, dtype=field.array_dtype)
                assert _locate_errors(field, xs, stream, k, (n - k) // 2) == expected, (xs, ys)
                # a smaller budget refuses the codewords past it
                if expected:
                    assert _locate_errors(field, xs, stream, k, len(expected) - 1) is None


class TestPilotVectors:
    @pytest.mark.parametrize("q, e_max, t", [
        (M61, 3, 1), (65537, 1, 3), (65537, 2, 3), (65537, 6, 3), (65537, 7, 4), (7, 1, 15),
    ])
    def test_count_is_the_least_below_the_miss_bound(self, q, e_max, t):
        pilots = list(_pilot_vectors(PrimeField(q), e_max, 1000))
        assert len(pilots) == t
        assert (e_max / q) ** t < 2**-40 <= (e_max / q) ** (t - 1)
        assert all(p.shape == (1000,) and 0 <= min(p) and max(p) < q for p in pilots)

    @pytest.mark.parametrize("q, e_max, coords", [(M61, 3, 1), (65537, 2, 3), (7, 1, 15), (7, 7, 64)])
    def test_unit_vectors_when_random_ones_would_not_be_fewer(self, q, e_max, coords):
        pilots = np.array(list(_pilot_vectors(PrimeField(q), e_max, coords)))
        assert np.array_equal(pilots, np.eye(coords, dtype=pilots.dtype))

    def test_seed_is_fixed(self):
        field = PrimeField(65537)
        first, again = (list(_pilot_vectors(field, 2, 50)) for _ in range(2))
        assert all(np.array_equal(u, v) for u, v in zip(first, again))

    @pytest.mark.parametrize("q, e_max", [(65537, 2), (M61, 3)])
    def test_seeded_pilots_are_the_seeds_draws_kept_read_only(self, q, e_max):
        # pilots for one size are kept and shared; another size draws its own
        field = PrimeField(q)
        span = min(q, 1 << 62)
        for coords in (50, 60, 50):
            pilots = list(_pilot_vectors(field, e_max, coords))
            rng = np.random.default_rng(_PROJECTION_SEED)
            fresh = [rng.integers(0, span, size=coords) for _ in pilots]
            assert [p.tolist() for p in pilots] == [f.tolist() for f in fresh]
            assert all(p.dtype == field.array_dtype for p in pilots)
            again = list(_pilot_vectors(field, e_max, coords))
            assert all(p is a for p, a in zip(pilots, again))
            for pilot in pilots:
                assert not pilot.flags.writeable
                with pytest.raises(ValueError):
                    pilot[0] = 1

    def test_pilot_cache_stays_within_its_bound(self):
        field = PrimeField(65537)
        for coords in range(10, 10 + 3 * _PILOT_CACHE):
            list(_pilot_vectors(field, 2, coords))
        info = _seeded_pilots.cache_info()
        assert info.maxsize == _PILOT_CACHE
        assert info.currsize == _PILOT_CACHE

    def test_field_past_int64_draws(self, rng):
        # numpy cannot draw below 2^89 - 1; the pilots draw below 2^62 and
        # still repair a single wrong entry
        field = PrimeField((1 << 89) - 1)
        code = EntangledCode(2, 2, 1, 9, field)
        a = random_matrix(field, 4, 8, rng)
        b = random_matrix(field, 4, 4, rng)
        corrupted = _bump_last_entry(make_results(code, a, b), [3], field.modulus)
        assert correct_errors(code, corrupted, dims=(8, 4)) == oracle_product(a, b)


def _entangled(field):
    return EntangledCode(2, 1, 1, min(field.modulus - 1, 9), field)


def _improved(field):
    if field.modulus < 20:
        return ImprovedBilinearCode(load_construction("standard-2x1x1"), field.modulus - 1, field)
    return ImprovedBilinearCode(strassen_construction(), 19, field)


@pytest.mark.parametrize("q", [7, 11, 65537, M61])
@pytest.mark.parametrize("make_code", [_entangled, _improved], ids=["entangled", "improved"])
@pytest.mark.parametrize("block", [1, 5], ids=["1x1", "5x5"])
def test_correction_returns_the_oracle_within_budget(q, make_code, block):
    # 1x1 blocks take the unit-vector pilots, 5x5 blocks the random ones
    # (t <= 22 here, below 25 entries)
    field = PrimeField(q)
    code = make_code(field)
    e_max = (code.N - code.recovery_threshold()) // 2
    r, t = code.m * block, code.n * block
    rng = random.Random(q)
    a = random_matrix(field, code.p, r, rng)
    b = random_matrix(field, code.p, t, rng)
    oracle = oracle_product(a, b)
    results = make_results(code, a, b)
    assert results[0].shape == (block, block)
    for errors in range(e_max + 1):
        for seed in range(20):
            corrupted, _ = FaultModel(errors, seed).inject(results)
            assert correct_errors(code, corrupted, dims=(r, t)) == oracle, (errors, seed)


def test_corruption_orthogonal_to_the_first_projection_is_never_silently_wrong(rng):
    # at q = 2^61 - 1 one projection is the whole pilot set: a delta crafted
    # orthogonal to it leaves every pilot stream clean, so verification
    # must catch it
    field = PrimeField(M61)
    code = EntangledCode(2, 2, 1, 9, field)
    a = random_matrix(field, 4, 8, rng)
    b = random_matrix(field, 4, 4, rng)
    oracle = oracle_product(a, b)
    results = make_results(code, a, b)
    (pilot,) = _pilot_vectors(field, 2, 16)
    delta = [rng.randrange(1, M61) for _ in range(16)]
    rest = sum(d * int(p) for d, p in zip(delta[1:], pilot[1:]))
    delta[0] = -rest * pow(int(pilot[0]), -1, M61) % M61
    assert sum(d * int(p) for d, p in zip(delta, pilot)) % M61 == 0
    corrupted = list(results)
    data = (corrupted[4].data + np.array(delta, dtype=object).reshape(4, 4)) % M61
    corrupted[4] = MatrixF._wrap(field, data)
    assert corrupted[4] != results[4]
    try:
        assert correct_errors(code, corrupted, dims=(8, 4)) == oracle
    except TooManyErrors:
        pass


class TestImprovedCodeRepair:
    """The improved code is a matrix evaluation code: strassen at N = 19 has K = 13."""

    @pytest.fixture
    def setup_19_workers(self, gf65537, rng):
        code = ImprovedBilinearCode(strassen_construction(), 19, gf65537)
        a = random_matrix(gf65537, 4, 4, rng)
        b = random_matrix(gf65537, 4, 4, rng)
        return code, oracle_product(a, b), make_results(code, a, b)

    @pytest.mark.parametrize("errors", [0, 1, 2, 3])
    def test_correction_within_budget(self, setup_19_workers, errors):
        code, oracle, results = setup_19_workers
        assert (code.N - code.recovery_threshold()) // 2 == 3
        for seed in range(20):
            corrupted, _ = FaultModel(errors, seed).inject(results)
            assert correct_errors(code, corrupted, dims=(4, 4)) == oracle

    @pytest.mark.parametrize("errors", range(7))
    def test_detection_never_silently_wrong(self, setup_19_workers, errors):
        code, oracle, results = setup_19_workers
        assert code.N - code.recovery_threshold() == 6
        for seed in range(20):
            corrupted, _ = FaultModel(errors, seed).inject(results)
            out = detect_errors(code, corrupted, dims=(4, 4))
            if isinstance(out, Clean):
                assert out.matrix == oracle
            else:
                assert errors and isinstance(out, ErrorDetected)


class TestNonPolynomialSchemes:
    """Repair needs an evaluation code: the vector codes repair, other schemes get a typed refusal."""

    @pytest.mark.parametrize("make_code", [
        lambda f: RandomLinearCode(1, 2, 1, 4, f, seed=3),
        lambda f: UncodedRepetitionCode(2, 1, 1, 4, f),
    ], ids=["random-linear", "uncoded"])
    @pytest.mark.parametrize("repair", [detect_errors, correct_errors])
    def test_typed_error_names_the_scheme(self, make_code, repair, gf65537, rng):
        code = make_code(gf65537)
        a, b = random_matrix(gf65537, 4, 4, rng), random_matrix(gf65537, 4, 4, rng)
        results = make_results(code, a, b)
        with pytest.raises(CodedmmError, match=type(code).__name__):
            repair(code, results)
        with pytest.raises(CodedmmError, match=type(code).__name__):
            repair(code, code.worker_products(a, b))

    @pytest.mark.parametrize("make_code", [
        lambda f: ElementwiseProductCode(3, 9, f),
        lambda f: conv_spec(2, 2, 7, 3, f),
    ], ids=["elementwise", "convolution"])
    @pytest.mark.parametrize("repair", [detect_errors, correct_errors])
    def test_vector_code_repair(self, make_code, repair, gf65537, rng):
        # K = 5 of N = 9 and K = 3 of N = 7: both detect 4 errors and correct 2
        code = make_code(gf65537)
        k = code.recovery_threshold()
        if isinstance(code, ElementwiseProductCode):
            a, b = ([rng.randrange(65537) for _ in range(3)] for _ in range(2))
            dims, want = None, elementwise_product(65537, a, b)
        else:
            a, b = [rng.randrange(65537) for _ in range(5)], [rng.randrange(65537) for _ in range(6)]
            dims, want = (5, 6), direct_convolution(65537, a, b)
        most = code.N - k if repair is detect_errors else (code.N - k) // 2
        for errors in range(most + 1):
            for seed in range(10):
                stack = code.worker_products(a, b)
                inject_faults(np.random.default_rng(seed), stack, errors, 65537)
                out = repair(code, stack, dims)
                if repair is correct_errors:
                    assert out.tolist() == want, (errors, seed)
                elif errors:
                    assert isinstance(out, ErrorDetected), (errors, seed)
                else:
                    assert out.matrix.tolist() == want


@pytest.mark.parametrize("q", [65537, M61])
@pytest.mark.parametrize("repair", [detect_errors, correct_errors])
def test_repair_takes_the_worker_products_stack(q, repair, rng):
    # the stack as worker_products returns it, and the same results shifted
    # off [0, q): minus q at 65537, plus q and past 2^63 as Python ints at
    # 2^61 - 1.  Every form is the clean results, so detection passes them
    # and both return the oracle as an array
    field = PrimeField(q)
    code = EntangledCode(2, 2, 1, 9, field)
    a, b = random_matrix(field, 4, 4, rng), random_matrix(field, 4, 2, rng)
    want = oracle_product(a, b).data.tolist()
    stack = code.worker_products(a, b)
    if q == 65537:
        shifted = [stack - q]
    else:
        shifted = [stack + q, stack.astype(object) + 8 * q]
        assert min(int(v) for v in shifted[1].flat) >= 1 << 63
    for results in (stack, *shifted, list(shifted[-1])):
        out = repair(code, results, dims=(4, 2))
        if repair is detect_errors:
            assert isinstance(out, Clean)
            out = out.matrix
        assert isinstance(out, np.ndarray)
        assert out.tolist() == want


def _evaluation_case(name, field, rng):
    """(code, a, b, dims, oracle as nested lists) for each evaluation code, all with N >= K + 2."""
    q = field.modulus
    if name == "elementwise":
        a, b = [5, 6, 7], [2, 3, 4]
        return ElementwiseProductCode(3, 7, field), a, b, None, elementwise_product(q, a, b)
    if name == "convolution":
        a, b = [rng.randrange(q) for _ in range(5)], [rng.randrange(q) for _ in range(6)]
        return conv_spec(2, 2, 7, 3, field), a, b, (5, 6), direct_convolution(q, a, b)
    if name == "entangled":
        code, cols = EntangledCode(2, 2, 1, 9, field), 2
    else:
        code, cols = ImprovedBilinearCode(strassen_construction(), 15, field), 4
    a, b = random_matrix(field, 4, 4, rng), random_matrix(field, 4, cols, rng)
    return code, a, b, (a.cols, b.cols), oracle_product(a, b).data.tolist()


EVALUATION_CODES = ["entangled", "improved", "elementwise", "convolution"]


def _forms(stack):
    """The worker results indexed by worker, three ways: a mapping, a list and the stack."""
    return {"mapping": dict(enumerate(stack)), "list": list(stack), "stack": stack}


@pytest.mark.parametrize("name", EVALUATION_CODES)
def test_every_form_of_results_decodes_and_repairs_to_the_oracle(name, gf65537, rng):
    # results[w] is worker w's result in every form, so a mapping's keys are
    # never read as results
    code, a, b, dims, want = _evaluation_case(name, gf65537, rng)
    stack = code.worker_products(a, b)
    last_k = range(code.N - code.recovery_threshold(), code.N)
    for form, results in _forms(stack).items():
        assert code.decode(results, last_k, dims).tolist() == want, form
        verdict = detect_errors(code, results, dims)
        assert isinstance(verdict, Clean) and verdict.matrix.tolist() == want, form
        assert correct_errors(code, results, dims).tolist() == want, form


@pytest.mark.parametrize("name", EVALUATION_CODES)
def test_every_corrupted_position_is_caught(name, gf65537, rng):
    # one corrupted worker at each position: detection names it whenever it
    # lies outside the first K, and correction returns the oracle
    code, a, b, dims, want = _evaluation_case(name, gf65537, rng)
    k = code.recovery_threshold()
    assert code.N >= k + 2
    for w in range(code.N):
        stack = code.worker_products(a, b)
        stack[w] = (stack[w] + 1) % gf65537.modulus
        for form in ("mapping", "stack"):
            results = _forms(stack)[form]
            verdict = detect_errors(code, results, dims)
            assert isinstance(verdict, ErrorDetected), (w, form)
            if w >= k:
                assert verdict.worker == w, (w, form)
            assert correct_errors(code, results, dims).tolist() == want, (w, form)


@pytest.mark.parametrize("repair", [detect_errors, correct_errors])
def test_a_mapping_without_a_worker_is_refused(repair, setup_9_workers):
    code, _, _, _, results = setup_9_workers
    shifted = {w + 1: r for w, r in enumerate(results)}  # N results, none from worker 0
    with pytest.raises(MissingResult):
        repair(code, shifted, dims=(4, 2))


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
