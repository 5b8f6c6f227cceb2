"""Tests for bilinear constructions and the 2R-1 threshold code."""

from itertools import combinations

import numpy as np
import pytest

from codedmm.bilinear import (
    BilinearConstruction,
    ElementwiseProductCode,
    ImprovedBilinearCode,
    compose,
    load_construction,
    registry_names,
    save_construction,
    standard_construction,
    strassen_construction,
    tensor_power,
    validate_construction,
)
from codedmm.blocks import MatrixF
from codedmm.errors import (
    BlockShapeMismatch,
    ConstructionTooLarge,
    FieldTooSmall,
    InsufficientResults,
    NonIntegerEntry,
    TooFewWorkers,
)
from codedmm.schemes import worker_multiply

from oracles import block_grid, elementwise_product, oracle_product, random_matrix


class TestValidate:
    def test_standard_constructions_pass(self, gf65537):
        for p, m, n in ((1, 1, 1), (2, 1, 1), (2, 2, 2), (3, 2, 4)):
            bc = standard_construction(p, m, n)
            assert bc.rank == p * m * n
            assert validate_construction(bc, gf65537).ok

    def test_strassen_passes_every_test_field(self, gf7, gf257, gf65537):
        s = strassen_construction()
        assert s.rank == 7
        for f in (gf7, gf257, gf65537):
            assert validate_construction(s, f).ok

    def test_flipped_sign_fails_with_location(self, gf65537):
        s = strassen_construction()
        bad_c = s.c.copy()
        bad_c[3, 0, 0] = -bad_c[3, 0, 0]
        bad = BilinearConstruction(2, 2, 2, 7, s.a, s.b, bad_c)
        res = validate_construction(bad, gf65537)
        assert not res.ok
        assert len(res.violation) == 6

    def test_rank_zero_fails(self, gf7):
        bc = BilinearConstruction(
            1, 1, 1, 0,
            np.zeros((0, 1, 1), int), np.zeros((0, 1, 1), int), np.zeros((0, 1, 1), int),
        )
        res = validate_construction(bc, gf7)
        assert not res.ok
        assert res.violation == (0, 0, 0, 0, 0, 0)


class TestStrassenMultiply:
    def test_seven_products_compute_the_block_product(self, gf257, rng):
        # apply the tensors directly to random 2x2 block matrices
        s = strassen_construction()
        q = 257
        a = random_matrix(gf257, 4, 4, rng)
        b = random_matrix(gf257, 4, 4, rng)
        a_grid = block_grid(a, 2, 2)
        b_grid = block_grid(b, 2, 2)
        prods = []
        for i in range(7):
            left = MatrixF.zeros(gf257, 2, 2)
            right = MatrixF.zeros(gf257, 2, 2)
            for j in range(2):
                for k in range(2):
                    left = left + a_grid[j][k].scale(int(s.a[i, j, k]))
                    right = right + b_grid[j][k].scale(int(s.b[i, j, k]))
            prods.append(worker_multiply(left, right))
        grid = [[MatrixF.zeros(gf257, 2, 2) for _ in range(2)] for _ in range(2)]
        for i in range(7):
            for j in range(2):
                for k in range(2):
                    grid[j][k] = grid[j][k] + prods[i].scale(int(s.c[i, j, k]))
        assembled = np.block([[blk.data for blk in row] for row in grid])
        assert MatrixF(gf257, assembled[:4, :4]) == oracle_product(a, b)


class TestTensorPower:
    def test_power_one_is_identity(self):
        s = strassen_construction()
        assert tensor_power(s, 1) == s

    def test_strassen_squared(self, gf65537):
        s2 = tensor_power(strassen_construction(), 2)
        assert s2.shape() == (4, 4, 4)
        assert s2.rank == 49
        assert validate_construction(s2, gf65537).ok

    def test_standard_2_1_1_squared(self, gf65537):
        bc = tensor_power(standard_construction(2, 1, 1), 2)
        assert bc.shape() == (4, 1, 1)
        assert bc.rank == 4
        assert validate_construction(bc, gf65537).ok

    def test_mixed_compose(self, gf65537):
        bc = compose(standard_construction(2, 1, 1), strassen_construction())
        assert bc.shape() == (4, 2, 2)
        assert bc.rank == 14
        assert validate_construction(bc, gf65537).ok

    def test_strassen_cubed_still_valid(self, gf65537):
        s3 = tensor_power(strassen_construction(), 3)
        assert s3.shape() == (8, 8, 8)
        assert s3.rank == 343
        assert validate_construction(s3, gf65537).ok

    def test_rank_budget_guard(self):
        with pytest.raises(ConstructionTooLarge):
            tensor_power(strassen_construction(), 9)  # 7^9 > 10^6


class TestImprovedCode:
    def test_low_workers_store_coded_vectors_exactly(self, gf65537, rng):
        bc = strassen_construction()
        code = ImprovedBilinearCode(bc, 15, gf65537)
        a = random_matrix(gf65537, 4, 4, rng)
        a_grid = block_grid(a, 2, 2)
        pairs = code.encode_all(a, a)
        for i in range(bc.rank):
            # coded vector entry i: sum over (j, k) of a[i, j, k] * A[j, k]
            vec = sum(int(bc.a[i, j, k]) * a_grid[j][k].data for j in range(2) for k in range(2))
            assert pairs[i][0].data.tolist() == (vec % 65537).tolist()

    def test_is_the_elementwise_code_on_the_coded_vectors(self, gf65537, rng):
        # worker i stores the element-wise code's encoding of the R coded
        # A-blocks sum_{j,k} a[r, j, k] A[j, k], and likewise for B
        bc = strassen_construction()
        code = ImprovedBilinearCode(bc, 15, gf65537)
        elementwise = ElementwiseProductCode(bc.rank, 15, gf65537)
        for tensor, side in ((bc.a, 0), (bc.b, 1)):
            matrix = random_matrix(gf65537, 4, 4, rng)
            grid = block_grid(matrix, 2, 2)
            vectors = [
                sum(int(tensor[r, j, k]) * grid[j][k].data for j in range(2) for k in range(2)) % 65537
                for r in range(bc.rank)
            ]
            coded = elementwise.encode_all(vectors, vectors)
            pairs = code.encode_all(matrix, matrix)
            for i in range(15):
                assert pairs[i][side].data.tolist() == coded[i][0].tolist()

    def test_zero_inputs_zero_blocks(self, gf65537):
        code = ImprovedBilinearCode(strassen_construction(), 13, gf65537)
        z = MatrixF.zeros(gf65537, 4, 4)
        pairs = code.encode_all(z, z)
        for i in (0, 6, 12):
            assert not pairs[i][0].data.any()
            assert not pairs[i][1].data.any()

    def test_strassen_exhaustive_subsets(self, gf65537, rng):
        code = ImprovedBilinearCode(strassen_construction(), 15, gf65537)
        assert code.recovery_threshold() == 13
        a = random_matrix(gf65537, 4, 4, rng)
        b = random_matrix(gf65537, 4, 4, rng)
        oracle = oracle_product(a, b)
        results = {i: worker_multiply(ca, cb) for i, (ca, cb) in enumerate(code.encode_all(a, b))}
        subsets = list(combinations(range(15), 13))
        assert len(subsets) == 105
        for sub in subsets:
            assert code.decode(results, sub, dims=(4, 4)) == oracle

    def test_standard_construction_pipeline_with_padding(self, gf65537, rng):
        bc = standard_construction(2, 3, 2)
        code = ImprovedBilinearCode(bc, 2 * bc.rank - 1, gf65537)
        a = random_matrix(gf65537, 5, 7, rng)
        b = random_matrix(gf65537, 5, 3, rng)
        results = {i: worker_multiply(ca, cb) for i, (ca, cb) in enumerate(code.encode_all(a, b))}
        got = code.decode(results, list(range(code.N)), dims=(7, 3))
        assert got == oracle_product(a, b)

    def test_threshold_not_uniformly_better(self, gf65537):
        # with p = 1 the basic polynomial code needs mn, this one 2mn - 1
        bc = standard_construction(1, 3, 2)
        code = ImprovedBilinearCode(bc, 11, gf65537)
        assert code.recovery_threshold() == 11  # 2*6 - 1

    def test_preconditions(self, gf7, gf65537):
        with pytest.raises(TooFewWorkers):
            ImprovedBilinearCode(strassen_construction(), 12, gf65537)
        with pytest.raises(FieldTooSmall):
            ImprovedBilinearCode(strassen_construction(), 13, gf7)
        code = ImprovedBilinearCode(strassen_construction(), 15, gf65537)
        with pytest.raises(InsufficientResults):
            code.decode({}, list(range(12)))


class TestElementwiseProduct:
    def test_rank_one(self, gf65537):
        code = ElementwiseProductCode(1, 3, gf65537)
        assert code.recovery_threshold() == 1

    def test_exhaustive_r4_n10(self, gf65537, rng):
        q = 65537
        code = ElementwiseProductCode(4, 10, gf65537)
        assert code.recovery_threshold() == 7
        a = [rng.randrange(q) for _ in range(4)]
        b = [rng.randrange(q) for _ in range(4)]
        results = dict(enumerate(code.worker_products(a, b)))
        want = elementwise_product(q, a, b)
        for sub in combinations(range(10), 7):
            got = [int(v) for v in code.decode(results, sub)]
            assert got == want
        with pytest.raises(InsufficientResults):
            code.decode(results, list(range(6)))

    def test_min_branch_when_n_small(self, gf65537, rng):
        q = 65537
        code = ElementwiseProductCode(4, 5, gf65537)
        assert code.recovery_threshold() == 5  # N < 2R - 1
        a = [rng.randrange(q) for _ in range(4)]
        b = [rng.randrange(q) for _ in range(4)]
        results = dict(enumerate(code.worker_products(a, b)))
        got = [int(v) for v in code.decode(results, list(range(5)))]
        assert got == elementwise_product(q, a, b)

    def test_block_entries(self, gf257, rng):
        code = ElementwiseProductCode(3, 7, gf257)
        a = [random_matrix(gf257, 2, 2, rng).data for _ in range(3)]
        b = [random_matrix(gf257, 2, 2, rng).data for _ in range(3)]
        results = dict(enumerate(code.worker_products(a, b)))
        got = code.decode(results, list(range(7)))
        for i in range(3):
            assert np.array_equal(got[i], a[i] * b[i] % 257)

    def test_results_of_mixed_shapes(self, gf257):
        code = ElementwiseProductCode(2, 3, gf257)
        results = {w: np.zeros((2, 2), dtype=np.int64) for w in range(3)}
        results[2] = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(BlockShapeMismatch):
            code.decode(results, [0, 1, 2])


    @pytest.mark.parametrize("N", [5, 6], ids=["direct read", "interpolated"])
    def test_dims_other_than_the_vector_lengths_are_refused(self, gf257, N):
        # the vectors are not padded, so dims can only name their lengths
        # (R, R); malformed dims are refused as every other code refuses them
        code = ElementwiseProductCode(3, N, gf257)
        stack = code.worker_products([1, 2, 3], [4, 5, 6])
        for dims in ((1.5, 2), (1,), (3, 3, 3), 3, "33", (2, 3), (3, 4)):
            with pytest.raises(BlockShapeMismatch):
                code.decode(stack, range(N), dims=dims)
        assert code.decode(stack, range(N), dims=(np.int64(3), 3)).tolist() == [4, 10, 18]

    def test_non_integer_entries_are_refused(self, gf65537):
        # 1.5 would otherwise be truncated to 1, and a result 0.9 off decode silently
        code = ElementwiseProductCode(3, 5, gf65537)
        with pytest.raises(NonIntegerEntry):
            code.worker_products([1.5, 2.7, 3.2], [1, 2, 3])
        with pytest.raises(NonIntegerEntry):
            code.encode_all([1, 2, 3], [1.5, 2.7, 3.2])
        results = dict(enumerate(code.worker_products([1, 2, 3], [4, 5, 6])))
        results[2] = results[2] + 0.9
        with pytest.raises(NonIntegerEntry):
            code.decode(results, list(range(5)))
        with pytest.raises(NonIntegerEntry):
            code.decode(np.array([results[w] for w in range(5)]), list(range(5)))

class TestRegistry:
    def test_small_rank_pipelines_exhaustive(self, gf65537, rng):
        # every shipped construction with R <= 8: decode equals the oracle
        # for every minimum-size subset
        for name in registry_names():
            bc = load_construction(name)
            if bc.rank > 8:
                continue
            code = ImprovedBilinearCode(bc, 2 * bc.rank + 1, gf65537)
            k = code.recovery_threshold()
            a = random_matrix(gf65537, 2 * bc.p, 2 * bc.m, rng)
            b = random_matrix(gf65537, 2 * bc.p, 2 * bc.n, rng)
            oracle = oracle_product(a, b)
            results = {
                i: worker_multiply(ca, cb)
                for i, (ca, cb) in enumerate(code.encode_all(a, b))
            }
            for sub in combinations(range(code.N), k):
                assert code.decode(results, sub, dims=(2 * bc.m, 2 * bc.n)) == oracle, name

    def test_all_shipped_constructions_validate(self, gf7, gf257, gf65537):
        names = registry_names()
        assert "strassen" in names
        for name in names:
            bc = load_construction(name)
            for f in (gf7, gf257, gf65537):
                assert validate_construction(bc, f).ok, (name, f.modulus)

    def test_shipped_strassen_matches_code(self):
        assert load_construction("strassen") == strassen_construction()

    def test_save_load_roundtrip(self, tmp_path):
        bc = tensor_power(strassen_construction(), 2)
        path = tmp_path / "s2.json"
        save_construction(bc, path)
        assert load_construction(path) == bc

    def test_unknown_name(self):
        with pytest.raises(FileNotFoundError):
            load_construction("no-such-construction")


class TestCrossover:
    def test_rank7_beats_basic_first_at_k6(self):
        from codedmm.bounds import strassen_crossover, rank_threshold_bounds

        assert strassen_crossover() == 6
        assert 2 * 7**6 - 1 == 235297
        assert 8**6 + 2**6 - 1 == 262207
        assert 2 * 7**5 - 1 > 8**5 + 2**5 - 1
        assert rank_threshold_bounds(7) == (7, 13)
