"""Tests for the closed-form threshold and cost calculators."""

from fractions import Fraction

import pytest

from codedmm.bounds import (
    FIG2_COLUMNS,
    converse_linear,
    converse_nonlinear,
    cost_model,
    figure2_table,
    strassen_crossover,
    rank_threshold_bounds,
    threshold_entangled,
    threshold_random_linear,
    threshold_short_mds,
    threshold_uncoded,
)


class TestThresholds:
    def test_entangled(self):
        assert threshold_entangled(3, 3, 1) == 11
        assert threshold_entangled(1, 4, 5) == 20
        assert threshold_entangled(1, 1, 1) == 1

    def test_uncoded(self):
        assert threshold_uncoded(3, 3, 1, 18) == 17
        assert threshold_uncoded(2, 2, 2, 8) == 8
        with pytest.raises(ValueError):
            threshold_uncoded(2, 2, 2, 7)

    def test_uncoded_monotone_in_replication(self):
        prev = None
        for replicas in range(1, 6):
            k = threshold_uncoded(2, 2, 1, 8 * replicas)
            frac = k / (8 * replicas)
            if prev is not None:
                assert frac <= prev
            prev = frac

    def test_random_linear(self):
        assert threshold_random_linear(3, 3, 1) == 27
        assert threshold_random_linear(1, 4, 5) == 20
        assert threshold_random_linear(2, 1, 1) == 4

    def test_short_mds(self):
        assert threshold_short_mds(3, 3, 18) == 15
        assert threshold_short_mds(1, 4, 9) == 4
        # grows linearly with N
        deltas = [threshold_short_mds(3, 3, N) for N in (9, 18, 27, 36)]
        assert deltas == sorted(deltas) and deltas[-1] > deltas[0]


class TestConverses:
    def test_linear_bound(self):
        assert converse_linear(2, 1, 1, 5) == 3
        assert converse_linear(2, 1, 1, 2) == 2  # N branch of the min
        for p in range(1, 8):
            assert converse_linear(p, 1, 1, 100) == 2 * p - 1 == threshold_entangled(p, 1, 1)

    def test_nonlinear_bound(self):
        assert converse_nonlinear(2, 3, 1) == 6
        assert converse_nonlinear(1, 1, 1) == 1

    def test_nonlinear_exceeds_half_threshold_on_edge_shapes(self):
        for p in range(1, 51):
            assert 2 * converse_nonlinear(p, 1, 1) > threshold_entangled(p, 1, 1)
            for m in range(1, 6):
                assert 2 * converse_nonlinear(p, m, 1) > threshold_entangled(p, m, 1)

    def test_sandwich(self):
        for p in range(1, 5):
            for m in range(1, 5):
                for n in range(1, 5):
                    k = threshold_entangled(p, m, n)
                    assert converse_linear(p, m, n, 10 * k) <= k
                    if m == 1 or n == 1:
                        assert converse_linear(p, m, n, 10 * k) == k

    def test_theorem3(self):
        assert rank_threshold_bounds(7) == (7, 13)
        assert rank_threshold_bounds(1) == (1, 1)
        for r in range(1, 40):
            low, high = rank_threshold_bounds(r)
            assert low <= high < 2 * low


class TestCostModel:
    def test_symmetric_example(self):
        c = cost_model(2, 2, 2, 8, 8, 8)
        assert c["communication"] == Fraction(1, 4)
        assert c["storage_a"] == c["storage_b"] == Fraction(1, 4)
        assert c["tradeoff_product"] == Fraction(1, 64)

    def test_product_invariant_for_fixed_pmn(self):
        shapes = ((8, 1, 1), (2, 2, 2), (1, 2, 4), (4, 2, 1))
        products = {cost_model(p, m, n, 8, 8, 8)["tradeoff_product"] for p, m, n in shapes}
        assert products == {Fraction(1, 64)}  # 1 / (pmn)^2

    def test_p_one_minimizes_communication(self):
        best = min(
            ((p, m, n) for p in (1, 2, 4) for m in (1, 2, 4) for n in (1, 2, 4)
             if p * m * n == 4),
            key=lambda s: cost_model(*s, 8, 8, 8)["communication"],
        )
        assert best[0] == 1

    def test_compute_units(self):
        assert cost_model(2, 2, 2, 8, 8, 8)["compute"] == Fraction(8 * 8 * 8, 8)


class TestFigure2:
    def test_row_30(self):
        rows = {r[0]: r for r in figure2_table(range(11, 31))}
        assert rows[30][1:] == (28, 27, 23, 11)

    def test_boundary_row(self):
        rows = figure2_table([11])
        assert rows[0] == (11, 11, 27, 11, 11)

    def test_entangled_minimal_everywhere(self):
        for row in figure2_table(range(11, 200)):
            assert row[4] == 11
            assert all(row[4] <= other for other in row[1:4])

    def test_columns(self):
        assert FIG2_COLUMNS == ("N", "K_uncoded", "K_random_linear", "K_short_mds", "K_entangled")


class TestCrossover:
    def test_first_win_at_k6(self):
        assert strassen_crossover() == 6


# each formula with the partition counts it reads
FORMULAS = {
    "entangled": (lambda p, m, n: threshold_entangled(p, m, n), "pmn"),
    "uncoded": (lambda p, m, n: threshold_uncoded(p, m, n, 30), "pmn"),
    "random-linear": (lambda p, m, n: threshold_random_linear(p, m, n), "pmn"),
    "short-mds": (lambda p, m, n: threshold_short_mds(p, m, 30), "pm"),
    "converse-linear": (lambda p, m, n: converse_linear(p, m, n, 30), "pmn"),
    "converse-nonlinear": (lambda p, m, n: converse_nonlinear(p, m, n), "pmn"),
    "cost-model": (lambda p, m, n: cost_model(p, m, n, 4, 4, 4), "pmn"),
}


@pytest.mark.parametrize("bad", [0, -1])
@pytest.mark.parametrize(
    "name, dim", [(name, dim) for name, (_, dims) in FORMULAS.items() for dim in dims]
)
def test_partition_counts_below_one_are_refused(name, dim, bad):
    formula, _ = FORMULAS[name]
    dims = {"p": 2, "m": 2, "n": 2, dim: bad}
    with pytest.raises(ValueError, match=f"{dim} must be >= 1"):
        formula(**dims)
