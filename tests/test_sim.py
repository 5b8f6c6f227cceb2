"""Tests for the master-worker simulator."""

import numpy as np
import pytest

from codedmm.blocks import MatrixF
from codedmm.errors import FieldTooSmall
from codedmm.sim import (
    FixedStragglers,
    ShiftedExponential,
    SimulationConfig,
    build_scheme,
    report_rows,
    run_experiment,
    run_trial,
)


def config(**kw):
    base = dict(scheme="entangled", p=2, m=1, n=1, N=6, trials=5, seed=1)
    base.update(kw)
    return SimulationConfig(**base)


class TestDeterminism:
    def test_same_config_same_reports(self):
        a = run_experiment(config(trials=20))
        b = run_experiment(config(trials=20))
        assert a == b

    def test_single_trial_matches_experiment(self):
        cfg = config(trials=1)
        scheme = build_scheme(cfg)
        single = run_trial(cfg, scheme, 0)
        exp = run_experiment(cfg)
        assert exp.reports == (single,)
        assert exp.mean_completion == single.completion_time

    def test_explicit_inputs(self, gf65537):
        cfg = config(trials=1)
        scheme = build_scheme(cfg)
        a = MatrixF(gf65537, [[1, 2], [3, 4]])
        b = MatrixF(gf65537, [[5], [6]])
        rep = run_trial(cfg, scheme, 0, inputs=(a, b))
        assert rep.success and rep.oracle_match

    def test_explicit_array_inputs(self, gf65537):
        # integer arrays, negative and past q included, run as the MatrixF
        # of their residues, as encode_all and worker_products take them
        cfg = config(trials=1, N=8)
        scheme = build_scheme(cfg)
        a = np.array([[1, -2, 3], [4, 5, 65537 + 6], [7, 8, 9], [-10, 11, 12]])
        b = np.array([[5], [6], [1 << 40], [-1]])
        rep = run_trial(cfg, scheme, 0, inputs=(a, b))
        want = run_trial(cfg, scheme, 0, inputs=(MatrixF(gf65537, a), MatrixF(gf65537, b)))
        assert rep == want and rep.oracle_match

    def test_csv_rows_stable(self):
        rows1 = report_rows(run_experiment(config(trials=8)).reports)
        rows2 = report_rows(run_experiment(config(trials=8)).reports)
        assert rows1 == rows2


class TestLatencyModels:
    def test_stragglers_never_waited_on(self):
        # k = N - K stragglers slowed 10x: completion is the K-th fastest
        cfg = config(
            latency=FixedStragglers(count=3, slowdown=10.0), trials=10, N=6
        )  # K = 3
        result = run_experiment(cfg)
        for rep in result.reports:
            assert rep.success
            assert rep.completion_time == 1.0
            assert rep.waited == rep.threshold

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ShiftedExponential(shift=1.0, rate=0.0),
            lambda: ShiftedExponential(shift=1.0, rate=-1.0),
            lambda: ShiftedExponential(shift=1.0, rate=float("inf")),
            lambda: ShiftedExponential(shift=float("nan"), rate=1.0),
            lambda: ShiftedExponential(shift=float("-inf"), rate=1.0),
            lambda: FixedStragglers(count=-1),
            lambda: FixedStragglers(count=2, slowdown=0.0),
            lambda: FixedStragglers(count=2, slowdown=float("nan")),
            lambda: FixedStragglers(count=2, slowdown=float("inf")),
        ],
        ids=["rate-zero", "rate-negative", "rate-inf", "shift-nan", "shift-inf",
             "count-negative", "slowdown-zero", "slowdown-nan", "slowdown-inf"],
    )
    def test_bad_parameters_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("faults", [-1, 7])
    def test_faults_outside_zero_to_n_rejected(self, faults):
        with pytest.raises(ValueError, match="faults"):
            config(N=6, faults=faults)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_below_one_rejected(self, trials):
        # with no reports, success_rate would divide by zero
        with pytest.raises(ValueError, match="trials"):
            run_experiment(config(trials=trials))

    def test_more_stragglers_than_workers_rejected(self):
        with pytest.raises(ValueError, match="stragglers"):
            config(N=6, latency=FixedStragglers(count=7))

    def test_faults_bounds_inclusive(self):
        assert config(N=6, faults=6).faults == 6
        assert config(N=6, faults=0, latency=FixedStragglers(count=6)).faults == 0

    def test_tied_arrivals_keep_worker_order(self, gf65537):
        # 24 of 30 workers tie at unit latency; the entangled code decodes from
        # the first K = 11 arrivals, which must be the 11 lowest of those
        # indices, so one corrupted worker breaks the decode exactly when it
        # is among them
        from codedmm.blocks import MatrixF
        from codedmm.sim import _trial_rng

        cfg = config(p=3, m=3, n=1, N=30, faults=1, latency=FixedStragglers(count=6))
        scheme = build_scheme(cfg)
        draw = np.random.default_rng(5)
        a = MatrixF(gf65537, draw.integers(0, 65537, size=(6, 6)))
        b = MatrixF(gf65537, draw.integers(0, 65537, size=(6, 2)))
        outcomes = set()
        for trial in range(60):
            # with inputs given, the trial draws the latencies, then the victim
            rng = _trial_rng(cfg.seed, trial)
            on_time = np.flatnonzero(cfg.latency.sample(rng, cfg.N) == 1.0)
            (victim,) = rng.choice(cfg.N, size=1, replace=False)
            rep = run_trial(cfg, scheme, trial, inputs=(a, b))
            assert rep.success == (victim not in on_time[:11]), (trial, victim)
            outcomes.add(rep.success)
        assert outcomes == {True, False}

    def test_shifted_exponential_floor(self):
        cfg = config(latency=ShiftedExponential(shift=2.5, rate=1.0), trials=10)
        for rep in run_experiment(cfg).reports:
            assert rep.completion_time > 2.5


class TestOracleMatch:
    def test_no_faults_always_matches(self):
        for scheme in ("entangled", "uncoded", "random-linear"):
            cfg = config(scheme=scheme, p=2, m=2, n=1, N=10, trials=10, seed=3)
            result = run_experiment(cfg)
            assert all(rep.oracle_match for rep in result.reports)
            assert result.success_rate == 1.0

    def test_singular_subsets_wait_for_one_more_worker(self):
        # over GF(5) a random-linear subset of K = 2 workers is often
        # singular; the trial waits for more arrivals and still decodes
        cfg = config(scheme="random-linear", p=1, m=2, n=1, N=8, trials=40, seed=1, modulus=5)
        result = run_experiment(cfg)
        assert result.success_rate == 1.0
        assert any(rep.waited > rep.threshold for rep in result.reports)

    def test_faults_can_break_plain_decode(self):
        cfg = config(p=2, m=2, n=1, N=10, trials=20, faults=2, seed=3)
        result = run_experiment(cfg)
        assert any(not rep.oracle_match for rep in result.reports)

    def test_success_means_exact(self):
        cfg = config(p=2, m=2, n=1, N=9, trials=50, faults=2, seed=0)
        result = run_experiment(cfg)
        wrong = [rep for rep in result.reports if not rep.oracle_match]
        assert wrong  # the corrupted workers do reach the decoder
        for rep in result.reports:
            assert rep.success == rep.oracle_match
        for rep in wrong:
            assert rep.completion_time == float("inf")
            assert rep.waited == cfg.N
        assert sum(not rep.success for rep in result.reports) == len(wrong)
        assert result.success_rate == (
            sum(rep.success for rep in result.reports) / cfg.trials
        )


class TestSharedDraws:
    def test_waited_counts_follow_thresholds(self):
        cfgs = {
            name: config(scheme=name, p=3, m=3, n=1, N=30, trials=5, seed=9,
                         input_dims=(3, 3, 1))
            for name in ("entangled", "uncoded")
        }
        ent = run_experiment(cfgs["entangled"]).reports
        unc = run_experiment(cfgs["uncoded"]).reports
        for e_rep, u_rep in zip(ent, unc):
            assert e_rep.waited == 11
            assert u_rep.waited == 28

    def test_mean_ordering(self):
        results = {}
        for name in ("entangled", "random-linear", "uncoded"):
            cfg = config(scheme=name, p=3, m=3, n=1, N=30, trials=60, seed=9,
                         input_dims=(3, 3, 1))
            results[name] = run_experiment(cfg)
        assert (
            results["entangled"].mean_completion
            < results["random-linear"].mean_completion
            < results["uncoded"].mean_completion
        )

    def test_completion_nonincreasing_in_threshold(self):
        # same seed, thresholds 11 < 27 < 28 -> per-trial completions ordered
        reports = {}
        for name in ("entangled", "random-linear", "uncoded"):
            cfg = config(scheme=name, p=3, m=3, n=1, N=30, trials=10, seed=4,
                         input_dims=(3, 3, 1))
            reports[name] = run_experiment(cfg).reports
        for i in range(10):
            ent = reports["entangled"][i].completion_time
            rl = reports["random-linear"][i].completion_time
            unc = reports["uncoded"][i].completion_time
            assert ent <= rl <= unc


class TestSchemeFactory:
    def test_improved_scheme(self):
        cfg = config(scheme="improved", p=2, m=2, n=2, N=13,
                     construction="strassen", trials=3)
        result = run_experiment(cfg)
        assert all(rep.oracle_match for rep in result.reports)
        assert result.reports[0].threshold == 13

    def test_general_poly(self):
        cfg = config(scheme="general-poly", p=2, m=2, n=1, N=12,
                     alpha=1, beta=2, theta=4, trials=3)
        result = run_experiment(cfg)
        assert all(rep.oracle_match for rep in result.reports)

    @pytest.mark.parametrize("modulus", [5, 7])
    def test_general_poly_needs_q_above_n(self, modulus):
        # the points 0..N-1 are distinct mod q only for q > N, as for every other code
        cfg = SimulationConfig("general-poly", 1, 2, 1, 7, modulus=modulus, alpha=1, beta=1, theta=2)
        with pytest.raises(FieldTooSmall):
            build_scheme(cfg)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            build_scheme(config(scheme="carrier-pigeon"))

    def test_exact_threshold_schemes_decode_at_k(self):
        for name in ("entangled", "improved"):
            kw = dict(scheme=name, p=2, m=2, n=2, N=13, trials=10, seed=2)
            if name == "improved":
                kw["construction"] = "strassen"
            result = run_experiment(config(**kw))
            for rep in result.reports:
                assert rep.waited == rep.threshold
