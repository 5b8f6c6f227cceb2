"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  All arithmetic is exact,
so every comparison is equality; the only tolerances are the stated runtime
budgets, which are asserted with wall-clock margins.
"""

import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from codedmm.bilinear import (
    ElementwiseProductCode,
    ImprovedBilinearCode,
    load_construction,
    registry_names,
    strassen_construction,
    tensor_power,
    validate_construction,
)
from codedmm.blocks import MatrixF, assemble_array, padded_blocks
from codedmm.bounds import converse_linear, threshold_entangled
from codedmm.cli import main as cli_main
from codedmm.errors import InsufficientResults, TooManyErrors
from codedmm.field import FieldPolynomial, PrimeField, lagrange_interpolate
from codedmm.robust import Clean, FaultModel, correct_errors, detect_errors, hamming_relations
from codedmm.schemes import EntangledCode, worker_multiply
from codedmm.sim import SimulationConfig, report_rows, run_experiment

from oracles import direct_convolution, elementwise_product, oracle_product

GF7 = PrimeField(7)
GF257 = PrimeField(257)
GF65537 = PrimeField(65537)
GF_M61 = PrimeField((1 << 61) - 1)


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{label}]: FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {number:2d} [{label}]: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"


def all_results(code, a, b):
    return {i: worker_multiply(ca, cb) for i, (ca, cb) in enumerate(code.encode_all(a, b))}


def test_criterion_1_worked_example():
    with criterion(1, "half-split example, all 10 subsets", 1.0):
        code = EntangledCode(2, 1, 1, 5, GF7)
        assert code.recovery_threshold() == 3
        a = MatrixF(GF7, [[1], [2]])
        b = MatrixF(GF7, [[3], [4]])
        oracle = oracle_product(a, b)
        assert oracle.data.tolist() == [[4]]  # 11 mod 7
        results = all_results(code, a, b)
        subsets = list(combinations(range(5), 3))
        assert len(subsets) == 10
        for sub in subsets:
            assert code.decode(results, sub, dims=(1, 1)) == oracle


def test_criterion_2_exhaustive_thresholds():
    with criterion(2, "every (p,m,n) with pmn<=8, all threshold subsets", 60.0):
        rng = np.random.default_rng(2024)
        shapes = [
            (p, m, n)
            for p in range(1, 9)
            for m in range(1, 9)
            for n in range(1, 9)
            if p * m * n <= 8
        ]
        assert len(shapes) == 38
        for p, m, n in shapes:
            k = p * m * n + p - 1
            N = p * m * n + p + 2
            code = EntangledCode(p, m, n, N, GF65537)
            assert code.recovery_threshold() == k == threshold_entangled(p, m, n)
            s, r, t = p + 1, m + 1, n + 1  # forces padding on every axis
            a = MatrixF(GF65537, rng.integers(0, 65537, size=(s, r)))
            b = MatrixF(GF65537, rng.integers(0, 65537, size=(s, t)))
            oracle = oracle_product(a, b)
            results = all_results(code, a, b)
            for sub in combinations(range(N), k):
                assert code.decode(results, sub, dims=(r, t)) == oracle, (p, m, n, sub)


def test_criterion_2_bulk_round_trip():
    # the bulk path: 256 x 256 blocks through the workspace kernel, timed on every run
    with criterion(2, "512x512 entangled (2,2,2) N=12 round trip from a seeded 9-subset", 5.0):
        q = GF65537.modulus
        code = EntangledCode(2, 2, 2, 12, GF65537)
        rng = np.random.default_rng(512)
        a_np, b_np = rng.integers(0, q, size=(2, 512, 512))
        results = all_results(code, MatrixF(GF65537, a_np), MatrixF(GF65537, b_np))
        subset = sorted(rng.choice(code.N, code.recovery_threshold(), replace=False).tolist())
        got = code.decode(results, subset, dims=(512, 512))
        # exact in float64: an entry sums 512 products below 2^32
        want = (a_np.T.astype(np.float64) @ b_np.astype(np.float64)) % q
        assert np.array_equal(got.data, want.astype(np.int64))


def test_criterion_3_strassen_code():
    with criterion(3, "rank-7 code, all 105 subsets of size 13", 30.0):
        rng = np.random.default_rng(3)
        code = ImprovedBilinearCode(strassen_construction(), 15, GF65537)
        assert code.recovery_threshold() == 13
        a = MatrixF(GF65537, rng.integers(0, 65537, size=(4, 4)))
        b = MatrixF(GF65537, rng.integers(0, 65537, size=(4, 4)))
        oracle = oracle_product(a, b)
        results = all_results(code, a, b)
        subsets = list(combinations(range(15), 13))
        assert len(subsets) == 105
        for sub in subsets:
            assert code.decode(results, sub, dims=(4, 4)) == oracle
    with criterion(3, "tensor square of the rank-7 construction validates", 30.0):
        squared = tensor_power(strassen_construction(), 2)
        assert squared.rank == 49
        assert validate_construction(squared, GF65537).ok


def test_criterion_4_elementwise_product():
    with criterion(4, "element-wise code R=4 N=10: size 7 works, size 6 does not", 10.0):
        rng = np.random.default_rng(4)
        code = ElementwiseProductCode(4, 10, GF65537)
        assert code.recovery_threshold() == 7
        a = [int(v) for v in rng.integers(0, 65537, size=4)]
        b = [int(v) for v in rng.integers(0, 65537, size=4)]
        want = elementwise_product(65537, a, b)
        results = dict(enumerate(code.worker_products(a, b)))
        for sub in combinations(range(10), 7):
            assert [int(v) for v in code.decode(results, sub)] == want
        # 6 points cannot pin down the 7 coefficients of the product polynomial
        assert 6 < 2 * 4 - 1
        for sub in combinations(range(10), 6):
            with pytest.raises(InsufficientResults):
                code.decode(results, sub)


def test_criterion_5_convolution():
    with criterion(5, "convolution m=3 n=2 N=6 s=3, all 15 subsets", 5.0):
        from codedmm.blocks import partition_vector
        from codedmm.convolution import conv_decode, conv_encode, conv_spec, conv_worker

        rng = np.random.default_rng(5)
        spec = conv_spec(3, 2, 6, 3, GF257)
        assert spec.recovery_threshold() == 4
        a = [int(v) for v in rng.integers(0, 257, size=9)]
        b = [int(v) for v in rng.integers(0, 257, size=6)]
        a_blocks = partition_vector(GF257, a, 3)
        b_blocks = partition_vector(GF257, b, 2)
        results = {}
        for i in range(6):
            ca, cb = conv_encode(spec, a_blocks, b_blocks, i)
            results[i] = conv_worker(spec, ca, cb)
        want = direct_convolution(257, a, b)
        subsets = list(combinations(range(6), 4))
        assert len(subsets) == 15
        for sub in subsets:
            assert conv_decode(spec, results, sub, true_lens=(9, 6)).tolist() == want


def test_criterion_6_fault_tolerance():
    with criterion(6, "detect e=4 / correct e=2 / over-budget e=3, 500 trials each", 60.0):
        rng = np.random.default_rng(6)
        code = EntangledCode(2, 2, 1, 9, GF65537)
        assert code.recovery_threshold() == 5
        a = MatrixF(GF65537, rng.integers(0, 65537, size=(4, 4)))
        b = MatrixF(GF65537, rng.integers(0, 65537, size=(4, 2)))
        oracle = oracle_product(a, b)
        clean = [worker_multiply(ca, cb) for ca, cb in code.encode_all(a, b)]

        # (a) detection with e = N - K = 4: never a silent wrong answer
        for seed in range(500):
            corrupted, _ = FaultModel(4, seed).inject(clean)
            out = detect_errors(code, corrupted, dims=(4, 2))
            if isinstance(out, Clean):
                assert out.matrix == oracle

        # (b) correction with e = floor((N-K)/2) = 2: exact every time
        for seed in range(500):
            corrupted, _ = FaultModel(2, seed).inject(clean)
            assert correct_errors(code, corrupted, dims=(4, 2)) == oracle

        # (c) e = 3 over budget: refuse or answer correctly, never silently wrong
        for seed in range(500):
            corrupted, _ = FaultModel(3, seed).inject(clean)
            try:
                assert correct_errors(code, corrupted, dims=(4, 2)) == oracle
            except TooManyErrors:
                pass

    with criterion(6, "repair one wrong entry of a 256x256 block, N=12 K=5", 2.0):
        code = EntangledCode(2, 2, 1, 12, GF65537)
        a = MatrixF(GF65537, rng.integers(0, 65537, size=(2, 512)))
        b = MatrixF(GF65537, rng.integers(0, 65537, size=(2, 256)))
        oracle = oracle_product(a, b)
        results = [worker_multiply(ca, cb) for ca, cb in code.encode_all(a, b)]
        assert results[7].shape == (256, 256)
        data = results[7].data.copy()
        data[-1, -1] = (data[-1, -1] + 1) % 65537
        results[7] = MatrixF(GF65537, data)
        assert correct_errors(code, results, dims=(512, 256)) == oracle

    with criterion(6, "correct e=2 / over-budget e=3 at q=2^61-1, 200 trials each", 5.0):
        code = EntangledCode(2, 2, 1, 9, GF_M61)
        a = MatrixF(GF_M61, rng.integers(0, GF_M61.modulus, size=(16, 16)))
        b = MatrixF(GF_M61, rng.integers(0, GF_M61.modulus, size=(16, 8)))
        oracle = oracle_product(a, b)
        clean = [worker_multiply(ca, cb) for ca, cb in code.encode_all(a, b)]
        for seed in range(200):
            corrupted, _ = FaultModel(2, seed).inject(clean)
            assert correct_errors(code, corrupted, dims=(16, 8)) == oracle
        for seed in range(200):
            corrupted, _ = FaultModel(3, seed).inject(clean)
            try:
                assert correct_errors(code, corrupted, dims=(16, 8)) == oracle
            except TooManyErrors:
                pass


def test_criterion_7_figure2_table(capsys):
    with criterion(7, "threshold comparison table p=m=3 n=1", 5.0):
        assert cli_main(["bounds", "--fig2", "--Nmax", "40"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert lines[0].split(",") == ["N", "K_uncoded", "K_random_linear", "K_short_mds", "K_entangled"]
        rows = [tuple(int(v) for v in ln.split(",")) for ln in lines[1:]]
        for N, unc, rl, mds, ent in rows:
            assert ent == 11
            assert rl == 27
            assert mds == N - N // 3 + 3
            assert unc == N - N // 9 + 1
            assert ent <= min(unc, rl, mds)
        assert rows[0][0] == 11 and rows[-1][0] == 40


def test_criterion_8_optimality_witness():
    with criterion(8, "threshold meets the linear converse at m=1 or n=1", 1.0):
        checked = 0
        for p in range(1, 21):
            for other in range(1, 21):
                if p * other + p - 1 > 20:
                    continue
                for m, n in ((1, other), (other, 1)):
                    want = p * m + p * n - 1
                    assert threshold_entangled(p, m, n) == want
                    assert converse_linear(p, m, n, N=1000) == want
                    checked += 1
        assert checked > 0


def test_criterion_9_hamming_consistency():
    with criterion(9, "distance relations across all N <= 100", 2.0):
        for N in range(1, 101):
            for K in range(1, N + 1):
                assert hamming_relations(N, N - K + 1) == (K, N - K, (N - K) // 2)
        # the straggler suite (criterion 2) and the fault suite (criterion 6)
        # run the same K for their shared shape
        code = EntangledCode(2, 2, 1, 9, GF65537)
        assert code.recovery_threshold() == threshold_entangled(2, 2, 1) == 5


def test_criterion_10_simulator():
    with criterion(10, "simulator determinism and mean-completion ordering", 60.0):
        results = {}
        for name in ("entangled", "random-linear", "uncoded"):
            cfg = SimulationConfig(
                scheme=name, p=3, m=3, n=1, N=30, trials=1000, seed=10,
                input_dims=(3, 3, 1),
            )
            results[name] = run_experiment(cfg)
        assert (
            results["entangled"].mean_completion
            < results["random-linear"].mean_completion
            < results["uncoded"].mean_completion
        )
        cfg = SimulationConfig(
            scheme="entangled", p=3, m=3, n=1, N=30, trials=1000, seed=10,
            input_dims=(3, 3, 1),
        )
        again = run_experiment(cfg)
        assert report_rows(again.reports) == report_rows(results["entangled"].reports)
        assert all(rep.oracle_match for rep in again.reports)


def test_criterion_11_property_suites():
    with criterion(11, "interpolation round-trip, 1000 random polynomials", 60.0):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            deg = int(rng.integers(0, 9))
            coeffs = [int(v) for v in rng.integers(0, 65537, size=deg)] + [
                int(rng.integers(1, 65537))
            ]
            poly = FieldPolynomial(GF65537, coeffs)
            xs = rng.choice(65537, size=deg + 1, replace=False)
            pts = [(GF65537(int(x)), poly.evaluate(int(x))) for x in xs]
            assert lagrange_interpolate(pts) == poly

    with criterion(11, "partition/assemble round-trip, exhaustive dims <= 8", 60.0):
        rng = np.random.default_rng(1111)
        for s in range(1, 9):
            for r in range(1, 9):
                m = MatrixF(GF257, rng.integers(0, 257, size=(s, r)))
                for p in range(1, 5):
                    for k in range(1, 5):
                        back = assemble_array(padded_blocks(m, p, k))
                        assert np.array_equal(back[:s, :r], m.data)
                        assert int(back.sum()) == int(m.data.sum())

    with criterion(11, "encoding linearity under random superpositions", 60.0):
        rng = np.random.default_rng(111)
        code = EntangledCode(2, 3, 2, 16, GF65537)
        for _ in range(25):
            a1 = MatrixF(GF65537, rng.integers(0, 65537, size=(4, 6)))
            a2 = MatrixF(GF65537, rng.integers(0, 65537, size=(4, 6)))
            coef = int(rng.integers(0, 65537))
            for i in (0, 7, 15):
                lhs = code.encode_a(a1 + a2.scale(coef), i)
                rhs = code.encode_a(a1, i) + code.encode_a(a2, i).scale(coef)
                assert lhs == rhs

    with criterion(11, "construction registry validates in every test field", 60.0):
        names = registry_names()
        assert "strassen" in names
        for name in names:
            bc = load_construction(name)
            for field in (GF7, GF257, GF65537):
                assert validate_construction(bc, field).ok, (name, field.modulus)
