"""The three codedmm workloads, each a fixed cycle of job kinds.

A workload builds its schemes once (set-up), then runs jobs.  A job draws
fresh inputs from the workload's seeded generator, calls codedmm's public
API inside the timed region, and checks the output outside it against a
reference computed here without codedmm (sim-small checks the simulator's
own oracle, and its replay when traced).  The seed shapes only the input
values; the cycle of job kinds is fixed.

Span names are the per-layer metric stems that run.py reports.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from codedmm import (
    EntangledCode,
    FaultModel,
    ImprovedBilinearCode,
    MatrixF,
    PrimeField,
    SimulationConfig,
    conv_decode,
    conv_encode,
    conv_spec,
    conv_worker,
    correct_errors,
    detect_errors,
    load_construction,
    partition_vector,
    run_trial,
    worker_multiply,
)
from codedmm.errors import SingularDecodeSystem, TooManyErrors
from codedmm.robust import ErrorDetected
from codedmm.sim import ShiftedExponential, build_scheme


@dataclass
class Outcome:
    """Wall and CPU seconds summed over a job's timed parts, and its verdict."""

    wall: float = 0.0
    cpu: float = 0.0
    failed: str | None = None

    @contextmanager
    def timed(self):
        w, c = perf_counter(), process_time()
        try:
            yield
        finally:
            self.wall += perf_counter() - w
            self.cpu += process_time() - c


def _run_job(body) -> Outcome:
    """Run one job body; anything it raises unexpectedly fails the job."""
    out = Outcome()
    try:
        body(out)
    except Exception as exc:  # every unexpected error is a counted failure
        out.failed = f"{type(exc).__name__}: {exc}"
    return out


def _product_work(ca: MatrixF, cb: MatrixF) -> tuple[int, int]:
    """Mul-adds and bytes of one worker product ca^T cb, computed from shapes."""
    s, r = ca.shape
    t = cb.shape[1]
    itemsize = ca.data.itemsize
    return r * s * t, (s * r + s * t + r * t) * itemsize


def _multiply_all(tr, name: str, pairs) -> list[MatrixF]:
    results = []
    for ca, cb in pairs:
        with tr.span(name) as sp:
            results.append(worker_multiply(ca, cb))
        if tr.enabled:
            sp.work = _product_work(ca, cb)
    return results


def _openblas():
    """(get_num_threads, set_num_threads) of numpy's bundled OpenBLAS, or None."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so"))
    if not libs:
        return None
    try:
        lib = ctypes.CDLL(str(libs[0]))
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.restype = ctypes.c_int
    put.argtypes = [ctypes.c_int]
    return get, put


OPENBLAS = _openblas()


@contextmanager
def one_blas_thread():
    """Run a reference on one BLAS thread.

    Idle OpenBLAS threads spin for a while after a call; on a 2-core box a
    spinning helper from the reference would slow and bill the next job.
    """
    if OPENBLAS is None:
        yield
        return
    get, put = OPENBLAS
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _float_product(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """A^T B mod q through float64 BLAS; exact while rows * (q-1)^2 < 2^53."""
    if a.shape[0] * (q - 1) ** 2 >= 2**53:
        raise ValueError("float64 reference would not be exact")
    with one_blas_thread():
        return (a.T.astype(np.float64) @ b.astype(np.float64) % q).astype(np.int64)


def _int_product(a: list[list[int]], b: list[list[int]], q: int) -> list[list[int]]:
    """A^T B mod q in Python ints."""
    cols_b = list(zip(*b))
    return [
        [sum(x * y for x, y in zip(col_a, col_b)) % q for col_b in cols_b]
        for col_a in zip(*a)
    ]


class Bulk512:
    """Large blocks: the worker products dominate (kernel, bilinear, convolution).

    Cycle: conv, entangled, improved, entangled, improved.  Sorted by
    latency the kinds fill 0-20 %, 20-60 % and 60-100 % of the jobs, so the
    median sits inside `entangled` and the tail percentile inside `improved`.
    """

    name = "bulk-512"
    calibration = "matmul"  # calibrate.py kernel
    cycle = ("conv", "entangled", "improved", "entangled", "improved")

    def __init__(self, smoke: bool):
        self.q = 65537
        self.size = 64 if smoke else 512
        self.conv_s = 256 if smoke else 4096
        field = PrimeField(self.q)
        self.field = field
        self.entangled = EntangledCode(2, 2, 2, N=12, field=field)
        self.improved = ImprovedBilinearCode(load_construction("strassen"), 13, field)
        self.conv = conv_spec(3, 2, N=6, s=self.conv_s, field=field)
        self.params = {
            "q": self.q, "shape": [self.size, self.size],
            "entangled": {"p": 2, "m": 2, "n": 2, "N": 12},
            "improved": {"construction": "strassen", "N": 13},
            "conv": {"m": 3, "n": 2, "N": 6, "s": self.conv_s},
        }

    def job(self, kind: str, rng: np.random.Generator, tr) -> Outcome:
        if kind == "conv":
            return self._conv_job(rng, tr)
        code = self.entangled if kind == "entangled" else self.improved
        enc, dec = (
            ("schemes.encode_all.entangled", "schemes.decode.entangled")
            if kind == "entangled"
            else ("bilinear.encode_all", "bilinear.decode")
        )
        a_np = rng.integers(0, self.q, size=(self.size, self.size))
        b_np = rng.integers(0, self.q, size=(self.size, self.size))
        subset = sorted(rng.choice(code.N, code.recovery_threshold(), replace=False).tolist())
        a, b = MatrixF(self.field, a_np), MatrixF(self.field, b_np)

        def body(out: Outcome):
            with out.timed():
                with tr.span(enc):
                    pairs = code.encode_all(a, b)
                results = _multiply_all(tr, f"schemes.worker_multiply.{kind}", pairs)
                with tr.span(dec):
                    c = code.decode(dict(enumerate(results)), subset, dims=(self.size, self.size))
            if not np.array_equal(c.data, _float_product(a_np, b_np, self.q)):
                out.failed = "decoded product differs from the float64 reference"

        return _run_job(body)

    def _conv_job(self, rng: np.random.Generator, tr) -> Outcome:
        spec = self.conv
        a = rng.integers(0, self.q, size=spec.m * spec.s)
        b = rng.integers(0, self.q, size=spec.n * spec.s)
        subset = sorted(rng.choice(spec.N, spec.recovery_threshold(), replace=False).tolist())

        def body(out: Outcome):
            with out.timed():
                with tr.span("blocks.partition_vector"):
                    a_blocks = partition_vector(self.field, a, spec.m)
                    b_blocks = partition_vector(self.field, b, spec.n)
                pairs = []
                for i in range(spec.N):
                    with tr.span("convolution.conv_encode"):
                        pairs.append(conv_encode(spec, a_blocks, b_blocks, i))
                results = {}
                for i, (ca, cb) in enumerate(pairs):
                    with tr.span("convolution.conv_worker") as sp:
                        results[i] = conv_worker(spec, ca, cb)
                    if tr.enabled:
                        sp.work = (spec.s * spec.s, (4 * spec.s - 1) * ca.itemsize)
                with tr.span("convolution.conv_decode"):
                    got = conv_decode(spec, results, subset, true_lens=(len(a), len(b)))
            # exact: every output sums at most len(b) products below (q-1)^2
            want = np.convolve(a.astype(np.float64), b.astype(np.float64)) % self.q
            if not np.array_equal(np.asarray(got, dtype=np.int64), want.astype(np.int64)):
                out.failed = "decoded convolution differs from the float64 reference"

        return _run_job(body)


class SimSmall:
    """1x1 blocks through the simulator: Python overhead in encode, decode, sim.

    A job is one simulated experiment: TRIALS trials of one scheme, built
    once in set-up.  Single trials last 1-12 ms, short enough that the
    upper percentiles of single trials measured host scheduling stalls
    rather than the code.  Cycle: entangled, random-linear, uncoded (about
    3, 11 and 1 ms a trial), so the median sits inside `entangled` and the
    tail inside `random-linear`.  Faults stay 0: the simulator skips repair
    when faults are injected, so `fault-repair` measures that path instead.
    """

    name = "sim-small"
    calibration = "elimination"  # calibrate.py kernel
    cycle = ("entangled", "random-linear", "uncoded")
    TRIALS = 20

    def __init__(self, seed: int):
        self.q = 65537
        self.dims = (3, 3, 1)
        self.configs = {
            kind: SimulationConfig(
                scheme=kind, p=3, m=3, n=1, N=30,
                latency=ShiftedExponential(1.0, 1.0), faults=0, trials=self.TRIALS,
                seed=seed, modulus=self.q, input_dims=self.dims,
            )
            for kind in self.cycle
        }
        self.schemes = {kind: build_scheme(cfg) for kind, cfg in self.configs.items()}
        self.field = PrimeField(self.q)
        self.params = {
            "q": self.q, "p": 3, "m": 3, "n": 1, "N": 30, "input_dims": list(self.dims),
            "latency": "shifted-exp:1,1", "faults": 0, "trials_per_job": self.TRIALS,
        }
        self.trials_run = 0
        self.extra_waits = 0

    def job(self, kind: str, rng: np.random.Generator, tr) -> Outcome:
        s, r, t = self.dims
        cfg, scheme = self.configs[kind], self.schemes[kind]
        trials = []
        for _ in range(self.TRIALS):
            a_np = rng.integers(0, self.q, size=(s, r))
            b_np = rng.integers(0, self.q, size=(s, t))
            trials.append((self.trials_run, a_np, b_np))
            self.trials_run += 1

        def body(out: Outcome):
            for trial, a_np, b_np in trials:
                a, b = MatrixF(self.field, a_np), MatrixF(self.field, b_np)
                with out.timed():
                    with tr.span(f"sim.run_trial.{kind}"):
                        rep = run_trial(cfg, scheme, trial, inputs=(a, b))
                if not rep.oracle_match:
                    out.failed = f"trial {trial} decode did not match the oracle"
                    return
                if tr.enabled:
                    self.extra_waits += rep.waited - rep.threshold
                    want = _int_product(a_np.tolist(), b_np.tolist(), self.q)
                    if self._replay(kind, trial, a, b, tr) != want:
                        out.failed = f"trial {trial} replayed decode differs from the int reference"
                        return

        return _run_job(body)

    def _replay(self, kind: str, trial: int, a: MatrixF, b: MatrixF, tr) -> list[list[int]]:
        """The same trial through encode_all, worker_multiply and decode.

        The arrival order mirrors sim's per-trial seeding (the latency draw
        comes first when inputs are supplied); a singular random-linear
        subset waits for one more arrival, as the simulator does.
        """
        cfg, scheme = self.configs[kind], self.schemes[kind]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(trial,)))
        lat = cfg.latency.sample(rng, cfg.N)
        order = sorted(range(cfg.N), key=lambda w: (lat[w], w))
        with tr.span(f"sim.replay.{kind}"):
            with tr.span(f"schemes.encode_all.{kind}"):
                pairs = scheme.encode_all(a, b)
            results = dict(enumerate(_multiply_all(tr, f"schemes.worker_multiply.{kind}", pairs)))
            waited = scheme.recovery_threshold()
            while True:
                try:
                    with tr.span(f"schemes.decode.{kind}"):
                        c = scheme.decode(results, order[:waited], dims=(a.cols, b.cols))
                    break
                except SingularDecodeSystem:
                    if waited == cfg.N:
                        raise
                    waited += 1
        return c.data.tolist()


class FaultRepair:
    """Corrupted workers over q = 2^61 - 1: robust detection and repair dominate.

    EntangledCode(2,2,1,N=9) has K = 5, so it corrects 2 errors and detects
    4.  The error count follows the cycle below: jobs within the budget
    (e <= 2) take a few ms and set the median; the two over-budget refusals
    scan every pilot coordinate, take far longer and set the tail.
    """

    name = "fault-repair"
    calibration = "elimination"  # calibrate.py kernel
    errors = (0, 0, 1, 1, 1, 1, 2, 2, 3, 4)
    cycle = tuple(f"e{e}" for e in errors)

    def __init__(self):
        self.q = 2**61 - 1
        self.field = PrimeField(self.q)
        self.code = EntangledCode(2, 2, 1, N=9, field=self.field)
        self.budget = (self.code.N - self.code.recovery_threshold()) // 2
        self.params = {
            "q": self.q, "p": 2, "m": 2, "n": 1, "N": 9,
            "a_shape": [16, 16], "b_shape": [16, 8], "error_cycle": list(self.errors),
        }
        self.refused = 0
        self.refusals_owed = 0

    def job(self, kind: str, rng: np.random.Generator, tr) -> Outcome:
        e = int(kind[1:])
        code = self.code
        a_np = rng.integers(0, self.q, size=(16, 16), dtype=np.int64)
        b_np = rng.integers(0, self.q, size=(16, 8), dtype=np.int64)
        fault_seed = int(rng.integers(0, 2**63))
        a, b = MatrixF(self.field, a_np), MatrixF(self.field, b_np)
        dims = (16, 8)
        if tr.enabled and e > self.budget:
            self.refusals_owed += 1

        def body(out: Outcome):
            with out.timed():
                with tr.span("schemes.encode_all.fault"):
                    pairs = code.encode_all(a, b)
                results = _multiply_all(tr, "schemes.worker_multiply.fault", pairs)
            corrupted, _ = FaultModel(e, fault_seed).inject(results)
            with out.timed():
                with tr.span("robust.detect_errors"):
                    verdict = detect_errors(code, corrupted, dims=dims)
                if isinstance(verdict, ErrorDetected):
                    try:
                        with tr.span("robust.correct_errors") as sp:
                            got = correct_errors(code, corrupted, dims=dims)
                        sp.name = "robust.correct_errors.repaired"
                    except TooManyErrors:
                        sp.name = "robust.correct_errors.refused"
                        got = None
                else:
                    got = verdict.matrix
            if got is None:
                if tr.enabled:
                    self.refused += 1
                if e <= self.budget:
                    out.failed = f"refused with {e} errors, within the budget of {self.budget}"
                return
            if got.data.tolist() != _int_product(a_np.tolist(), b_np.tolist(), self.q):
                out.failed = f"decoded product with {e} errors differs from the int reference"

        return _run_job(body)


def make(name: str, seed: int, smoke: bool):
    if name == Bulk512.name:
        return Bulk512(smoke)
    if name == SimSmall.name:
        return SimSmall(seed)
    if name == FaultRepair.name:
        return FaultRepair()
    raise KeyError(name)
