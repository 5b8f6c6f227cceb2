"""Deterministic master-worker simulator.

Simulated time only: per-trial worker latencies are sampled from a seeded
model, results arrive in latency order, and the decoder consumes the first
recovery_threshold() arrivals (one more at a time for random-linear when the
drawn system is singular).  Everything is a pure function of (config, seed),
so two runs with the same configuration produce bit-identical reports.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bilinear import ImprovedBilinearCode, load_construction
from .blocks import MatrixF
from .errors import InsufficientResults, SingularDecodeSystem
from .field import PrimeField, random_elements
from .robust import inject_faults
from .schemes import (
    CodingScheme,
    EntangledCode,
    GeneralPolynomialCode,
    PolynomialCodeSpec,
    RandomLinearCode,
    UncodedRepetitionCode,
)

SCHEME_NAMES = ("entangled", "general-poly", "uncoded", "random-linear", "improved")


@dataclass(frozen=True)
class ShiftedExponential:
    """Latency = shift + Exp(rate), independently per worker."""

    shift: float = 1.0
    rate: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.shift):
            raise ValueError(f"latency shift must be finite, got {self.shift}")
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"latency rate must be finite and > 0, got {self.rate}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.shift + rng.exponential(1.0 / self.rate, size=n)


@dataclass(frozen=True)
class FixedStragglers:
    """Unit latency everywhere except `count` seeded stragglers slowed by `slowdown`."""

    count: int
    slowdown: float = 10.0

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"straggler count must be >= 0, got {self.count}")
        if not (math.isfinite(self.slowdown) and self.slowdown > 0):
            raise ValueError(f"straggler slowdown must be finite and > 0, got {self.slowdown}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        times = np.ones(n)
        if self.count:
            laggards = rng.choice(n, size=self.count, replace=False)
            times[laggards] = self.slowdown
        return times


@dataclass(frozen=True)
class SimulationConfig:
    scheme: str
    p: int
    m: int
    n: int
    N: int
    latency: ShiftedExponential | FixedStragglers = ShiftedExponential()
    faults: int = 0
    trials: int = 1
    seed: int = 0
    modulus: int = 65537
    input_dims: tuple[int, int, int] | None = None  # (s, r, t); default (2p, 2m, 2n)
    alpha: int | None = None  # general-poly only
    beta: int | None = None
    theta: int | None = None
    construction: str | None = None  # improved only

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not 0 <= self.faults <= self.N:
            raise ValueError(f"faults must be in 0..N={self.N}, got {self.faults}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if isinstance(self.latency, FixedStragglers) and self.latency.count > self.N:
            raise ValueError(f"{self.latency.count} stragglers exceed N={self.N} workers")

    def dims(self) -> tuple[int, int, int]:
        return self.input_dims or (2 * self.p, 2 * self.m, 2 * self.n)


@dataclass(frozen=True)
class TrialReport:
    trial: int
    scheme: str
    N: int
    threshold: int
    success: bool
    completion_time: float
    waited: int
    oracle_match: bool


@dataclass(frozen=True)
class ExperimentResult:
    reports: tuple[TrialReport, ...]
    mean_completion: float
    median_completion: float
    p95_completion: float
    success_rate: float


def build_scheme(config: SimulationConfig) -> CodingScheme:
    field = PrimeField(config.modulus)
    name = config.scheme
    if name == "entangled":
        return EntangledCode(config.p, config.m, config.n, config.N, field)
    if name == "general-poly":
        if None in (config.alpha, config.beta, config.theta):
            raise ValueError("general-poly needs alpha, beta, theta")
        spec = PolynomialCodeSpec(
            p=config.p, m=config.m, n=config.n, N=config.N,
            alpha=config.alpha, beta=config.beta, theta=config.theta,
            x_points=tuple(range(config.N)), field=field,
        )
        return GeneralPolynomialCode(spec)
    if name == "uncoded":
        return UncodedRepetitionCode(config.p, config.m, config.n, config.N, field)
    if name == "random-linear":
        return RandomLinearCode(config.p, config.m, config.n, config.N, field, seed=config.seed)
    if name == "improved":
        bc = load_construction(config.construction or "strassen")
        if (bc.p, bc.m, bc.n) != (config.p, config.m, config.n):
            raise ValueError(
                f"construction is {bc.p}x{bc.m}x{bc.n}, config wants "
                f"{config.p}x{config.m}x{config.n}"
            )
        return ImprovedBilinearCode(bc, config.N, field)
    raise ValueError(f"unknown scheme {name!r}; options: {', '.join(SCHEME_NAMES)}")


def random_inputs(
    field: PrimeField, rng: np.random.Generator, dims: tuple[int, int, int]
) -> tuple[MatrixF, MatrixF]:
    """A random (A, B) pair over field, s x r and s x t for dims (s, r, t), A drawn first."""
    s, r, t = dims
    a = MatrixF(field, random_elements(rng, field.modulus, (s, r)))
    b = MatrixF(field, random_elements(rng, field.modulus, (s, t)))
    return a, b


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def run_trial(
    config: SimulationConfig,
    scheme: CodingScheme,
    trial: int,
    inputs: tuple[MatrixF, MatrixF] | None = None,
) -> TrialReport:
    """One seeded trial: encode, draw latencies, decode at the threshold.

    inputs, when given, is the (A, B) pair to multiply; otherwise
    random_inputs draws one from the trial seed.  The trial rng is consumed
    in a scheme-independent order (inputs, latencies, fault choice), so
    configs differing only in the scheme see identical latency draws.  The
    trial succeeds only when the decode equals the oracle product A^T B; a
    wrong decode (from corrupted workers) is reported like a failed one.
    """
    rng = _trial_rng(config.seed, trial)
    a, b = inputs or random_inputs(scheme.field, rng, config.dims())
    r, t = a.cols, b.cols
    latencies = config.latency.sample(rng, config.N)
    products = scheme.worker_products(a, b)
    inject_faults(rng, products, config.faults, scheme.field.modulus)
    # stable: tied arrivals keep worker order
    order = np.argsort(latencies, kind="stable")

    threshold = scheme.recovery_threshold()
    oracle = (a.transpose() @ b).data
    waited = threshold
    success = False
    while waited <= config.N:
        subset = order[:waited]
        try:
            decoded = scheme.decode_received(products[subset], subset, dims=(r, t))
            success = np.array_equal(decoded, oracle)
            break
        except (SingularDecodeSystem, InsufficientResults):
            waited += 1  # wait for one more arrival and retry
    if not success:
        waited = config.N
    completion = float(latencies[order[waited - 1]]) if success else float("inf")
    return TrialReport(
        trial=trial,
        scheme=config.scheme,
        N=config.N,
        threshold=threshold,
        success=success,
        completion_time=completion,
        waited=waited,
        oracle_match=success,
    )


def run_experiment(config: SimulationConfig) -> ExperimentResult:
    """All trials under the config seed, merged in trial order."""
    scheme = build_scheme(config)
    reports = tuple(run_trial(config, scheme, t) for t in range(config.trials))
    times = [rep.completion_time for rep in reports if rep.success]
    if times:
        ordered = sorted(times)
        p95 = ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]
        mean = statistics.fmean(times)
        median = statistics.median(times)
    else:
        mean = median = p95 = float("inf")
    return ExperimentResult(
        reports=reports,
        mean_completion=mean,
        median_completion=median,
        p95_completion=p95,
        success_rate=sum(rep.success for rep in reports) / len(reports),
    )


TRIAL_CSV_COLUMNS = ("trial", "scheme", "N", "K", "completion_time", "waited", "success")


def report_rows(reports: Sequence[TrialReport]) -> list[tuple]:
    return [
        (
            rep.trial,
            rep.scheme,
            rep.N,
            rep.threshold,
            f"{rep.completion_time:.6f}",
            rep.waited,
            int(rep.success),
        )
        for rep in reports
    ]
