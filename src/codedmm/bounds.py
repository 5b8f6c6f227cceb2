"""Closed-form recovery-threshold and cost formulas.

Everything here is exact integer (or Fraction) arithmetic; nothing simulates.
Partition counts p, m, n below 1 raise ValueError.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


def _positive(**counts: int) -> None:
    """Raise ValueError for a partition count below 1."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def threshold_entangled(p: int, m: int, n: int) -> int:
    """pmn + p - 1."""
    _positive(p=p, m=m, n=n)
    return p * m * n + p - 1


def threshold_uncoded(p: int, m: int, n: int, N: int) -> int:
    """N - floor(N / pmn) + 1; requires N >= pmn."""
    _positive(p=p, m=m, n=n)
    tasks = p * m * n
    if N < tasks:
        raise ValueError(f"N={N} < pmn={tasks}")
    return N - N // tasks + 1


def threshold_random_linear(p: int, m: int, n: int) -> int:
    """p^2 * m * n (achieved with high probability)."""
    _positive(p=p, m=m, n=n)
    return p * p * m * n


def threshold_short_mds(p: int, m: int, N: int) -> int:
    """N - floor(N / p) + m; requires N >= p."""
    _positive(p=p, m=m)
    if N < p:
        raise ValueError(f"N={N} < p={p}")
    return N - N // p + m


def converse_linear(p: int, m: int, n: int, N: int) -> int:
    """Lower bound on every linear code's threshold: min(N, pm + pn - 1)."""
    _positive(p=p, m=m, n=n)
    return min(N, p * m + p * n - 1)


def converse_nonlinear(p: int, m: int, n: int) -> int:
    """Lower bound over all codes (finite fields): max(pm, pn)."""
    _positive(p=p, m=m, n=n)
    return max(p * m, p * n)


def rank_threshold_bounds(rank: int) -> tuple[int, int]:
    """(R, 2R - 1): lower and upper bounds on the optimum linear recovery
    threshold implied by a rank-R bilinear construction."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    return rank, 2 * rank - 1


def cost_model(p: int, m: int, n: int, s: int, r: int, t: int) -> dict:
    """Per-worker resource footprint for an s x r by s x t product.

    compute is in field-operation units; communication and the two storage
    fractions are normalized by the sizes of C, A, and B respectively.
    Their product depends on pmn only, so fixing the compute load pins it.
    """
    _positive(p=p, m=m, n=n)
    return {
        "compute": Fraction(s * r * t, p * m * n),
        "communication": Fraction(1, m * n),
        "storage_a": Fraction(1, p * m),
        "storage_b": Fraction(1, p * n),
        "tradeoff_product": Fraction(1, m * n) * Fraction(1, p * m) * Fraction(1, p * n),
    }


FIG2_COLUMNS = ("N", "K_uncoded", "K_random_linear", "K_short_mds", "K_entangled")


def figure2_table(n_values: Iterable[int], p: int = 3, m: int = 3, n: int = 1) -> list[tuple[int, ...]]:
    """Threshold comparison rows for a range of worker counts.

    Defaults reproduce the p = m = 3, n = 1 setting; each row is
    (N, uncoded, random linear, short-MDS, entangled).
    """
    rows = []
    k_ent = threshold_entangled(p, m, n)
    k_rl = threshold_random_linear(p, m, n)
    for N in n_values:
        rows.append(
            (N, threshold_uncoded(p, m, n, N), k_rl, threshold_short_mds(p, m, N), k_ent)
        )
    return rows


def strassen_crossover() -> int:
    """Smallest k where the rank-7^k construction's threshold 2*7^k - 1
    beats the basic code's 8^k + 2^k - 1 on 2^k-cube partitions."""
    k = 1
    while 2 * 7**k - 1 >= 8**k + 2**k - 1:
        k += 1
    return k
