"""Command-line surface: verification drivers, calculators, and the simulator.

Output goes to stdout as RFC-4180 CSV (default) or an aligned text table via
--format; diagnostics and the effective seed go to stderr.  Exit codes:
0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .bilinear import ImprovedBilinearCode, load_construction, registry_names, validate_construction
from .blocks import MatrixF, read_matrix_text
from .convolution import conv_spec, field_convolve
from .errors import CodedmmError, TooManyErrors
from .field import PrimeField, random_elements
from .robust import Clean, correct_errors, detect_errors, inject_faults
from .schemes import EntangledCode
from .sim import (
    FixedStragglers,
    ShiftedExponential,
    SimulationConfig,
    TRIAL_CSV_COLUMNS,
    report_rows,
    run_experiment,
)

MAX_EXHAUSTIVE_SUBSETS = 20000


def _emit(header, rows, fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
        return
    cells = [[str(h) for h in header]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip(), file=out)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _random_inputs(field, rng, s, r, t):
    q = field.modulus
    a = MatrixF(field, random_elements(rng, q, (s, r)))
    b = MatrixF(field, random_elements(rng, q, (s, t)))
    return a, b


def _subset_iter(n, k, exhaustive, rng, samples):
    if exhaustive:
        return list(combinations(range(n), k))
    return [
        tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        for _ in range(samples)
    ]


def _load_fixture_inputs(args):
    """Matrix pair from --a/--b text fixtures, or None for random inputs."""
    paths = (getattr(args, "a", None), getattr(args, "b", None))
    if not any(paths):
        return None
    if not all(paths):
        raise ValueError("--a and --b must be given together")
    a = read_matrix_text(Path(paths[0]).read_text())
    b = read_matrix_text(Path(paths[1]).read_text())
    if a.field != b.field:
        raise ValueError("fixture matrices use different moduli")
    if a.rows != b.rows:
        raise ValueError("fixture matrices must share their row count")
    return a, b


def _failed_subsets(code, products, subsets, dims, want) -> int:
    """How many subsets' results, rows of products, decode to something other than want."""
    decoded = (code.decode_received(products[list(sub)], sub, dims) for sub in subsets)
    return sum(not np.array_equal(got, want) for got in decoded)


def _verify_scheme(scheme, args, label: str) -> int:
    rng = np.random.default_rng(args.seed)
    fixtures = _load_fixture_inputs(args)
    if fixtures is not None:
        a, b = fixtures
    else:
        s, r, t = 2 * scheme.p, 2 * scheme.m, 2 * scheme.n
        a, b = _random_inputs(scheme.field, rng, s, r, t)
    r, t = a.cols, b.cols
    oracle = (a.transpose() @ b).data
    products = scheme.worker_products(a, b)
    k = scheme.recovery_threshold()
    exhaustive = args.exhaustive and comb(scheme.N, k) <= MAX_EXHAUSTIVE_SUBSETS
    if args.exhaustive and not exhaustive:
        _note(f"note: {comb(scheme.N, k)} subsets exceed the exhaustive cap; sampling instead")
    subsets = _subset_iter(scheme.N, k, exhaustive, rng, args.samples)
    failures = _failed_subsets(scheme, products, subsets, (r, t), oracle)
    mode = "exhaustive" if exhaustive else "sampled"
    _emit(
        ("scheme", "N", "K", "mode", "subsets", "decoded", "failures"),
        [(label, scheme.N, k, mode, len(subsets), len(subsets) - failures, failures)],
        args.format,
    )
    return 1 if failures else 0


def _cmd_verify(args) -> int:
    fixtures = _load_fixture_inputs(args)
    field = fixtures[0].field if fixtures else PrimeField(args.q)
    scheme = EntangledCode(args.p, args.m, args.n, args.N, field)
    return _verify_scheme(scheme, args, "entangled")


def _cmd_verify_improved(args) -> int:
    field = PrimeField(args.q)
    bc = load_construction(args.construction)
    scheme = ImprovedBilinearCode(bc, args.N, field)
    return _verify_scheme(scheme, args, f"improved({bc.name or args.construction})")


def _cmd_conv(args) -> int:
    field = PrimeField(args.q)
    spec = conv_spec(args.m, args.n, args.N, args.len, field)
    rng = np.random.default_rng(args.seed)
    a = random_elements(rng, args.q, args.m * args.len)
    b = random_elements(rng, args.q, args.n * args.len)
    products = spec.worker_products(a, b)
    expected = field_convolve(field, a, b)
    k = spec.recovery_threshold()
    exhaustive = comb(args.N, k) <= MAX_EXHAUSTIVE_SUBSETS
    subsets = _subset_iter(args.N, k, exhaustive, rng, args.samples)
    failures = _failed_subsets(spec, products, subsets, (len(a), len(b)), expected)
    _emit(
        ("m", "n", "N", "K", "block_len", "subsets", "decoded", "failures"),
        [(args.m, args.n, args.N, k, args.len, len(subsets), len(subsets) - failures, failures)],
        args.format,
    )
    return 1 if failures else 0


def _cmd_fault(args) -> int:
    field = PrimeField(args.q)
    code = EntangledCode(args.p, args.m, args.n, args.N, field)
    k = code.recovery_threshold()
    rng = np.random.default_rng(args.seed)
    s, r, t = 2 * args.p, 2 * args.m, 2 * args.n
    exact = detected = silent_wrong = failed = 0
    for trial in range(args.trials):
        a, b = _random_inputs(field, rng, s, r, t)
        oracle = (a.transpose() @ b).data
        stack = code.worker_products(a, b)
        inject_faults(np.random.default_rng(int(rng.integers(1 << 62))), stack, args.errors, args.q)
        if args.mode == "detect":
            outcome = detect_errors(code, stack, dims=(r, t))
            if isinstance(outcome, Clean):
                if np.array_equal(outcome.matrix, oracle):
                    exact += 1
                else:
                    silent_wrong += 1
            else:
                detected += 1
        else:
            try:
                got = correct_errors(code, stack, dims=(r, t))
                if np.array_equal(got, oracle):
                    exact += 1
                else:
                    silent_wrong += 1
            except TooManyErrors:
                failed += 1
    header = ("mode", "p", "m", "n", "N", "K", "errors", "trials",
              "exact", "detected", "uncorrectable", "silent_wrong")
    _emit(
        header,
        [(args.mode, args.p, args.m, args.n, args.N, k, args.errors, args.trials,
          exact, detected, failed, silent_wrong)],
        args.format,
    )
    return 1 if silent_wrong else 0


def _cmd_bounds(args) -> int:
    PrimeField(args.q)  # the tables need no field, but --q is refused like elsewhere
    out = open(args.out, "w", newline="") if args.out else None
    try:
        if args.fig2:
            start = bounds_mod.threshold_entangled(3, 3, 1)
            rows = bounds_mod.figure2_table(range(start, args.Nmax + 1))
            _emit(bounds_mod.FIG2_COLUMNS, rows, args.format, out)
            return 0
        p, m, n = args.p, args.m, args.n
        header = (
            "N", "K_uncoded", "K_random_linear", "K_short_mds", "K_entangled",
            "converse_linear", "converse_nonlinear",
        )
        start = max(p * m * n, bounds_mod.threshold_entangled(p, m, n), p)
        rows = []
        for N in range(start, args.Nmax + 1):
            rows.append(
                (
                    N,
                    bounds_mod.threshold_uncoded(p, m, n, N),
                    bounds_mod.threshold_random_linear(p, m, n),
                    bounds_mod.threshold_short_mds(p, m, N),
                    bounds_mod.threshold_entangled(p, m, n),
                    bounds_mod.converse_linear(p, m, n, N),
                    bounds_mod.converse_nonlinear(p, m, n),
                )
            )
        _emit(header, rows, args.format, out)
        return 0
    finally:
        if out:
            out.close()


def _count(text: str) -> int:
    """A --trials / --samples value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_latency(text: str):
    name, _, rest = text.partition(":")
    try:
        params = [float(v) for v in rest.split(",") if v] if rest else []
        if name in ("shifted-exp", "exp"):
            return ShiftedExponential(*params)
        if name in ("stragglers", "fixed-stragglers") and params:
            if not params[0].is_integer():
                raise ValueError(f"straggler count must be an integer, got {params[0]}")
            return FixedStragglers(int(params[0]), *params[1:])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if name in ("stragglers", "fixed-stragglers"):
        raise argparse.ArgumentTypeError("stragglers latency needs a count, e.g. stragglers:3,10")
    raise argparse.ArgumentTypeError(
        f"unknown latency model {name!r}; use shifted-exp:shift,rate or stragglers:count,slowdown"
    )


def _cmd_simulate(args) -> int:
    config = SimulationConfig(
        scheme=args.scheme,
        p=args.p, m=args.m, n=args.n, N=args.N,
        latency=args.latency,
        faults=args.faults,
        trials=args.trials,
        seed=args.seed,
        modulus=args.q,
        alpha=args.alpha, beta=args.beta, theta=args.theta,
        construction=args.construction,
    )
    result = run_experiment(config)
    _emit(TRIAL_CSV_COLUMNS, report_rows(result.reports), args.format)
    _note(
        f"aggregate: mean={result.mean_completion:.6f} "
        f"median={result.median_completion:.6f} p95={result.p95_completion:.6f} "
        f"success_rate={result.success_rate:.4f}"
    )
    return 0


def _cmd_validate_construction(args) -> int:
    bc = load_construction(args.path)
    rows = []
    ok_all = True
    for q in args.q:
        res = validate_construction(bc, PrimeField(q))
        ok_all &= res.ok
        rows.append(
            (bc.name or args.path, bc.p, bc.m, bc.n, bc.rank, q,
             "pass" if res.ok else "fail",
             "" if res.ok else "/".join(map(str, res.violation)))
        )
    _emit(("construction", "p", "m", "n", "rank", "field", "result", "violation"),
          rows, args.format)
    return 0 if ok_all else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codedmm",
        description="Coded distributed matrix multiplication toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seed=True, q_default=65537):
        sp.add_argument("--format", choices=("csv", "table"), default="csv")
        sp.add_argument("--q", type=int, default=q_default, help="field modulus (prime)")
        if seed:
            sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("verify", help="check entangled decoding against the oracle over subsets")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--exhaustive", action="store_true", help="try every threshold-size subset")
    sp.add_argument("--samples", type=_count, default=200, help="random subsets when not exhaustive")
    sp.add_argument("--a", help="matrix text fixture for A (header: rows cols q)")
    sp.add_argument("--b", help="matrix text fixture for B")
    common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("verify-improved", help="same check for a bilinear-construction code")
    sp.add_argument("--construction", required=True,
                    help=f"registry name ({', '.join(sorted(registry_names()))}) or JSON path")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--samples", type=_count, default=200)
    common(sp)
    sp.set_defaults(func=_cmd_verify_improved)

    sp = sub.add_parser("conv", help="coded convolution round-trip check")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--len", type=int, required=True, help="per-worker block length s")
    sp.add_argument("--samples", type=_count, default=200)
    common(sp, q_default=257)
    sp.set_defaults(func=_cmd_conv)

    sp = sub.add_parser("fault", help="seeded fault-injection trials")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--errors", type=int, required=True)
    sp.add_argument("--trials", type=_count, default=100)
    sp.add_argument("--mode", choices=("detect", "correct"), required=True)
    common(sp)
    sp.set_defaults(func=_cmd_fault)

    sp = sub.add_parser("bounds", help="threshold formula tables")
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--m", type=int, default=3)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--Nmax", type=int, required=True)
    sp.add_argument("--fig2", action="store_true",
                    help="emit the fixed p=m=3, n=1 comparison table")
    sp.add_argument("--out", help="write CSV to a file instead of stdout")
    common(sp, seed=False)
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("simulate", help="master-worker latency simulation")
    sp.add_argument("--scheme", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--latency", type=_parse_latency, default=ShiftedExponential(),
                    help="shifted-exp:shift,rate or stragglers:count,slowdown")
    sp.add_argument("--trials", type=_count, default=100)
    sp.add_argument("--faults", type=int, default=0)
    sp.add_argument("--alpha", type=int)
    sp.add_argument("--beta", type=int)
    sp.add_argument("--theta", type=int)
    sp.add_argument("--construction")
    common(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("validate-construction", help="basis-pair identity check for a construction")
    sp.add_argument("path", help="registry name or JSON path")
    sp.add_argument("--format", choices=("csv", "table"), default="csv")
    sp.add_argument("--q", type=int, nargs="+", default=[65537, 257, 7],
                    help="fields to validate in")
    sp.set_defaults(func=_cmd_validate_construction)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if hasattr(args, "seed"):
        _note(f"seed: {args.seed}")
    try:
        return args.func(args)
    except (CodedmmError, FileNotFoundError, ValueError) as exc:
        _note(f"error: {exc}")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
