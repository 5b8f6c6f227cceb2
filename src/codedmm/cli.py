"""Command-line surface: verification drivers, calculators, and the simulator.

verify, verify-improved and conv share one subset check (_decode_subsets),
bounds prints rows of bounds.figure2_table, and random matrix inputs come
from sim.random_inputs, the draw a simulator trial makes.

Output goes to stdout as RFC-4180 CSV (default) or an aligned text table via
--format; diagnostics and the effective seed go to stderr.  Exit codes:
0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import nullcontext
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .bilinear import ImprovedBilinearCode, load_construction, registry_names, validate_construction
from .blocks import read_matrix_text
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
    random_inputs,
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


def _load_fixture_inputs(args):
    """Matrix pair from verify's --a/--b text fixtures, or None for random inputs."""
    paths = (args.a, args.b)
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


def _decode_subsets(code, a, b, want, dims, rng, samples: int, exhaustive: bool = True):
    """(mode, subsets, failures): threshold-size subsets of code's workers on a, b, and how many decode to other than want.

    Every subset when there are at most `samples` of them, or when
    exhaustive and there are at most MAX_EXHAUSTIVE_SUBSETS of them, else
    (with a note past the cap) `samples` subsets drawn from rng.  dims is
    the product's true size.
    """
    products = code.worker_products(a, b)
    k = code.recovery_threshold()
    total = comb(code.N, k)
    if samples >= total:
        exhaustive = True
    elif exhaustive and total > MAX_EXHAUSTIVE_SUBSETS:
        _note(f"note: {total} subsets exceed the exhaustive cap; sampling instead")
        exhaustive = False
    if exhaustive:
        subsets = list(combinations(range(code.N), k))
    else:
        subsets = [tuple(sorted(rng.choice(code.N, size=k, replace=False).tolist()))
                   for _ in range(samples)]
    decoded = (code.decode(products, sub, dims) for sub in subsets)
    failures = sum(not np.array_equal(got, want) for got in decoded)
    return ("exhaustive" if exhaustive else "sampled"), len(subsets), failures


def _verify_scheme(scheme, fixtures, args, label: str) -> int:
    """Check the subsets' decodes of A^T B, for the fixtures (A, B) or, when None, seeded random inputs."""
    rng = np.random.default_rng(args.seed)
    a, b = fixtures or random_inputs(scheme.field, rng, (2 * scheme.p, 2 * scheme.m, 2 * scheme.n))
    mode, tried, failures = _decode_subsets(
        scheme, a, b, (a.transpose() @ b).data, (a.cols, b.cols), rng, args.samples, args.exhaustive,
    )
    _emit(
        ("scheme", "N", "K", "mode", "subsets", "decoded", "failures"),
        [(label, scheme.N, scheme.recovery_threshold(), mode, tried, tried - failures, failures)],
        args.format,
    )
    return 1 if failures else 0


def _cmd_verify(args) -> int:
    fixtures = _load_fixture_inputs(args)
    if fixtures is None:
        field = PrimeField(65537 if args.q is None else args.q)
    else:
        field = fixtures[0].field
        if args.q is not None and args.q != field.modulus:
            raise ValueError(f"--q {args.q} disagrees with the fixtures' modulus {field.modulus}")
    scheme = EntangledCode(args.p, args.m, args.n, args.N, field)
    return _verify_scheme(scheme, fixtures, args, "entangled")


def _cmd_verify_improved(args) -> int:
    field = PrimeField(args.q)
    bc = load_construction(args.construction)
    scheme = ImprovedBilinearCode(bc, args.N, field)
    return _verify_scheme(scheme, None, args, f"improved({bc.name or args.construction})")


def _cmd_conv(args) -> int:
    field = PrimeField(args.q)
    spec = conv_spec(args.m, args.n, args.N, args.len, field)
    rng = np.random.default_rng(args.seed)
    a = random_elements(rng, args.q, args.m * args.len)
    b = random_elements(rng, args.q, args.n * args.len)
    _, tried, failures = _decode_subsets(
        spec, a, b, field_convolve(field, a, b), (len(a), len(b)), rng, args.samples,
    )
    _emit(
        ("m", "n", "N", "K", "block_len", "subsets", "decoded", "failures"),
        [(args.m, args.n, args.N, spec.recovery_threshold(), args.len,
          tried, tried - failures, failures)],
        args.format,
    )
    return 1 if failures else 0


def _cmd_fault(args) -> int:
    field = PrimeField(args.q)
    code = EntangledCode(args.p, args.m, args.n, args.N, field)
    k = code.recovery_threshold()
    rng = np.random.default_rng(args.seed)
    r, t = 2 * args.m, 2 * args.n
    exact = detected = silent_wrong = failed = 0
    for trial in range(args.trials):
        a, b = random_inputs(field, rng, (2 * args.p, r, t))
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
    p, m, n = (3, 3, 1) if args.fig2 else (args.p, args.m, args.n)
    start = bounds_mod.threshold_entangled(p, m, n)
    rows = bounds_mod.figure2_table(range(start, args.Nmax + 1), p, m, n)
    header = bounds_mod.FIG2_COLUMNS
    if not args.fig2:
        header += ("converse_linear", "converse_nonlinear")
        nonlinear = bounds_mod.converse_nonlinear(p, m, n)
        rows = [row + (bounds_mod.converse_linear(p, m, n, row[0]), nonlinear) for row in rows]
    with open(args.out, "w", newline="") if args.out else nullcontext() as out:
        _emit(header, rows, args.format, out)
    return 0


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

    def command(name, func, help, counts="pmnN", q=65537, seed=True, samples=False, exhaustive=False):
        """A subcommand with its shared options: the required partition counts, --format, --q,
        --seed, and the subset check's --samples and --exhaustive."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func)
        for count in counts:
            sp.add_argument(f"--{count}", type=int, required=True)
        sp.add_argument("--format", choices=("csv", "table"), default="csv")
        sp.add_argument("--q", type=int, default=q, help="field modulus (prime)")
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if samples:
            sp.add_argument("--samples", type=_count, default=200,
                            help="subsets drawn when not trying every one")
        if exhaustive:
            sp.add_argument("--exhaustive", action="store_true",
                            help="try every threshold-size subset")
        return sp

    # --q defaults to the fixtures' modulus, else 65537
    sp = command("verify", _cmd_verify, "check entangled decoding against the oracle over subsets",
                 q=None, samples=True, exhaustive=True)
    sp.add_argument("--a", help="matrix text fixture for A (header: rows cols q)")
    sp.add_argument("--b", help="matrix text fixture for B")

    sp = command("verify-improved", _cmd_verify_improved,
                 "same check for a bilinear-construction code", counts="N",
                 samples=True, exhaustive=True)
    sp.add_argument("--construction", required=True,
                    help=f"registry name ({', '.join(sorted(registry_names()))}) or JSON path")

    sp = command("conv", _cmd_conv, "coded convolution round-trip check", counts="mnN", q=257,
                 samples=True)
    sp.add_argument("--len", type=int, required=True, help="per-worker block length s")

    sp = command("fault", _cmd_fault, "seeded fault-injection trials")
    sp.add_argument("--errors", type=int, required=True)
    sp.add_argument("--trials", type=_count, default=100)
    sp.add_argument("--mode", choices=("detect", "correct"), required=True)

    sp = command("bounds", _cmd_bounds, "threshold formula tables", counts="", seed=False)
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--m", type=int, default=3)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--Nmax", type=int, required=True)
    sp.add_argument("--fig2", action="store_true",
                    help="emit the fixed p=m=3, n=1 comparison table")
    sp.add_argument("--out", help="write CSV to a file instead of stdout")

    sp = command("simulate", _cmd_simulate, "master-worker latency simulation")
    sp.add_argument("--scheme", required=True)
    sp.add_argument("--latency", type=_parse_latency, default=ShiftedExponential(),
                    help="shifted-exp:shift,rate or stragglers:count,slowdown")
    sp.add_argument("--trials", type=_count, default=100)
    sp.add_argument("--faults", type=int, default=0)
    sp.add_argument("--alpha", type=int)
    sp.add_argument("--beta", type=int)
    sp.add_argument("--theta", type=int)
    sp.add_argument("--construction")

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
