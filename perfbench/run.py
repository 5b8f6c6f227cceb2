"""codedmm benchmark: one closed-loop client over three named workloads.

    python3 perfbench/run.py --workload bulk-512 --seed 1 --seconds 30 --trace 0

The next job starts when the previous one returns.  Each job's output is
checked exactly, outside the timed region.  After each job a fixed
calibration kernel is timed, and the end-to-end times are scaled by it to
the reference host's speed (calibrate.py).  With --trace 0 the last stdout
line holds the end-to-end metrics; with --trace 1 it holds the per-layer
metrics, from cycles that alternate untraced and traced, and the spans are
written to perfbench/out/.  The lines before it are a readable table and a
JSON report with the provenance, the raw (unscaled) times, the tail
percentile and its sample count, and failed_share.  See perfbench/README.md.
"""

import time

_START = time.perf_counter()  # set-up is timed from here, before numpy loads

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402  (stdlib only)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
SETUP_SAMPLES = 3  # this process plus two fresh ones; setup_s is their median
SETUP_KERNEL_SAMPLES = 7  # kernel samples that scale each set-up time
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs above it
WORKLOADS = ("bulk-512", "sim-small", "fault-repair")

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "cpu_s_per_job": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SIM_KINDS = ("entangled", "random-linear", "uncoded")
# Span names; each gives a per-layer `.ms` (median self time per call) and
# `.calls` (calls per workload cycle).
SPAN_METRICS = (
    [f"schemes.worker_multiply.{k}" for k in ("entangled", "improved", *SIM_KINDS[1:], "fault")]
    + [f"schemes.encode_all.{k}" for k in (*SIM_KINDS, "fault")]
    + [f"schemes.decode.{k}" for k in SIM_KINDS]
    + ["bilinear.encode_all", "bilinear.decode"]
    + ["convolution.conv_encode", "convolution.conv_worker", "convolution.conv_decode"]
    + ["robust.detect_errors", "robust.correct_errors.repaired", "robust.correct_errors.refused"]
    + [f"sim.run_trial.{k}" for k in SIM_KINDS]
)
PER_LAYER = {}
for _stem in SPAN_METRICS:
    PER_LAYER[f"{_stem}.ms"] = "ms"
    PER_LAYER[f"{_stem}.calls"] = "count/cycle"
PER_LAYER.update({
    "kernel.mul_adds": "count/cycle",
    "kernel.bytes_computed": "B/cycle",
    "kernel.gmac_per_s": "GMAC/s",
    "convolution.mul_adds": "count/cycle",
    "robust.refused": "count/cycle",
    "robust.refusals_owed": "count/cycle",
    **{f"sim.own.{k}.ms": "ms" for k in SIM_KINDS},
    "sim.extra_waits": "count/cycle",
    "trace.overhead_share": "share",
})


def cap_threads() -> None:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= NPROC:
            os.environ[var] = str(NPROC)


def import_codedmm():
    """Import codedmm from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import codedmm
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import codedmm from {SRC}: {exc}")
    if Path(codedmm.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: codedmm came from {codedmm.__file__}, not {SRC}")
    return codedmm


def setup(args):
    """Imports, scheme and construction set-up, input generator, warm-up.

    Returns the raw set-up time and the same scaled by the calibration
    kernel, which is timed after set-up has ended.
    """
    import numpy as np

    import_codedmm()
    import workloads

    wl = workloads.make(args.workload, args.seed, args.smoke)
    warm_seq, loop_seq = np.random.SeedSequence(args.seed).spawn(2)
    warm_rng = np.random.default_rng(warm_seq)
    null = spans.NullTracer()
    for kind in dict.fromkeys(wl.cycle):
        wl.job(kind, warm_rng, null)
    raw = time.perf_counter() - _START

    import calibrate

    cal = calibrate.Calibration(wl.calibration)
    scaled = raw * cal.scale([cal.sample() for _ in range(SETUP_KERNEL_SAMPLES)])
    return wl, cal, np.random.default_rng(loop_seq), raw, scaled


def more_setup_samples(args) -> list[tuple[float, float]]:
    """Set up again in fresh processes, so imports are timed cold each time.

    Returns (raw, scaled) set-up seconds per process.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up process failed:\n{proc.stderr}")
        res = json.loads(proc.stdout.splitlines()[-1])
        out.append((res["setup_raw_s"], res["setup_s"]))
    return out


def run_cycles(wl, cal, rng, seconds: float, tracers):
    """Whole cycles until `seconds` have passed, rotating through `tracers`.

    Returns the jobs as (cycle, kind, outcome, traced) and, per cycle, the
    kernel times sampled after each of its jobs, outside their timed region.
    """
    jobs, samples = [], []
    deadline = time.perf_counter() + seconds
    cycles = 0
    while True:
        tr = tracers[cycles % len(tracers)]
        cycle_samples = []
        for kind in wl.cycle:
            tr.job = len(jobs)
            jobs.append((cycles, kind, wl.job(kind, rng, tr), tr.enabled))
            cycle_samples.append(cal.sample())
        samples.append(cycle_samples)
        cycles += 1
        if cycles % len(tracers) == 0 and time.perf_counter() >= deadline:
            return jobs, samples


def scaled(outcome, factor: float):
    """The outcome with its wall and CPU times multiplied by `factor`."""
    return dataclasses.replace(outcome, wall=outcome.wall * factor, cpu=outcome.cpu * factor)


def tail(latencies: list[float]) -> tuple[float, int]:
    """Value at the highest integer percentile with TAIL_BEYOND jobs above it.

    Nearest rank; with too few jobs for any such percentile, the maximum.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = -(-pct * n // 100)
    return xs[max(rank, 1) - 1], pct


def jobs_per_s(outcomes) -> float:
    """Completed jobs over their summed latency."""
    done = sum(o.failed is None for o in outcomes)
    return done / sum(o.wall for o in outcomes)


def end_to_end(outcomes, setup_s: float) -> tuple[dict, dict]:
    lat = [o.wall for o in outcomes]
    tail_s, pct = tail(lat)
    values = {
        "jobs_per_s": jobs_per_s(outcomes),
        "job_p50_ms": statistics.median(lat) * 1e3,
        "job_tail_ms": tail_s * 1e3,
        "cpu_s_per_job": sum(o.cpu for o in outcomes) / len(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    return values, {"tail_percentile": pct, "tail_jobs": len(lat)}


def per_layer(wl, tracer, jobs, untraced_jps: float, traced_jps: float) -> dict:
    cycles = sum(traced for *_, traced in jobs) / len(wl.cycle)
    selft = tracer.self_times()
    out = {}
    for stem in SPAN_METRICS:
        out[f"{stem}.ms"] = spans.median_ms(selft.get(stem, []))
        out[f"{stem}.calls"] = len(selft.get(stem, [])) / cycles
    mul_adds, nbytes = tracer.work("schemes.worker_multiply.")
    kernel_s = sum(sum(v) for k, v in selft.items() if k.startswith("schemes.worker_multiply."))
    out["kernel.mul_adds"] = mul_adds / cycles
    out["kernel.bytes_computed"] = nbytes / cycles
    out["kernel.gmac_per_s"] = mul_adds / kernel_s / 1e9 if kernel_s else 0.0
    out["convolution.mul_adds"] = tracer.work("convolution.conv_worker")[0] / cycles
    out["robust.refused"] = getattr(wl, "refused", 0) / cycles
    out["robust.refusals_owed"] = getattr(wl, "refusals_owed", 0) / cycles
    for kind in SIM_KINDS:
        # each traced trial opens its run_trial span, then its replay span
        trial = tracer.durations(f"sim.run_trial.{kind}")
        replay = tracer.durations(f"sim.replay.{kind}")
        own = [t - r for t, r in zip(trial, replay)]
        out[f"sim.own.{kind}.ms"] = spans.median_ms(own)
    out["sim.extra_waits"] = getattr(wl, "extra_waits", 0) / cycles
    out["trace.overhead_share"] = 1 - traced_jps / untraced_jps
    return out


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "codedmm").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_info() -> tuple[str | None, int | None]:
    import numpy as np
    from workloads import OPENBLAS

    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    return name, OPENBLAS[0]() if OPENBLAS else None


def provenance(args, wl) -> dict:
    import numpy as np

    blas, blas_threads = blas_info()
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "cycle": list(wl.cycle),
        "params": wl.params,
        "calibration": wl.calibration,
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrunken inputs, for perfbench/smoke.py")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print it and exit")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_threads()
    wl, cal, rng, setup_raw, setup_s = setup(args)
    if args.setup_only:
        print(json.dumps({"setup_raw_s": setup_raw, "setup_s": setup_s}))
        return 0
    raws, scaleds = zip((setup_raw, setup_s), *more_setup_samples(args))

    tracer = spans.Tracer() if args.trace else None
    tracers = [spans.NullTracer()] + ([tracer] if tracer else [])
    jobs, samples = run_cycles(wl, cal, rng, args.seconds, tracers)
    factors = cal.cycle_scales(samples)
    raw_untraced = [o for _, _, o, traced in jobs if not traced]
    untraced = [scaled(o, factors[c]) for c, _, o, traced in jobs if not traced]
    kind_p50_ms = {
        kind: statistics.median(o.wall for _, k, o, t in jobs if k == kind and not t) * 1e3
        for kind in dict.fromkeys(wl.cycle)
    }
    failed = [(k, o.failed) for _, k, o, _ in jobs if o.failed is not None]
    e2e, extra = end_to_end(untraced, statistics.median(scaleds))
    e2e_raw, _ = end_to_end(raw_untraced, statistics.median(raws))
    kernel = [x for cycle in samples for x in cycle]
    report = {"provenance": provenance(args, wl), **extra,
              "failed_share": len(failed) / len(jobs), "failures": failed[:10],
              "kind_p50_ms_raw": kind_p50_ms, "end_to_end": e2e, "end_to_end_raw": e2e_raw,
              "kernel_ms": {"ref": cal.ref_s * 1e3, "median": statistics.median(kernel) * 1e3,
                            "min": min(kernel) * 1e3, "max": max(kernel) * 1e3}}
    if tracer:
        traced = [scaled(o, factors[c]) for c, _, o, t in jobs if t]
        metrics = per_layer(wl, tracer, jobs, jobs_per_s(untraced), jobs_per_s(traced))
        report["per_layer"] = metrics
        units = PER_LAYER
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_file, report)
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics = e2e
        units = END_TO_END

    print(f"{args.workload:>12}  {'metric':<14} {'scaled':>14} {'raw':>14}")
    for name, value in e2e.items():
        print(f"{args.workload:>12}  {name:<14} {value:14.6f} {e2e_raw[name]:14.6f} {END_TO_END[name]}")
    print(f"{args.workload:>12}  {'failed_share':<14} {report['failed_share']:14.6f} share"
          f"  ({len(failed)} of {len(jobs)} jobs)")
    print(f"{args.workload:>12}  tail is p{extra['tail_percentile']} of {extra['tail_jobs']} jobs")
    print(json.dumps(report))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
