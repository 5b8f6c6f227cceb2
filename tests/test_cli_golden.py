"""Byte-for-byte CLI output against committed fixtures.

Each case runs one CLI command in-process and compares its stdout and
stderr with tests/golden/<name>.out and .err.  The fixtures pin the
simulator's trial rng stream (latencies, fault victims, corruption deltas),
the verify / fault / conv drivers and the bounds tables, so a refactor of
the worker step or the decoders cannot change any reported number unnoticed.

After a deliberate output change, regenerate with
    PYTHONPATH=src python tests/test_cli_golden.py
and review the diff of tests/golden/.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from codedmm.cli import main

GOLDEN = Path(__file__).parent / "golden"

_SIM = ("simulate", "--trials", "25", "--seed", "7")
_SCHEMES = {
    "entangled": ("--scheme", "entangled", "--p", "2", "--m", "2", "--n", "1", "--N", "9"),
    "general-poly": ("--scheme", "general-poly", "--p", "2", "--m", "2", "--n", "1", "--N", "12",
                     "--alpha", "2", "--beta", "1", "--theta", "6"),
    "uncoded": ("--scheme", "uncoded", "--p", "2", "--m", "2", "--n", "1", "--N", "9"),
    "random-linear": ("--scheme", "random-linear", "--p", "2", "--m", "2", "--n", "1", "--N", "10"),
    "improved": ("--scheme", "improved", "--construction", "strassen",
                 "--p", "2", "--m", "2", "--n", "2", "--N", "14"),
}


def _simulate(scheme: str, faults: int, *extra: str) -> tuple[str, ...]:
    return _SIM + _SCHEMES[scheme] + ("--faults", str(faults)) + extra


CASES = {
    **{
        f"simulate-{scheme}-f{faults}": _simulate(scheme, faults)
        for scheme in _SCHEMES
        for faults in (0, 1)
    },
    "simulate-entangled-f1-q2p61": _simulate("entangled", 1, "--q", str(2**61 - 1)),
    # unit latencies tie, so the arrival order among them picks the subset
    **{
        f"simulate-{scheme}-f1-stragglers": _simulate(scheme, 1, "--latency", "stragglers:3,10")
        for scheme in ("uncoded", "random-linear")
    },
    "verify-exhaustive": ("verify", "--p", "2", "--m", "2", "--n", "1", "--N", "7",
                          "--exhaustive", "--seed", "3"),
    "verify-improved-exhaustive": ("verify-improved", "--construction", "strassen",
                                   "--N", "14", "--exhaustive", "--seed", "3"),
    "fault-correct": ("fault", "--p", "2", "--m", "2", "--n", "1", "--N", "9",
                      "--errors", "2", "--trials", "10", "--mode", "correct", "--seed", "5"),
    "fault-detect": ("fault", "--p", "2", "--m", "2", "--n", "1", "--N", "9",
                     "--errors", "3", "--trials", "10", "--mode", "detect", "--seed", "5"),
    "conv": ("conv", "--m", "3", "--n", "2", "--N", "6", "--len", "4", "--seed", "3"),
    # q >= 2^21 takes the large-field paths: limbs, Python ints, no FFT
    "conv-q2p61": ("conv", "--m", "2", "--n", "2", "--N", "5", "--len", "3",
                   "--q", "2305843009213693951", "--seed", "3"),
    "bounds": ("bounds", "--Nmax", "14"),
    "bounds-fig2": ("bounds", "--fig2", "--Nmax", "14"),
}


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _read(path: Path) -> str:
    with open(path, newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_fixture(name):
    code, out, err = _run(CASES[name])
    assert code == 0
    assert out == _read(GOLDEN / f"{name}.out")
    assert err == _read(GOLDEN / f"{name}.err")


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        code, out, err = _run(argv)
        if code != 0:
            raise SystemExit(f"{name} exited {code}:\n{err}")
        for suffix, text in ((".out", out), (".err", err)):
            with open(GOLDEN / f"{name}{suffix}", "w", newline="") as fh:
                fh.write(text)


if __name__ == "__main__":
    _regenerate()
