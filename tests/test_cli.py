"""Tests for the command-line interface."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from codedmm.cli import main

Q_PAST_INT64 = (1 << 89) - 1  # a Mersenne prime


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestVerify:
    def test_exhaustive_small_case(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--p", "2", "--m", "1", "--n", "1", "--N", "5",
            "--exhaustive", "--q", "7",
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["subsets"] == "10" and row["decoded"] == "10" and row["failures"] == "0"
        assert "seed: 0" in err

    def test_sampled_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--p", "2", "--m", "2", "--n", "1", "--N", "10",
            "--samples", "25",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][4] == "sampled" or rows[0][3] == "sampled"

    def test_matrix_fixtures(self, capsys, tmp_path):
        a_path = tmp_path / "a.txt"
        b_path = tmp_path / "b.txt"
        a_path.write_text("2 1 7\n1\n2\n")
        b_path.write_text("2 1 7\n3\n4\n")
        code, out, _ = run_cli(
            capsys, "verify", "--p", "2", "--m", "1", "--n", "1", "--N", "5",
            "--exhaustive", "--a", str(a_path), "--b", str(b_path),
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][-1] == "0"

    def test_mismatched_fixture_fields(self, capsys, tmp_path):
        a_path = tmp_path / "a.txt"
        b_path = tmp_path / "b.txt"
        a_path.write_text("2 1 7\n1\n2\n")
        b_path.write_text("2 1 257\n3\n4\n")
        code, _, err = run_cli(
            capsys, "verify", "--p", "2", "--m", "1", "--n", "1", "--N", "5",
            "--a", str(a_path), "--b", str(b_path),
        )
        assert code == 2
        assert "error:" in err

    def test_fixture_without_its_partner(self, capsys, tmp_path):
        a_path = tmp_path / "a.txt"
        a_path.write_text("2 1 7\n1\n2\n")
        code, out, err = run_cli(
            capsys, "verify", "--p", "2", "--m", "1", "--n", "1", "--N", "5", "--a", str(a_path),
        )
        assert code == 2 and out == ""
        assert "--a and --b must be given together" in err

    def test_fixtures_with_different_row_counts(self, capsys, tmp_path):
        a_path = tmp_path / "a.txt"
        b_path = tmp_path / "b.txt"
        a_path.write_text("2 1 7\n1\n2\n")
        b_path.write_text("3 1 7\n3\n4\n5\n")
        code, out, err = run_cli(
            capsys, "verify", "--p", "2", "--m", "1", "--n", "1", "--N", "5",
            "--a", str(a_path), "--b", str(b_path),
        )
        assert code == 2 and out == ""
        assert "must share their row count" in err

    def test_exhaustive_past_the_cap_samples(self, capsys):
        # C(40, 9) subsets at K = 9: too many to list, so --samples are drawn
        code, out, err = run_cli(
            capsys, "verify", "--p", "2", "--m", "2", "--n", "2", "--N", "40",
            "--exhaustive", "--samples", "3",
        )
        assert code == 0
        assert "note: 273438880 subsets exceed the exhaustive cap; sampling instead" in err
        _, rows = parse_csv(out)
        assert rows == [["entangled", "40", "9", "sampled", "3", "3", "0"]]

    def test_verify_improved(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-improved", "--construction", "strassen", "--N", "13",
            "--samples", "10",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][-1] == "0"


class TestConv:
    def test_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "conv", "--m", "3", "--n", "2", "--N", "6", "--len", "3",
            "--seed", "3",
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["K"] == "4" and row["failures"] == "0"

    def test_past_the_cap_samples_with_a_note(self, capsys):
        # C(60, 3) = 34220 subsets at K = 3: past the cap, --samples are drawn
        code, out, err = run_cli(
            capsys, "conv", "--m", "2", "--n", "2", "--N", "60", "--len", "3", "--samples", "3",
        )
        assert code == 0
        assert "note: 34220 subsets exceed the exhaustive cap; sampling instead" in err
        _, rows = parse_csv(out)
        assert rows == [["2", "2", "60", "3", "3", "3", "3", "0"]]


class TestFault:
    def test_detect_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "fault", "--p", "2", "--m", "2", "--n", "1", "--N", "9",
            "--errors", "4", "--trials", "20", "--mode", "detect",
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["silent_wrong"] == "0"

    def test_correct_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "fault", "--p", "2", "--m", "2", "--n", "1", "--N", "9",
            "--errors", "2", "--trials", "20", "--mode", "correct",
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["exact"] == "20" and row["silent_wrong"] == "0"

    @pytest.mark.parametrize("errors, mode, column", [
        ("0", "detect", "exact"),  # every trial is Clean and exact
        ("3", "correct", "uncorrectable"),  # past floor((9 - 5) / 2) = 2: refused
    ])
    def test_every_trial_lands_in_one_column(self, capsys, errors, mode, column):
        code, out, _ = run_cli(
            capsys, "fault", "--p", "2", "--m", "2", "--n", "1", "--N", "9",
            "--trials", "10", "--seed", "5", "--errors", errors, "--mode", mode,
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row[column] == "10" and row["silent_wrong"] == "0"

    @pytest.mark.parametrize("mode", ["detect", "correct"])
    def test_no_redundancy_reports_every_corruption_as_silent(self, capsys, mode):
        # N = K = 5 leaves repair nothing to compare with, so the corrupted
        # decode is wrong and the command exits 1
        code, out, _ = run_cli(
            capsys, "fault", "--p", "2", "--m", "2", "--n", "1", "--N", "5",
            "--errors", "1", "--trials", "4", "--mode", mode,
        )
        assert code == 1
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["silent_wrong"] == "4"

    def test_modulus_past_int64(self, capsys):
        # 2^89 - 1: the inputs and the corruption are drawn past int64
        code, out, err = run_cli(
            capsys, "fault", "--p", "2", "--m", "1", "--n", "1", "--N", "6",
            "--errors", "1", "--trials", "1", "--mode", "correct", "--q", str(Q_PAST_INT64),
        )
        assert code == 0, err
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["exact"] == "1" and row["silent_wrong"] == "0"


class TestBounds:
    def test_fig2_row_30(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--fig2", "--Nmax", "30")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["N", "K_uncoded", "K_random_linear", "K_short_mds", "K_entangled"]
        last = rows[-1]
        assert last == ["30", "28", "27", "23", "11"]

    def test_general_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--p", "2", "--m", "2", "--n", "2", "--Nmax", "12"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert "converse_linear" in header
        assert rows[0][0] == "9"  # starts at the entangled threshold

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "fig2.csv"
        code, out, _ = run_cli(capsys, "bounds", "--fig2", "--Nmax", "12", "--out", str(path))
        assert code == 0
        assert out == ""
        header, rows = parse_csv(path.read_text())
        assert header[0] == "N" and rows[0][0] == "11"


class TestSimulate:
    def test_deterministic_output(self, capsys):
        args = ("simulate", "--scheme", "entangled", "--p", "2", "--m", "1",
                "--n", "1", "--N", "6", "--trials", "5", "--seed", "7")
        code1, out1, err1 = run_cli(capsys, *args)
        code2, out2, err2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "aggregate:" in err1

    def test_csv_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scheme", "uncoded", "--p", "2", "--m", "1",
            "--n", "1", "--N", "8", "--trials", "3",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["trial", "scheme", "N", "K", "completion_time", "waited", "success"]
        assert len(rows) == 3
        assert all(row[6] == "1" for row in rows)

    def test_modulus_past_int64(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--scheme", "entangled", "--p", "2", "--m", "1",
            "--n", "1", "--N", "6", "--trials", "2", "--q", str(Q_PAST_INT64),
        )
        assert code == 0, err
        _, rows = parse_csv(out)
        assert [row[6] for row in rows] == ["1", "1"]

    def test_latency_flag_parsing(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scheme", "entangled", "--p", "2", "--m", "1",
            "--n", "1", "--N", "6", "--trials", "2",
            "--latency", "stragglers:3,10",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert all(row[4] == "1.000000" for row in rows)


class TestModuleEntryPoint:
    """`python -m codedmm` runs in a fresh interpreter and exits with main's code."""

    SIMULATE = ("simulate", "--scheme", "random-linear", "--p", "2", "--m", "1",
                "--n", "1", "--N", "6", "--seed", "3")

    def run_module(self, *argv):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run(
            [sys.executable, "-m", "codedmm", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_simulate_exits_zero(self):
        proc = self.run_module(*self.SIMULATE, "--trials", "3")
        assert proc.returncode == 0, proc.stderr
        header, rows = parse_csv(proc.stdout)
        assert header == ["trial", "scheme", "N", "K", "completion_time", "waited", "success"]
        assert len(rows) == 3

    def test_usage_error_exits_two(self):
        proc = self.run_module(*self.SIMULATE, "--trials", "0")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "must be at least 1" in proc.stderr

    def test_bounds_prints_its_golden_table(self):
        proc = self.run_module("bounds", "--fig2", "--Nmax", "14")
        assert proc.returncode == 0, proc.stderr
        golden = Path(__file__).resolve().parent / "golden" / "bounds-fig2.out"
        assert proc.stdout == golden.read_text()

    def test_invalid_partition_exits_two(self):
        proc = self.run_module("verify", "--p", "0", "--m", "1", "--n", "1", "--N", "3")
        assert proc.returncode == 2
        assert proc.stdout == ""


class TestValidateConstruction:
    def test_registry_name(self, capsys):
        code, out, _ = run_cli(capsys, "validate-construction", "strassen")
        assert code == 0
        _, rows = parse_csv(out)
        assert all(row[6] == "pass" for row in rows)

    def test_json_path(self, capsys, tmp_path):
        from codedmm.bilinear import save_construction, standard_construction

        path = tmp_path / "std.json"
        save_construction(standard_construction(2, 1, 2), path)
        code, out, _ = run_cli(capsys, "validate-construction", str(path))
        assert code == 0

    def test_invalid_construction_fails(self, capsys, tmp_path):
        from codedmm.bilinear import construction_to_dict, strassen_construction

        data = construction_to_dict(strassen_construction())
        data["c"][0][0][0] = 5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "validate-construction", str(path))
        assert code == 1
        _, rows = parse_csv(out)
        assert any(row[6] == "fail" for row in rows)

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "validate-construction", "missing.json")
        assert code == 2
        assert "error:" in err


# every subcommand with a valid argument set, and each of its integer options
INTEGER_OPTIONS = {
    "verify": (("--p", "2", "--m", "2", "--n", "1", "--N", "9", "--samples", "5"),
               ("p", "m", "n", "N", "samples", "q", "seed")),
    "verify-improved": (("--construction", "strassen", "--N", "13", "--samples", "2"),
                        ("N", "samples", "q", "seed")),
    "conv": (("--m", "2", "--n", "2", "--N", "5", "--len", "2", "--samples", "5"),
             ("m", "n", "N", "len", "samples", "q", "seed")),
    "fault": (("--p", "2", "--m", "2", "--n", "1", "--N", "9", "--errors", "1", "--trials", "2",
               "--mode", "correct"),
              ("p", "m", "n", "N", "errors", "trials", "q", "seed")),
    "bounds": (("--Nmax", "14"), ("p", "m", "n", "Nmax", "q")),
    "simulate": (("--scheme", "general-poly", "--p", "2", "--m", "2", "--n", "1", "--N", "12",
                  "--alpha", "2", "--beta", "1", "--theta", "6", "--trials", "2"),
                 ("p", "m", "n", "N", "trials", "faults", "alpha", "beta", "theta", "q", "seed")),
    "validate-construction": (("strassen",), ("q",)),
}


def _with_option(argv, option, value):
    argv = list(argv)
    flag = f"--{option}"
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    return argv


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "command, option",
    [(command, option) for command, (_, options) in INTEGER_OPTIONS.items() for option in options],
)
def test_integer_options_at_zero_and_below_keep_the_exit_contract(capsys, command, option, value):
    # 0 ok, 1 a verification failure (a result row was printed), 2 a usage
    # error with one error line; an escaped exception fails the call itself
    base, _ = INTEGER_OPTIONS[command]
    code, out, err = run_cli(capsys, command, *_with_option(base, option, value))
    assert code in (0, 1, 2)
    if code == 1:
        assert len(parse_csv(out)[1]) == 1
    if code == 2:
        assert out == ""
        assert err.count("error:") == 1


@pytest.mark.parametrize("option", ["p", "m", "n"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_bounds_refuses_partitions_below_one(capsys, tmp_path, option, value):
    path = tmp_path / "table.csv"
    code, out, err = run_cli(capsys, "bounds", "--Nmax", "14", f"--{option}", value, "--out", str(path))
    assert code == 2
    assert out == ""
    assert f"{option} must be >= 1" in err
    assert not path.exists()


@pytest.mark.parametrize("q", ["0", "-1", "4"])
def test_bounds_refuses_a_non_prime_modulus(capsys, tmp_path, q):
    path = tmp_path / "table.csv"
    code, out, err = run_cli(capsys, "bounds", "--Nmax", "14", "--q", q, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and "prime" in err
    assert not path.exists()


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["verify", "--p", "2"]) == 2

    @pytest.mark.parametrize("count", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--scheme", "entangled", "--p", "2", "--m", "1", "--n", "1",
             "--N", "6", "--trials"),
            ("fault", "--p", "2", "--m", "2", "--n", "1", "--N", "9", "--errors", "1",
             "--mode", "correct", "--trials"),
            ("verify", "--p", "2", "--m", "2", "--n", "1", "--N", "9", "--samples"),
            ("verify-improved", "--construction", "strassen", "--N", "13", "--samples"),
            ("conv", "--m", "2", "--n", "2", "--N", "5", "--len", "2", "--samples"),
        ],
        ids=["simulate-trials", "fault-trials", "verify-samples",
             "verify-improved-samples", "conv-samples"],
    )
    def test_counts_below_one_are_usage_errors(self, capsys, argv, count):
        code, out, err = run_cli(capsys, *argv, count)
        assert code == 2
        assert out == ""
        assert "must be at least 1" in err
        assert "Traceback" not in err

    SIMULATE = ("simulate", "--scheme", "entangled", "--p", "2", "--m", "1", "--n", "1",
                "--N", "9", "--trials", "2")

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--latency", "shifted-exp:1,0"), "rate"),
            (("--latency", "shifted-exp:1,-2"), "rate"),
            (("--latency", "shifted-exp:1,inf"), "rate"),
            (("--latency", "shifted-exp:nan,1"), "shift"),
            (("--latency", "shifted-exp:inf,1"), "shift"),
            (("--latency", "stragglers:-1,10"), "count"),
            (("--latency", "stragglers:2.5,10"), "count"),
            (("--latency", "stragglers:nan"), "count"),
            (("--latency", "stragglers:3,0"), "slowdown"),
            (("--latency", "stragglers:3,nan"), "slowdown"),
            (("--latency", "stragglers:10,2"), "stragglers"),
            (("--faults", "10"), "faults"),
            (("--faults", "-1"), "faults"),
            (("--N", "0"), "N must be >= 1"),
            (("--N", "-1"), "N must be >= 1"),
            (("--trials", "abc"), "invalid int value: 'abc'"),
            (("--latency", "stragglers"), "stragglers latency needs a count"),
            (("--latency", "foo:1"), "unknown latency model 'foo'"),
        ],
        ids=["rate-zero", "rate-negative", "rate-inf", "shift-nan", "shift-inf",
             "count-negative", "count-fractional", "count-nan", "slowdown-zero",
             "slowdown-nan", "stragglers-over-N", "faults-over-N", "faults-negative",
             "N-zero", "N-negative", "trials-not-int", "stragglers-without-count",
             "unknown-model"],
    )
    def test_bad_simulation_values_are_usage_errors(self, capsys, extra, message):
        code, out, err = run_cli(capsys, *self.SIMULATE, *extra)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err
        assert "larger sample" not in err

    def test_table_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--fig2", "--Nmax", "12", "--format", "table"
        )
        assert code == 0
        assert "," not in out.splitlines()[0]
        assert "K_entangled" in out
