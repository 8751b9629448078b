import json
import os
import subprocess
import sys

import pytest

import audioactive
from audioactive.cli import main

import reference_values as ref


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStep:
    def test_decay_chain(self, capsys):
        code, out, _ = run(capsys, "step", "1", "--base", "3", "--n", "4")
        assert code == 0
        assert out.splitlines() == ["1", "11", "21", "1211", "111221"]

    def test_decimal(self, capsys):
        code, out, _ = run(capsys, "step", "5555555555", "--base", "10", "--n", "1")
        assert code == 0
        assert out.splitlines() == ["5555555555", "105"]

    def test_tokens(self, capsys):
        code, out, _ = run(capsys, "step", "1,10,1,5", "--tokens", "--n", "1")
        assert code == 0
        assert out.splitlines() == ["1,10,1,5", "1,1,1,10,1,1,1,5"]

    def test_invalid_digit_exits_2(self, capsys):
        code, _, err = run(capsys, "step", "39", "--base", "3")
        assert code == 2
        assert "position 0" in err


class TestDecompose:
    def test_full(self, capsys):
        code, out, _ = run(capsys, "decompose", "101102110211")
        assert code == 0
        assert out.strip() == "10.110.2110.211 = E.U.D.Ph"

    def test_particle(self, capsys):
        code, out, _ = run(capsys, "decompose", "22")
        assert out.strip() == "22 = Ne"

    def test_conservative(self, capsys):
        code, out, _ = run(capsys, "decompose", "1012211", "--mode", "conservative")
        assert out.strip() == "10.12211 = E.?"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "decompose", "22", "--format", "json")
        assert json.loads(out) == {"segments": ["22"], "particles": ["Ne"], "common": True}

    def test_domain_violation_exits_2(self, capsys):
        code, _, err = run(capsys, "decompose", "2222")
        assert code == 2
        assert "splitting domain" in err

    def test_domain_message_states_the_rule(self, capsys):
        code, _, err = run(capsys, "decompose", "00")
        assert code == 2
        assert err == (
            "error: '00' is outside the proven splitting domain "
            "(no 00, 11111 or 2222, and no final 1111); use conservative mode\n"
        )


class TestVerify:
    def test_writes_csv_and_verdict(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, out, err = run(capsys, "verify", "--out", str(out_path))
        assert code == 0
        assert out.strip() == "VERIFIED max_iterations=10 strings=71775"
        lines = out_path.read_text().splitlines()
        assert lines[7] == "7," + ",".join(map(str, ref.DECAY_TABLE_ROWS[7])) + ",136"
        assert "verify: length 16" in err

    @pytest.mark.parametrize("cap,code", [(10, 0), (9, 1)])
    def test_one_count_line_per_length(self, capsys, tmp_path, cap, code):
        # Every length reports all its strings, failed ones included.
        got = run(capsys, "verify", "--cap", str(cap), "--out", str(tmp_path / "t.csv"))
        assert got[0] == code
        assert got[2].splitlines() == [
            f"verify: length {n} ({ref.ROW_TOTALS[n]} strings)" for n in range(1, 17)
        ]

    def test_stdout_csv(self, capsys):
        code, out, err = run(capsys, "verify")
        assert code == 0
        assert out.splitlines()[0].startswith("length,iter0")
        assert "VERIFIED" in err

    def test_jobs_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--jobs", "2"])
        assert exc.value.code == 2

    def test_negative_cap_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--cap", "-1")
        assert code == 2
        assert err == "error: cap must be non-negative\n"
        assert out == ""


class TestAncients:
    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "ancients", "--length", "7", "--count-only")
        assert code == 0
        assert out.strip() == "136"

    def test_listing(self, capsys):
        code, out, _ = run(capsys, "ancients", "--length", "1")
        assert out.splitlines() == ["0", "1", "2"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "ancients", "--length", "2", "--format", "json")
        data = json.loads(out)
        assert data["count"] == 6
        assert data["strings"][0] == "10"

    def test_out_of_range_exits_2(self, capsys):
        code, _, err = run(capsys, "ancients", "--length", "20")
        assert code == 2


class TestFixedpoints:
    def test_base3(self, capsys):
        code, out, _ = run(capsys, "fixedpoints", "--base", "3", "--max-len", "16")
        assert out.splitlines() == ["11110", "11112", "22"]

    def test_base2(self, capsys):
        code, out, _ = run(capsys, "fixedpoints", "--base", "2", "--max-len", "8")
        assert out.splitlines() == ["111"]

    def test_all_includes_concatenations(self, capsys):
        code, out, _ = run(capsys, "fixedpoints", "--base", "3", "--max-len", "10", "--all")
        assert "1111011110" in out.splitlines()

    def test_decimal_search_within_budget(self, capsys):
        code, out, _ = run(capsys, "fixedpoints", "--base", "10", "--max-len", "12")
        assert code == 0
        assert out == "22\n"


class TestSpectrumAndFrequencies:
    def test_spectrum_text(self, capsys):
        code, out, _ = run(capsys, "spectrum")
        lines = out.splitlines()
        assert lines[0] == "lambda=1.324717957"
        assert lines[1] == "characteristic_polynomial=1,0,-2,-1,1,2,0,-1,-1"
        assert lines[2] == "growth_polynomial_divides=true"
        assert lines[3] == "primitivity_power=14"

    def test_spectrum_charpoly_csv(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--table", "charpoly")
        assert out.splitlines()[0] == "coeff_degree,coeff_value"

    def test_spectrum_eigenvalues_csv(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--table", "eigenvalues")
        lines = out.splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 9

    @pytest.mark.parametrize("table", ["charpoly", "eigenvalues"])
    def test_spectrum_table_rejects_json_format(self, capsys, table):
        code, out, err = run(capsys, "spectrum", "--table", table, "--format", "json")
        assert code == 2
        assert out == ""
        assert err == f"error: --table {table} writes CSV and cannot be used with --format json\n"

    def test_frequencies_text(self, capsys):
        code, out, _ = run(capsys, "frequencies")
        lines = out.splitlines()
        assert lines[0] == "E 0.185037"
        assert len(lines) == 8

    def test_frequencies_csv(self, capsys):
        code, out, _ = run(capsys, "frequencies", "--format", "csv")
        assert out.splitlines()[0] == "particle,frequency"

    def test_frequencies_json(self, capsys):
        code, out, _ = run(capsys, "frequencies", "--format", "json")
        data = json.loads(out)
        assert data["E"] == pytest.approx(0.185037, abs=1e-6)


class TestGrowth:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "growth", "--seed", "1", "--base", "3", "--iters", "30")
        lines = out.splitlines()
        assert lines[0].startswith("estimate=1.32")

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "growth", "--seed", "1", "--base", "3", "--iters", "12", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "n,length,ratio"
        assert lines[1] == "0,1,"
        assert len(lines) == 14

    def test_json(self, capsys):
        code, out, _ = run(capsys, "growth", "--seed", "22", "--base", "3", "--iters", "15", "--format", "json")
        data = json.loads(out)
        assert data["estimate"] == 1.0
        assert data["lengths"] == [2] * 16

    def test_base2_past_a_billion_digits(self, capsys):
        # iterate 53 has 1,176,190,161 digits; the piece multiset never builds them
        code, out, err = run(capsys, "growth", "--seed", "1", "--base", "2", "--iters", "60")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "estimate=1.465571232"

    def test_ratio_past_the_float_range_exits_2(self, capsys):
        code, out, err = run(capsys, "growth", "--seed", "1", "--base", "2", "--iters", "7600")
        assert code == 2
        assert out == ""
        assert err == "error: 7600 iterations are too many for a float estimate\n"


class TestKvalue:
    def test_electron(self, capsys):
        code, out, _ = run(capsys, "kvalue", "10")
        lines = out.splitlines()
        assert lines[0] == "k=8"
        assert lines[1] == "stabilized=true"
        assert "limsup=E,M,U,D,S,C,B,T" in lines

    def test_json(self, capsys):
        code, out, _ = run(capsys, "kvalue", "22", "--format", "json")
        data = json.loads(out)
        assert data["k"] == 1 and data["limsup"] == ["Ne"]

    def test_non_convergence_exits_1(self, capsys):
        code, _, err = run(capsys, "kvalue", "1", "--iters", "2")
        assert code == 1
        assert "failure:" in err

    def test_negative_iters_exits_2(self, capsys):
        code, out, err = run(capsys, "kvalue", "1", "--iters", "-1")
        assert code == 2
        assert err == "error: max_iter must be non-negative\n"
        assert out == ""

    @pytest.mark.parametrize("flag", ["--window", "--warmup"])
    def test_removed_window_flags_are_usage_errors(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["kvalue", "10", flag, "8"])
        assert exc.value.code == 2


class TestParticles:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "particles", "--format", "json")
        data = json.loads(out)
        assert len(data) == 24
        assert data[0]["symbol"] == "E"

    def test_text(self, capsys):
        code, out, _ = run(capsys, "particles", "--format", "text")
        assert "11222110" in out


class TestUsage:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["step", "1", "--bogus"])
        assert exc.value.code == 2

    def test_missing_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


_CLI_PROBE = """
import contextlib, io, json, sys
import audioactive
seen = [["import audioactive", 0, "numpy" in sys.modules, ""]]
import audioactive.cli as cli
seen.append(["import audioactive.cli", 0, "numpy" in sys.modules, ""])
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    seen.append([" ".join(argv)[:60], code, "numpy" in sys.modules, out.getvalue()])
print(json.dumps(seen))
"""


def fresh_python(code, *args):
    """Standard output of ``code`` run in a new interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(audioactive.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
        check=True,
    )
    return proc.stdout


def fresh_cli(commands):
    """(step, exit code, numpy loaded, stdout) after each import and command."""
    return json.loads(fresh_python(_CLI_PROBE, json.dumps(commands)))


class TestNumpyStaysUnloaded:
    """Only the eigenvalue table and token mode load numpy."""

    def test_commands_run_without_numpy(self, tmp_path):
        long_run = "1" + "2" * 100_000 + "3"  # a seed the numpy engine stepped before
        commands = [
            ["verify", "--out", str(tmp_path / "decay.csv")],
            ["decompose", "101102110211"],
            ["kvalue", "10"],
            ["growth", "--seed", "1", "--base", "3"],
            ["growth", "--seed", "1", "--base", "2", "--iters", "50"],
            ["growth", "--seed", "1", "--base", "10"],
            ["growth", "--seed", long_run, "--base", "4", "--iters", "30"],
            ["spectrum", "--format", "json"],
            ["frequencies"],
        ]
        seen = fresh_cli(commands)
        assert len(seen) == len(commands) + 2
        for step, code, numpy, _ in seen:
            assert (code, numpy) == (0, False), step

    def test_eigenvalue_table_and_token_mode_load_numpy(self):
        *_, (_, code, numpy, out) = fresh_cli([["spectrum", "--table", "eigenvalues"]])
        assert (code, numpy) == (0, True)
        assert out.splitlines()[1].startswith("1.324717957")
        estimate, numpy = fresh_python(
            "import sys\n"
            "from audioactive import TokenString, empirical_growth\n"
            "est = empirical_growth(TokenString((1,)), 40)\n"
            "print(est.estimate, 'numpy' in sys.modules)\n"
        ).split()
        assert abs(float(estimate) - ref.HIGH_BASE_GROWTH) < 0.02
        assert numpy == "True"
