import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from hashlib import sha256

import pytest
from hypothesis import given, settings, strategies as st

import audioactive
from audioactive import cli
from audioactive.cli import build_parser, main

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

    @pytest.mark.parametrize("tokens, bad", [("1,2,", "'' at position 2"), ("1,x,2", "'x' at position 1")])
    def test_malformed_token_is_named(self, capsys, tokens, bad):
        assert run(capsys, "step", tokens, "--tokens") == (2, "", f"error: token {bad} is not an integer\n")


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

    def test_unopenable_out_path_exits_2_before_counting(self, capsys, tmp_path, monkeypatch):
        def count(**_):
            raise AssertionError("counted before opening the output file")

        monkeypatch.setattr(audioactive.cosmology, "verify_cosmological", count)
        path = tmp_path / "missing" / "table.csv"
        code, out, err = run(capsys, "verify", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    @pytest.mark.parametrize("argv", [("--out", ""), ("--out=",)])
    def test_empty_out_path_exits_2_before_counting(self, capsys, monkeypatch, argv):
        # an empty path names no file: it is not a request for stdout
        def count(**_):
            raise AssertionError("counted before opening the output file")

        monkeypatch.setattr(audioactive.cosmology, "verify_cosmological", count)
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_negative_cap_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--cap", "-1")
        assert code == 2
        assert err == "error: cap must be non-negative\n"
        assert out == ""

    def test_input_error_leaves_an_existing_out_file_alone(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        old = b"keep\n" + bytes(range(256)) * 40  # longer than the table
        path.write_bytes(old)
        code, out, err = run(capsys, "verify", "--out", str(path), "--cap", "-1")
        assert (code, out, err) == (2, "", "error: cap must be non-negative\n")
        assert path.read_bytes() == old
        # a run that succeeds replaces the whole file with the table
        assert run(capsys, "verify", "--out", str(path))[0] == 0
        assert path.read_text() == run(capsys, "verify")[1]

    def test_out_to_a_device_exits_0(self, capsys):
        # The table is written with "w" once it is ready, which any writable
        # path takes; truncating a device or pipe in place would fail.
        code, out, _ = run(capsys, "verify", "--out", os.devnull)
        assert (code, out) == (0, "VERIFIED max_iterations=10 strings=71775\n")


# ``verify --cap N --out FILE``: exit code and sha256 of stdout and of the
# CSV, recorded from the class count that preceded the automata.  Stderr,
# the 16 count lines, is the same at every cap.  Caps 11 and up print what
# cap 10 prints, in a wider CSV.
VERIFY_STDERR_SHA256 = "540f51067cae49ac75079ebf75e681d9579c33c5cdc3345dc240200d56eb365b"
VERIFY_DIGESTS = {
    0: (1, "be9fc2bf682b985f87edc43625739ac5a0d37bcb6b9133ce083642d04d269b66", "554847d11e9be38f4f1f2935edf3b5d1fda6b8b06defef17e3815fa0e53d8886"),
    1: (1, "a73fa83e943b8ec140fddbc1ba9c44b2468636a4735d1c553c7af561c52ac02c", "073501a864579963d7801f9227edc96c4f60140375319e609a19ca5737988aa8"),
    2: (1, "11c6ef4cc7b63619468ea71d7d5b2b9e8c93ea82034c12ffbf1c2a4cd6092eaf", "0c5cd2ead8df5e2ba3710d6574cbfe5d7542de8f1d1d093161b191a1f2ea641a"),
    3: (1, "422f7863c77e0828f0b176183d365d3502054f430af5db04ec48acc7cf37e22e", "cb027d70ea50fee229a6dfc090778a21e4dfb354bc3ea2e6dd514294e1abc0c8"),
    4: (1, "ccd7f607c79f056bb0d4ff7da982f85a1dbc48ade42a38a39f3cbb7e4461625a", "2cfab37cc368b8c35af9e93b2331b53c909a2da4849df78397c54a18c61abeff"),
    5: (1, "f019acb9faff75accd4b5e9257ed7aa765520c28a2688f4f1a5a51cf77e61e1c", "b0876c23ee69e005f4565f0a104226941dab5341c90744315104c53f4b430b6b"),
    6: (1, "debd5964f9cc422c30eaed1a7ba36a98843dd2b7b8a04fcc53eedf025dfbc53f", "23405e77f3c9baada2e51dd927ab2a8bb6ed7d89f903c30e059f8b33456a26b4"),
    7: (1, "320c46af644558657a5e35e975419b6d97476ce19def082a8888a0763eb0ff10", "0c16c8fe7d3c2369c0e9d07c7dbad7051590f0c990c23271f9831227585b92ed"),
    8: (1, "9deb39201a9f91dcc5b499dc1b6ed60064cd25c4c54c3f64b9eb892d7a8b7c2f", "75efd8649359d6969bad343a00dbb914dceb43cc5229121c874c20ce09947803"),
    9: (1, "bc80dac59b89cf54d3d8f248159fccc75e6430f5d5c39f908d1157aae289dc12", "a14fe1038ba8ea4a3df5c324aa315b783769fb82e9ff698afbe506928b075a7e"),
    10: (0, "792822b90dd893ed4b9241660bb779f909953f1dc1d0145af596a6b85a2f4267", "fe5c982d5a16a6f7190cb7d72829c931e247b09758e8732f249a69b0b6cc44d9"),
    11: (0, "792822b90dd893ed4b9241660bb779f909953f1dc1d0145af596a6b85a2f4267", "c78d40cca650cd99ac4be5c4cc5db66bdee9e984cbbdd4afdec60f221206184e"),
    12: (0, "792822b90dd893ed4b9241660bb779f909953f1dc1d0145af596a6b85a2f4267", "3fbdc0ae9665984cf84cc404deba656f55096a9e08dd4348e8b878a822051c02"),
    50: (0, "792822b90dd893ed4b9241660bb779f909953f1dc1d0145af596a6b85a2f4267", "df7bdc4fe77744684f9ad31305c9149628080da48810ed2e676b46b68aeda104"),
}


@pytest.mark.parametrize("cap", sorted(VERIFY_DIGESTS))
def test_verify_output_is_byte_identical(capsys, tmp_path, cap):
    out_path = tmp_path / "t.csv"
    code, out, err = run(capsys, "verify", "--cap", str(cap), "--out", str(out_path))
    assert sha256(err.encode()).hexdigest() == VERIFY_STDERR_SHA256
    got = (code, *(sha256(text.encode()).hexdigest() for text in (out, out_path.read_text())))
    assert got == VERIFY_DIGESTS[cap]


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


@pytest.mark.parametrize("command", ["growth", "fixedpoints"])
def test_base_11_is_named_without_a_mode_hint(capsys, command):
    # neither command has a token mode to point to
    assert run(capsys, command, "--base", "11") == (
        2, "", "error: digit mode supports bases 2..10, got 11\n"
    )


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

    def test_removed_power_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frequencies", "--power", "256"])
        assert exc.value.code == 2


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

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["audioactive", "step", "1", "--n", "2"])
        assert main() == 0
        assert capsys.readouterr().out.splitlines() == ["1", "11", "21"]


COMMANDS = [
    "step", "decompose", "verify", "ancients", "fixedpoints",
    "growth", "frequencies", "spectrum", "kvalue", "particles",
]
CHOICES = "{" + ",".join(COMMANDS) + "}"
USAGE = f"usage: audioactive [-h]\n{'':19}{CHOICES}\n{'':19}...\n"
HELP = USAGE + f"""
Base-3 look-and-say dynamics: iteration, splitting, verification, spectra.

positional arguments:
  {CHOICES}
    step                iterate the describing step on a string
    decompose           factor a base-3 string into irreducible segments
    verify              verify decay of every essential ancient string
    ancients            enumerate essential ancient strings of one length
    fixedpoints         exhaustively search for step-fixed strings
    growth              estimate the length growth rate empirically
    frequencies         limiting fermion frequencies
    spectrum            dominant eigenvalue and characteristic polynomial
    kvalue              long-run particle support of a seed string
    particles           dump the particle registry and decay chart

options:
  -h, --help            show this help message and exit
"""


def exits(capsys, parse, argv):
    """(exit code, stdout, stderr) of ``parse(argv)``, which must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestParserPerCommand:
    """Help, a missing or unknown subcommand and every error after a known
    subcommand read as the full parser of all ten writes them."""

    @pytest.fixture(autouse=True)
    def _width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_subcommand_help_is_the_full_parsers(self, capsys, command):
        want = exits(capsys, build_parser().parse_args, [command, "-h"])
        assert exits(capsys, main, [command, "-h"]) == want
        assert want[0] == 0 and want[1].startswith(f"usage: audioactive {command} [-h]")

    def test_subcommand_help_texts_are_unchanged(self, capsys):
        # sha256 of the ten help texts, in order, as the one parser of all
        # ten subcommands prints them.
        texts = "".join(exits(capsys, main, [command, "-h"])[1] for command in COMMANDS)
        assert sha256(texts.encode()).hexdigest() == (
            "0b484acc7e649deeac68e1d5b6e88c79a4ce2fb3369d22eaf1332ad0d314ee18"
        )

    def test_top_level_help(self, capsys):
        assert exits(capsys, main, ["-h"]) == (0, HELP, "")

    def test_missing_command(self, capsys):
        error = "audioactive: error: the following arguments are required: command\n"
        assert exits(capsys, main, []) == (2, "", USAGE + error)

    def test_unknown_command(self, capsys):
        choices = ", ".join(map(repr, COMMANDS))
        error = f"audioactive: error: argument command: invalid choice: 'nosuch' (choose from {choices})\n"
        assert exits(capsys, main, ["nosuch"]) == (2, "", USAGE + error)

    @pytest.mark.parametrize("argv", [["step", "1", "--bogus"], ["verify", "--jobs", "2"]])
    def test_errors_after_a_command_show_the_full_usage(self, capsys, argv):
        want = exits(capsys, build_parser().parse_args, argv)
        assert exits(capsys, main, argv) == want
        assert want[2].startswith(USAGE)

    def test_subcommand_errors_match(self, capsys):
        argv = ["decompose", "1", "--mode", "x"]
        want = exits(capsys, build_parser().parse_args, argv)
        assert exits(capsys, main, argv) == want
        assert want[2].startswith("usage: audioactive decompose [-h]")


class TestOneParse:
    """``main`` reads a well-formed known subcommand without argparse, into
    the full parser's namespace; every leftover-argument error is the full
    parser's."""

    @pytest.fixture(autouse=True)
    def _width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("argv", [
        ["step", "1", "--n", "3"],
        ["decompose", "1210", "--format", "json"],
        ["verify", "--cap", "9", "--out", "decay.csv"],
        ["ancients", "--length", "4", "--count-only"],
        ["fixedpoints", "--max-len", "8", "--all", "--format", "csv"],
        ["growth", "--seed", "1", "--base", "10", "--iters", "20", "--format", "json"],
        ["frequencies", "--format", "csv"],
        ["spectrum", "--table", "charpoly"],
        ["kvalue", "10", "--iters", "8", "--format", "json"],
        ["particles"],
    ])
    def test_namespace_is_the_full_parsers(self, monkeypatch, tmp_path, capsys, argv):
        want = build_parser().parse_args(argv)
        read = []

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{self.prog} parsed {args}")

        def spy(argv, real=cli._read):
            read.append(real(argv))
            return read[-1]

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        monkeypatch.setattr(cli, "_read", spy)
        monkeypatch.chdir(tmp_path)
        code = main(argv)
        capsys.readouterr()
        assert code == (1 if argv[0] == "verify" else 0)  # cap 9 leaves 1,187 strings undecayed
        assert len(read) == 1 and vars(read[0]) == vars(want)

    @pytest.mark.parametrize("argv", [
        ["kvalue", "10", "extra"],
        ["decompose", "1", "2"],
        ["growth", "--seed", "1", "junk"],
    ])
    def test_leftover_arguments_read_as_with_the_full_parser(self, capsys, argv):
        want = exits(capsys, build_parser().parse_args, argv)
        assert exits(capsys, main, argv) == want
        assert want[0] == 2 and want[2].startswith(USAGE)
        assert want[2].endswith(f"audioactive: error: unrecognized arguments: {argv[-1]}\n")


def _table(command):
    """Each argument of ``command``, by name or flag, with its options."""
    return dict(cli._arguments_of(command))


def _flags(command):
    return [name for name in _table(command) if name.startswith("--")]


def _good_values(options):
    if "choices" in options:
        return list(options["choices"])
    return ["0", "3", "16"] if options.get("type") is int else ["1201", "1,2", ""]


_VALUES = st.sampled_from([
    "0", "3", "16", "+2", "x", "", "1,2", "1201", "-1", "-h", "--",
    "text", "csv", "json", "full", "conservative", "charpoly", "nope",
])


@st.composite
def _argvs(draw):
    """A subcommand and a few arguments drawn from its table entry: mostly
    exact flags with values their options accept, and among them
    positionals, abbreviated and ``=`` flags, bad values, help and ``--``."""
    command = draw(st.sampled_from(COMMANDS))
    table = _table(command)
    flags = st.sampled_from(_flags(command) or ["--format"])

    def good(name):
        options = table[name]
        if options.get("action") == "store_true":
            return st.just([name])
        value = st.sampled_from(_good_values(options))
        return value.map(lambda v: [name, v] if name.startswith("--") else [v])

    accepted = [st.sampled_from(list(table)).flatmap(good)] * 4 if table else []
    pieces = st.one_of(
        *accepted,
        st.tuples(flags, _VALUES).map(list),
        _VALUES.map(lambda value: [value]),
        flags.map(lambda flag: [flag[:-1]]),
        st.tuples(flags, _VALUES).map(lambda pair: ["=".join(pair)]),
        st.sampled_from(["-h", "--help", "--"]).map(lambda arg: [arg]),
    )
    return [command] + sum(draw(st.lists(pieces, max_size=4)), [])


class TestReaderMatchesArgparse:
    """``main``'s direct reader gives the full parser's namespace whenever it
    reads an argv, and reads every argv of exact flags and plain values that
    the parser accepts."""

    @settings(max_examples=400, deadline=None)
    @given(_argvs())
    def test_reader_agrees_with_the_full_parser(self, argv):
        got = cli._read(argv)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                want = vars(build_parser().parse_args(argv))
            except SystemExit:
                want = None
        if got is not None:
            assert vars(got) == want
        plain = all(arg in _flags(argv[0]) or not arg.startswith("-") for arg in argv[1:])
        if plain and want is not None:
            assert got is not None

    @pytest.mark.parametrize("argv", [
        ["kvalue", "10", "--format=json"],
        ["kvalue", "10", "--form", "json"],
        ["kvalue", "10", "-h"],
        ["kvalue", "--", "10"],
        ["kvalue", "-1"],
        ["kvalue", "10", "--iters", "-1"],
        ["kvalue", "10", "--iters", "x"],
        ["kvalue", "10", "--format", "csv"],
        ["kvalue"],
        ["kvalue", "10", "11"],
        ["ancients", "--count-only"],
        ["verify", "--out"],
    ])
    def test_other_forms_are_left_to_argparse(self, argv):
        assert cli._read(argv) is None


_CLI_PROBE = """
import contextlib, io, json, sys
module = sys.argv[2]
import audioactive
seen = [["import audioactive", 0, module in sys.modules, ""]]
import audioactive.cli as cli
seen.append(["import audioactive.cli", 0, module in sys.modules, ""])
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    seen.append([" ".join(argv)[:60], code, module in sys.modules, out.getvalue()])
print(json.dumps(seen))
"""


def fresh_env():
    """The environment of a new interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(audioactive.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def fresh_python(code, *args):
    """Standard output of ``code`` run in a new interpreter that imports this package."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=fresh_env(),
        timeout=300,
        check=True,
    )
    return proc.stdout


def fresh_cli(commands, module="numpy"):
    """(step, exit code, ``module`` loaded, stdout) after each import and command."""
    return json.loads(fresh_python(_CLI_PROBE, json.dumps(commands), module))


class TestNumpyStaysUnloaded:
    """Only the eigenvalue table and long run-dense texts load numpy."""

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

    def test_eigenvalue_table_loads_numpy(self):
        *_, (_, code, numpy, out) = fresh_cli([["spectrum", "--table", "eigenvalues"]])
        assert (code, numpy) == (0, True)
        assert out.splitlines()[1].startswith("1.324717957")


class TestDataclassesStayUnloaded:
    """Importing the CLI and running the benchmark's commands load neither
    ``dataclasses`` nor the ``inspect`` it imports: together with the
    decorators' ``exec`` they cost about 31 ms of a cold start."""

    @pytest.mark.parametrize("module", ["dataclasses", "inspect"])
    def test_benchmark_commands_run_without(self, module, tmp_path):
        commands = [
            ["verify", "--out", str(tmp_path / "decay.csv")],
            ["decompose", "101102110211"],
            ["kvalue", "10"],
            ["growth", "--seed", "1", "--base", "2"],
            ["growth", "--seed", "1", "--base", "3"],
            ["growth", "--seed", "1", "--base", "10"],
            ["spectrum", "--format", "json"],
            ["frequencies"],
        ]
        seen = fresh_cli(commands, module)
        assert [(code, loaded) for _, code, loaded, _ in seen] == [(0, False)] * (len(commands) + 2)


class TestAutomataStayUnloaded:
    """Among the commands only ``verify`` compiles the decay automata (the
    library's ``iterations_to_common`` does too, but no command calls it),
    keeping every other command's start-up as it was."""

    def test_only_verify_loads_the_automata(self, tmp_path):
        commands = [
            ["decompose", "101102110211"],
            ["kvalue", "10"],
            ["growth", "--seed", "1", "--base", "3"],
            ["verify", "--out", str(tmp_path / "decay.csv")],
        ]
        seen = fresh_cli(commands, "audioactive.automata")
        assert [(code, loaded) for _, code, loaded, _ in seen] == [(0, False)] * 5 + [(0, True)]


class TestSearchStaysUnloaded:
    """A verification compiles only the checker of its decay automata, not
    the search that wrote their certificate, unless it lists strings over
    its cap; no command compiles the digit-tally sequences."""

    @pytest.mark.parametrize("module", ["audioactive._automata_search", "audioactive.descriptors"])
    def test_verify_at_cap_10_runs_without(self, module, tmp_path):
        commands = [
            ["verify", "--out", str(tmp_path / "decay.csv")],
            ["verify", "--cap", "9", "--out", str(tmp_path / "decay9.csv")],
        ]
        seen = fresh_cli(commands, module)
        listed = module == "audioactive._automata_search"
        assert [(code, loaded) for _, code, loaded, _ in seen] == [(0, False)] * 3 + [(1, listed)]
        assert seen[2][3] == "VERIFIED max_iterations=10 strings=71775\n"
        failures = seen[3][3].splitlines()
        assert len(failures) == 1187
        assert failures[0] == "FAIL 21221 exceeded cap"

    def test_other_commands_run_without_the_descriptors(self):
        commands = [
            ["decompose", "101102110211"],
            ["kvalue", "10"],
            ["growth", "--seed", "1", "--base", "10"],
            ["spectrum", "--format", "json"],
            ["frequencies"],
        ]
        seen = fresh_cli(commands, "audioactive.descriptors")
        assert [(code, loaded) for _, code, loaded, _ in seen] == [(0, False)] * (len(commands) + 2)


class TestAsciiCodecStaysUnloaded:
    """``verify --out`` writes its ASCII CSV through the UTF-8 codec that
    start-up has loaded, so a cold verification imports no other codec."""

    def test_verify_out_runs_without_the_ascii_codec(self, tmp_path):
        out = tmp_path / "decay.csv"
        seen = fresh_cli([["verify", "--out", str(out)]], "encodings.ascii")
        assert [(code, loaded) for _, code, loaded, _ in seen] == [(0, False)] * 3
        assert out.read_bytes().isascii()


class TestArgparseStaysUnloaded:
    """The benchmark's commands are read without argparse, whose import and
    first parser (``gettext``, ``locale``) cost about 5 ms of a cold start;
    help, errors and rarer forms such as ``--format=json`` load it."""

    @pytest.mark.parametrize("module", ["argparse", "gettext", "locale"])
    def test_benchmark_commands_run_without(self, module, tmp_path):
        commands = [
            ["verify", "--out", str(tmp_path / "decay.csv")],
            ["decompose", "101102110211", "--format", "json"],
            ["kvalue", "1201", "--format", "json"],
            ["growth", "--seed", "1", "--base", "2", "--iters", "50", "--format", "json"],
            ["spectrum", "--format", "json"],
            ["frequencies", "--format", "json"],
        ]
        seen = fresh_cli(commands, module)
        assert [(code, loaded) for _, code, loaded, _ in seen] == [(0, False)] * (len(commands) + 2)

    def test_equals_form_loads_argparse(self):
        seen = fresh_cli([["kvalue", "1201", "--format", "json"], ["kvalue", "1201", "--format=json"]], "argparse")
        assert [(code, loaded) for _, code, loaded, _ in seen] == [(0, False)] * 3 + [(0, True)]
        assert seen[3][3] == seen[2][3]


class TestClosedPipe:
    """A reader that closes the pipe early ends the command quietly, with
    exit code 1, as the Python docs advise for SIGPIPE."""

    def test_early_close_ends_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-c", "import sys; from audioactive.cli import main; sys.exit(main())",
             "ancients", "--length", "16"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=fresh_env(),
        )
        first = proc.stdout.readline()  # of 32,754 lines, far more than a pipe holds
        proc.stdout.close()
        _, err = proc.communicate(timeout=300)
        assert (first, proc.returncode, err) == (b"1112111211121110\n", 1, b"")
