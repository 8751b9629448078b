"""Each output checker accepts the program's real output and rejects a
deliberately wrong one.

Run with: python -m pytest bench/test_checks.py
"""

import contextlib
import io
import json
import sys

import pytest

import checks
import workloads

sys.path.insert(0, str(checks.ROOT / "src"))
from audioactive import cli  # noqa: E402


def cli_output(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def reference_csv() -> str:
    lines = ["length," + ",".join(f"iter{i}" for i in range(11)) + ",total"]
    for n, row in sorted(checks.ref.DECAY_TABLE_ROWS.items()):
        lines.append(f"{n}," + ",".join(map(str, row)) + f",{sum(row)}")
    return "\n".join(lines) + "\n"


def test_verify_checker():
    good = reference_csv()
    assert checks.check_verify(checks.VERDICT + "\n", good) is None
    assert checks.check_verify("VERIFIED max_iterations=9 strings=71775\n", good)
    wrong_cell = good.replace("7,17,33,5,", "7,18,32,5,")  # same row total
    assert wrong_cell != good
    assert checks.check_verify(checks.VERDICT, wrong_cell)
    assert checks.check_verify(checks.VERDICT, good.replace(",32754", ",32755"))
    assert checks.check_verify(checks.VERDICT, "\n".join(good.splitlines()[:-1]))


def test_growth_checker():
    first = checks.reference_lengths("1", 3, 60, workloads.ORACLE_DIGITS)
    out = cli_output("growth", "--seed", "1", "--base", "3", "--iters", "60", "--format", "json")
    assert checks.check_growth(out, "1", 3, 60, first) is None
    report = json.loads(out)

    early = dict(report, lengths=[report["lengths"][0] + 1] + report["lengths"][1:])
    assert "oracle" in checks.check_growth(json.dumps(early), "1", 3, 60, first)

    # Consistent lengths whose growth rate lies outside the window.
    tail = report["lengths"][:45] + [int(report["lengths"][44] * 1.34 ** k) for k in range(1, 17)]
    estimate = (tail[-1] / tail[-16]) ** (1 / 15)
    off = dict(report, lengths=tail, estimate=estimate)
    assert "outside" in checks.check_growth(json.dumps(off), "1", 3, 60, first)

    lying = dict(report, estimate=report["estimate"] + 1e-3)
    assert "follow" in checks.check_growth(json.dumps(lying), "1", 3, 60, first)
    assert checks.check_growth(out, "1", 3, 59, first)


def test_spectrum_and_frequencies_checkers():
    out = cli_output("spectrum", "--format", "json")
    assert checks.check_spectrum(out) is None
    report = json.loads(out)
    assert checks.check_spectrum(json.dumps(dict(report, **{"lambda": 1.3247}))) is not None
    poly = list(report["characteristic_polynomial"])
    poly[-1] += 1
    assert checks.check_spectrum(json.dumps(dict(report, characteristic_polynomial=poly))) is not None

    out = cli_output("frequencies", "--format", "json")
    assert checks.check_frequencies(out) is None
    freqs = json.loads(out)
    assert checks.check_frequencies(json.dumps(dict(freqs, E=freqs["E"] + 2e-4))) is not None


def test_split_cut_oracle():
    for digits, _ in checks.ref.PARTICLE_TABLE.values():
        assert checks.split_cut(digits) is None, digits
    assert checks.split_cut("102") == 2      # 10.2: nothing ever leads with 0
    assert checks.split_cut("2110211") == 4  # D.Ph


def test_decompose_checker():
    text = "1011021102111222110"
    out = cli_output("decompose", text, "--format", "json")
    assert checks.check_decompose(out, text) is None
    report = json.loads(out)
    assert checks.check_decompose(out, text + "2") is not None

    merged = dict(report, segments=["10110"] + report["segments"][2:], particles=[None] + report["particles"][2:],
                  common=False)
    assert "reducible" in checks.check_decompose(json.dumps(merged), text)

    renamed = dict(report, particles=["M"] + report["particles"][1:])
    assert checks.check_decompose(json.dumps(renamed), text) is not None


@pytest.mark.parametrize(
    "field,value",
    [("k", 7), ("limsup", ["E", "M"]), ("stabilized", False), ("seed", "11"),
     ("multiset", {"X": 1}), ("iterations_to_common", 65)],
)
def test_kvalue_checker(field, value):
    out = cli_output("kvalue", "10", "--format", "json")
    assert checks.check_kvalue(out, "10") is None
    wrong = dict(json.loads(out), **{field: value})
    assert checks.check_kvalue(json.dumps(wrong), "10") is not None


def test_kvalue_checker_rejects_unstable_report_called_stable():
    out = cli_output("kvalue", "1111011112", "--format", "json")
    assert checks.check_kvalue(out, "1111011112") is None
    report = json.loads(out)
    assert checks.check_kvalue(json.dumps(dict(report, liminf=["Nm"], stabilized=False, k=[1, 2])),
                               "1111011112") is not None


def test_checkers_reject_non_json():
    for check in (checks.check_spectrum, checks.check_frequencies):
        assert check("estimate=1.3") is not None
    assert checks.check_growth("", "1", 3, 60, [1]) is not None
    assert checks.check_decompose("10.110", "10110") is not None
    assert checks.check_kvalue("k=8", "10") is not None


def test_probe_checkers():
    table = {str(n): list(row) for n, row in checks.ref.DECAY_TABLE_ROWS.items()}
    assert checks.check_replay(table, 0, []) is None
    assert checks.check_replay(table, 1, ["1111"]) is not None
    table["16"][10] += 1
    assert checks.check_replay(table, 0, []) is not None

    assert checks.check_step_replay([[1, 2, 2]], [[1, 2, 2, 4]]) is None
    assert checks.check_step_replay([[1, 2, 3]], [[1, 2, 2, 4]]) is not None
    assert checks.check_step_replay([[1, 2, 2]], []) is not None
