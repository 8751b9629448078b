"""Byte-identity corpus: every recipe's commands give the output they gave.

Each recipe builds a list of command lines from a short rule when it
runs, rather than committing them whole (an input may be thousands of
digits) or building them when the module is collected.  The test runs
each command in process through ``cli.main`` with ``COLUMNS=80`` and
digests, in turn, its argv, exit code, stdout, stderr and the file it
writes to ``{out}``.  The corpus guards against regressions; it is not an
oracle: it builds inputs with the package's own step, and the correctness
checks live in the other tests.

A change that alters output on purpose updates the digests, which
``python tests/test_output_digests.py`` prints, and names each changed
recipe, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import random
from hashlib import sha256
from typing import Callable

import pytest

from audioactive import DigitString, cli, iterate, lookandsay_step


def _strings(seed: int, count: int, low: int, high: int) -> list[str]:
    """``count`` random base-3 strings of ``low``-``high`` digits."""
    rng = random.Random(seed)
    return ["".join(rng.choices("012", k=rng.randint(low, high))) for _ in range(count)]


# Short strings in and outside the splitting domain.
_DECOMPOSE = ["", "0", "1", "22", "2122", "21210", "1001", "2222", "101102110211",
              "10222112102221121110", "022211202221120", "1111", "11110", "111111"]


def _kvalue_seeds() -> list[str]:
    return _strings(1, 200, 1, 20)


def _growth_seeds() -> list[str]:
    return ["1", "12000", *_strings(3, 4, 1, 12)]


def _long_iterates(seed: int, count: int, digits: int = 300_000) -> list[str]:
    """The first iterate past ``digits`` of each of ``count`` seeded
    length-10 essential strings (runs of at most 3, a 0 only at the end),
    cut after its last 0 below ``digits``: the seeds workload's inputs."""
    rng = random.Random(seed)
    texts = []
    while len(texts) < count:
        text = "".join(rng.choices("12", k=9)) + rng.choice("012")
        if any(run in text for run in ("1111", "2222")):
            continue
        s = DigitString(text, 3)
        while len(s) < digits:
            s = lookandsay_step(s)
        texts.append(s.text[: s.text.rindex("0", 0, digits) + 1])
    return texts


def _other_growth() -> list[tuple[str, str, str]]:
    return [("1", "2", "50"), ("1", "10", "60"), ("31", "4", "49"),
            ("".join(random.Random(9).choices("012345678", k=3)), "9", "40"),
            ("12" + "5" * 100_000 + "36", "7", "30")]


def _middle_bases() -> list[tuple[str, str, str]]:
    """Seed 1 and a seeded 3-digit seed in each of bases 5, 6 and 8."""
    rng = random.Random(36)
    return [(seed, str(base), iters) for base in (5, 6, 8)
            for seed, iters in (("1", "50"), ("".join(rng.choices("0123456789"[:base], k=3)), "40"))]


def _growth(runs: list[tuple[str, str, str]]) -> list[list[str]]:
    """``growth`` of each (seed, base, iters) in every output format."""
    return [["growth", "--seed", seed, "--base", base, "--iters", iters, "--format", fmt]
            for seed, base, iters in runs for fmt in _FORMATS]


_STEP_SEEDS = {"2": "1101", "3": "2100", "4": "3312", "10": "9876543210"}
_FORMATS = ("text", "csv", "json")
# Errors whose text the package writes (argparse's varies by Python version).
_ERRORS = [
    ["ancients", "--length", "17"], ["decompose", "2222"],
    ["spectrum", "--table", "charpoly", "--format", "json"], ["growth", "--iters", "5"],
    ["kvalue", "2222", "--iters", "0"], ["step", "3", "--base", "3"],
    ["step", "1", "--base", "11"], ["fixedpoints", "--max-len", "0"],
    ["step", "1,2,", "--tokens"],
]

# Each recipe builds its command lines when it runs, so collecting the
# module builds no input.
RECIPES: dict[str, Callable[[], list[list[str]]]] = {
    "kvalue text, 200 seeded strings of 1-20 digits":
        lambda: [["kvalue", s] for s in _kvalue_seeds()],
    "kvalue json, 200 seeded strings of 1-20 digits":
        lambda: [["kvalue", s, "--format", "json"] for s in _kvalue_seeds()],
    "kvalue, short cap": lambda: [["kvalue", s, "--iters", "3"] for s in _kvalue_seeds()[:40]],
    "growth base 3 from 1, 12000 and 4 seeded seeds, text":
        lambda: [["growth", "--seed", s, "--base", "3", "--iters", "40"] for s in _growth_seeds()],
    "growth base 3, csv and json": lambda: [
        ["growth", "--seed", s, "--base", "3", "--iters", "30", "--format", fmt]
        for s in _growth_seeds() for fmt in ("csv", "json")
    ],
    "growth base 3 from 1, 60 iterates": lambda: [["growth", "--seed", "1", "--base", "3"]],
    "decompose full, short strings": lambda: [
        ["decompose", s, "--format", fmt] for s in _DECOMPOSE for fmt in ("text", "json")
    ],
    "decompose conservative, short strings": lambda: [
        ["decompose", s, "--mode", "conservative", "--format", fmt]
        for s in _DECOMPOSE for fmt in ("text", "json")
    ],
    "decompose, iterate 40 of 1": lambda: [
        ["decompose", iterate(DigitString("1", 3), 40)[-1].text, "--mode", mode, "--format", fmt]
        for mode in ("full", "conservative") for fmt in ("text", "json")
    ],
    "particles": lambda: [["particles", "--format", fmt] for fmt in ("text", "json")],
    "spectrum": lambda: [
        ["spectrum", "--format", "text"], ["spectrum", "--format", "json"],
        ["spectrum", "--table", "charpoly"], ["spectrum", "--table", "eigenvalues"],
    ],
    "frequencies": lambda: [["frequencies", "--format", fmt] for fmt in ("text", "csv", "json")],
    "verify --out, caps 0, 9, 10 and 50":
        lambda: [["verify", "--cap", cap, "--out", "{out}"] for cap in ("0", "9", "10", "50")],
    "step, digit mode in bases 2, 3, 4 and 10": lambda: [
        ["step", seed, "--base", base, "--n", n]
        for base, long_seed in _STEP_SEEDS.items() for seed in ("", "1", long_seed)
        for n in ("0", "1", "7")
    ],
    "step, token mode": lambda: [
        ["step", seed, "--tokens", "--n", n]
        for seed in ("1", "1,10,1,5", "0,0,7") for n in ("0", "1", "6")
    ],
    "ancients, lengths 1, 7 and 16": lambda: [
        ["ancients", "--length", length, "--format", fmt]
        for length in ("1", "7", "16") for fmt in _FORMATS
    ] + [
        ["ancients", "--length", length, "--count-only", "--format", fmt]
        for length in ("1", "7", "16") for fmt in ("text", "json")
    ],
    "fixedpoints, bases 3, 2 and 10": lambda: [
        ["fixedpoints", "--base", base, "--max-len", max_len, *more, "--format", fmt]
        for base, max_len in (("3", "16"), ("3", "20"), ("2", "12"), ("10", "10"))
        for more in ((), ("--all",)) for fmt in _FORMATS
    ],
    "growth outside base 3: bases 2, 10, 4, 9 and a base-7 long run":
        lambda: _growth(_other_growth()),
    "decompose, three seeded iterates cut below 300,000 digits": lambda: [
        ["decompose", text, "--format", fmt] for text in _long_iterates(35, 3)
        for fmt in ("text", "json")
    ],
    "errors the package reports": lambda: _ERRORS,
    "growth in bases 5, 6 and 8": lambda: _growth(_middle_bases()),
    "growth base 10 from 116, a digit above 3": lambda: _growth([("116", "10", "51")]),
    "growth base 4, a 100,000-digit long run":
        lambda: _growth([("13" + "2" * 100_417 + "01", "4", "45")]),
}

DIGESTS = {
    "kvalue text, 200 seeded strings of 1-20 digits": "4717edac1895a4844c36a15a28de902545e4168056a646cfbf5f08ed5256ed3a",
    "kvalue json, 200 seeded strings of 1-20 digits": "149c98f9d6e7b17144b60ede66a1db857b12ba336778f753336b9a42367a76e0",
    "kvalue, short cap": "2b2dcdee56f461d3b6d66fa117ab53d6bdeca846c1409fe780614147f869d4aa",
    "growth base 3 from 1, 12000 and 4 seeded seeds, text": "b8bcade6ef37dc6aba81fdc963a3a3d4c07b62b83c9e71077cf8126adb6aff74",
    "growth base 3, csv and json": "6fad260ff1b73a873cd93b0cff0294d304a1debcb236892f1d723e74c9d55959",
    "growth base 3 from 1, 60 iterates": "8697b9bd78fd57cb88d8872c2fc655cd1fef2ff72f59f7154ca2e7eebfebf32a",
    "decompose full, short strings": "5093883ac03cdb0fb60f37f4877db6b4a0c30697d2b64b81f0be9e381246c683",
    "decompose conservative, short strings": "1574ab968cdf55150c48ec5ead6f71e6bf163268c9cf8d147e35d35ce064a33e",
    "decompose, iterate 40 of 1": "521ee40aa02128a96899fc392a2b18bdf8b12bcf6cae3d17a3134be53357c796",
    "particles": "35683a6a360e89cd54d54d5f770acf0a4d02310d24e8155b4ce4468dd5eb7473",
    "spectrum": "04cd6292d31bda02b86a1e0b09fc90892112447e300b60e5e1fbda21a6646b7a",
    "frequencies": "d2ee21c7ae248b5dd3c77ce38e22527309f6a9ff18b315b1d385c760efb0634a",
    "verify --out, caps 0, 9, 10 and 50": "d0c664b35f7603425cf50bdc31fc45cd2c1c2eeda22443e6c112ff6dba3461f6",
    "step, digit mode in bases 2, 3, 4 and 10": "8b797dddbb986c997b8998e33e1d4c1933c947b40645716c982bc1d7cf4c8ff8",
    "step, token mode": "5989c1e17765975352e4b591c4dccf293a92fc273d1c5a06f51bf0076f42df50",
    "ancients, lengths 1, 7 and 16": "25f7826cc9b5db9120a6395df6807c386e6b71015c5a6bb518bfb3cce09d4590",
    "fixedpoints, bases 3, 2 and 10": "7bb7b7edbd9c32e67202e1b15e43fd12120fd11f7c6dbba3950c87edb69b8b3c",
    "growth outside base 3: bases 2, 10, 4, 9 and a base-7 long run": "9d02c4425482ca3a5b4de6c87590cba34467f50c7cbd187012dd90d7bd0e16fe",
    "decompose, three seeded iterates cut below 300,000 digits": "fca665f667513379a6c803f88de0c75705b47964f87aa32053f6bc602b6bd918",
    "errors the package reports": "32d543dfc4fd2d20af2726e1e062966795860fe36c5aada2bfa21b494bec4690",
    "growth in bases 5, 6 and 8": "a4964cc10044cc2c46e21404f9036c5b371118cd9119b36005fffd50802689b6",
    "growth base 10 from 116, a digit above 3": "e78074c1ea5074283b6ebc8108b0183aca46f4ca022e58a0c9ed137490edaa5c",
    "growth base 4, a 100,000-digit long run": "d16f2f2439c93344377627a5dd568b70f014cf9955195f43422e2857c4db978a",
}


def digest(argvs: list[list[str]], out_path) -> str:
    """sha256 over each command's argv (``{out}`` unfilled), exit code,
    stdout, stderr and written file, in turn."""
    h = sha256()
    for argv in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([arg.replace("{out}", str(out_path)) for arg in argv])
        written = out_path.read_bytes() if "{out}" in argv and out_path.exists() else b""
        out_path.unlink(missing_ok=True)
        for part in ("\0".join(argv), str(code), stdout.getvalue(), stderr.getvalue()):
            h.update(part.encode() + b"\n\0")
        h.update(written + b"\n\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", RECIPES)
def test_output_is_unchanged(monkeypatch, tmp_path, name):
    monkeypatch.setenv("COLUMNS", "80")
    assert digest(RECIPES[name](), tmp_path / "out.csv") == DIGESTS[name]


if __name__ == "__main__":
    import os
    import tempfile
    from pathlib import Path

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        for name, argvs in RECIPES.items():
            print(f'    "{name}": "{digest(argvs(), Path(tmp) / "out.csv")}",')
