"""Byte-identity corpus: every recipe's commands give the output they gave.

Each recipe names a list of command lines, built from a short rule rather
than committed whole (an input may be thousands of digits).  The test runs
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

import pytest

from audioactive import DigitString, cli, iterate


def _strings(seed: int, count: int, low: int, high: int) -> list[str]:
    """``count`` random base-3 strings of ``low``-``high`` digits."""
    rng = random.Random(seed)
    return ["".join(rng.choices("012", k=rng.randint(low, high))) for _ in range(count)]


def _iterate(seed: str, n: int) -> str:
    return iterate(DigitString(seed, 3), n)[-1].text


# Short strings in and outside the splitting domain, and iterate 40 of 1.
_DECOMPOSE = ["", "0", "1", "22", "2122", "21210", "1001", "2222", "101102110211",
              "10222112102221121110", "022211202221120", "1111", "11110", "111111"]
_ITERATE_40 = _iterate("1", 40)
_KVALUE = _strings(1, 200, 1, 20)
_GROWTH = ["1", "12000", *_strings(3, 4, 1, 12)]

RECIPES = {
    "kvalue text, 200 seeded strings of 1-20 digits": [["kvalue", s] for s in _KVALUE],
    "kvalue json, 200 seeded strings of 1-20 digits":
        [["kvalue", s, "--format", "json"] for s in _KVALUE],
    "kvalue, short cap": [["kvalue", s, "--iters", "3"] for s in _KVALUE[:40]],
    "growth base 3 from 1, 12000 and 4 seeded seeds, text":
        [["growth", "--seed", s, "--base", "3", "--iters", "40"] for s in _GROWTH],
    "growth base 3, csv and json": [
        ["growth", "--seed", s, "--base", "3", "--iters", "30", "--format", fmt]
        for s in _GROWTH for fmt in ("csv", "json")
    ],
    "growth base 3 from 1, 60 iterates": [["growth", "--seed", "1", "--base", "3"]],
    "decompose full, short strings": [
        ["decompose", s, "--format", fmt] for s in _DECOMPOSE for fmt in ("text", "json")
    ],
    "decompose conservative, short strings": [
        ["decompose", s, "--mode", "conservative", "--format", fmt]
        for s in _DECOMPOSE for fmt in ("text", "json")
    ],
    "decompose, iterate 40 of 1": [
        ["decompose", _ITERATE_40, "--mode", mode, "--format", fmt]
        for mode in ("full", "conservative") for fmt in ("text", "json")
    ],
    "particles": [["particles", "--format", fmt] for fmt in ("text", "json")],
    "spectrum": [
        ["spectrum", "--format", "text"], ["spectrum", "--format", "json"],
        ["spectrum", "--table", "charpoly"], ["spectrum", "--table", "eigenvalues"],
    ],
    "frequencies": [["frequencies", "--format", fmt] for fmt in ("text", "csv", "json")],
    "verify --out, caps 0, 9, 10 and 50":
        [["verify", "--cap", cap, "--out", "{out}"] for cap in ("0", "9", "10", "50")],
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
    assert digest(RECIPES[name], tmp_path / "out.csv") == DIGESTS[name]


if __name__ == "__main__":
    import os
    import tempfile
    from pathlib import Path

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        for name, argvs in RECIPES.items():
            print(f'    "{name}": "{digest(argvs, Path(tmp) / "out.csv")}",')
