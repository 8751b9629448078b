"""Output checkers for the benchmark's commands.

Each checker takes what a command printed and returns ``None`` when the
result is correct, otherwise a one-line reason.  Expected values come from
the repository's frozen references (``tests/reference_values.py``) and its
independent oracle step (``tests/oracles.py``), never from the package under
test, so a wrong program cannot vouch for itself.
"""

from __future__ import annotations

import functools
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_ref_{name}", ROOT / "tests" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ref = _load("reference_values")
oracles = _load("oracles")

CAP = 10
VERDICT = f"VERIFIED max_iterations={CAP} strings={ref.TOTAL_STRINGS}"

# Growth-rate windows of acceptance criterion 08 (tests/test_acceptance.py)
# for the seed "1"; every other seed in bases 4..10 must land within 0.01
# of the rate shared by all bases >= 4.
SEED1_WINDOWS = {3: (1.3247, 0.005), 2: (1.4655, 0.005), 10: (1.3036, 0.01)}
HIGH_BASE_WINDOW = (ref.HIGH_BASE_GROWTH, 0.01)

# Oracle steps searched for a merge that rules a cut out as a split.
MERGE_HORIZON = 50

_SYMBOL_BY_DIGITS = {digits: sym for sym, (digits, _) in ref.PARTICLE_TABLE.items()}
_REGISTRY = tuple(ref.PARTICLE_TABLE)


def _json(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def growth_window(seed: str, base: int) -> tuple[float, float]:
    if seed == "1" and base in SEED1_WINDOWS:
        return SEED1_WINDOWS[base]
    if base >= 4:
        return HIGH_BASE_WINDOW
    raise ValueError(f"no reference growth window for seed {seed!r} in base {base}")


def check_decay_table(csv_text: str) -> str | None:
    """The decay-table CSV must equal the frozen 176-cell reference table."""
    lines = csv_text.splitlines()
    header = "length," + ",".join(f"iter{i}" for i in range(CAP + 1)) + ",total"
    if not lines or lines[0] != header:
        return "decay table header is wrong"
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != CAP + 3 or not all(f.isdigit() for f in fields):
            return f"malformed decay table row {line!r}"
        values = tuple(int(f) for f in fields)
        if values[-1] != sum(values[1:-1]):
            return f"row total does not add up in {line!r}"
        rows[values[0]] = values[1:-1]
    if rows != ref.DECAY_TABLE_ROWS:
        bad = sorted(n for n in set(rows) | set(ref.DECAY_TABLE_ROWS) if rows.get(n) != ref.DECAY_TABLE_ROWS.get(n))
        return f"decay table differs from the reference at lengths {bad}"
    return None


def check_verify(stdout: str, csv_text: str) -> str | None:
    if stdout.strip() != VERDICT:
        return f"verdict {stdout.strip()!r}, expected {VERDICT!r}"
    return check_decay_table(csv_text)


def check_replay(table: dict, failure_count: int, failures: list[str]) -> str | None:
    """The memo replay must decay every string and rebuild the reference table."""
    if failure_count:
        return f"{failure_count} strings or segments did not decay in the splitting domain, e.g. {failures[:3]}"
    if {int(n): tuple(row) for n, row in table.items()} != ref.DECAY_TABLE_ROWS:
        return "the replayed decay table differs from the reference"
    return None


def reference_lengths(seed: str, base: int, iters: int, max_digits: int) -> list[int]:
    """Oracle lengths of the first iterates, while they stay under ``max_digits``."""
    text, out = seed, [len(seed)]
    for _ in range(iters):
        text = oracles.reference_step(text, base)
        if len(text) > max_digits:
            break
        out.append(len(text))
    return out


def check_growth(stdout: str, seed: str, base: int, iters: int, first_lengths: list[int]) -> str | None:
    got = _json(stdout)
    if not isinstance(got, dict):
        return "growth output is not a JSON object"
    if (got.get("seed"), got.get("base"), got.get("iterations")) != (seed, base, iters):
        return "growth report names the wrong seed, base or iteration count"
    lengths = got.get("lengths")
    if not isinstance(lengths, list) or len(lengths) != iters + 1:
        return "growth report has the wrong number of lengths"
    if lengths[: len(first_lengths)] != first_lengths:
        return "first iterate lengths differ from the oracle step"
    estimate = got.get("estimate")
    tail = max(1, iters // 4)
    if not isinstance(estimate, float) or lengths[-1 - tail] <= 0:
        return "growth estimate is missing"
    if abs(estimate - (lengths[-1] / lengths[-1 - tail]) ** (1.0 / tail)) > 1e-9 * estimate:
        return "growth estimate does not follow from the reported lengths"
    centre, tolerance = growth_window(seed, base)
    if not abs(estimate - centre) < tolerance:
        return f"growth estimate {estimate} outside {centre} +/- {tolerance}"
    return None


def check_step_replay(replayed: list[list[int]], reported: list[list[int]]) -> str | None:
    """Lengths of ``lookandsay_step`` iterates must match the growth reports."""
    if len(replayed) != len(reported) or any(seq != rep[: len(seq)] for seq, rep in zip(replayed, reported)):
        return "lookandsay_step lengths differ from the growth report"
    return None


def check_spectrum(stdout: str) -> str | None:
    got = _json(stdout)
    if not isinstance(got, dict):
        return "spectrum output is not a JSON object"
    lam = got.get("lambda")
    if not isinstance(lam, float) or abs(lam - ref.PLASTIC_NUMBER) > 1e-8:
        return f"dominant eigenvalue {lam!r}, expected {ref.PLASTIC_NUMBER}"
    coeffs = got.get("characteristic_polynomial")
    if not isinstance(coeffs, list) or len(coeffs) != 9 or coeffs[0] != 1:
        return "characteristic polynomial is not monic of degree 8"
    num = list(coeffs)
    while len(num) >= 4:  # long division by x^3 - x - 1
        lead = num.pop(0)
        num[1] += lead
        num[2] += lead
    if any(num) or got.get("growth_polynomial_divides") is not True:
        return "x^3 - x - 1 does not divide the characteristic polynomial"
    power = got.get("primitivity_power")
    if not isinstance(power, int) or not 1 <= power <= 14:
        return f"primitivity power {power!r} is not in 1..14"
    return None


def check_frequencies(stdout: str) -> str | None:
    got = _json(stdout)
    if not isinstance(got, dict) or set(got) != set(ref.FERMION_FREQUENCIES):
        return "frequencies output does not list the eight fermions"
    for sym, expected in ref.FERMION_FREQUENCIES.items():
        if not abs(got[sym] - expected) < 1e-4:
            return f"frequency of {sym} is {got[sym]}, expected {expected}"
    return None


@functools.lru_cache(maxsize=1 << 16)
def split_cut(segment: str) -> int | None:
    """A position where ``segment`` may split, or None when it provably cannot.

    A cut L.R is a split exactly when the two sides never merge: L keeps its
    last digit forever, so they merge as soon as an iterate of R starts with
    that digit.  A cut inside a run merges at once; every other cut needs a
    merge witness within ``MERGE_HORIZON`` oracle steps.
    """
    for p in range(1, len(segment)):
        last = segment[p - 1]
        if last == segment[p]:
            continue
        try:
            leading = oracles.leading_digits(segment[p:], MERGE_HORIZON)
        except RuntimeError:  # the oracle lost track of the prefix: nothing ruled out
            return p
        if last not in leading:
            return p
    return None


def check_decompose(stdout: str, text: str) -> str | None:
    got = _json(stdout)
    if not isinstance(got, dict):
        return "decompose output is not a JSON object"
    segments, names = got.get("segments"), got.get("particles")
    if not isinstance(segments, list) or not isinstance(names, list) or len(names) != len(segments):
        return "decompose output lacks segments or particle names"
    if "".join(segments) != text:
        return "segments do not concatenate back to the input"
    if not all(segments):
        return "decompose output has an empty segment"
    for seg, name in zip(segments, names):
        if name != _SYMBOL_BY_DIGITS.get(seg):
            return f"segment {seg!r} is named {name!r}"
    if got.get("common") is not all(name is not None for name in names):
        return "the common flag disagrees with the particle names"
    for seg in set(segments):
        cut = split_cut(seg)
        if cut is not None:
            return f"segment {seg!r} is reducible: {seg[:cut]}.{seg[cut:]} never merges"
    return None


def _support_limits(multiset: dict, warmup: int, window: int) -> tuple[set, set]:
    """Limit sets of the particle support under the frozen decay chart."""
    support = {sym for sym, count in multiset.items() if count > 0}
    for _ in range(warmup):
        support = {p for sym in support for p in ref.DECAY_CHART[sym]}
    union, inter = set(), None
    for _ in range(window):
        support = {p for sym in support for p in ref.DECAY_CHART[sym]}
        union |= support
        inter = set(support) if inter is None else inter & support
    return union, inter or set()


def check_kvalue(stdout: str, seed: str, max_iter: int = 64, warmup: int = 32, window: int = 32) -> str | None:
    got = _json(stdout)
    if not isinstance(got, dict) or got.get("seed") != seed:
        return "kvalue output is not a report for its seed"
    iterations = got.get("iterations_to_common")
    if not isinstance(iterations, int) or not 0 <= iterations <= max_iter:
        return f"iterations_to_common {iterations!r} is out of range"
    multiset = got.get("multiset")
    if not isinstance(multiset, dict) or not multiset:
        return "kvalue report has no particle multiset"
    if any(sym not in ref.PARTICLE_TABLE or not isinstance(n, int) or n < 1 for sym, n in multiset.items()):
        return "kvalue multiset has an unknown symbol or a non-positive count"
    limsup, liminf = got.get("limsup"), got.get("liminf")
    for name, value in (("limsup", limsup), ("liminf", liminf)):
        if not isinstance(value, list) or value != sorted(set(value) & set(_REGISTRY), key=_REGISTRY.index):
            return f"{name} is not a registry-ordered list of particles"
    if (set(limsup), set(liminf)) != _support_limits(multiset, warmup, window):
        return "limit sets disagree with the decay chart applied to the multiset"
    stabilized = limsup == liminf
    if got.get("stabilized") is not stabilized:
        return "stabilized flag disagrees with the limit sets"
    k = len(limsup) if stabilized else [len(liminf), len(limsup)]
    if got.get("k") != k:
        return f"k is {got.get('k')!r}, expected {k!r}"
    return None
