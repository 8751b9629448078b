"""Per-layer timing and counters, taken from the benchmark's own files.

Layers are the package modules.  ``traced`` wraps the public functions the
CLI commands reach, so each call is timed where it enters a layer; the
probes replay workload inputs through the public API (never private
functions or caches) for the layers the CLI reaches only through private
helpers.  Times are inclusive: a ``decompose`` call also contains the
``identify`` calls it makes.
"""

from __future__ import annotations

import os
import re
import time
from collections import defaultdict
from contextlib import contextmanager

from audioactive import cosmology, particles, spectral, splitting
from audioactive.core import DigitString, SplitDomainError, lookandsay_step

# Size classes of the describing step, matching core's engines: below 4096
# digits the step is a Python loop, above it numpy; a run longer than 512
# takes the general numpy path instead of the lookup table.
SHORT_DIGITS = 4096
LONG_RUN = re.compile(r"(.)\1{512}")
CAP = cosmology.DEFAULT_CAP
# The step replay stops before an iterate this long, to bound its memory.
STEP_REPLAY_DIGITS = 4_000_000


class Recorder:
    """Accumulates per-layer values and the time spent inside the library."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(int)
        self.library_s = 0.0
        self.depth = 0

    def add(self, name: str, value: float) -> None:
        self.values[name] += value

    def peak(self, name: str, value: float) -> None:
        self.values[name] = max(self.values[name], value)


def _account_step(rec: Recorder, dt: float, text: str) -> None:
    if len(text) < SHORT_DIGITS:
        rec.add("core.step_short_s", dt)
        rec.add("core.step_short_calls", 1)
    elif LONG_RUN.search(text):
        rec.add("core.step_longrun_s", dt)
    else:
        rec.add("core.step_long_s", dt)
        rec.add("core.step_long_digits", len(text))


def _account_decompose(rec: Recorder, dt: float, result, s, mode="full") -> None:
    if mode == "conservative":
        rec.add("splitting.conservative_s", dt)
    elif len(s) < SHORT_DIGITS:
        rec.add("splitting.decompose_short_s", dt)
        rec.add("splitting.decompose_short_calls", 1)
        rec.add("splitting.segments_short", len(result.segments))
    else:
        rec.add("splitting.decompose_long_s", dt)
        rec.add("splitting.decompose_long_digits", len(s))
        rec.add("splitting.segments_long", len(result.segments))


def _account_lengths(rec: Recorder, dt: float, lengths, seed, iters, base=None, **_) -> None:
    base = seed.base if base is None else base
    bucket = {2: "b2", 3: "b3", 10: "b10"}.get(base, "other")
    rec.add(f"core.length_sequence_{bucket}_s", dt)
    rec.add("core.digits_stepped", sum(lengths[:-1]))
    rec.peak("core.peak_iterate_digits", max(lengths))


def _timer(name: str, count: str | None = None):
    def account(rec: Recorder, dt: float, *_, **__) -> None:
        rec.add(name, dt)
        if count:
            rec.add(count, 1)

    return account


def _library_only(*_, **__) -> None:
    pass


# (module, public name, accounting) for every library entry the workloads'
# commands reach; the CLI looks each one up through its module at call time.
TRACED = (
    (cosmology, "verify_cosmological", _timer("cosmology.verify_cold_s")),
    (cosmology, "k_value", _timer("cosmology.kvalue_s", "cosmology.kvalue_calls")),
    (splitting, "decompose", _account_decompose),
    (particles, "identify", _timer("particles.identify_s", "particles.identify_calls")),
    (particles, "limit_sets", _timer("particles.limit_sets_s")),
    (spectral, "empirical_growth", _timer("spectral.empirical_growth_s")),
    (spectral, "length_sequence", _account_lengths),
    (spectral, "dominant_eigenvalue", _timer("spectral.dominant_eigenvalue_s")),
    (spectral, "characteristic_polynomial", _timer("spectral.characteristic_polynomial_s")),
    (spectral, "limiting_frequencies", _timer("spectral.limiting_frequencies_s")),
    (spectral, "fermion_matrix", _library_only),
    (spectral, "polynomial_division", _library_only),
    (spectral, "primitivity_power", _library_only),
)


def _wrap(rec: Recorder, fn, account):
    def wrapper(*args, **kwargs):
        rec.depth += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            rec.depth -= 1
            if rec.depth == 0:
                rec.library_s += dt
        account(rec, dt, result, *args, **kwargs)
        return result

    return wrapper


@contextmanager
def traced(rec: Recorder):
    """Time every call into the ``TRACED`` functions while the block runs."""
    originals = [(module, name, getattr(module, name)) for module, name, _ in TRACED]
    for (module, name, fn), (_, _, account) in zip(originals, TRACED):
        setattr(module, name, _wrap(rec, fn, account))
    try:
        yield rec
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)


# ---------------------------------------------------------------------------
# Probes: each takes the recorder and its inputs and returns what the parent
# checks.
# ---------------------------------------------------------------------------

def _step(rec: Recorder, s: DigitString) -> DigitString:
    t0 = time.perf_counter()
    out = lookandsay_step(s)
    _account_step(rec, time.perf_counter() - t0, s.text)
    return out


def _factor(rec: Recorder, text: str, failures: list[str]) -> list[str]:
    """Non-particle segments of ``text``; out-of-domain text is a failure."""
    s = DigitString(text, 3)
    t0 = time.perf_counter()
    try:
        dec = splitting.decompose(s)
    except SplitDomainError:
        failures.append(text)
        return []
    _account_decompose(rec, time.perf_counter() - t0, dec, s)
    return [seg.text for seg in dec.segments if particles.identify(seg) is None]


def verify_warm(rec: Recorder, _inputs) -> dict:
    """Second verification in the process that just ran ``verify``."""
    t0 = time.perf_counter()
    report = cosmology.verify_cosmological()
    rec.add("cosmology.verify_warm_s", time.perf_counter() - t0)
    return {"csv": report.table.to_csv()}


def verify_jobs2(rec: Recorder, _inputs) -> dict:
    """Cold verification with two worker processes, or fewer on fewer cores."""
    jobs = min(2, os.cpu_count() or 1)
    t0 = time.perf_counter()
    report = cosmology.verify_cosmological(jobs=jobs)
    rec.add("cosmology.verify_jobs2_s", time.perf_counter() - t0)
    return {"csv": report.table.to_csv(), "jobs": jobs}


def memo_replay(rec: Recorder, _inputs) -> dict:
    """Breadth-first replay of the segments that verification reaches.

    Every essential ancient string is factored; every distinct non-particle
    segment is stepped once and its step factored, level by level.  As in
    the decay memo, every factored text and every non-particle segment is
    an entry, and each of their occurrences is a lookup.  Decay times then
    follow bottom-up (a segment takes one step more than the slowest
    segment of its step) and give the decay table again.
    """
    t0 = time.perf_counter()
    strings = [s.text for n in range(1, cosmology.MAX_ESSENTIAL_LENGTH + 1)
               for s in cosmology.enumerate_essential_ancient(n)]
    rec.add("cosmology.enumerate_s", time.perf_counter() - t0)
    rec.add("cosmology.strings", len(strings))

    failures: list[str] = []
    entries = set(strings)  # the memo's keys: factored texts and their segments
    lookups = len(strings)
    children: dict[str, list[str] | None] = {}
    frontier: list[str] = []

    def enter(segs: list[str]) -> None:
        nonlocal lookups
        lookups += len(segs)
        entries.update(segs)
        for seg in segs:
            if seg not in children:
                children[seg] = None
                frontier.append(seg)

    top = {}
    for text in strings:
        top[text] = _factor(rec, text, failures)
        enter(top[text])
    for _ in range(CAP):
        level, frontier = frontier, []
        for seg in level:
            stepped = _step(rec, DigitString(seg, 3)).text
            lookups += 1
            entries.add(stepped)
            children[seg] = _factor(rec, stepped, failures)
            enter(children[seg])
    failures.extend(frontier)  # still not particles after CAP steps

    times: dict[str, int | None] = {}

    def decay(seg: str) -> int | None:
        if seg not in times:
            times[seg] = None  # a cycle reads as "never decays"
            kids = children[seg]
            kid_times = [decay(kid) for kid in kids] if kids is not None else [None]
            times[seg] = None if None in kid_times else 1 + max(kid_times, default=0)
        return times[seg]

    table: dict[int, list[int]] = {}
    for text, segs in top.items():
        seg_times = [decay(seg) for seg in segs]
        t = None if None in seg_times else max(seg_times, default=0)
        if t is None or t > CAP:
            failures.append(text)
            continue
        table.setdefault(len(text), [0] * (CAP + 1))[t] += 1
    rec.add("cosmology.memo_segments", len(entries))
    rec.add("cosmology.memo_hit_ratio", 1 - len(entries) / lookups)
    return {"table": table, "failures": failures[:20], "failure_count": len(failures)}


def step_replay(rec: Recorder, runs) -> dict:
    """Step the growth seeds of bases >= 4 with ``lookandsay_step``."""
    lengths = []
    for seed, base, iters in runs:
        s = DigitString(seed, base)
        seq = [len(s)]
        for _ in range(iters):
            if len(s) > STEP_REPLAY_DIGITS:
                break
            s = _step(rec, s)
            seq.append(len(s))
        lengths.append(seq)
    return {"lengths": lengths}


def conservative(rec: Recorder, strings) -> dict:
    """Conservative factorization of the long strings ``decompose`` gets."""
    bad = 0
    for text in strings:
        s = DigitString(text, 3)
        t0 = time.perf_counter()
        dec = splitting.decompose(s, "conservative")
        _account_decompose(rec, time.perf_counter() - t0, dec, s, "conservative")
        bad += "".join(seg.text for seg in dec.segments) != text
    return {"failure_count": bad}


def baseline(rec: Recorder, _inputs) -> dict:
    """The rows of the ROADMAP.md baseline table that one cold process can time."""
    def timed(name, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        rec.add(name, time.perf_counter() - t0)
        return out

    timed("verify_cold_s", cosmology.verify_cosmological)
    timed("verify_warm_s", cosmology.verify_cosmological)
    timed("growth_b10_60_s", spectral.empirical_growth, DigitString("1", 10), 60)
    timed("enumerate_16_s", lambda n: list(cosmology.enumerate_essential_ancient(n)), 16)
    s = DigitString("1", 3)
    for _ in range(40):
        s = lookandsay_step(s)
    timed("step_147673_s", lookandsay_step, s)
    return {"iterate_digits": len(s)}


PROBES = {
    "verify_warm": verify_warm,
    "verify_jobs2": verify_jobs2,
    "memo_replay": memo_replay,
    "step_replay": step_replay,
    "conservative": conservative,
    "baseline": baseline,
}
