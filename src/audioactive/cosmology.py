"""Exhaustive decay verification over the essential ancient strings.

An *essential ancient string* has at most 16 digits, no run of length 4 or
more, and at most a single 0, which may only sit in the final position.
Checking that every one of them factors into registry particles within a
bounded number of steps settles the long-term behaviour of every base-3
string, because every string eventually decays into a combination of
particles and essential ancient strings.

Segments evolve independently once split off, so a string's decay time is
the largest time of its irreducible pieces, and each distinct piece is
stepped once: ``_decay_time`` memoizes per piece in a dict owned by one
call.  ``iterations_to_common`` starts that memo empty, so no answer
depends on what ran earlier in the process.

``verify_cosmological`` does not check the 71,775 strings one by one.  A
split at position i is decided by the character before it and at most
``_CUT_AHEAD`` = 6 after it (``_CUT`` reads "22" and then a 4-character
flf prefix, or the end).  Every essential string of n >= 2 digits is d + s'
with d in {1, 2} and s' essential, so its splits are those of s' shifted
by one, plus position 1 when ``_CUT`` matches there on d + s'[:6].  Its
first piece, the largest time among its other pieces, and its first 6
digits therefore follow from the same three facts about s'; strings that
agree on them form one class, and each length is counted as classes grown
from the last one (4,388 at length 16, against 32,754 strings).  Every
run counts all 16 lengths.  Strings are listed only at lengths whose class
count reports a failure, from layers grown by the same prepending rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

from . import particles
from .core import (
    AudioactiveError,
    ConvergenceError,
    DigitString,
    _splittable,
    _step_text,
)
from .splitting import _CUT, _CUT_AHEAD, _factor, _require_domain

MAX_ESSENTIAL_LENGTH = 16
DEFAULT_CAP = 10


# ---------------------------------------------------------------------------
# Enumeration and counting
# ---------------------------------------------------------------------------

def _essential_layers(top: int) -> Iterator[list[str]]:
    """Essential ancient strings of lengths 1..``top``, one list per length.

    Each layer is the last one with 1 or 2 prepended, skipping a run of 4,
    the rule ``_count_classes`` grows its classes by.  Prepending in digit
    order to a sorted layer keeps the layer sorted, and no string outside
    the caps is ever built, where filtering would visit all 3**n.
    """
    layer = ["0", "1", "2"]
    for n in range(top):
        if n:
            layer = [
                d + s for d, run in (("1", "111"), ("2", "222")) for s in layer
                if not s.startswith(run)
            ]
        yield layer


def _essential_texts(length: int) -> list[str]:
    """Essential ancient strings of exactly ``length`` digits, lexicographic."""
    if not 1 <= length <= MAX_ESSENTIAL_LENGTH:
        raise ValueError(f"length must be 1..{MAX_ESSENTIAL_LENGTH}, got {length}")
    *_, layer = _essential_layers(length)
    return layer


def enumerate_essential_ancient(length: int) -> Iterator[DigitString]:
    """Stream the essential ancient strings of a given length, sorted."""
    for text in _essential_texts(length):
        yield DigitString(text, 3)


def _comb0(m: int, j: int) -> int:
    return comb(m, j) if 0 <= j <= m else 0


def f_closed(n: int) -> int:
    """Closed-form count of zero-free essential ancient strings of length n.

    Counts length-n strings over {1, 2} with all runs of length <= 3 as a
    double binomial sum over the number of runs k, subtracting (by
    inclusion-exclusion) compositions with a part of size 4 or more.
    """
    if n < 2:
        raise ValueError("closed form is defined for n >= 2")
    total = 0
    for k in range(-(-n // 4), n + 1):
        inner = 0
        for r in range(1, n // 4 + 1):
            inner += (-1) ** (r + 1) * _comb0(k, r) * _comb0(n - 3 * r - 1, k - 1)
        total += _comb0(n - 1, k - 1) - inner
    return 2 * total


def f_recursive(n: int) -> int:
    """Same count via f(n) = f(n-1) + f(n-2) + f(n-3), f(1..3) = 2, 4, 8."""
    if n < 1:
        raise ValueError("defined for n >= 1")
    a, b, c = 2, 4, 8  # f(1), f(2), f(3)
    if n == 1:
        return a
    if n == 2:
        return b
    for _ in range(n - 3):
        a, b, c = b, c, a + b + c
    return c


# ---------------------------------------------------------------------------
# Decay times
# ---------------------------------------------------------------------------

class _CapExceeded(Exception):
    pass


_PARTICLE_TEXTS = particles.PARTICLE_TEXTS


def _decay_time(text: str, budget: int, memo: dict[str, int]) -> int:
    """Iterations until ``text`` is fully common; raises past ``budget``.

    A text's time is the largest time of its irreducible pieces
    (``_factor``).  Recursion goes one level per step, never per piece, so
    its depth stays bounded by ``budget``.

    Only completed (budget-independent) values enter ``memo``, so its
    entries are true decay times whatever cap they were found under.  A
    stepped segment outside the splitting domain, where factoring is not
    proven, raises :class:`AudioactiveError` (an internal failure, not bad
    input).
    """
    got = memo.get(text)
    if got is not None:
        if got > budget:
            raise _CapExceeded(text)
        return got
    worst = 0
    for part in _factor(text):
        if part in _PARTICLE_TEXTS:
            continue
        pt = memo.get(part)
        if pt is None:
            if budget <= 0:
                raise _CapExceeded(text)
            stepped = _step_text(part, 3)
            if not _splittable(stepped):
                raise AudioactiveError(
                    f"{part!r} steps to {stepped!r}, outside the splitting domain"
                )
            pt = 1 + _decay_time(stepped, budget - 1, memo)
            memo[part] = pt
        if pt > budget:
            raise _CapExceeded(text)
        if pt > worst:
            worst = pt
    memo[text] = worst
    return worst


def iterations_to_common(s: DigitString, cap: int = DEFAULT_CAP) -> int | None:
    """Smallest n <= cap whose n-th iterate factors into particles, else None."""
    if cap < 0:
        raise ValueError("cap must be non-negative")
    text = _require_domain(s)
    try:
        return _decay_time(text, cap, {})
    except _CapExceeded:
        return None


# ---------------------------------------------------------------------------
# The verification run
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayTable:
    """Counts of essential ancient strings by (length, decay time)."""

    cells: tuple[tuple[int, ...], ...]
    lengths: tuple[int, ...]
    cap: int = DEFAULT_CAP

    def row(self, length: int) -> tuple[int, ...]:
        return self.cells[self.lengths.index(length)]

    def row_total(self, length: int) -> int:
        return sum(self.row(length))

    @property
    def total_strings(self) -> int:
        return sum(sum(row) for row in self.cells)

    def to_csv(self) -> str:
        header = "length," + ",".join(f"iter{i}" for i in range(self.cap + 1)) + ",total"
        lines = [header]
        for length, row in zip(self.lengths, self.cells):
            lines.append(f"{length}," + ",".join(map(str, row)) + f",{sum(row)}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "cap": self.cap,
            "rows": [
                {"length": length, "iterations": list(row), "total": sum(row)}
                for length, row in zip(self.lengths, self.cells)
            ],
            "total_strings": self.total_strings,
        }


@dataclass(frozen=True)
class CosmologyReport:
    table: DecayTable
    verified: bool
    max_iterations: int
    failures: tuple[str, ...]

    @property
    def total_strings(self) -> int:
        return self.table.total_strings


def _count_classes(cap: int) -> tuple[list[list[int]], list[int], dict[str, int]]:
    """Decay rows and failure counts of lengths 1..16, counted by class.

    A class is (first piece, largest time of the other pieces, first
    ``_CUT_AHEAD`` digits) with the number of strings that share it; the next
    length's classes come from prepending 1 or 2 (see the module
    docstring).  Returns the rows (index n - 1), the number of strings over
    ``cap`` per length, and each first piece's time, ``cap`` + 1 when it is
    over the cap.
    """
    over = cap + 1
    memo: dict[str, int] = {}
    times: dict[str, int] = {}
    rows: list[list[int]] = []
    fails: list[int] = []
    layer: dict[tuple[str, int, str], int] = {(c, 0, c): 1 for c in "012"}
    for n in range(1, MAX_ESSENTIAL_LENGTH + 1):
        if n > 1:
            grown: dict[tuple[str, int, str], int] = {}
            for (piece, rest, head), count in layer.items():
                for d in "12":
                    if head.startswith(d * 3):
                        continue  # a run of 4
                    if _CUT.match(d + head, 1):
                        key = (d, max(times[piece], rest), (d + head)[:_CUT_AHEAD])
                    else:
                        key = (d + piece, rest, (d + head)[:_CUT_AHEAD])
                    grown[key] = grown.get(key, 0) + count
            layer = grown
        row = [0] * (over + 1)
        for (piece, rest, _), count in layer.items():
            t = times.get(piece)
            if t is None:
                try:
                    t = _decay_time(piece, cap, memo)
                except _CapExceeded:
                    t = over
                times[piece] = t
            row[max(t, rest)] += count
        fails.append(row.pop())
        rows.append(row)
    return rows, fails, times


def _list_failures(cap: int, fails: list[int], times: dict[str, int]) -> list[str]:
    """The strings over ``cap``, by length and sorted within each length.

    Only lengths whose class count ``fails`` reports any are listed, from
    one ``_essential_layers`` build.  A string fails when its first piece
    is over the cap or its rest after the first split failed at a shorter
    length, so each string costs one search.  Raises
    :class:`AudioactiveError` if a length lists a different number of
    strings than its class count.
    """
    upto = max((n for n, count in enumerate(fails, 1) if count), default=0)
    failed: set[str] = set()
    listed: list[str] = []
    for n, (layer, count) in enumerate(zip(_essential_layers(upto), fails), 1):
        if not count:
            continue
        bad = []
        for text in layer:
            m = _CUT.search(text)
            cut = m.start() if m else n
            if times[text[:cut]] > cap or text[cut:] in failed:
                bad.append(text)
        if len(bad) != count:
            raise AudioactiveError(
                f"length {n}: {len(bad)} strings listed over the cap, {count} counted"
            )
        failed.update(bad)
        listed.extend(bad)
    return listed


def verify_cosmological(cap: int = DEFAULT_CAP, jobs: int = 1) -> CosmologyReport:
    """Run the decay check over every essential ancient string.

    The verdict is success iff no string needs more than ``cap`` iterations;
    any counterexample is carried in ``failures`` (none is expected), by
    length and sorted within each length.  The strings are counted in
    classes (see the module docstring) and listed only at lengths that have
    failures.  ``jobs`` is accepted and ignored: every value runs the same
    serial count.
    """
    if cap < 0:
        raise ValueError("cap must be non-negative")
    rows, fails, times = _count_classes(cap)
    failures = _list_failures(cap, fails, times)
    max_seen = max((t for row in rows for t, c in enumerate(row) if c), default=0)
    table = DecayTable(
        tuple(map(tuple, rows)), tuple(range(1, MAX_ESSENTIAL_LENGTH + 1)), cap
    )
    return CosmologyReport(
        table=table,
        verified=not failures,
        max_iterations=max_seen,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# k-values: long-run particle support of arbitrary seeds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KValueReport:
    """Support of the particle population in all old enough descendants."""

    seed: DigitString
    iterations: int
    counts: tuple[tuple[str, int], ...]
    limsup: frozenset[str]
    liminf: frozenset[str]
    stabilized: bool
    k: int | tuple[int, int]

    def to_json(self) -> dict:
        return {
            "seed": self.seed.text,
            "iterations_to_common": self.iterations,
            "multiset": dict(self.counts),
            "limsup": sorted(self.limsup, key=particles.REGISTRY_ORDER.index),
            "liminf": sorted(self.liminf, key=particles.REGISTRY_ORDER.index),
            "stabilized": self.stabilized,
            "k": list(self.k) if isinstance(self.k, tuple) else self.k,
        }


def k_value(s: DigitString, max_iter: int = 64) -> KValueReport:
    """Iterate ``s`` until fully common, then measure its long-run support.

    ``k`` is the size of the support when limsup and liminf agree;
    otherwise both sizes are reported as a pair and ``stabilized`` is
    False.
    """
    if s.base != 3:
        raise ValueError("k-values are defined for base-3 strings")
    if not s.text:
        raise ValueError("seed must be non-empty")
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    text = s.text
    for iterations in range(max_iter + 1):
        if _splittable(text):
            texts = _factor(text)
            if particles.PARTICLE_TEXTS.issuperset(texts):
                break
        text = _step_text(text, 3)
    else:
        raise ConvergenceError(
            f"{s.text!r} did not become fully common within {max_iter} iterations"
        )
    ms = particles.multiset(map(particles._SYMBOL_BY_TEXT.__getitem__, texts))
    limsup, liminf = particles.limit_sets(ms)
    stabilized = limsup == liminf
    k: int | tuple[int, int] = len(limsup) if stabilized else (len(liminf), len(limsup))
    return KValueReport(
        seed=s,
        iterations=iterations,
        counts=tuple(ms.items()),
        limsup=limsup,
        liminf=liminf,
        stabilized=stabilized,
        k=k,
    )
