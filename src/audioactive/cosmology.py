"""Exhaustive decay verification over the essential ancient strings.

An *essential ancient string* has at most 16 digits, no run of length 4 or
more, and at most a single 0, which may only sit in the final position.
Checking that every one of them factors into registry particles within a
bounded number of steps settles the long-term behaviour of every base-3
string, because every string eventually decays into a combination of
particles and essential ancient strings.

The check itself follows the obvious loop: factor, test whether all
segments are particles, otherwise step once and repeat.  Segments evolve
independently once split off, so decay times are memoized per irreducible
segment and a string's time is the maximum over its segments.  The same
holds for the two sides of any split, so a text whose rest after its first
split is already memoized is checked as that first piece and the rest,
without factoring the whole text.  The rest of an essential ancient
string is a shorter one, so in a run over all lengths it is memoized
unless it exceeded the cap.  The memo is a plain dict owned by one call:
``verify_cosmological`` shares one across all lengths, each of its pool
tasks builds its own, and ``iterations_to_common`` starts empty, so no
answer depends on what ran earlier in the process.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Iterator

from . import particles
from .core import (
    AudioactiveError,
    ConvergenceError,
    DigitString,
    _splittable,
    _step_text,
)
from .splitting import _CUT, _factor, _require_domain

MAX_ESSENTIAL_LENGTH = 16
DEFAULT_CAP = 10


# ---------------------------------------------------------------------------
# Enumeration and counting
# ---------------------------------------------------------------------------

def _essential_texts(length: int) -> list[str]:
    """Essential ancient strings of exactly ``length`` digits, lexicographic.

    Bodies over {1, 2} with no run of 4 grow one digit per layer, and the
    final digit may also be 0.  Each layer extends a sorted layer in digit
    order, so it is sorted too; no string outside the cap is ever built,
    where filtering would visit all 3**n.
    """
    if not 1 <= length <= MAX_ESSENTIAL_LENGTH:
        raise ValueError(f"length must be 1..{MAX_ESSENTIAL_LENGTH}, got {length}")
    bodies = [""]
    for _ in range(length - 1):
        bodies = [b + d for b in bodies for d in "12" if not b.endswith(d * 3)]
    return [b + d for b in bodies for d in "012" if not b.endswith(d * 3)]


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

    The parts are ``text`` cut at its first split and the memoized rest
    when ``memo`` holds that rest, ``text`` itself when it has no split,
    and the full factorization otherwise; a text's time is the largest of
    its parts' times.  Recursion goes one level per step, never per piece,
    so its depth stays bounded by ``budget``.

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
    m = _CUT.search(text)
    if m is None:
        parts = [text] if text else []
    elif (rest := text[m.start():]) in memo:
        parts = [text[: m.start()], rest]
    else:
        parts = _factor(text)
    worst = 0
    for part in parts:
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


def _decay_times(texts: list[str], cap: int, memo: dict[str, int]) -> list[int | None]:
    out: list[int | None] = []
    for text in texts:
        try:
            out.append(_decay_time(text, cap, memo))
        except _CapExceeded:
            out.append(None)
    return out


def _length_task(task: tuple[int, int]) -> tuple[list[str], list[int | None]]:
    """Pool task: the strings of one length and their times, under a fresh memo."""
    length, cap = task
    texts = _essential_texts(length)
    return texts, _decay_times(texts, cap, {})


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


def verify_cosmological(
    cap: int = DEFAULT_CAP,
    jobs: int = 1,
    lengths: Iterable[int] | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> CosmologyReport:
    """Run the decay check over every essential ancient string.

    The verdict is success iff no string needs more than ``cap`` iterations;
    any counterexample is carried in ``failures`` (none is expected).  The
    call owns its memo and shares it across lengths, so most strings of
    length n find the rest after their first split among the strings of
    earlier lengths.  With ``jobs`` > 1 each length is one task in a worker
    process, with a memo of its own: it holds a rest only when earlier work
    on the same length met it, so most strings are factored in full.  A string's time does not depend on the memo, so the table is
    identical for any job count.
    """
    if cap < 0:
        raise ValueError("cap must be non-negative")
    lens = tuple(lengths) if lengths is not None else tuple(range(1, MAX_ESSENTIAL_LENGTH + 1))
    rows: list[tuple[int, ...]] = []
    failures: list[str] = []
    max_seen = 0
    memo: dict[str, int] = {}
    pool = None
    if jobs > 1:
        import multiprocessing

        pool = multiprocessing.Pool(jobs)
    try:
        if pool is None:
            results = (
                (texts, _decay_times(texts, cap, memo)) for texts in map(_essential_texts, lens)
            )
        else:
            results = pool.imap(_length_task, [(length, cap) for length in lens])
        for length, (texts, times) in zip(lens, results):
            row = [0] * (cap + 1)
            for text, t in zip(texts, times):
                if t is None:
                    failures.append(text)
                else:
                    row[t] += 1
                    if t > max_seen:
                        max_seen = t
            rows.append(tuple(row))
            if progress is not None:
                progress(length, len(texts))
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    table = DecayTable(tuple(rows), lens, cap)
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
