"""Exhaustive decay verification over the essential ancient strings.

An *essential ancient string* has at most 16 digits, no run of length 4 or
more, and at most a single 0, which may only sit in the final position.
Checking that every one of them factors into registry particles within a
bounded number of steps is the paper's headline check.  The decay
languages of :mod:`audioactive.automata` settle three results at every
length, each checked in the tests by a product-automaton emptiness test:

* the step maps the splitting domain into itself, so every iterate of a
  domain string stays where factoring is proven;
* every string of the essential form (runs of 1s and 2s of at most 3, and
  at most one 0, at the end), of any length, is all particles after 10
  steps, and some (21221 is the shortest) are not after 9;
* every splitting-domain string, of any length, is all particles after 11
  steps, and some (111121221 is the shortest) are not after 10.

That every string enters the splitting domain, the paper's run-bound
contraction, is property-tested, not proven here.

A string's decay time is the least t with it in D_t, where D_0 is the
compounds of particles and D_t the splitting-domain strings that step into
D_{t-1}.  ``iterations_to_common`` is that membership test: it walks the
text through D_0, D_1, ... in turn, and steps and factors nothing.
``verify_cosmological`` does not check the 71,775 strings one by one
either.  Each cell of its table is a difference of two counts of essential
strings in the same languages, and the strings over the cap are listed by
a walk of the essential automaton with D_cap, pruned to the prefixes of
such strings.
:func:`automata.decay_languages` checks its shipped languages once per
process; it never searches for them.

``k_value`` follows a seed's pieces through ``splitting._pieces`` in base
3: cut by ``splitting._cut``, stepped through the memo base-3 growth shares.
"""

from __future__ import annotations

from math import comb
from typing import Iterator

from . import particles
from .core import AudioactiveError, ConvergenceError, DigitString, _Record
from .splitting import _pieces, _require_domain

MAX_ESSENTIAL_LENGTH = 16
DEFAULT_CAP = 10


# ---------------------------------------------------------------------------
# Enumeration and counting
# ---------------------------------------------------------------------------

def _essential_texts(length: int) -> list[str]:
    """Essential ancient strings of exactly ``length`` digits, lexicographic.

    They are the strings one digit shorter with 1 or 2 prepended, skipping
    a run of 4, starting from the three of one digit.  Prepending in digit
    order to a sorted list keeps it sorted, and no string outside the caps
    is ever built, where filtering would visit all 3**n.
    """
    if not 1 <= length <= MAX_ESSENTIAL_LENGTH:
        raise ValueError(f"length must be 1..{MAX_ESSENTIAL_LENGTH}, got {length}")
    layer = ["0", "1", "2"]
    for _ in range(length - 1):
        layer = [
            d + s for d, run in (("1", "111"), ("2", "222")) for s in layer if not s.startswith(run)
        ]
    return layer


def enumerate_essential_ancient(length: int) -> Iterator[DigitString]:
    """Stream the paper's essential ancient strings (the module docstring
    states them) of a given length, sorted."""
    for text in _essential_texts(length):
        yield DigitString._valid(text, 3)  # built from 0, 1 and 2 only


def _comb0(m: int, j: int) -> int:
    return comb(m, j) if 0 <= j <= m else 0


def f_closed(n: int) -> int:
    """The paper's closed form for f(n), the number of zero-free essential
    ancient strings of length n.

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
    """The paper's recurrence for the same count f(n): f(n) = f(n-1) +
    f(n-2) + f(n-3), f(1..3) = 2, 4, 8."""
    if n < 1:
        raise ValueError("defined for n >= 1")
    a, b, c = 2, 4, 8  # f(1), f(2), f(3)
    for _ in range(n - 1):
        a, b, c = b, c, a + b + c
    return a


# ---------------------------------------------------------------------------
# Decay times
# ---------------------------------------------------------------------------

def iterations_to_common(s: DigitString, cap: int = DEFAULT_CAP) -> int | None:
    """Smallest n <= cap whose n-th iterate factors into particles, else None.

    That is the least n with ``s`` in the decay language D_n.  A string
    outside the splitting domain raises :class:`SplitDomainError`.
    """
    if cap < 0:
        raise ValueError("cap must be non-negative")
    text = _require_domain(s)
    from . import automata  # deferred: only this and verify compile it

    languages = automata.decay_languages()[: cap + 1]
    return next((n for n, m in enumerate(languages) if automata.recognizer(m)(text)), None)


# ---------------------------------------------------------------------------
# The verification run
# ---------------------------------------------------------------------------

class DecayTable(_Record):
    """Counts of essential ancient strings by (length, decay time): one row
    of ``cells`` per entry of ``lengths``, one cell per time 0..``cap``."""

    _fields = ("cells", "lengths", "cap")

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


class CosmologyReport(_Record):
    """What :func:`verify_cosmological` found; ``failures`` are texts."""

    _fields = ("table", "verified", "max_iterations", "failures")

    @property
    def total_strings(self) -> int:
        return self.table.total_strings


def _decay_counts(cap: int) -> tuple[list[list[int]], list[int], list[list[str]]]:
    """Decay rows, over-cap counts and over-cap strings of lengths 1..16.

    Row n, cell t is |E_n & D_t| - |E_n & D_{t-1}| for the essential strings
    E_n of length n.  The languages end at D_11, the whole domain, so the
    cells of a cap above 11 are 0.  The strings over the cap, in digit order
    by length, are listed only when some are counted.
    """
    from . import automata  # deferred: only this and iterations_to_common compile it

    top = MAX_ESSENTIAL_LENGTH
    levels = automata.decay_languages()[: cap + 1]
    essential = automata.essential()
    within = [automata.count(top, essential, d)[1:] for d in levels]
    rows = [
        [k - prev for prev, k in zip((0, *col), col)] + [0] * (cap + 1 - len(levels))
        for col in zip(*within)
    ]
    totals = automata.count(top, essential, automata.ANY)[1:]
    over = [k - d for k, d in zip(totals, within[-1])]
    if not any(over):
        return rows, over, [[] for _ in over]
    from ._automata_search import difference  # deferred: only a failing count lists strings

    return rows, over, difference(top, essential, levels[-1])[1:]


def verify_cosmological(cap: int = DEFAULT_CAP, jobs: int = 1) -> CosmologyReport:
    """Run the decay check over every essential ancient string.

    The verdict is success iff no string needs more than ``cap`` iterations;
    any counterexample is carried in ``failures`` (none is expected), by
    length and sorted within each length.  The strings are counted in
    automata (see the module docstring) and listed only when some fail; a
    length that lists a different number of strings than it counts raises
    :class:`AudioactiveError`.  ``jobs`` is accepted and ignored: every
    value runs the same serial count.
    """
    if cap < 0:
        raise ValueError("cap must be non-negative")
    rows, fails, listed = _decay_counts(cap)
    for n, (layer, count) in enumerate(zip(listed, fails), 1):
        if len(layer) != count:
            raise AudioactiveError(
                f"length {n}: {len(layer)} strings listed over the cap, {count} counted"
            )
    failures = [text for layer in listed for text in layer]
    max_seen = max((t for row in rows for t, c in enumerate(row) if c), default=0)
    table = DecayTable(tuple(map(tuple, rows)), tuple(range(1, MAX_ESSENTIAL_LENGTH + 1)), cap)
    return CosmologyReport(table, not failures, max_seen, tuple(failures))


# ---------------------------------------------------------------------------
# k-values: long-run particle support of arbitrary seeds
# ---------------------------------------------------------------------------

class KValueReport(_Record):
    """Support of the particle population in all old enough descendants.

    ``counts`` pairs each symbol of the first fully common iterate with its
    count; ``limsup`` and ``liminf`` are frozensets of symbols, and ``k`` is
    an int, or the pair (|liminf|, |limsup|) when they differ.
    """

    _fields = ("seed", "iterations", "counts", "limsup", "liminf", "stabilized", "k")

    def to_json(self) -> dict:
        return {
            "seed": self.seed.text,
            "iterations_to_common": self.iterations,
            "multiset": dict(self.counts),
            "limsup": particles._registry_sorted(self.limsup),
            "liminf": particles._registry_sorted(self.liminf),
            "stabilized": self.stabilized,
            "k": list(self.k) if isinstance(self.k, tuple) else self.k,
        }


def k_value(s: DigitString, max_iter: int = 64) -> KValueReport:
    """Iterate ``s`` until fully common, then measure its long-run support.

    The iterates are followed as multisets of their pieces, never as whole
    texts: ``splitting._pieces`` cuts the seed by ``splitting._cut`` and
    reads each piece's step from the shared memo ``splitting._children[3]``,
    which steps and cuts each piece, particles included, once per process.
    A piece outside the splitting domain is cut only after its 0s, and one
    of those pieces then holds what the domain forbids, so it is no
    particle: the first iterate that is all particles, and its multiset,
    are those of the whole text fully factored.  ``k`` is the size of the
    support when limsup and liminf agree; otherwise both sizes are reported
    as a pair and ``stabilized`` is False.
    """
    if s.base != 3:
        raise ValueError("k-values are defined for base-3 strings")
    if not s.text:
        raise ValueError("seed must be non-empty")
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    for iterations, pieces in zip(range(max_iter + 1), _pieces(s.text, 3)):
        if particles.PARTICLE_TEXTS.issuperset(pieces):
            break
    else:
        raise ConvergenceError(
            f"{s.text!r} did not become fully common within {max_iter} iterations"
        )
    # Every piece is a particle's text, so the counts need no validation;
    # _SYMBOL_BY_TEXT runs in registry order, as multisets do.
    ms = {sym: pieces[text] for text, sym in particles._SYMBOL_BY_TEXT.items() if text in pieces}
    limsup, liminf = particles._limits(frozenset(ms))
    stabilized = limsup == liminf
    k: int | tuple[int, int] = len(limsup) if stabilized else (len(liminf), len(limsup))
    return KValueReport(s, iterations, tuple(ms.items()), limsup, liminf, stabilized, k)
