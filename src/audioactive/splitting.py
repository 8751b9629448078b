"""Splitting base-3 strings into independently evolving segments, and the
piece engine's cuts and memos in every base.

A cut L.R is a *split* when every future iterate of the whole equals the
concatenation of the iterates of L and R taken separately.  Splits are
characterized syntactically: a cut is valid exactly when

  1. L ends in 0 (and R starts with a non-0, which run bounds guarantee);
  2. L ends in 1, R starts with "22", and the rest of R after the "22" is
     forever-leading-2-free (an empty rest counts);
  3. L ends in 2 and R is forever-leading-2-free.

"Forever-leading-2-free" (flf) means no iterate ever begins with digit 2.
For the strings this module accepts, flf is itself syntactic and looks at
most 4 characters ahead, so the three rules are one regular expression:
``_FLF`` spells flf and ``_CUT`` every split.  Note that the bare string
"1" is NOT flf: its second iterate is 21.

The characterization is proven on run-bounded strings; ``full`` mode is
therefore gated on the splitting domain, stated as forbidden substrings:
no ``00``, ``11111`` or ``2222``, and no final ``1111``.  That admits every
ancient string (no ``00``, ``1111`` or ``2222``) plus runs of four 1s
directly before a 0 or a 2, which is how the fixed strings 11110 and 11112
occur embedded in otherwise ancient material.  Everything else must use
``conservative`` mode, whose only rule (cut after a 0 that precedes a
non-0) is valid for arbitrary strings.

On the splitting domain the rules hold at every length, not only at the
sizes a sweep reaches: after a digit a, ``_CUT`` cuts before every
nonempty R with a + R in the domain exactly when no iterate of R, R itself
included, begins with a.  The tests check this as a finite-automaton
equivalence (:mod:`audioactive.automata`; the strings some iterate of
which leads with a form a regular language), reading ``_CUT`` through a
window longer than ``_CUT_AHEAD``, so that bound is checked too.

Full factoring cuts a string at every split.  The definition also factors
each piece again, since ending a piece early might expose new cuts; it never
does (see ``_factor``), so one pass over the string is enough.  That agrees
with the recursive definition on every in-domain string of up to 14 digits
(checked exhaustively; the tests check up to 11 digits).

In full mode every 0 is a rule-1 split (the domain has no ``00``), so each
0 closes a *body*, the digits since the previous 0, and the digits after
the last 0 are the tail.  Long iterates are compounds of a few dozen
recurring elements, so :func:`decompose` groups bodies into *chunks*: it
cuts the text before its last 0 before every body that opens with ``222``,
and each chunk stands for itself plus the 0 after it.  It factors each
distinct body once, assembles each distinct chunk from its bodies once, and
keeps the chunk sequence, a table from each distinct chunk to its segments,
and the tail's segments.  Any 0 would give a valid cut; ``0222`` is chosen
by measurement.  On the 300,000-digit iterates the benchmark decomposes,
the 0s leave about 68,000 bodies (9-14 distinct), and cutting before
``02`` leaves about 26,000 chunks (up to 24 distinct), before ``021``
9,100-9,800 (up to 30) and before ``0222`` 6,600-7,500 (up to 30): the
fewest chunks while the table stays a few dozen entries.  ``222`` is the
longest 2-run the domain allows, and a longer marker such as ``0222112``
leaves 1-8 chunks, all distinct, so nothing repeats.  Its dotted, symbol
and JSON texts render each distinct segment once and join each distinct
chunk once, so a call joins only the chunk sequence; the views that list
every segment (texts and ``DigitString`` objects) are built only on first
read.  Conservative mode cuts with ``_zero_pieces`` (rule 1 alone, which
this module owns) and keeps each piece as a chunk that is its own segment.

This module owns the cuts and memos of the piece engine, and so
``length_sequence`` and ``derive_decay_chart``.  Its base-3 cutter is
``_cut``: ``_factor`` in the domain and ``_zero_pieces`` outside it.
``_children`` holds a piece memo per base (each piece -> the cut of its
step), made on the base's first lookup and filled on lookup, particles
included; one ``_children.clear()`` resets every base.  ``_pieces(text,
base)`` is the engine's one entry; ``length_sequence`` and ``k_value``
call it.

``_cutter`` gives the piece engine its cutter in every base.  Base 2 cuts
after its 0s, which are all its splits, since every base-2 numeral starts
with 1.  Bases 4..10 cut by Conway's Splitting Theorem (J. H. Conway,
"The weird and wonderful chemistry of audioactive decay", 1987), written
as one regular expression, ``_rule``, on texts with no run of 4, and cut
any other text after its 0s.  Call 0 and the digits from 4 up inert.  The
rule rests on the inert-digit lemma: from base 4 on, the step maps
strings whose runs are at most 3 to such strings, alike in every base,
and its numerals there are 1-3, so no iterate of R ever leads with an
inert digit and every cut after one is a split.  The step also keeps
inert digits isolated between numerals, so which inert digit stands where
changes no leading digit in 1-3; the tests prove every cut ``_rule``
makes at every length over the digits 0-4 in base 5, which covers bases
4..10.  The rule is sound but not complete: a split before three equal
inert digits, or before ``22`` and three equal inert digits, stays uncut.
On every string of up to 7 digits over 0-4 with no run of 4, these are
the only splits an orbit search proves and the rule leaves.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from functools import cache, cached_property
from itertools import chain, islice
from typing import Callable, Iterator, Literal

from . import particles
from .core import (
    _DIGIT_CHARS, DigitString, SplitDomainError, _piece_counts, _Record, _splittable, _step_text,
)

SplitMode = Literal["full", "conservative"]


class Decomposition(_Record):
    """Irreducible segments of a string, held as a chunk table, plus views.

    The segment sequence is the segments of each chunk in ``bodies`` in
    turn, then ``tail``.  ``table`` maps each distinct chunk to its segment
    texts, at least one per chunk.  In full mode the chunks are the text
    before its last 0, cut before every ``222`` that follows a 0 (see the
    module docstring for why), and each stands for itself plus the 0 after
    it; in conservative mode each zero piece is a chunk that is its own
    single segment.

    ``texts`` and ``segments`` list every segment and are built on first
    read.  ``render``, ``particle_names``, ``json_parts``, ``is_common`` and
    ``multiset`` work from the table, once per distinct chunk and segment,
    and build neither.
    """

    _fields = ("bodies", "table", "tail")

    def __hash__(self) -> int:
        return hash((self.bodies, self.tail))  # the table is a dict

    @cached_property
    def texts(self) -> tuple[str, ...]:
        return (*chain.from_iterable(map(self.table.__getitem__, self.bodies)), *self.tail)

    @cached_property
    def segments(self) -> tuple[DigitString, ...]:
        # one frozen object per distinct text, shared by its repeats
        made = {t: DigitString._valid(t, 3) for t in set(self.texts)}
        return tuple(map(made.__getitem__, self.texts))

    def _join(self, sep: str, show: Callable[[str], str] | None = None) -> str:
        """``sep.join(map(show, self.texts))``, or of the texts themselves
        without ``show``; ``show`` runs once per distinct segment, and each
        distinct chunk is joined once."""
        if show is None:
            joined = {chunk: sep.join(segs) for chunk, segs in self.table.items()}
            tail = self.tail
        else:
            shown = _Memo(show).__getitem__
            joined = {chunk: sep.join(map(shown, segs)) for chunk, segs in self.table.items()}
            tail = map(shown, self.tail)
        return sep.join([*map(joined.__getitem__, self.bodies), *tail])

    def render(self) -> str:
        """Dotted factorization, e.g. ``10.110.2110.211``."""
        return self._join(".")

    def particle_names(self) -> str:
        """Dotted symbols with ``?`` for unidentified segments."""
        return self._join(".", lambda text: particles._SYMBOL_BY_TEXT.get(text, "?"))

    @cached_property
    def is_common(self) -> bool:
        """Every segment is a registry particle (computed on first access)."""
        return particles.PARTICLE_TEXTS.issuperset(chain(*self.table.values(), self.tail))

    def multiset(self) -> dict[str, int]:
        """Particle counts; raises if any segment is unidentified."""
        if not self.is_common:
            raise ValueError("decomposition contains non-particle segments")
        symbol = particles._SYMBOL_BY_TEXT
        tally = Counter(map(symbol.__getitem__, self.tail))
        for body, count in Counter(self.bodies).items():
            for seg in self.table[body]:
                tally[symbol[seg]] += count
        return particles.multiset(tally)

    def json_parts(self) -> tuple[str, ...]:
        """The JSON object ``{"segments": texts, "particles": symbols,
        "common": is_common}``, written as ``json.dumps`` writes it, in parts
        that concatenate to it; a segment with no particle has symbol
        ``null``.

        Writing the parts in turn never holds the whole text at once.  A
        segment's JSON string is its digits in quotes, so the segment list is
        joined without rendering any segment.
        """
        quote = '"' if self.bodies or self.tail else ""
        return (
            '{"segments": [' + quote,
            self._join('", "'),
            quote + '], "particles": [',
            self._join(", ", _json_symbol),
            '], "common": ',
            json.dumps(self.is_common),
            "}",
        )


def _json_symbol(text: str) -> str:
    return json.dumps(particles._SYMBOL_BY_TEXT.get(text))


# ---------------------------------------------------------------------------
# Text-level machinery (base 3 throughout)
# ---------------------------------------------------------------------------

def _zero_pieces(text: str) -> list[str]:
    """``text`` cut after every 0 that precedes a non-0; exact in every base.

    The left part of such a cut keeps ending in 0 forever (the final run
    digit survives each step) and the right part never grows a leading 0
    (numerals have no leading zeros), so the two sides never interact.  The
    empty string has no pieces.
    """
    # Each piece matched whole: no look-around, and compiled on first use
    # rather than on import.
    return re.findall(r"[^0]*0+|[^0]+", text)


# flf looks ahead at most 4 characters: a prefix match of _FLF, or the end.
_FLF = r"(?:0|1(?:0|11|2(?!2)|222))"
_IS_FLF = re.compile(rf"\Z|{_FLF}")
# Every split: after a 0 (rule 1), before 22 + flf after a 1 (rule 2), and
# before a nonempty flf rest after a 2 (rule 3).
_CUT = re.compile(rf"(?<=0)(?=[^0])|(?<=1)(?=22(?:\Z|{_FLF}))|(?<=2)(?={_FLF})")
# _CUT decides a cut from the character before it and at most this many
# after it: rule 2 reads "22" and then an flf prefix, and the longest _FLF
# reads is the 4 characters of "1222" (or "12" and one more that is not a 2).
_CUT_AHEAD = 2 + 4


def _factor(t: str) -> list[str]:
    """Fully factor ``t`` into irreducible segments: ``t`` cut at every split.

    Cutting once is enough.  Ending a piece at a split q can only change the
    cuts left of q where their flf lookahead reaches q, and there the
    characters a split forces after q (22 after a 1, a non-2 after a 2) give
    the same answer as the end of the piece.  So no piece has a split of
    its own.  No particle has a split either, so each comes out whole.
    """
    return _CUT.split(t) if t else []


def _cut(t: str) -> list[str]:
    """``t`` cut at every split it is proven to have: ``_factor`` in the
    splitting domain, ``_zero_pieces`` outside it."""
    return _factor(t) if _splittable(t) else _zero_pieces(t)


@cache
def _rule() -> re.Pattern:
    """Every split Conway's rule makes in a text with no run of 4, in every
    base 4..10; compiled on first use.

    n stands for an inert digit, 0 or one from 4 up.  The rule cuts after
    an n, before another digit; after a 2, before an flf prefix; and after
    a 1 or 3, before ``22`` and then the end or an flf prefix.  The flf
    prefixes are ``3`` then the end, ``111`` not followed by 1, an n not
    followed by the same n, ``1x`` (x not 1) not followed by x, and ``3y``
    (y not 3) not followed by ``yy``.  One pattern serves every base: a
    digit the base lacks never occurs.  Like ``_CUT``, it reads the digit
    before a cut and at most ``_CUT_AHEAD`` after it.
    """
    inert = "0456789"
    lone = "|".join(f"{n}(?!{n})" for n in inert)
    one = "|".join(f"{x}(?!{x})" for x in _DIGIT_CHARS if x != "1")
    three = "|".join(f"{y}(?!{y}{y})" for y in _DIGIT_CHARS if y != "3")
    flf = rf"3\Z|111(?!1)|{lone}|1(?:{one})|3(?:{three})"
    after = "|".join(f"(?<={n})[^{n}]" for n in inert)
    # the end follows 22 as an flf prefix; (?!\Z) keeps out a cut at the end
    return re.compile(rf"(?!\Z)(?={after}|(?:(?<=2)|(?<=[13])22)(?:\Z|{flf}))")


def _cutter(base: int) -> Callable[[str], list[str]]:
    """The function that cuts base-``base`` texts at proven splits.

    Base 2 cuts after every 0 (``_zero_pieces``): every base-2 numeral
    starts with 1, so these are all its splits.  Base 3 is ``_cut``.  Bases
    4..10 cut by ``_rule()`` a text with no run of 4, and cut any other
    text after its 0s alone, as ``_cut`` does outside its domain.
    """
    if base == 2:
        return _zero_pieces
    if base == 3:
        return _cut
    split = _rule().split
    fours = [d * 4 for d in _DIGIT_CHARS[:base]]

    def cut(t: str) -> list[str]:
        if any(run in t for run in fours):
            return _zero_pieces(t)
        return split(t) if t else []

    return cut


def _base3_text(s: DigitString) -> str:
    if s.base != 3:
        raise SplitDomainError(f"splitting is defined for base 3 only, got base {s.base}")
    return s.text


def _require_domain(s: DigitString) -> str:
    if not _splittable(_base3_text(s)):
        raise _outside_domain(s)
    return s.text


def _outside_domain(s: DigitString) -> SplitDomainError:
    return SplitDomainError(
        f"{s.text!r} is outside the proven splitting domain "
        "(no 00, 11111 or 2222, and no final 1111); "
        "use conservative mode"
    )


# ---------------------------------------------------------------------------
# The piece engine's cuts and memos
# ---------------------------------------------------------------------------
#
# A cut L.R at a run boundary is a split (every iterate of L.R is the iterate
# of L followed by that of R) exactly when no iterate R_n, n >= 1, starts with
# L's last digit a.  Every L_n ends in a, and while no merge happens
# step(L_n R_n) = L_{n+1} R_{n+1}; the first merge emits one numeral where
# two were due, so the lengths part.  The criterion reads only a and R, so a
# cut inside a piece splits the whole string, and all such cuts hold at once.

# The pieces that base-10 "1" holds at steps 61-80, one line each: the piece,
# then the pieces _cutter(10) cuts its step into, in order.  They are
# Conway's 92 common elements.  Digits 1-3 in runs of at most 3 step alike
# in every base from 4 on, and the tests check that _cutter(b) cuts every
# entry's step the same way for each b = 4..10.  Kept as text and parsed
# when a high base's memo is made, so an import that never counts a high
# base does not build it.
_HIGH_BASE_PIECES = """\
3 13
12 1112
13 1113
22 22
132 111312
312 131112
1112 3112
1113 3113
3112 132112
3113 132113
11131 311311
11132 311312
13211 11131221
31132 13211312
32112 13122112
111312 31131112
131112 11133112
132112 1113122112
132113 1113122113
311311 13211321
311312 1321131112
311332 132 12 312
1112133 3112112 3
1113222 311332
1321132 111312211312
1322112 1113222112
1322113 1113222113
3112112 1321122112
3112221 132 13211
11131221 3113112211
11133112 312 32112
13122112 111311222112
13211312 11131221131112
13211321 11131221131211
31131112 1321133112
123222112 111213322112
123222113 111213322113
311311222 1321132 132
1113122112 311311222112
1113122113 311311222113
1113222112 3113322112
1113222113 3113322113
1321122112 11131221222112
1321131112 11131221133112
1321133112 11131 22 12 32112
3113112211 132113212221
3113322112 132 123222112
3113322113 132 123222113
13221133112 1113222 12 32112
111213322112 31121123222112
111213322113 31121123222113
111311222112 31132 1322112
111312211312 3113112221131112
132113212221 111312211312113211
311311222112 1321132 1322112
311311222113 1321132 1322113
1322113312211 1113222 12 3112221
11131221131112 3113112221133112
11131221131211 311311222113111221
11131221133112 311311222 12 32112
11131221222112 3113112211322112
31121123222112 132112211213322112
31121123222113 132112211213322113
311322113212221 13211322211312113211
3113112211322112 13211321222113222112
3113112221131112 1321132 13221133112
3113112221133112 1321132 13 22 12 32112
13221133122211332 1113222 12 3113 22 12 312
111312211312113211 311311222113111221131221
132112211213322112 111312212221121123222112
132112211213322113 111312212221121123222113
311311222113111221 1321132 1322113312211
13211321222113222112 11131221131211322113322112
13211322211312113211 1113122113322113111221131221
132211331222113112211 1113222 12 311322113212221
12322211331222113112211 1112133 22 12 311322113212221
31131122211311122113222 1321132 13221133122211332
111312212221121123222112 3113112211322112211213322112
111312212221121123222113 3113112211322112211213322113
311311222113111221131221 1321132 132211331222113112211
11131221131211322113322112 31131122211311122113222 123222112
312211322212221121123222112 13112221133211322112211213322112
312211322212221121123222113 13112221133211322112211213322113
1113122113322113111221131221 311311222 12322211331222113112211
3113112211322112211213322112 1321132122211322212221121123222112
3113112211322112211213322113 1321132122211322212221121123222113
13112221133211322112211213322112 11132 13 22 12 312211322212221121123222112
13112221133211322112211213322113 11132 13 22 12 312211322212221121123222113
1321132122211322212221121123222112 111312211312113221133211322112211213322112
1321132122211322212221121123222113 111312211312113221133211322112211213322113
111312211312113221133211322112211213322112 31131122211311122113222 12 312211322212221121123222112
111312211312113221133211322112211213322113 31131122211311122113222 12 312211322212221121123222113
"""


def _high_base_table() -> dict[str, tuple[str, ...]]:
    """The frozen pieces of bases 4-10, each mapped to the pieces of its step."""
    return {line[0]: tuple(line[1:]) for line in map(str.split, _HIGH_BASE_PIECES.splitlines())}


class _Memo(dict):
    """``func`` of each key, computed on the key's first lookup."""

    def __init__(self, func: Callable):
        self.func = func

    def __missing__(self, key):
        self[key] = value = self.func(key)
        return value


def _base_children(base: int) -> _Memo:
    """A new piece memo of ``base``: each piece met -> the ``_cutter(base)``
    pieces of its step.  From base 4 up it starts from the frozen table."""
    cut = _cutter(base)
    children = _Memo(lambda piece: cut(_step_text(piece, base)))
    if base >= 4:
        children.update(_high_base_table())
    return children


# The piece memos, one per base, each made on its base's first lookup.
# ``k_value``, ``length_sequence`` and ``derive_decay_chart`` share them.
# They start empty, live as long as the process and grow with the distinct
# pieces met; ``clear()`` returns every base to its import state, and each
# entry is recomputed alike, being a pure function of its key.
_children = _Memo(_base_children)


def _pieces(text: str, base: int) -> Iterator[dict[str, int]]:
    """The piece multisets of ``text`` and of its iterates in ``base``,
    without end: ``text`` cut by ``_cutter(base)``, stepped by its memo."""
    return _piece_counts(_cutter(base)(text), _children[base])


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------

def is_flf(s: DigitString) -> bool:
    """The paper's forever-leading-2-free test: no iterate of ``s`` begins
    with 2.  Decided syntactically, and gated on the splitting domain.

    Outside the domain the pattern is wrong (a leading run of six 1s steps
    to 201...), so such strings raise :class:`SplitDomainError`.
    """
    return _IS_FLF.match(_require_domain(s)) is not None


def split_points(s: DigitString) -> list[int]:
    """The paper's splits of ``s``: the cut positions of the split
    characterization (module docstring), ascending, gated on the domain."""
    return [m.start() for m in _CUT.finditer(_require_domain(s))]


def decompose(s: DigitString, mode: SplitMode = "full") -> Decomposition:
    """Factor ``s`` into irreducible segments and identify each one.

    ``full`` applies the split characterization (and requires the splitting
    domain); ``conservative`` cuts only after 0s and accepts any base-3
    string.  ``full`` cuts the text into chunks before every ``222`` that
    follows a 0, factors each distinct body (the digits between two 0s)
    once and assembles each distinct chunk from its bodies once, so long
    iterates, which repeat a few dozen chunks, cost little more than the
    cut.  The result holds the chunks and their table; the views that list
    every segment are built on demand.
    """
    if mode == "conservative":
        pieces = tuple(_zero_pieces(_base3_text(s)))
        return Decomposition(pieces, {piece: (piece,) for piece in set(pieces)}, ())
    if mode != "full":
        raise ValueError(f"unknown mode {mode!r}")
    # In the domain every 0 is a rule-1 split, so a chunk plus its 0 factors
    # as its bodies, each plus its 0, in turn.  The domain is checked on the
    # distinct chunks, each with its 0, and on the tail: a 00 shows as a
    # chunk that holds 00 or ends in 0, and no other forbidden string holds
    # a 0, so none spans a cut.
    head, zero, tail = _base3_text(s).rpartition("0")
    chunks = head.replace("0222", "\n222").split("\n") if zero else []
    segments = _Memo(lambda body: _factor(body + "0")).__getitem__
    table = {chunk: (*chain.from_iterable(map(segments, chunk.split("0"))),) for chunk in set(chunks)}
    if not _splittable("0\n".join([*table, tail])):
        raise _outside_domain(s)
    return Decomposition(tuple(chunks), table, tuple(_factor(tail)))


def is_common(s: DigitString) -> bool:
    """The paper's common strings: every irreducible segment of ``s`` is
    one of the 24 registry particles."""
    return decompose(s, "full").is_common


def length_sequence(seed: DigitString, iters: int) -> list[int]:
    """Lengths of the first ``iters`` iterates (iters+1 entries, seed first).

    Tracked exactly through a multiset of pieces, cut with
    ``_cutter(seed.base)`` at the splits it proves and stepped through the
    base's memo in ``_children`` (cheap at any depth: only the counts
    grow, so there is no length budget).  The memos of bases 4-10 start
    from the frozen table of the pieces every orbit there settles into, so
    only the pieces a seed adds of its own are stepped and cut: the
    transients, and pieces holding a digit above 3.
    """
    if iters < 0:
        raise ValueError("iteration count must be non-negative")
    counts = islice(_pieces(seed.text, seed.base), iters + 1)
    return [sum([len(p) * c for p, c in pieces.items()]) for pieces in counts]


def derive_decay_chart() -> tuple[particles.DecayRule, ...]:
    """Recompute the chart from each particle's entry in the base-3 piece
    memo, ``_children[3]``: its step, cut at every split.

    The oracle of :func:`particles.decay_chart`: every product must be a
    particle, and the rules must match the table's.  ``k_value`` and
    base-3 growth read these very entries.
    """
    return particles._chart(lambda p: _children[3][p.digits.text], particles._BY_TEXT)
