"""Digit strings and the run-length describing step.

The describing step reads a string of digits run by run: a maximal run of
``n`` copies of digit ``d`` is replaced by the base-``b`` numeral of ``n``
(most significant digit first, no leading zeros) followed by ``d``.  Token
mode keeps counts as atomic symbols instead of spelling them out in a base,
so a run of ten 5s becomes the two tokens ``10, 5``.

Digit mode is restricted to bases 2..10 so that the canonical text form is
one ASCII character per digit; larger alphabets are only supported through
:class:`TokenString`.

Texts are stepped run by run in Python, reading the runs with one compiled
pattern.  The numpy engine in :mod:`audioactive._arrays` is imported on
first use and takes only the inputs where arrays pay: digit texts of at
least 4096 digits and 64 runs.

Length sequences follow a multiset of pieces, cut in every base at the
splits one orbit cutter proves, and in bases 4..10 started from a frozen
table of the pieces every orbit there settles into; token mode is counted
as a base-10 text from its second iterate on.  Cutting base-3 strings
into particles, the cut after a 0 among them, belongs to
:mod:`audioactive.splitting`.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import cache
from itertools import groupby, islice
from typing import Callable, Iterable, Iterator, Mapping, Sequence


class AudioactiveError(Exception):
    """Base class for errors raised by this package."""


class InvalidDigitError(AudioactiveError, ValueError):
    """A digit is outside the allowed alphabet for its base."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class SplitDomainError(AudioactiveError, ValueError):
    """Full splitting was requested outside its proven domain."""


class SearchBudgetError(AudioactiveError, RuntimeError):
    """An exhaustive search would exceed the configured budget."""


class ConvergenceError(AudioactiveError, RuntimeError):
    """An iterative computation failed to converge within its budget."""


_DIGIT_CHARS = "0123456789"
_MAX_RUN = 2**63 - 1


def _check_base(base: int) -> None:
    if not 2 <= base <= 10:
        raise ValueError(f"digit mode supports bases 2..10, got {base}; use token mode instead")


@cache
def _valid_prefix(base: int) -> re.Pattern:
    """The longest prefix of valid digits; compiled on first use per base."""
    return re.compile(f"[0-{_DIGIT_CHARS[base - 1]}]*")


class _Record:
    """An immutable value: the attributes that ``_fields`` names are set once,
    in ``__init__``, and compared, hashed and shown as one tuple.

    It takes the place of the standard library's frozen data classes, whose
    module loads ``inspect`` and ``ast`` and whose decorators build their
    methods with ``exec``: together about 31 ms of a 167 ms cold
    ``import audioactive.cli``.  Subclasses keep an instance ``__dict__``,
    which ``pickle`` and ``copy`` fill directly, past ``__setattr__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


_set = object.__setattr__  # how a ``_Record`` sets its own fields


class DigitString(_Record):
    """Finite string over the digit alphabet {0, ..., base-1}.

    The canonical serialization is ``text`` itself: one character per digit,
    no separators.  ``parse(render(s)) == s`` for every valid string.
    """

    _fields = ("text", "base")

    def __init__(self, text: str, base: int = 3):
        _check_base(base)
        pos = _valid_prefix(base).match(text).end()
        if pos != len(text):
            raise InvalidDigitError(
                f"digit {text[pos]!r} at position {pos} is not valid in base {base}",
                position=pos,
            )
        _set(self, "text", text)
        _set(self, "base", base)

    @classmethod
    def _valid(cls, text: str, base: int) -> "DigitString":
        """Wrap ``text`` known to be valid in ``base`` without re-checking it.

        For step output and slices of validated strings only: outside input
        goes through the constructor, which rejects invalid digits.
        """
        obj = object.__new__(cls)
        _set(obj, "text", text)
        _set(obj, "base", base)
        return obj

    @classmethod
    def parse(cls, text: str, base: int = 3) -> "DigitString":
        return cls(text, base)

    @classmethod
    def from_digits(cls, digits: Iterable[int], base: int = 3) -> "DigitString":
        _check_base(base)
        chars = []
        for pos, d in enumerate(digits):
            if d not in range(base):
                raise InvalidDigitError(
                    f"digit {str(d)!r} at position {pos} is not valid in base {base}",
                    position=pos,
                )
            chars.append(_DIGIT_CHARS[d])
        return cls._valid("".join(chars), base)

    @property
    def digits(self) -> tuple[int, ...]:
        return tuple(int(ch) for ch in self.text)

    def render(self) -> str:
        return self.text

    def __str__(self) -> str:
        return self.text

    def __len__(self) -> int:
        return len(self.text)

    def __iter__(self) -> Iterator[int]:
        return (int(ch) for ch in self.text)


class Run(_Record):
    """A maximal block of one repeated digit."""

    _fields = ("digit", "length")

    def __init__(self, digit: int, length: int):
        if length < 1:
            raise ValueError("run length must be positive")
        _set(self, "digit", digit)
        _set(self, "length", length)


class TokenString(_Record):
    """Sequence of atomic count/value tokens (the unbounded-alphabet mode)."""

    _fields = ("tokens",)

    def __init__(self, tokens: tuple[int, ...]):
        for t in tokens:
            if t < 0:
                raise ValueError(f"negative token {t}")
        _set(self, "tokens", tokens)

    @classmethod
    def parse(cls, text: str) -> "TokenString":
        text = text.strip()
        if not text:
            return cls(())
        tokens = []
        for pos, part in enumerate(text.split(",")):
            try:
                tokens.append(int(part))
            except ValueError:
                raise ValueError(f"token {part!r} at position {pos} is not an integer") from None
        return cls(tuple(tokens))

    def render(self) -> str:
        return ",".join(str(t) for t in self.tokens)

    def __str__(self) -> str:
        return self.render()

    def __len__(self) -> int:
        return len(self.tokens)


# ---------------------------------------------------------------------------
# Runs and numerals
# ---------------------------------------------------------------------------

_RUN = re.compile(r"0+|1+|2+|3+|4+|5+|6+|7+|8+|9+")  # each match is one maximal run


def runs(s: DigitString) -> list[Run]:
    """Run decomposition of ``s``; concatenating the runs reproduces it."""
    return [Run(int(run[0]), len(run)) for run in _RUN.findall(s.text)]


def max_run_length(s: DigitString) -> int:
    """Length of the longest run, 0 for the empty string."""
    return max(map(len, _RUN.findall(s.text)), default=0)


def _numeral(n: int, base: int) -> str:
    """Base-``base`` numeral of ``n >= 1``, most significant digit first."""
    if not 1 <= n <= _MAX_RUN:
        raise ValueError(f"run length {n} out of supported range")
    text = ""
    while n:
        n, r = divmod(n, base)
        text = _DIGIT_CHARS[r] + text
    return text


# ---------------------------------------------------------------------------
# The describing step
# ---------------------------------------------------------------------------

# numpy steps a text only from this many digits and runs on; the Python loop
# takes one pass per run, so a text of a few long runs stays with it and
# never loads numpy.  The run count reads at most _ARRAY_RUNS matches.
_ARRAY_DIGITS = 4096
_ARRAY_RUNS = 64


def _step_text(text: str, base: int) -> str:
    if (
        len(text) >= _ARRAY_DIGITS
        and len(list(islice(_RUN.finditer(text), _ARRAY_RUNS))) == _ARRAY_RUNS
    ):
        from ._arrays import _array_step, _array_to_text, _text_to_array

        return _array_to_text(_array_step(_text_to_array(text), base))
    out = []
    for run in _RUN.findall(text):
        n = len(run)  # most runs are shorter than the base: a one-digit numeral
        out.append(_DIGIT_CHARS[n] if n < base else _numeral(n, base))
        out.append(run[0])
    return "".join(out)


def lookandsay_step(s: DigitString) -> DigitString:
    """One describing step of ``s`` in digit mode, in ``s.base``.

    The empty string maps to itself.
    """
    return DigitString._valid(_step_text(s.text, s.base), s.base)


def step_of_runs(run_list: Iterable[tuple[int, int] | Run], base: int = 3) -> DigitString:
    """Describing step applied to a run-length encoded string.

    Accepts (digit, length) pairs so that inputs with very long runs never
    have to be materialized; the result is small (a run of 10**6 ones emits
    a dozen digits).  Adjacent pairs may share a digit; lengths must fit in
    a signed 64-bit integer.
    """
    _check_base(base)
    merged: list[tuple[int, int]] = []
    for item in run_list:
        d, n = (item.digit, item.length) if isinstance(item, Run) else item
        if not 0 <= d < base:
            raise InvalidDigitError(f"digit {d} is not valid in base {base}")
        if not 1 <= n <= _MAX_RUN:
            raise ValueError(f"run length {n} out of supported range")
        if merged and merged[-1][0] == d:
            merged[-1] = (d, merged[-1][1] + n)
        else:
            merged.append((d, n))
    out = []
    for d, n in merged:
        out.append(_numeral(n, base))
        out.append(_DIGIT_CHARS[d])
    return DigitString._valid("".join(out), base)


def token_step(t: TokenString) -> TokenString:
    """One describing step in token mode: each run (v, n) emits tokens n, v."""
    out = []
    for value, group in groupby(t.tokens):
        out.append(len(list(group)))
        out.append(value)
    return TokenString(tuple(out))


def _iterates(start, step: Callable, n: int) -> list:
    """``start`` and its first ``n`` images under ``step`` (n+1 entries)."""
    if n < 0:
        raise ValueError("iteration count must be non-negative")
    out = [start]
    for _ in range(n):
        out.append(step(out[-1]))
    return out


def iterate(s: DigitString, n: int) -> list[DigitString]:
    """The first ``n`` iterates of ``s`` including ``s`` itself (n+1 entries)."""
    return _iterates(s, lookandsay_step, n)


def iterate_tokens(t: TokenString, n: int) -> list[TokenString]:
    return _iterates(t, token_step, n)


# ---------------------------------------------------------------------------
# Base-3 run-bound predicates
# ---------------------------------------------------------------------------
#
# Each run bound is a set of forbidden substrings: a run longer than its cap
# contains cap+1 copies of its digit.

_RUN_BOUNDED = ("00", "11111", "2222")  # 0-runs <= 1, 1-runs <= 4, 2-runs <= 3
_ANCIENT = ("00", "1111", "2222")  # and 1-runs <= 3


def _avoids(text: str, forbidden: tuple[str, ...]) -> bool:
    return not any(f in text for f in forbidden)


def _splittable(text: str) -> bool:
    """The splitting domain: run-bounded and not ending in 1111.

    A run of four 1s is thereby allowed only directly before a 0 or a 2,
    which is how the fixed strings 11110 and 11112 occur embedded.
    """
    return _avoids(text, _RUN_BOUNDED) and not text.endswith("1111")


def _require_base3(s: DigitString) -> None:
    if s.base != 3:
        raise ValueError(f"predicate is defined for base 3 only, got base {s.base}")


def is_run_bounded(s: DigitString) -> bool:
    """Base-3 run bounds: 0-runs <= 1, 1-runs <= 4, 2-runs <= 3."""
    _require_base3(s)
    return _avoids(s.text, _RUN_BOUNDED)


def is_ancient(s: DigitString) -> bool:
    """Run-bounded with no run of length 4 or more (so 1-runs <= 3 as well)."""
    _require_base3(s)
    return _avoids(s.text, _ANCIENT)


# ---------------------------------------------------------------------------
# Fixed points
# ---------------------------------------------------------------------------

def fixed_point_search(
    base: int, max_len: int, budget: int = 10**5, primitive_only: bool = True
) -> list[DigitString]:
    """Exhaustive search for non-empty strings fixed by the step, sorted.

    Whenever two fixed strings meet at a non-merging boundary their
    concatenation is fixed as well, so the raw fixed set is closed under
    such concatenations (e.g. 1111011110 in base 3).  By default only the
    *primitive* fixed strings are returned: those not expressible as a
    concatenation of two smaller fixed strings.  Pass ``primitive_only=False``
    for the full set.

    The search space (all base**1 + ... + base**max_len strings) is covered
    by a depth-first construction over run sequences: a fixed string's output
    must equal its input, so at every prefix the emitted text and the built
    text must agree on their common length.  That prefix test prunes the
    space down to a handful of candidates while still visiting every fixed
    string, because a genuine fixed point satisfies the prefix invariant at
    each of its runs.  ``budget`` caps the number of prefixes the search
    visits (base 3 needs 2,589 for ``max_len`` 32); :class:`SearchBudgetError`
    is raised as soon as it is passed.
    """
    _check_base(base)
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    found: list[str] = []
    digit_set = _DIGIT_CHARS[:base]
    visited = 0

    def extend(cur: str, emitted: str, last: str) -> None:
        nonlocal visited
        visited += 1
        if visited > budget:
            raise SearchBudgetError(f"search visited more than {budget} prefixes")
        if cur and cur == emitted:
            found.append(cur)
        room = max_len - len(cur)
        for d in digit_set:
            if d == last:
                continue
            for n in range(1, room + 1):
                nxt = cur + d * n
                em = emitted + _numeral(n, base) + d
                if len(em) > max_len:
                    break
                if len(em) <= len(nxt):
                    if not nxt.startswith(em):
                        continue
                elif not em.startswith(nxt):
                    continue
                extend(nxt, em, d)

    extend("", "", "")
    if primitive_only:
        fixed_set = set(found)
        found = [
            text
            for text in found
            if not any(
                text[:p] in fixed_set and text[p:] in fixed_set
                for p in range(1, len(text))
            )
        ]
    return [DigitString(text, base) for text in sorted(found)]


# ---------------------------------------------------------------------------
# Length sequences through exact split pieces
# ---------------------------------------------------------------------------
#
# A cut L.R at a run boundary is a split (every iterate of L.R is the iterate
# of L followed by that of R) exactly when no iterate R_n, n >= 1, starts with
# L's last digit a.  Every L_n ends in a, and while no merge happens
# step(L_n R_n) = L_{n+1} R_{n+1}; the first merge emits one numeral where
# two were due, so the lengths part.  The criterion reads only a and R, so a
# cut inside a piece splits the whole string, and all such cuts hold at once.

_HELD_RUNS = 4  # runs of R held while proving a cut
_ORBIT_STEPS = 256  # held states of R's orbit, R's own first, searched for a repeat


def _orbit_cutter(base: int) -> Callable[[str], list[str]]:
    """A function cutting texts in ``base`` into pieces at proven splits.

    A cut after a 0 needs no proof: numerals never start with 0.  Any other
    cut is proven from the leading digits of R's iterates, found by stepping
    a held state: whether the held text is all of the iterate, and the
    iterate's first ``_HELD_RUNS`` runs.  A partial state drops its last run
    (it may continue) before stepping; the runs before it emit an exact
    prefix, so the leading digit stays exact.  A repeated state proves the
    whole set of leading digits.  The walk starts from R's own state, whose
    first digit is never L's last (the cut is at a run boundary), so it
    changes no answer.  A prefix that runs out, or no repeat among
    ``_ORBIT_STEPS`` states counting R's own, proves nothing and leaves the
    cut uncut, which is always sound.  The proofs are memoized for the life
    of the returned function.
    """
    held = _HELD_RUNS
    # state -> leading digits of it and of every later state, None if unproven
    future: dict[tuple[bool, str], frozenset[str] | None] = {}

    def step(state: tuple[bool, str]) -> tuple[bool, str] | None:
        complete, t = state
        if not complete:
            t = t.rstrip(t[-1])
            if not t:
                return None
        t = _step_text(t, base)
        ends = [m.end() for m in islice(_RUN.finditer(t), held + 1)]
        if len(ends) > held:
            return False, t[: ends[held - 1]]
        return complete, t

    def leads(state: tuple[bool, str] | None) -> frozenset[str] | None:
        path: list[tuple[bool, str]] = []
        index: dict[tuple[bool, str], int] = {}
        found = None
        while state is not None:
            if state in future:
                found = future[state]
                break
            if state in index:  # a cycle: its states share its leading digits
                cycle = path[index[state]:]
                del path[index[state]:]
                found = frozenset(s[1][0] for s in cycle)
                for s in cycle:
                    future[s] = found
                break
            if len(path) == _ORBIT_STEPS:
                break
            index[state] = len(path)
            path.append(state)
            state = step(state)
        for s in reversed(path):
            if found is not None:
                found = found | {s[1][0]}
            future[s] = found
        return found

    def cut(text: str) -> list[str]:
        starts = [m.start() for m in _RUN.finditer(text)] + [len(text)]
        pieces = []
        prev = 0
        for k in range(1, len(starts) - 1):  # the cut before run k
            p = starts[k]
            a = text[p - 1]
            if a != "0":
                last = min(k + held, len(starts) - 1)
                got = leads((last == len(starts) - 1, text[p : starts[last]]))
                if got is None or a in got:
                    continue
            pieces.append(text[prev:p])
            prev = p
        if text:
            pieces.append(text[prev:])
        return pieces

    return cut


# The pieces that base-10 "1" holds at steps 61-80, one line each: the piece,
# then the pieces _orbit_cutter(10) cuts its step into, in order.  90 are
# Conway's common elements; in the other 4 (1322, 311322, 1113122 and
# 111213322) the 22 stays glued to what precedes it, a cut that 4 held runs
# do not prove.  Digits 1-3 in runs of at most 3 step alike in every base
# from 4 on, and the tests check that _orbit_cutter(b) cuts every entry's
# step the same way for each b = 4..10.  Kept as text and parsed on first
# use, so an import that never counts a high base does not build it.
_HIGH_BASE_PIECES = """\
3 13
12 1112
13 1113
22 22
132 111312
312 131112
1112 3112
1113 3113
1322 1113 22
3112 132112
3113 132113
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
311322 132113 22
311332 132 12 312
1113122 311311 22
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
111213322 3112112 3 22
123222112 111213322112
123222113 111213322113
311311222 1321132 132
1113122112 311311222112
1113122113 311311222113
1113222112 3113322112
1113222113 3113322113
1321122112 11131221222112
1321131112 11131221133112
1321133112 1113122 12 32112
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
3113112221133112 1321132 1322 12 32112
13221133122211332 1113222 12 311322 12 312
111312211312113211 311311222113111221131221
132112211213322112 111312212221121123222112
132112211213322113 111312212221121123222113
311311222113111221 1321132 1322113312211
13211321222113222112 11131221131211322113322112
13211322211312113211 1113122113322113111221131221
132211331222113112211 1113222 12 311322113212221
12322211331222113112211 111213322 12 311322113212221
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
13112221133211322112211213322112 11132 1322 12 312211322212221121123222112
13112221133211322112211213322113 11132 1322 12 312211322212221121123222113
1321132122211322212221121123222112 111312211312113221133211322112211213322112
1321132122211322212221121123222113 111312211312113221133211322112211213322113
111312211312113221133211322112211213322112 31131122211311122113222 12 312211322212221121123222112
111312211312113221133211322112211213322113 31131122211311122113222 12 312211322212221121123222113
"""


@cache
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


def _piece_counts(
    pieces: Iterable[str] | Mapping[str, int], children: Mapping[str, Sequence[str]]
) -> Iterator[dict[str, int]]:
    """The multiset of ``pieces``, a text cut at exact splits, and of each
    of its iterates, without end.

    The piece engine: every iterate is the iterates of its pieces side by
    side, so only the counts grow.  ``pieces`` may also be a mapping of
    each piece to its count.  ``children[piece]`` is the pieces of the
    piece's step, in order, cut as the first pieces were; a ``_Memo``
    steps and cuts each distinct piece on its first lookup.
    """
    counts = dict(Counter(pieces))
    while True:
        yield counts
        nxt: dict[str, int] = {}
        for piece, count in counts.items():
            for sub in children[piece]:
                nxt[sub] = nxt.get(sub, 0) + count
        counts = nxt


def _piece_lengths(text: str, base: int, iters: int) -> list[int]:
    """Length sequence of ``text`` from the piece engine.

    The pieces are cut wherever ``_orbit_cutter`` proves a split.  Bases
    4-10 start from the frozen table of the pieces every orbit there
    settles into, so only the pieces a seed adds of its own are stepped
    and cut: the transients, and pieces holding a digit above 3.
    """
    cut = _orbit_cutter(base)
    children = _Memo(lambda piece: cut(_step_text(piece, base)))
    if base >= 4:
        children.update(_high_base_table())
    counts = islice(_piece_counts(cut(text), children), iters + 1)
    return [sum([len(p) * c for p, c in pieces.items()]) for pieces in counts]


def length_sequence(seed: DigitString | TokenString, iters: int) -> list[int]:
    """Lengths of the first ``iters`` iterates (iters+1 entries, seed first).

    Both modes are tracked exactly through a multiset of pieces cut at every
    split proven from leading-digit orbits (cheap at any depth: only the
    counts grow, so neither mode has a length budget).  In bases 4..10 the
    pieces of the frozen table are never stepped or cut: their steps are
    read from it.  Token mode takes two token steps and counts the rest as
    a base-10 text.
    """
    if iters < 0:
        raise ValueError("iteration count must be non-negative")
    if not isinstance(seed, TokenString):
        return _piece_lengths(seed.text, seed.base, iters)
    # From the first iterate on no run is longer than 3: a run of four equal
    # tokens would need two neighbouring (count, value) pairs with the same
    # value.  So from the second iterate on every count is 1, 2 or 3, and
    # any other token is a value that sits alone between two counts.
    # Writing all such values as one symbol then merges no runs.  That
    # symbol is 0: it never starts an iterate, so _orbit_cutter cuts after
    # it without a proof.  The result is a base-10 text whose steps match
    # the token steps one for one, with equal lengths.
    firsts = iterate_tokens(seed, min(iters, 2))
    lengths = [len(t) for t in firsts]
    if iters <= 2:
        return lengths
    text = "".join(_DIGIT_CHARS[t] if 1 <= t <= 3 else "0" for t in firsts[2].tokens)
    return lengths[:2] + _piece_lengths(text, 10, iters - 2)
