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

The piece engine, ``_piece_counts``, follows a text as the multiset of
its pieces: every iterate is the iterates of its pieces side by side, so
only the counts grow.  It is given the pieces of each piece's step.
:mod:`audioactive.splitting` gives it those of digit strings, with the cut
rules and the piece memos of every base, and owns ``length_sequence``;
:mod:`audioactive.particles` gives it the decay chart.
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


class SplitDomainError(AudioactiveError, ValueError):
    """Full splitting was requested outside its proven domain."""


class SearchBudgetError(AudioactiveError, RuntimeError):
    """An exhaustive search would exceed the configured budget."""


class ConvergenceError(AudioactiveError, RuntimeError):
    """An iterative computation failed to converge within its budget."""


_DIGIT_CHARS = "0123456789"
_DIGIT_BYTES = _DIGIT_CHARS.encode()
_MAX_RUN = 2**63 - 1


def _check_base(base: int) -> None:
    if not 2 <= base <= 10:
        raise ValueError(f"digit mode supports bases 2..10, got {base}")


@cache
def _valid_prefix(base: int) -> re.Pattern:
    """The longest prefix of valid digits; compiled on first use per base."""
    return re.compile(f"[0-{_DIGIT_CHARS[base - 1]}]*")


class _Record:
    """An immutable value: the attributes that ``_fields`` names are set once,
    in ``__init__``, and compared, hashed and shown as one tuple.

    The constructor takes the fields by position, one value each; any
    other number of values raises :class:`TypeError`.  A subclass that
    checks its arguments does so first, then calls this constructor.

    It takes the place of the standard library's frozen data classes, whose
    module loads ``inspect`` and ``ast`` and whose decorators build their
    methods with ``exec``: together about 31 ms of a 167 ms cold
    ``import audioactive.cli``.  Subclasses keep an instance ``__dict__``,
    which ``pickle`` and ``copy`` fill directly, past ``__setattr__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} fields, got {len(values)}")
        for name, value in zip(fields, values):
            _set(self, name, value)

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
    no separators.  ``DigitString(s.text, s.base) == s`` for every valid
    string.
    """

    _fields = ("text", "base")

    def __init__(self, text: str, base: int = 3):
        _check_base(base)
        # Valid text is ASCII, and deleting its digits leaves nothing: one C
        # pass.  Anything else runs the regex, which finds the first bad digit.
        if not (
            text.__class__ is str
            and text.isascii()
            and not text.encode().translate(None, _DIGIT_BYTES[:base])
        ):
            pos = _valid_prefix(base).match(text).end()
            if pos != len(text):
                raise InvalidDigitError(
                    f"digit {text[pos]!r} at position {pos} is not valid in base {base}"
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

    def __len__(self) -> int:
        return len(self.text)


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


# ---------------------------------------------------------------------------
# Runs and numerals
# ---------------------------------------------------------------------------

_RUN = re.compile(r"0+|1+|2+|3+|4+|5+|6+|7+|8+|9+")  # each match is one maximal run


def runs(s: DigitString) -> list[tuple[int, int]]:
    """The paper's runs of ``s``, the maximal blocks the look-and-say step
    reads, as ``(digit, length)`` pairs; ``d`` repeated ``n`` times for each
    pair in turn reproduces ``s``, and ``step_of_runs(runs(s), s.base) ==
    lookandsay_step(s)``."""
    return [(int(run[0]), len(run)) for run in _RUN.findall(s.text)]


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


def step_of_runs(run_list: Iterable[tuple[int, int]], base: int = 3) -> DigitString:
    """Describing step applied to a run-length encoded string.

    Accepts (digit, length) pairs, the form :func:`runs` returns, so that
    inputs with very long runs never have to be materialized; the result is
    small (a run of 10**6 ones emits a dozen digits).  Adjacent pairs may
    share a digit; lengths must fit in a signed 64-bit integer.  No command
    steps runs: this serves ``TestRunBoundContraction`` (acceptance
    criterion 10), which steps runs of up to 10**6 digits.
    """
    _check_base(base)
    merged: list[tuple[int, int]] = []
    for d, n in run_list:
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
    """The paper's run-bounded strings: base 3 with 0-runs <= 1, 1-runs
    <= 4 and 2-runs <= 3, the bounds its run-bound contraction reaches."""
    _require_base3(s)
    return _avoids(s.text, _RUN_BOUNDED)


def is_ancient(s: DigitString) -> bool:
    """The paper's ancient strings: run-bounded with no run of length 4 or
    more (so 1-runs <= 3 as well)."""
    _require_base3(s)
    return _avoids(s.text, _ANCIENT)


# ---------------------------------------------------------------------------
# Fixed points
# ---------------------------------------------------------------------------

# The most prefixes one fixed-point search visits (base 3 needs 2,589 for
# max_len 32); the CLI's --max-len can ask for far more.
_SEARCH_BUDGET = 10**5


def fixed_point_search(
    base: int, max_len: int, *, primitive_only: bool = True
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
    each of its runs.  :class:`SearchBudgetError` is raised as soon as the
    search visits more than ``_SEARCH_BUDGET`` prefixes.
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
        if visited > _SEARCH_BUDGET:
            raise SearchBudgetError(f"search visited more than {_SEARCH_BUDGET} prefixes")
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
# The piece engine
# ---------------------------------------------------------------------------

def _piece_counts(
    pieces: Iterable[str] | Mapping[str, int], children: Mapping[str, Sequence[str]]
) -> Iterator[dict[str, int]]:
    """The multiset of ``pieces``, a text cut at exact splits, and of each
    of its iterates, without end.

    The piece engine: every iterate is the iterates of its pieces side by
    side, so only the counts grow.  ``pieces`` may also be a mapping of
    each piece to its count.  ``children[piece]`` is the pieces of the
    piece's step, in order, cut as the first pieces were: a piece memo of
    ``splitting._children``, which steps and cuts each distinct piece on
    its first lookup, or the decay chart's products.
    """
    counts = dict(Counter(pieces))
    while True:
        yield counts
        nxt: dict[str, int] = {}
        for piece, count in counts.items():
            for sub in children[piece]:
                nxt[sub] = nxt.get(sub, 0) + count
        counts = nxt
