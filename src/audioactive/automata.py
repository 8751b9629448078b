"""Base-3 decay languages as finite automata.

A DFA here is a pair ``(delta, accept)`` over the digits 0, 1, 2: state q
goes to ``delta[q][d]`` on digit d, accepts when ``accept[q]`` is true, and
state 0 is the start.  Every DFA this module returns is complete, minimal
(Moore refinement of the reachable states) and numbered in breadth-first
order from the start, so two DFAs accept the same language exactly when
they are equal.

The step is a transducer on the splitting domain: it reads a run at a time
(runs of at most 1, 4 and 3 for the digits 0, 1 and 2, and no final 1111)
and writes the run's numeral, one of 1, 2, 10 and 11, then its digit.  So
``pre(M)``, the domain strings whose step M accepts, is again regular.
Starting from the compounds of the 24 particles, D_t = pre(D_{t-1}) holds
exactly the domain strings that are all particles after at most t steps.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Hashable

from . import particles
from .core import _RUN_BOUNDED, _numeral
from .splitting import _CUT

Dfa = tuple[tuple[tuple[int, ...], ...], tuple[bool, ...]]

_DIGITS = "012"
# The splitting domain's run bounds (the longest run of each digit), read
# from core's forbidden runs, and the base-3 numerals of those run lengths.
_RUN_CAP = {f[0]: len(f) - 1 for f in _RUN_BOUNDED}
_NUMERAL = {n: _numeral(n, 3) for n in range(1, max(_RUN_CAP.values()) + 1)}
ANY: Dfa = (((0, 0, 0),), (True,))  # every string
_ROW = bytes.maketrans(_DIGITS.encode(), bytes((0, 1, 2)))  # digit byte -> its index


def _explore(start: Hashable, succ: Callable) -> tuple[list, list[tuple[int, ...]]]:
    """The states reachable from ``start``, breadth first in digit order,
    and the indices of each one's successors on 0, 1 and 2."""
    index = {start: 0}
    states = [start]
    edges = []
    for s in states:  # grows while it is read
        row = []
        for t in succ(s):
            if t not in index:
                index[t] = len(states)
                states.append(t)
            row.append(index[t])
        edges.append(tuple(row))
    return states, edges


def _build(start: Hashable, succ: Callable, accepting: Callable) -> Dfa:
    """The minimal DFA of the states reachable from ``start``.

    ``succ(s)`` gives the three successors of a state, on 0, 1 and 2, and
    ``accepting(s)`` whether it accepts.
    """
    states, edges = _explore(start, succ)
    accept = [bool(accepting(s)) for s in states]
    block = list(map(int, accept))
    count = len(set(block))
    while True:  # split blocks by their successors' blocks until none splits
        ids: dict[tuple[int, int, int, int], int] = {}
        block = [
            ids.setdefault((block[q], block[x], block[y], block[z]), len(ids))
            for q, (x, y, z) in enumerate(edges)
        ]
        if len(ids) == count:
            break
        count = len(ids)
    rep: dict[int, int] = {}
    for q, b in enumerate(block):
        rep.setdefault(b, q)
    blocks, delta = _explore(block[0], lambda b: [block[r] for r in edges[rep[b]]])
    return tuple(delta), tuple(accept[rep[b]] for b in blocks)


def _feed(delta, q: int, text: str) -> int:
    for c in text:
        q = delta[q][int(c)]
    return q


def recognizer(m: Dfa) -> Callable[[str], bool]:
    """Membership in ``m`` as a test on texts over 0, 1 and 2."""
    delta, accept = m

    def accepts(text: str) -> bool:
        q = 0
        for d in text.encode().translate(_ROW):
            q = delta[q][d]
        return accept[q]

    return accepts


def pre(m: Dfa) -> Dfa:
    """The splitting-domain strings whose step ``m`` accepts; ``pre(ANY)``
    is the domain itself (no 00, 11111 or 2222, and no final 1111).

    A state is (digit of the open run, its length so far, state of ``m``
    after the numerals of the runs before it); None is the dead state.
    """
    delta, accept = m

    def succ(s):
        if s is None:
            return None, None, None
        d, run, q = s
        closed = q if d is None else _feed(delta, q, _NUMERAL[run] + d)
        return tuple(
            ((d, run + 1, q) if run < _RUN_CAP[d] else None) if c == d else (c, 1, closed)
            for c in _DIGITS
        )

    def accepting(s):
        if s is None:
            return False
        d, run, q = s
        if d is None:
            return accept[q]
        return not (d == "1" and run == 4) and accept[_feed(delta, q, _NUMERAL[run] + d)]

    return _build((None, 0, 0), succ, accepting)


def essential() -> Dfa:
    """The essential ancient strings, and the empty string: runs of 1s and
    2s of at most 3, then at most one 0, at the end."""
    def succ(s):  # (digit of the last run, its length); None is the dead state
        if s is None or s[0] == "0":
            return None, None, None
        d, run = s
        return tuple(((d, run + 1) if run < 3 else None) if c == d else (c, 1) for c in _DIGITS)

    return _build(("", 0), succ, lambda s: s is not None)


def junction_splits() -> dict[str, set[str]]:
    """For each particle e, the particles f for which e|f is a split.

    That is exactly when the splitter's rule ``splitting._CUT`` cuts e + f
    after e.  The rule is checked against the leading-digit criterion at
    every length without these automata, so the argument is not circular.
    """
    texts = [rule.parent.digits.text for rule in particles.decay_chart()]
    return {e: {f for f in texts if _CUT.match(e + f, len(e))} for e in texts}


def compounds() -> Dfa:
    """Concatenations of particles whose every junction is a split.

    The subset construction of an automaton whose states are (particle,
    digits of it read); a finished particle e, or the start (e = ""), may
    begin any particle that e|f splits.
    """
    follow = junction_splits()
    follow[""] = set(follow)

    def succ(states):
        nxt: tuple[list, list, list] = ([], [], [])
        for p, i in states:
            if i < len(p):
                nxt[int(p[i])].append((p, i + 1))
            else:
                for f in follow[p]:
                    nxt[int(f[0])].append((f, 1))
        return tuple(map(frozenset, nxt))

    return _build(
        frozenset({("", 0)}), succ, lambda states: any(i == len(p) for p, i in states)
    )


@cache
def decay_languages() -> tuple[Dfa, ...]:
    """D_0, D_1, ... up to the first D_t that ``pre`` maps to itself.

    That is D_11, the whole splitting domain, so there are 12.  The DFAs
    are immutable, so building them once per process changes no answer;
    ``decay_languages.cache_clear()`` drops them.
    """
    levels = [compounds()]
    while (nxt := pre(levels[-1])) != levels[-1]:
        levels.append(nxt)
    return tuple(levels)


def _dead(m: Dfa) -> int | None:
    """The state that accepts nothing, which a minimal DFA has at most once."""
    return next((q for q, (row, ok) in enumerate(zip(*m)) if not ok and row == (q, q, q)), None)


def count(top: int, a: Dfa, b: Dfa) -> list[int]:
    """How many strings of each length 0..``top`` both ``a`` and ``b`` accept."""
    (da, aa), (db, ab) = a, b
    dead_a, dead_b = _dead(a), _dead(b)
    layer = {(0, 0): 1}
    counts = []
    for _ in range(top + 1):
        counts.append(sum(k for (p, q), k in layer.items() if aa[p] and ab[q]))
        grown: dict[tuple[int, int], int] = {}
        for (p, q), k in layer.items():
            for pair in zip(da[p], db[q]):
                if pair[0] != dead_a and pair[1] != dead_b:
                    grown[pair] = grown.get(pair, 0) + k
        layer = grown
    return counts


def witness(a: Dfa, b: Dfa) -> str | None:
    """A shortest string ``a`` accepts and ``b`` rejects, least in digit
    order, or None when ``a``'s language is inside ``b``'s."""
    (da, aa), (db, ab) = a, b
    path = {(0, 0): ""}
    queue = [(0, 0)]
    for p, q in queue:
        if aa[p] and not ab[q]:
            return path[p, q]
        for d in range(3):
            nxt = da[p][d], db[q][d]
            if nxt not in path:
                path[nxt] = path[p, q] + _DIGITS[d]
                queue.append(nxt)
    return None
