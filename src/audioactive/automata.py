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
``pre(M)``, the domain strings whose step M accepts, is again regular.  Its
states are int triples (d, run, q): ``run`` copies of the digit d are open,
and M is in state q after the runs before them; (3, 0, 0) is the start,
with no run open, and (3, 0, -1) the dead state.  Starting from the
compounds of the 24 particles, D_t = pre(D_{t-1}) holds exactly the
domain strings that are all particles after at most t steps.
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
# from core's forbidden runs, and the digits (as ints) the step writes for
# a run (digit, length): its base-3 numeral, then its digit.  The run (3, 0)
# is the empty one before the first digit.
_RUN_CAP = {int(f[0]): len(f) - 1 for f in _RUN_BOUNDED}
_CLOSE = {(3, 0): ()} | {
    (d, n): tuple(map(int, _numeral(n, 3) + str(d)))
    for d, top in _RUN_CAP.items()
    for n in range(1, top + 1)
}
ANY: Dfa = (((0, 0, 0),), (True,))  # every string
_ROW = bytes.maketrans(_DIGITS.encode(), bytes((0, 1, 2)))  # digit byte -> its index


def _build(start: Hashable, succ: Callable, accepting: Callable) -> Dfa:
    """The minimal DFA of the states reachable from ``start``.

    ``succ(s)`` gives the three successors of a state, on 0, 1 and 2, and
    ``accepting(s)`` whether it accepts.
    """
    index = {start: 0}
    states = [start]
    edges = []
    for s in states:  # grows while it is read: breadth first in digit order
        row = []
        for t in succ(s):
            if t not in index:
                index[t] = len(states)
                states.append(t)
            row.append(index[t])
        edges.append(tuple(row))
    return _minimal(edges, [bool(accepting(s)) for s in states])


def _minimal(edges: list[tuple[int, ...]], accept: list[bool]) -> Dfa:
    """The minimal DFA of states 0, 1, ..., where state q goes to
    ``edges[q][d]`` on digit d and accepts when ``accept[q]``.

    The states must be numbered breadth first in digit order from state 0;
    then so are the blocks, taken in the order of their first states.
    """
    zero, one, two = zip(*edges)
    block = list(map(int, accept))
    count = len(set(block))
    while True:  # split blocks by their successors' blocks until none splits
        at = block.__getitem__
        ids: dict[tuple[int, int, int, int], int] = {}
        keys = zip(block, map(at, zero), map(at, one), map(at, two))
        block = [ids.setdefault(key, len(ids)) for key in keys]
        if len(ids) == count:
            break
        count = len(ids)
    first = [block.index(b) for b in range(count)]  # each block's first state
    delta = tuple(tuple(map(block.__getitem__, edges[q])) for q in first)
    return delta, tuple(accept[q] for q in first)


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
    is the domain itself (no 00, 11111 or 2222, and no final 1111).  One
    breadth-first pass steps ``m`` over each state's closing run once."""
    delta, accept = m
    dead = (3, 0, -1)
    index = {(3, 0, 0): 0}
    states = [(3, 0, 0)]
    edges, final = [], []
    for i, (d, run, q) in enumerate(states):  # grows while it is read
        if q < 0:  # dead
            edges.append((i, i, i))
            final.append(False)
            continue
        closed = q
        for c in _CLOSE[d, run]:
            closed = delta[closed][c]
        final.append(accept[closed] and (d, run) != (1, 4))
        row = []
        for c in range(3):
            s = (c, 1, closed) if c != d else (d, run + 1, q) if run < _RUN_CAP[d] else dead
            j = index.setdefault(s, len(states))
            if j == len(states):
                states.append(s)
            row.append(j)
        edges.append(tuple(row))
    return _minimal(edges, final)


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

    return _build(frozenset({("", 0)}), succ, lambda states: any(i == len(p) for p, i in states))


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
