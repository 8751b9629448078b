"""Base-3 decay languages as finite automata: the checker.

A DFA here is a pair ``(delta, accept)`` over the digits 0, 1, 2: state q
goes to ``delta[q][d]`` on digit d, accepts when ``accept[q]`` is true, and
state 0 is the start.  The DFAs are complete and numbered in breadth-first
order from the start.

The step is a transducer on the splitting domain: it reads a run at a time
(runs of at most 1, 4 and 3 for the digits 0, 1 and 2, and no final 1111)
and writes the run's numeral, one of 1, 2, 10 and 11, then its digit.  So
pre(M), the domain strings whose step M accepts, is again regular.  Its
transducer is a set of tables over the runs it can hold open (``_WRITES``,
``_ENDS``, ``_NEXT``, built from the run bounds), and its states are int
pairs (k, q): run k is open, and M is in state q after the runs before it;
(0, 0) is the start, with no run open, and ``_DEAD`` the dead state.
Starting from D_0, the compounds of the 24 particles, D_t = pre(D_{t-1})
holds exactly the domain strings that are all particles after at most t
steps.

D_0-D_11 ship as a certificate, the text ``_DECAY_CERTIFICATE``, and
``decay_languages()`` checks it instead of searching for the chain.  The
check is a full proof, and each of its twelve equations is one lockstep
walk of an automaton with a stored DFA, which fails at the first reachable
pair whose acceptance differs: D_0 against the subset construction of the
compounds (``_accepts_as``), each D_t against pre's transducer over
D_{t-1}, and D_11 against pre's over itself (``_is_pre``, one flat walk
over triples (k, q, p) that reads the transducer's tables).  A walk visits
each reachable pair once and never compares states with each other, so
nothing is minimized.

This module holds only what ``verify`` and ``iterations_to_common`` run:
the transducer's tables, the compounds' moves, the certificate and its
check, the essential strings' DFA and counting by length.  The search that
wrote the certificate (``pre`` and its transducer moves, ``compounds()``,
Moore refinement) and the listing and witness walks live in
:mod:`audioactive._automata_search`, which a verification never imports
unless some string is over its cap: without cached bytecode, every import
compiles its module in the command's time.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Hashable

from . import particles
from .core import _RUN_BOUNDED, AudioactiveError, _numeral, _splittable
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
# pre's transducer as tables over the runs it holds open: run k is
# _CLOSE's k-th key, run 0 the empty one, and run _DEAD[0] the dead
# state's.  For each run: the digits written when it closes, whether a
# string may end with it open (when the run alone is in core's domain,
# which has no final 1111, and not dead), and on each digit the next run
# and where M's state in it comes from: 0 the state after this run closes
# (the digit opens a run), 1 the state before it (the digit extends it),
# 2 none (the digit takes it over its cap: dead).
_RUNS = [*_CLOSE]
_OPENS = [_RUNS.index((c, 1)) for c in range(3)]
_START, _DEAD = (0, 0), (len(_RUNS), -1)
_WRITES = (*_CLOSE.values(), ())
_ENDS = (*(_splittable(str(d) * n) for d, n in _RUNS), False)
_NEXT = (
    *(
        tuple(
            (_OPENS[c], 0) if c != d
            else (_RUNS.index((d, n + 1)), 1) if n < _RUN_CAP[d]
            else (_DEAD[0], 2)
            for c in range(3)
        )
        for d, n in _RUNS
    ),
    ((_DEAD[0], 2),) * 3,
)
ANY: Dfa = (((0, 0, 0),), (True,))  # every string
_ROW = bytes.maketrans(_DIGITS.encode(), bytes((0, 1, 2)))  # digit byte -> its index


def _explore(start: Hashable, moves: Callable) -> Dfa:
    """The DFA of the states reachable from ``start``, numbered breadth
    first in digit order.

    ``moves(s)`` gives whether the state s accepts, and its three
    successors, on 0, 1 and 2.
    """
    index = {start: 0}
    states = [start]
    edges, accept = [], []
    for s in states:  # grows while it is read
        ok, nxt = moves(s)
        accept.append(bool(ok))
        row = []
        for t in nxt:
            j = index.setdefault(t, len(states))
            if j == len(states):
                states.append(t)
            row.append(j)
        edges.append(tuple(row))
    return tuple(edges), tuple(accept)


def _accepts_as(start: Hashable, moves: Callable, m: Dfa) -> bool:
    """Whether ``m`` accepts exactly what the states reachable from
    ``start`` under ``moves`` (as in :func:`_explore`) accept.

    One lockstep walk of those states with ``m``'s; no minimization.  False
    at the first reachable pair whose acceptance differs.
    """
    delta, accept = m
    seen = {(start, 0)}
    todo = [(start, 0)]
    for s, q in todo:  # grows while it is read
        ok, nxt = moves(s)
        if ok != accept[q]:
            return False
        for pair in zip(nxt, delta[q]):
            if pair not in seen:
                seen.add(pair)
                todo.append(pair)
    return True


def recognizer(m: Dfa) -> Callable[[str], bool]:
    """Membership in ``m`` as a test on texts over 0, 1 and 2."""
    delta, accept = m

    def accepts(text: str) -> bool:
        q = 0
        for d in text.encode().translate(_ROW):
            q = delta[q][d]
        return accept[q]

    return accepts


def _is_pre(a: Dfa, b: Dfa) -> bool:
    """Whether ``b`` accepts exactly pre(``a``).

    The lockstep walk of :func:`_accepts_as` with pre's transducer read
    straight from its tables, over flat triples (k, q, p): the transducer
    state (k, q) and ``b``'s state p.  False at the first reachable triple
    whose acceptance differs.
    """
    (da, aa), (db, ab) = a, b
    seen = {(*_START, 0)}
    todo = [(*_START, 0)]
    for k, q, p in todo:  # grows while it is read
        closed = q
        for c in _WRITES[k]:
            closed = da[closed][c]
        if ab[p] != (_ENDS[k] and aa[closed]):
            return False
        src = closed, q, -1
        for (j, s), r in zip(_NEXT[k], db[p]):
            t = j, src[s], r
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return True


def essential() -> Dfa:
    """The essential ancient strings, and the empty string: runs of 1s and
    2s of at most 3, then at most one 0, at the end.

    The explored DFA is already minimal; the tests check that it equals
    its own Moore refinement.
    """
    def moves(s):  # (digit of the last run, its length); None is the dead state
        if s is None or s[0] == "0":
            return s is not None, (None, None, None)
        d, run = s
        nxt = (((d, run + 1) if run < 3 else None) if c == d else (c, 1) for c in _DIGITS)
        return True, tuple(nxt)

    return _explore(("", 0), moves)


def junction_splits() -> dict[str, set[str]]:
    """For each particle e, the particles f for which e|f is a split.

    That is exactly when the splitter's rule ``splitting._CUT`` cuts e + f
    after e.  The rule looks back one digit, so e's last digit decides.  It
    is checked against the leading-digit criterion at every length without
    these automata, so the argument is not circular.
    """
    texts = [*particles._BY_TEXT]  # registry order
    after = {c: {f for f in texts if _CUT.match(c + f, 1)} for c in {e[-1] for e in texts}}
    return {e: set(after[e[-1]]) for e in texts}


_COMPOUND_START = frozenset({("", 0)})


def _compound_moves() -> Callable:
    """The moves of the particle compounds' subset construction, from
    ``_COMPOUND_START``.

    Concatenations of particles whose every junction is a split: an
    automaton whose states are (particle, digits of it read), where a
    finished particle e, or the start (e = ""), may begin any particle
    that e|f splits.
    """
    follow = junction_splits()
    follow[""] = set(follow)
    # what a finished particle begins on each digit, once per last digit
    begin = {}
    for e, fs in follow.items():
        if e[-1:] not in begin:
            begin[e[-1:]] = [[(f, 1) for f in fs if f[0] == c] for c in _DIGITS]

    def moves(states):
        nxt: tuple[list, list, list] = ([], [], [])
        done = False
        for p, i in states:
            if i < len(p):
                nxt[int(p[i])].append((p, i + 1))
            else:
                done = True
                for succ, new in zip(nxt, begin[p[-1:]]):
                    succ += new
        return done, tuple(map(frozenset, nxt))

    return moves


# D_0-D_11, one line each: every state's successors on 0, 1 and 2, the
# states in order, an accepting one marked *.  Written by the search's
# _render (D_0 = compounds(), D_t = pre(D_{t-1})) and parsed on first use;
# decay_languages() checks it before it answers anything.
_DECAY_CERTIFICATE = """\
*1,2,3 1,1,1 0,4,5 *1,6,7 0,8,9 *1,10,11 0,12,13 *1,14,15 0,16,17 *1,10,18 0,19,13 1,20,21 *0,8,22 *1,10,23 0,24,13 1,25,1 0,1,17 *1,10,1 1,21,15 1,8,1 *1,16,26 1,27,1 *1,10,17 1,1,21 0,8,17 1,16,1 1,1,17 *1,1,26
*1,2,3 *4,2,3 1,5,6 *1,7,8 4,4,4 1,9,10 *1,11,12 1,13,14 *1,15,16 1,17,18 *1,19,20 1,21,14 4,22,16 *1,9,23 *1,11,24 1,25,14 *1,26,4 1,4,14 *1,27,20 1,28,14 4,29,16 4,9,4 *4,17,30 *1,11,31 4,4,16 1,9,14 *1,32,23 1,33,14 4,9,34 4,35,4 4,4,36 *1,11,16 1,9,37 4,9,38 4,4,39 *4,4,30 *1,11,4 *1,11,20 4,40,4 4,29,4 4,41,4 4,4,34
*1,2,3 *4,2,3 1,5,6 *1,7,8 4,4,4 1,9,10 *1,11,12 1,13,14 *1,15,16 1,17,18 *1,19,20 1,21,14 4,22,16 *1,9,23 *1,11,24 1,25,26 *1,27,4 1,4,28 *1,29,30 1,31,14 4,32,16 4,9,33 *4,34,35 *1,36,37 4,4,16 *1,9,38 *1,11,20 *1,39,38 *1,36,12 1,21,40 4,41,16 4,9,42 4,34,4 4,43,4 *1,4,38 4,4,44 1,45,14 *1,36,16 *1,11,46 1,9,47 *1,11,48 4,34,42 4,4,49 4,50,4 *1,36,4 4,9,4 *1,51,16 *1,36,20 4,52,16 4,32,4 4,4,42 1,25,14 *4,4,35
*1,2,3 *4,2,3 1,5,6 *1,7,8 4,4,4 1,9,10 *1,11,12 1,13,14 *1,15,16 1,17,18 *1,19,20 1,21,14 4,22,16 *1,9,23 *1,11,24 *1,25,26 *1,27,4 1,4,28 *1,29,12 1,30,14 4,31,16 1,9,32 *4,33,34 *1,35,36 4,4,16 *1,9,37 *1,11,8 *1,38,39 *1,7,12 1,40,41 4,9,42 4,33,4 *1,35,43 *1,4,37 4,4,44 1,45,14 *1,46,16 *1,47,8 1,9,48 *1,11,49 1,9,50 *1,11,43 4,4,51 4,52,16 *1,15,4 1,9,53 1,54,14 1,40,14 *1,35,12 *1,55,16 *1,35,24 4,31,4 *4,4,34 *1,35,20 4,9,4 1,25,14
*1,2,3 *4,2,3 1,5,6 *1,7,8 4,4,4 1,9,10 *1,7,11 1,12,13 *1,14,15 1,16,17 *1,18,19 4,20,15 *1,9,21 *1,7,19 *1,22,3 *1,23,4 1,4,24 *1,25,11 1,26,6 4,27,15 *4,28,29 *1,30,31 *1,9,32 *1,33,34 *1,35,11 1,36,37 4,9,38 4,28,4 *1,4,32 4,4,39 1,33,13 *1,40,15 *1,41,8 *1,9,42 *1,7,43 *1,12,34 1,9,44 *1,7,45 4,4,46 *1,14,4 *1,47,3 1,12,6 *1,30,8 *1,48,15 *1,30,49 4,50,15 4,27,4 4,9,4 1,22,51 4,4,15 *4,4,29 *1,7,49
*1,2,3 *4,2,3 1,5,6 *1,7,8 4,4,4 1,9,10 *1,11,12 *1,13,14 *1,15,16 1,17,18 *1,19,12 1,13,20 4,21,16 *1,9,22 *1,11,23 *1,24,25 *1,26,4 1,4,27 *1,28,12 *1,29,25 *1,11,30 *4,31,32 *1,26,33 *1,34,16 *1,9,35 *1,11,8 *1,36,14 *1,7,12 1,37,38 *4,9,32 4,39,16 *1,4,35 4,4,40 *1,41,16 1,24,42 *1,43,8 *1,9,44 1,9,45 *1,11,46 4,31,4 *1,15,4 *1,47,25 *1,11,48 *1,36,25 *1,26,8 *1,26,48 4,49,16 4,9,4 4,4,16 *4,4,32
*1,2,3 *4,2,3 1,5,6 *1,7,8 4,4,4 *1,9,10 *1,11,12 *1,13,14 *1,15,16 1,17,18 *1,19,8 1,13,20 4,21,16 *1,9,22 *1,11,23 *1,24,25 *1,26,4 1,4,27 *1,28,12 *1,29,25 *1,11,30 *4,31,32 *1,15,33 *1,34,16 *1,9,35 *1,11,8 *1,24,14 *1,7,12 *1,13,36 *4,9,32 4,37,16 *1,4,35 4,4,38 *1,39,16 1,24,40 *1,15,8 *1,11,33 4,31,4 *1,15,4 *1,41,25 *1,11,42 4,9,4 4,4,16
*1,2,3 *4,2,3 *1,5,3 *1,6,7 4,4,4 *1,8,9 *1,10,11 *1,12,13 1,14,15 *1,16,7 *1,8,17 *1,6,18 *1,19,3 *1,20,4 1,4,21 *1,22,23 *1,24,3 *1,12,25 *1,26,13 *1,8,27 *1,19,11 *1,6,23 *1,19,28 4,29,13 *4,8,30 *1,31,13 1,19,32 *1,12,7 *1,6,25 *4,33,30 4,4,34 *1,35,3 *1,6,36 *1,4,27 *1,12,4 4,8,4 4,4,13
*1,2,3 *4,2,3 *1,5,6 *1,7,8 4,4,4 *1,9,10 *1,11,8 *1,12,13 *1,14,15 *1,16,17 *1,18,8 *1,19,6 *1,9,20 *1,11,21 *1,12,6 *1,7,4 1,4,22 *1,23,8 *1,24,6 *1,9,25 *1,14,8 *1,26,15 *1,27,28 *1,12,29 *4,9,30 *1,14,31 1,12,32 *1,19,13 4,33,15 *1,11,31 4,4,34 *1,35,15 *1,11,36 *4,37,30 *1,14,4 *1,38,6 4,4,15 *1,4,20 4,9,4
*1,2,3 *4,2,3 *1,5,6 *1,7,8 4,4,4 *1,9,6 *1,2,8 *1,5,10 *1,2,11 *1,12,13 *1,2,14 *1,2,4 1,4,15 *1,16,8 *1,17,11 *1,18,8 *1,5,19 1,5,20 *1,21,10 *1,2,22 *1,2,23 *1,9,19 *1,24,11 4,4,11 *1,25,6 4,9,4
*1,2,3 *4,2,3 *1,5,3 *1,2,6 4,4,4 *1,7,3 *1,2,8 *1,9,3 *1,2,4 1,4,10 *1,11,6 *1,5,12 *1,2,13 *1,14,8 1,5,15 *1,2,16 4,4,8
*1,2,3 *4,2,3 *1,5,3 *1,2,6 4,4,4 *1,7,3 *1,2,8 *1,9,3 *1,2,4 1,4,3
"""


def _parse(text: str) -> tuple[Dfa, ...]:
    """The DFAs of certificate text, one per line."""
    levels = []
    for line in text.splitlines():
        succ = iter(map(int, line.replace("*", "").replace(",", " ").split()))
        levels.append((tuple(zip(succ, succ, succ)), tuple(["*" in s for s in line.split()])))
    return tuple(levels)


@cache
def decay_languages() -> tuple[Dfa, ...]:
    """D_0, D_1, ..., D_11, checked from the shipped certificate.

    D_11 is the whole splitting domain and pre maps it to itself, so every
    later D_t equals it.  A certificate that fails the check raises
    :class:`AudioactiveError` naming the first equation that fails.  The
    DFAs are immutable, so checking them once per process changes no
    answer; ``decay_languages.cache_clear()`` drops them.
    """
    levels = _parse(_DECAY_CERTIFICATE)
    if not _accepts_as(_COMPOUND_START, _compound_moves(), levels[0]):
        raise AudioactiveError("decay certificate: D_0 is not the particle compounds")
    for t, a in enumerate(levels, 1):
        u = min(t, len(levels) - 1)  # the last equation is the fixpoint
        if not _is_pre(a, levels[u]):
            raise AudioactiveError(f"decay certificate: D_{u} is not pre(D_{t - 1})")
    return levels


def _dead(m: Dfa) -> int | None:
    """The state that accepts nothing, which a minimal DFA has at most once."""
    return next((q for q, (row, ok) in enumerate(zip(*m)) if not ok and row == (q, q, q)), None)


def count(top: int, a: Dfa, b: Dfa) -> list[int]:
    """How many strings of each length 0..``top`` both ``a`` and ``b`` accept."""
    (da, aa), (db, ab) = a, b
    dead_a, dead_b = _dead(a), _dead(b)
    width = len(db)  # the pair (p, q) is p * width + q
    # the live pairs reachable from (0, 0), breadth first, and for each the
    # indices of its live successors
    index = {0: 0}
    pairs = [0]
    moves = []
    for pq in pairs:  # grows while it is read
        row = []
        ra, rb = da[pq // width], db[pq % width]
        for d in 0, 1, 2:
            if ra[d] != dead_a and rb[d] != dead_b:
                rs = ra[d] * width + rb[d]
                j = index.get(rs)
                if j is None:
                    j = index[rs] = len(pairs)
                    pairs.append(rs)
                row.append(j)
        moves.append(row)
    final = [i for i, pq in enumerate(pairs) if aa[pq // width] and ab[pq % width]]
    layer = [1] + [0] * (len(pairs) - 1)  # the strings of one length that end at each pair
    counts = []
    for _ in range(top + 1):
        counts.append(sum([layer[i] for i in final]))
        grown = [0] * len(pairs)
        for k, row in zip(layer, moves):
            if k:
                for j in row:
                    grown[j] += k
        layer = grown
    return counts
