"""Search for the decay languages, and walks that list and witness strings.

The checker, :mod:`audioactive.automata`, proves the shipped D_0-D_11 and
counts with them; this module finds them.  ``compounds()`` and ``pre``
explore with the checker's ``_explore`` (the compounds' subset moves, and
``_moves``, which reads pre's transducer from the same run tables as the
checker's ``_is_pre``, so there is one transducer and one explorer) and
then minimize with Moore refinement, which numbers the blocks breadth
first, so two DFAs built here accept the same language exactly when they
are equal.  ``_render`` writes the chain as certificate text.

``difference`` lists the strings one DFA accepts and another rejects, and
``witness`` gives the least of them.  A verification imports this module
only to list the strings over its cap; the tests use all of it.
"""

from __future__ import annotations

from functools import partial

from .automata import (
    _COMPOUND_START, _DIGITS, _ENDS, _NEXT, _START, _WRITES, Dfa, _compound_moves, _explore,
)


def _minimal(edges: tuple[tuple[int, ...], ...], accept: tuple[bool, ...]) -> Dfa:
    """The minimal DFA of states 0, 1, ..., where state q goes to
    ``edges[q][d]`` on digit d and accepts when ``accept[q]``.

    The alphabet is the digits 0 up to the rows' width.  The states must be
    numbered breadth first in digit order from state 0; then so are the
    blocks, taken in the order of their first states.
    """
    columns = tuple(zip(*edges))  # columns[d][q] is edges[q][d]
    block = list(map(int, accept))
    count = len(set(block))
    while True:  # split blocks by their successors' blocks until none splits
        at = block.__getitem__
        ids: dict[tuple[int, ...], int] = {}
        keys = zip(block, *[map(at, column) for column in columns])
        block = [ids.setdefault(key, len(ids)) for key in keys]
        if len(ids) == count:
            break
        count = len(ids)
    first = [block.index(b) for b in range(count)]  # each block's first state
    delta = tuple(tuple(map(block.__getitem__, edges[q])) for q in first)
    return delta, tuple(accept[q] for q in first)


def _moves(m: Dfa, state: tuple[int, int]) -> tuple[bool, list[tuple[int, int]]]:
    """Whether pre(``m``)'s transducer state (k, q) accepts, and its
    successors on 0, 1 and 2, read from the checker's run tables.

    It closes the open run k through ``m``, rejects a final 1111, and opens
    a new run on each other digit; the same digit extends the run up to its
    cap and then dies.
    """
    k, q = state
    delta, accept = m
    closed = q
    for c in _WRITES[k]:
        closed = delta[closed][c]
    src = closed, q, -1
    return _ENDS[k] and accept[closed], [(j, src[s]) for j, s in _NEXT[k]]


def pre(m: Dfa) -> Dfa:
    """The splitting-domain strings whose step ``m`` accepts; ``pre(ANY)``
    is the domain itself (no 00, 11111 or 2222, and no final 1111)."""
    return _minimal(*_explore(_START, partial(_moves, m)))


def compounds() -> Dfa:
    """Concatenations of particles whose every junction is a split."""
    return _minimal(*_explore(_COMPOUND_START, _compound_moves()))


def _render(levels: tuple[Dfa, ...]) -> str:
    """DFAs as certificate text, one line each."""
    return "".join(
        " ".join(("*" if ok else "") + ",".join(map(str, row)) for row, ok in zip(*m)) + "\n"
        for m in levels
    )


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


def difference(top: int, a: Dfa, b: Dfa) -> list[list[str]]:
    """The strings ``a`` accepts and ``b`` rejects, of each length
    0..``top``, each length in digit order.

    One walk of the product, a length at a time in digit order, keeps only
    the prefixes whose pair can still reach such a string in the digits
    left, so it builds no prefix that lists nothing.  Prefixes are shared
    between the lengths.
    """
    (da, aa), (db, ab) = a, b
    width = len(db)  # the pair (p, q) is p * width + q
    succ = [tuple(zip(_DIGITS, [r * width + s for r, s in zip(rp, rq)])) for rp in da for rq in db]
    ends = {p * width + q for p, ok in enumerate(aa) if ok for q, no in enumerate(ab) if not no}
    within = [ends]  # within[r]: the pairs that reach an end in at most r digits
    for _ in range(top):
        last = within[-1]
        within.append(last | {pq for pq, nxt in enumerate(succ) if any(n in last for _, n in nxt)})
    listed = []
    level = [("", 0)] if 0 in within[top] else []
    for left in range(top, -1, -1):
        listed.append([text for text, pq in level if pq in ends])
        if left:
            alive = within[left - 1]
            level = [(text + d, n) for text, pq in level for d, n in succ[pq] if n in alive]
    return listed
