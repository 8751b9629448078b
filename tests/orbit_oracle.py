"""The orbit cutter: splits proven by searching leading-digit orbits.

A cut L.R at a run boundary is a split (every iterate of L.R is the iterate
of L followed by that of R) exactly when no iterate R_n, n >= 1, starts with
L's last digit a.  The orbit cutter proves that criterion cut by cut, in any
base, by stepping a held prefix of R until its state repeats.  It knows no
cut rule, so the tests check the package's rules against it.

Like ``oracles``, it imports nothing from the package.  It is a module of
its own because the benchmark harness loads ``oracles`` into its parent
process, and nothing there needs this one.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Callable

HELD_RUNS = 4  # runs of R held while proving a cut
ORBIT_STEPS = 256  # held states of R's orbit, R's own first, searched for a repeat

_RUN = re.compile(r"0+|1+|2+|3+|4+|5+|6+|7+|8+|9+")  # each match is one maximal run


def _numeral(n: int, base: int) -> str:
    digits = ""
    while n:
        n, r = divmod(n, base)
        digits = str(r) + digits
    return digits


def _step(text: str, base: int) -> str:
    return "".join([_numeral(len(run), base) + run[0] for run in _RUN.findall(text)])


def orbit_cutter(
    base: int, held: int = HELD_RUNS, orbit_steps: int = ORBIT_STEPS
) -> Callable[[str], list[str]]:
    """A function cutting texts in ``base`` into pieces at proven splits.

    A cut after a 0 needs no proof: numerals never start with 0.  Any other
    cut is proven from the leading digits of R's iterates, found by stepping
    a held state: whether the held text is all of the iterate, and the
    iterate's first ``held`` runs.  A partial state drops its last run (it
    may continue) before stepping; the runs before it emit an exact prefix,
    so the leading digit stays exact.  A repeated state proves the whole set
    of leading digits.  The walk starts from R's own state, whose first
    digit is never L's last (the cut is at a run boundary), so it changes no
    answer.  A prefix that runs out, or no repeat among ``orbit_steps``
    states counting R's own, proves nothing and leaves the cut uncut, which
    is always sound.  The proofs are memoized for the life of the returned
    function.
    """
    # state -> leading digits of it and of every later state, None if unproven
    future: dict[tuple[bool, str], frozenset[str] | None] = {}

    def step(state: tuple[bool, str]) -> tuple[bool, str] | None:
        complete, t = state
        if not complete:
            t = t.rstrip(t[-1])
            if not t:
                return None
        t = _step(t, base)
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
            if len(path) == orbit_steps:
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
