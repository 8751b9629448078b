"""Independent reference implementations used as test oracles.

Everything here is deliberately self-contained (no imports from the
package) so that the tests never check a computation against itself.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import groupby, product


def reference_step(text: str, base: int) -> str:
    """Naive describing step: scan runs, spell counts in the given base."""
    out = []
    i = 0
    while i < len(text):
        j = i
        while j < len(text) and text[j] == text[i]:
            j += 1
        n = j - i
        digits = ""
        while n:
            digits = str(n % base) + digits
            n //= base
        out.append(digits)
        out.append(text[i])
        i = j
    return "".join(out)


def reference_iterates(text: str, base: int, n: int) -> list[str]:
    out = [text]
    for _ in range(n):
        out.append(reference_step(out[-1], base))
    return out


def brute_force_fixed(base: int, max_len: int) -> list[str]:
    """Every fixed string up to max_len by direct enumeration (small spaces)."""
    alphabet = "0123456789"[:base]
    found = []
    for length in range(1, max_len + 1):
        for tup in product(alphabet, repeat=length):
            text = "".join(tup)
            if reference_step(text, base) == text:
                found.append(text)
    return sorted(found)


def all_ancient_texts(max_len: int) -> list[str]:
    """Every base-3 string with 0-runs <= 1 and 1-/2-runs <= 3, length <= max_len."""
    return _capped_texts(max_len, {"0": 1, "1": 3, "2": 3})


def all_split_domain_texts(max_len: int) -> list[str]:
    """Every non-empty string with 0-runs <= 1, 1-runs <= 4, 2-runs <= 3 and
    no final run of four 1s, length <= max_len."""
    return [t for t in _capped_texts(max_len, {"0": 1, "1": 4, "2": 3}) if not t.endswith("1111")]


def _capped_texts(max_len: int, caps: dict[str, int]) -> list[str]:
    out: list[str] = []

    def rec(prefix: str, last: str, run_len: int) -> None:
        if prefix:
            out.append(prefix)
        if len(prefix) == max_len:
            return
        for d in "012":
            if d == last and run_len >= caps[d]:
                continue
            rec(prefix + d, d, run_len + 1 if d == last else 1)

    rec("", "", 0)
    return out


def all_base3_texts(max_len: int) -> list[str]:
    """Every base-3 string of length 0..max_len."""
    return ["".join(tup) for n in range(max_len + 1) for tup in product("012", repeat=n)]


# ---------------------------------------------------------------------------
# Run bounds and the cut after a 0, read off the runs via groupby
# ---------------------------------------------------------------------------

RUN_BOUNDED_CAPS = {"0": 1, "1": 4, "2": 3}
ANCIENT_CAPS = {"0": 1, "1": 3, "2": 3}


def run_list(text: str) -> list[tuple[str, int]]:
    return [(d, len(list(run))) for d, run in groupby(text)]


def within_caps(text: str, caps: dict[str, int]) -> bool:
    """Every run of a digit d is at most caps[d] long."""
    return all(n <= caps[d] for d, n in run_list(text))


def in_split_domain(text: str) -> bool:
    """Run-bounded, and a run of four 1s is never the last run."""
    rs = run_list(text)
    return within_caps(text, RUN_BOUNDED_CAPS) and rs[-1:] != [("1", 4)]


def random_split_domain_text(seed: str, length: int) -> str:
    """A seeded random in-domain text of about ``length`` digits: runs drawn
    within the run bounds, cut to ``length``, and one 1 dropped if the cut
    leaves a final run of four 1s."""
    rng = random.Random(seed)
    runs, last, total = [], "", 0
    while total < length:
        last = rng.choice([d for d in "012" if d != last])
        runs.append(last * rng.randint(1, RUN_BOUNDED_CAPS[last]))
        total += len(runs[-1])
    text = "".join(runs)[:length]
    return text[:-1] if text.endswith("1111") else text


def zero_run_cuts(text: str) -> list[int]:
    """The end of every run of 0s that another run follows."""
    cuts = []
    end = 0
    for d, n in run_list(text)[:-1]:
        end += n
        if d == "0":
            cuts.append(end)
    return cuts


def zero_run_pieces(text: str) -> list[str]:
    """``text`` cut at ``zero_run_cuts``; the empty string has no pieces."""
    bounds = [0, *zero_run_cuts(text), len(text)]
    return [text[i:j] for i, j in zip(bounds, bounds[1:])] if text else []


# ---------------------------------------------------------------------------
# Leading digits of deep iterates without materializing them
# ---------------------------------------------------------------------------

def _runs_of(text: str) -> list[tuple[str, int]]:
    rs = []
    i = 0
    while i < len(text):
        j = i
        while j < len(text) and text[j] == text[i]:
            j += 1
        rs.append((text[i], j - i))
        i = j
    return rs


def _step_runs(rs: list[tuple[str, int]], base: int) -> list[tuple[str, int]]:
    out: list[tuple[str, int]] = []
    for d, n in rs:
        digits = ""
        while n:
            digits = str(n % base) + digits
            n //= base
        for ch in digits + d:
            if out and out[-1][0] == ch:
                out[-1] = (ch, out[-1][1] + 1)
            else:
                out.append((ch, 1))
    return out


_LEAD_MEMO: dict[tuple, tuple] = {}


def leading_digits(text: str, horizon: int, keep: int = 24) -> list[str]:
    """First digit of iterates 0..horizon of a base-3 string, exactly.

    Holds only a prefix of each iterate: truncating at a run boundary keeps
    an exact prefix, and stepping an exact run prefix reproduces the true
    emission except possibly its final run (which may continue in the full
    string).  That last run is therefore dropped before the next step unless
    the whole string is still held.  Runs multiply by roughly 1.3 per step,
    so the held prefix replenishes itself and the leading digit stays exact.
    """
    if not text:
        raise ValueError("empty string has no leading digits")
    rs = _runs_of(text)
    complete = True
    out = [rs[0][0]]
    for _ in range(horizon):
        key = (complete, keep, tuple(rs))
        nxt = _LEAD_MEMO.get(key)
        if nxt is None:
            source = rs if complete else rs[:-1]
            if not source:
                raise RuntimeError("held prefix exhausted; increase keep")
            stepped = _step_runs(source, 3)
            now_complete = complete and len(stepped) <= keep
            stepped = stepped[:keep]
            nxt = (now_complete, tuple(stepped))
            _LEAD_MEMO[key] = nxt
        complete, held = nxt
        rs = list(held)
        out.append(rs[0][0])
    return out


# ---------------------------------------------------------------------------
# Full factorization by the recursive definition
# ---------------------------------------------------------------------------

def _suffix_flf(t: str, i: int) -> bool:
    """Is t[i:] forever-leading-2-free, by the syntactic pattern?"""
    n = len(t)
    if i >= n:
        return True
    if t[i] != "1":
        return t[i] == "0"
    rest = t[i + 1 : i + 4]
    if not rest:
        return False  # bare "1": 1 -> 11 -> 21
    if rest[0] == "0":
        return True
    if rest[0] == "1":
        return rest[1:2] == "1"
    # a single 2 followed by a non-2 or the end, else exactly three 2s
    return rest[1:2] != "2" or rest[2:3] == "2"


def cut_positions(t: str) -> list[int]:
    """Every split position of the whole of ``t``, by the three-case rule."""
    out = []
    for p in range(1, len(t)):
        a, right = t[p - 1], t[p:]
        if a == "0":
            ok = right[0] != "0"
        elif a == "1":
            ok = right.startswith("22") and _suffix_flf(t, p + 2)
        else:
            ok = _suffix_flf(t, p)
        if ok:
            out.append(p)
    return out


def recursive_factor(t: str, particle_texts) -> list[str]:
    """Cut ``t`` at every split, then factor each piece again; a particle
    (one of ``particle_texts``) stays whole.  Cutting a piece can expose new
    cuts because flf depends on where the piece ends."""
    if not t:
        return []
    if t in particle_texts:
        return [t]
    cuts = cut_positions(t)
    if not cuts:
        return [t]
    bounds = [0, *cuts, len(t)]
    out: list[str] = []
    for i, j in zip(bounds, bounds[1:]):
        out += recursive_factor(t[i:j], particle_texts)
    return out


def decay_time(text: str, particle_texts, memo: dict[str, int]) -> int:
    """Steps until base-3 ``text`` factors into ``particle_texts``, by
    stepping and factoring: the largest time of its ``recursive_factor``
    pieces, where a piece that is not a particle takes one step more than
    its step.  ``memo`` keeps each piece's time and may be shared between
    calls.  The split rules hold on the splitting domain only, so ``text``
    must be in it (every iterate then is, and every such string decays)."""
    worst = 0
    for piece in recursive_factor(text, particle_texts):
        if piece not in particle_texts:
            t = memo.get(piece)
            if t is None:
                t = memo[piece] = 1 + decay_time(reference_step(piece, 3), particle_texts, memo)
            worst = max(worst, t)
    return worst


def bareiss_determinant(a) -> int:
    """Exact determinant of a square integer matrix by fraction-free
    (Bareiss) elimination: every division in it is exact."""
    m = [list(row) for row in a]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def primitivity_by_powers(a) -> int | None:
    """Smallest p with a**p entrywise positive, searched over the exact
    integer powers up to Wielandt's bound (n - 1)**2 + 1: a nonnegative
    n x n matrix that is not positive by then never becomes so."""
    n = len(a)
    power = [list(row) for row in a]
    for p in range(1, (n - 1) ** 2 + 2):
        if all(v > 0 for row in power for v in row):
            return p
        power = [[sum(power[i][t] * a[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return None


def power_iteration(entries, tol: float) -> tuple[float, list[float]]:
    """Dominant eigenvalue and unit eigenvector of a nonnegative square
    matrix, one matrix-vector product at a time: the vector starts uniform,
    is L2-normalized after every product, and the loop stops once successive
    Rayleigh quotients differ by less than ``tol``."""
    n = len(entries)
    v = [1 / math.sqrt(n)] * n
    prev = float("inf")
    for _ in range(100_000):
        w = [sum(x * y for x, y in zip(row, v)) for row in entries]
        norm = math.sqrt(sum(x * x for x in w))
        if norm == 0.0:
            raise ArithmeticError("power iteration hit the zero vector")
        lam = sum(x * y for x, y in zip(v, w))
        v = [x / norm for x in w]
        if abs(lam - prev) < tol:
            return lam, v
        prev = lam
    raise ArithmeticError("power iteration did not converge")


# Exact arithmetic in Q(lam), lam the real root of x^3 - x - 1: an element
# a + b*lam + c*lam^2 is the triple (a, b, c) of Fractions.

def _qlam_mul(u, w):
    c = [Fraction(0)] * 5
    for i, x in enumerate(u):
        for j, y in enumerate(w):
            c[i + j] += x * y
    # lam^3 = lam + 1 and lam^4 = lam^2 + lam
    return (c[0] + c[3], c[1] + c[3] + c[4], c[2] + c[4])


def _det3(r0, r1, r2):
    return (r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
            - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
            + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0]))


def _qlam_inverse(u):
    """u^-1 by Cramer's rule on the matrix of multiplication by u, whose
    columns are u, u*lam and u*lam^2 in the basis 1, lam, lam^2."""
    cols = [u, _qlam_mul(u, (0, 1, 0)), _qlam_mul(u, (0, 0, 1))]
    det = _det3(*cols)
    e = (1, 0, 0)
    return tuple(
        Fraction(_det3(*(e if k == j else col for k, col in enumerate(cols)))) / det
        for j in range(3)
    )


def plastic_interval(width: Fraction) -> tuple[Fraction, Fraction]:
    """[lo, hi], narrower than ``width``, holding the real root of
    x^3 - x - 1, by exact bisection of [1, 2]."""
    lo, hi = Fraction(1), Fraction(2)
    while hi - lo >= width:
        mid = (lo + hi) / 2
        if mid ** 3 - mid - 1 < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def exact_perron_frequencies(matrix) -> list[tuple[Fraction, Fraction, Fraction]]:
    """The normalized null vector of (M - lam I), each entry in Q(lam), for
    an integer matrix M that has lam as a simple eigenvalue: Gauss-Jordan
    elimination over Q(lam), the one free entry set to 1, then divided by
    the sum of the entries."""
    n = len(matrix)
    rows = [[(Fraction(x), Fraction(-(i == j)), Fraction(0)) for j, x in enumerate(row)]
            for i, row in enumerate(matrix)]
    pivots = []
    for col in range(n):
        r = len(pivots)
        p = next((i for i in range(r, n) if any(rows[i][col])), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = _qlam_inverse(rows[r][col])
        rows[r] = [_qlam_mul(inv, x) for x in rows[r]]
        for i in range(n):
            f = rows[i][col]
            if i != r and any(f):
                rows[i] = [tuple(a - b for a, b in zip(x, _qlam_mul(f, y)))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    (free,) = set(range(n)) - set(pivots)
    v = [(Fraction(1), Fraction(0), Fraction(0))] * n
    for r, col in enumerate(pivots):
        v[col] = tuple(-x for x in rows[r][free])
    total = tuple(map(sum, zip(*v)))
    inv = _qlam_inverse(total)
    return [_qlam_mul(inv, x) for x in v]


def qlam_interval(u, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Bounds on a + b*lam + c*lam^2 for every lam in [lo, hi], 0 < lo."""
    low, high = u[0], u[0]
    for coeff, (x, y) in zip(u[1:], ((lo, hi), (lo * lo, hi * hi))):
        low += min(coeff * x, coeff * y)
        high += max(coeff * x, coeff * y)
    return low, high


def exact_rounding(lo: Fraction, hi: Fraction, decimals: int) -> str | None:
    """The ``decimals``-place rounding, as printed, shared by every number in
    [lo, hi] (0 <= lo), or None if a rounding boundary lies in [lo, hi]."""
    scale = 10 ** decimals
    k = math.floor(lo * scale + Fraction(1, 2))
    if k != math.floor(hi * scale + Fraction(1, 2)) or lo * scale + Fraction(1, 2) == k:
        return None
    return f"{k // scale}.{k % scale:0{decimals}d}"
