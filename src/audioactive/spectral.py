"""Fermion transition matrix, growth rate, and limiting frequencies.

Fermions only produce fermions, so their population dynamics are linear:
entry (i, j) of the transition matrix counts copies of fermion i in the
decay of fermion j.  The dominant eigenvalue of that matrix is the
asymptotic length growth rate of any string that is not purely neutrinos,
and its eigenvector, scaled to sum 1, gives the limiting relative
frequencies of the eight fermions.  One power iteration, run by repeated
squaring, yields both; the matrix itself is tallied from the decay chart.

The growth rate is both computed numerically (power iteration) and
certified symbolically: the exact characteristic polynomial must be
divisible by x^3 - x - 1, whose unique real root is the dominant
eigenvalue.  Neither route trusts the other.

The matrices are small, so the iterations run in plain Python; only
:func:`eigenvalues` imports numpy.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Sequence

from . import particles
from .core import ConvergenceError, DigitString, _Record
from .splitting import length_sequence

MATRIX_ORDER = particles.MATRIX_ORDER

# Growth-rate polynomial x^3 - x - 1, highest degree first.
GROWTH_POLYNOMIAL = (1, 0, -1, -1)


class TransitionMatrix(_Record):
    """Nonnegative integer matrix over a fixed symbol ordering."""

    _fields = ("entries", "order")

    def __init__(
        self, entries: tuple[tuple[int, ...], ...], order: tuple[str, ...] = MATRIX_ORDER
    ):
        n = len(order)
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError("matrix shape does not match the symbol order")
        if any(v < 0 for row in entries for v in row):
            raise ValueError("entries must be non-negative")
        if len(set(order)) != n:
            raise ValueError("symbols in the order must be distinct")
        super().__init__(entries, order)

    @property
    def size(self) -> int:
        return len(self.order)


def fermion_matrix() -> TransitionMatrix:
    """The 8x8 fermion transition matrix, tallied from the decay chart.

    Entry (i, j) counts fermion i among the products of fermion j.
    Fermions decay only into fermions, and the other rules are skipped.
    """
    n = len(MATRIX_ORDER)
    grid = [[0] * n for _ in range(n)]
    for rule in particles.decay_chart():
        if rule.parent.kind is particles.ParticleClass.FERMION:
            j = MATRIX_ORDER.index(rule.parent.symbol)
            for product in rule.products:
                grid[MATRIX_ORDER.index(product.symbol)][j] += 1
    return TransitionMatrix(tuple(tuple(row) for row in grid))


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------

_MAX_SQUARINGS = 17


def _perron(m: TransitionMatrix, tol: float) -> tuple[float, list[float]]:
    """Dominant eigenvalue and unit eigenvector by repeated squaring.

    Round k takes v = P.1 / |P.1| for P, a multiple of m**(2**k), and stops
    once |mv - lam v| <= tol * lam, lam = v.(mv); else P becomes (P / max P)**2.
    The residual tests m itself: the powers 2**k of a periodic m never settle.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    p = [[float(x) for x in row] for row in m.entries]
    for _ in range(_MAX_SQUARINGS + 1):
        w = [sum(row) for row in p]
        norm = math.hypot(*w)
        v = [x / norm for x in w] if norm else w
        mv = [sum(map(mul, row, v)) for row in m.entries]
        if not any(mv):
            raise ConvergenceError("power iteration hit the zero vector")
        lam = sum(map(mul, v, mv))
        if math.hypot(*[x - lam * y for x, y in zip(mv, v)]) <= tol * lam:
            return lam, v
        top = max(map(max, p))
        cols = [[x / top for x in col] for col in zip(*p)]
        p = [[sum(map(mul, row, col)) / top for col in cols] for row in p]
    raise ConvergenceError(f"power iteration did not converge in {_MAX_SQUARINGS} squarings")


def dominant_eigenvalue(m: TransitionMatrix, tol: float = 1e-12) -> float:
    """Dominant eigenvalue of a primitive matrix, by power iteration.

    Primitive (some power entrywise positive) makes it a single dominant
    eigenvalue; ``tol`` bounds the relative residual |mv - lam v| / lam.
    """
    return _perron(m, tol)[0]


def characteristic_polynomial(m: TransitionMatrix | Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Exact integer coefficients of det(xI - A), highest degree first.

    Division-free (Samuelson-Berkowitz): the polynomial of each leading
    principal submatrix is obtained from the previous one by a Toeplitz
    convolution, so only integer products and sums occur.
    """
    rows = m.entries if isinstance(m, TransitionMatrix) else m
    a = [[int(v) for v in row] for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if n == 0:
        return (1,)
    poly = [1, -a[0][0]]
    nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in a]  # (j, a_ij) pairs
    for k in range(1, n):
        row = [(j, x) for j, x in nonzero[k] if j < k]
        sub = [[(j, x) for j, x in r if j < k] for r in nonzero[:k]]  # leading k x k block
        toeplitz = [1, -a[k][k]]
        v = [a[i][k] for i in range(k)]
        for _ in range(k):
            toeplitz.append(-sum(x * v[j] for j, x in row))
            v = [sum(x * v[j] for j, x in sub_row) for sub_row in sub]
        new = [0] * (k + 2)
        for i, ti in enumerate(toeplitz):
            for j, pj in enumerate(poly[: k + 2 - i]):  # degrees up to k + 1
                new[i + j] += ti * pj
        poly = new
    return tuple(poly)


def polynomial_division(
    numerator: Sequence[int], divisor: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exact polynomial long division over the integers (monic divisor).

    Coefficients are highest degree first; returns (quotient, remainder)
    with the remainder stripped of leading zeros (empty tuple for zero).
    """
    den = list(divisor)
    if not den or den[0] != 1:
        raise ValueError("divisor must be monic")
    num = list(numerator)
    quotient = []
    while len(num) >= len(den):
        factor = num[0]
        quotient.append(factor)
        for i, c in enumerate(den):
            num[i] -= factor * c
        num.pop(0)
    while num and num[0] == 0:
        num.pop(0)
    return tuple(quotient), tuple(num)


def primitivity_power(m: TransitionMatrix) -> int | None:
    """Smallest p with m**p entrywise positive, or None if there is none.

    Only the zero pattern of m**p matters, and it follows from the pattern
    of m**(p - 1) alone: row i of m**p is positive at the columns that m
    reaches from a positive column of row i of m**(p - 1).  The patterns
    are finitely many, so they become all positive or repeat, and after a
    repeat the later patterns only cycle through ones already seen.
    """
    reach = tuple(frozenset(j for j, v in enumerate(row) if v) for row in m.entries)
    full = frozenset(range(m.size))
    pattern = reach
    seen = set()
    p = 1
    while pattern not in seen:
        if all(row == full for row in pattern):
            return p
        seen.add(pattern)
        pattern = tuple(frozenset().union(*(reach[t] for t in row)) for row in pattern)
        p += 1
    return None


def eigenvalues(m: TransitionMatrix) -> list[complex]:
    """All eigenvalues, as roots of the exact characteristic polynomial.

    Roots are extracted with the companion-matrix method and sorted by
    descending magnitude (ties by real part, then imaginary part).
    """
    import numpy as np

    roots = np.roots(np.asarray(characteristic_polynomial(m), dtype=float))
    return sorted(
        (complex(z) for z in roots),
        key=lambda z: (-abs(z), -z.real, z.imag),
    )


def limiting_frequencies(m: TransitionMatrix | None = None) -> dict[str, float]:
    """Limiting relative frequencies: the dominant eigenvector, summing to 1.

    A population vector stepped by m tends to the direction of the Perron
    eigenvector, so its normalized entries converge to these frequencies.
    The vector comes from the same power iteration as
    :func:`dominant_eigenvalue`.
    """
    if m is None:
        m = fermion_matrix()
    v = _perron(m, 1e-12)[1]
    total = sum(v)
    return {sym: x / total for sym, x in zip(m.order, v)}


# ---------------------------------------------------------------------------
# Empirical growth
# ---------------------------------------------------------------------------

class GrowthEstimate(_Record):
    """Observed length growth of an iterated seed, kept as its text and
    base."""

    _fields = ("seed", "base", "lengths", "ratios", "estimate")

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "base": self.base,
            "iterations": len(self.lengths) - 1,
            "lengths": list(self.lengths),
            "estimate": self.estimate,
        }


def empirical_growth(seed: DigitString, iters: int) -> GrowthEstimate:
    """Iterate a seed and estimate the length growth rate.

    The estimate is the geometric mean of the final quarter of the
    consecutive length ratios, which discards the transient.  Lengths come
    from :func:`length_sequence` (a multiset of split pieces).  Raises
    :class:`ValueError` when the length ratio over that quarter passes the
    float range.
    """
    if iters < 10:
        raise ValueError("need at least 10 iterations for a meaningful estimate")
    if len(seed) == 0:
        raise ValueError("seed must be non-empty")
    lengths = length_sequence(seed, iters)
    ratios = tuple(lengths[i] / lengths[i - 1] for i in range(1, len(lengths)))
    tail = max(1, iters // 4)
    try:
        estimate = (lengths[-1] / lengths[-1 - tail]) ** (1.0 / tail)
    except OverflowError:
        raise ValueError(f"{iters} iterations are too many for a float estimate") from None
    return GrowthEstimate(seed.text, seed.base, tuple(lengths), ratios, float(estimate))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

# Decimals printed, in every format, for eigenvalues and growth rates and
# for frequencies.
LAMBDA_DECIMALS = 9
FREQ_DECIMALS = 6


def frequencies_csv(freqs: dict[str, float]) -> str:
    lines = ["particle,frequency"]
    lines += [f"{sym},{freqs[sym]:.{FREQ_DECIMALS}f}" for sym in MATRIX_ORDER]
    return "\n".join(lines) + "\n"


def charpoly_csv(coeffs: Sequence[int]) -> str:
    degree = len(coeffs) - 1
    lines = ["coeff_degree,coeff_value"]
    lines += [f"{degree - i},{c}" for i, c in enumerate(coeffs)]
    return "\n".join(lines) + "\n"


def eigenvalues_csv(values: Sequence[complex]) -> str:
    lines = ["re,im"]
    lines += [f"{z.real:.{LAMBDA_DECIMALS}f},{z.imag:.{LAMBDA_DECIMALS}f}" for z in values]
    return "\n".join(lines) + "\n"
