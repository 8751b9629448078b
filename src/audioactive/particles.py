"""The 24 common base-3 particles and their decay behaviour.

Sufficiently old base-3 strings factor entirely into 24 recurring
irreducible strings.  They fall into three groups: eight fermions, which
dominate asymptotically; thirteen bosons, most of which are transient; and
three neutrinos, which are fixed points of the step.  The decay chart maps
each particle to the one or two particles its step factors into.

All of this is one table, ``_TABLE``: a row per particle, giving its
symbol, digits, class and the particles of its step, in order.  The
registry, the three groups and the chart are read off its rows.  The
chart's oracle, ``splitting.derive_decay_chart``, lives with the memo it reads.

Two particle orders are used deliberately: ``REGISTRY_ORDER`` is the
reading order of the table of particles, while ``MATRIX_ORDER`` is the
bordering used for the fermion transition matrix.  Keep them straight.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import cache
from itertools import islice
from typing import Callable, Collection, Iterable, Mapping

from .core import DigitString, _Record, _piece_counts


class ParticleClass(Enum):
    FERMION = "fermion"
    BOSON = "boson"
    NEUTRINO = "neutrino"


class Particle(_Record):
    """A registry particle; ``digits`` is a base-3 ``DigitString``."""

    _fields = ("symbol", "digits", "kind")


class DecayRule(_Record):
    """A chart entry: ``products`` are the particles, in order, of ``parent``'s step."""

    _fields = ("parent", "products")


# Symbol, digits, class, then the particles of its step; registry order.
_TABLE = """
E   10        fermion   M
M   1110      fermion   E U
U   110       fermion   D
D   2110      fermion   S
S   122110    fermion   C
C   11222110  fermion   D B
B   22110     fermion   T
T   222110    fermion   E B
Ph  211       boson     Gl
Gl  1221      boson     Wb
Wb  112211    boson     H Zb
Zb  12221     boson     M Ph
H   2         boson     Se
Se  12        boson     Sm
Sm  1112      boson     E Su
Su  112       boson     Sd
Sd  2112      boson     Ss
Ss  122112    boson     Sc
Sc  11222112  boson     D Sb
Sb  22112     boson     St
St  222112    boson     E Sb
Ne  22        neutrino  Ne
Nm  11110     neutrino  Nm
Nt  11112     neutrino  Nt
"""
_ROWS = [row.split() for row in _TABLE.strip().splitlines()]
_PARTICLES = {
    sym: Particle(sym, DigitString(digits, 3), ParticleClass(kind))
    for sym, digits, kind, *_ in _ROWS
}
_DECAY_PRODUCTS = {sym: tuple(products) for sym, _, _, *products in _ROWS}
_BY_TEXT = {p.digits.text: p for p in _PARTICLES.values()}
_SYMBOL_BY_TEXT = {text: p.symbol for text, p in _BY_TEXT.items()}
PARTICLE_TEXTS = frozenset(_BY_TEXT)

REGISTRY_ORDER = tuple(_PARTICLES)
FERMION_ORDER, BOSON_ORDER, NEUTRINO_ORDER = (
    tuple(sym for sym, p in _PARTICLES.items() if p.kind is kind) for kind in ParticleClass
)

# Transition-matrix bordering (differs from the registry reading order).
MATRIX_ORDER = ("E", "M", "D", "B", "U", "S", "T", "C")


def registry() -> tuple[Particle, ...]:
    """The 24 particles in registry reading order."""
    return tuple(_PARTICLES.values())


def lookup(symbol: str) -> Particle:
    try:
        return _PARTICLES[symbol]
    except KeyError:
        raise KeyError(f"unknown particle symbol {symbol!r}") from None


def identify(s: DigitString) -> Particle | None:
    """The particle whose digits equal ``s``, or None."""
    return _BY_TEXT.get(s.text)


def _chart(
    products_of: Callable[[Particle], Iterable[str]], by: Mapping[str, Particle]
) -> tuple[DecayRule, ...]:
    """One rule per particle, in registry order, whose products are the
    particles that ``by`` maps ``products_of(particle)`` to."""
    rules = []
    for parent in _PARTICLES.values():
        products = []
        for key in products_of(parent):
            if key not in by:
                raise AssertionError(f"decay of {parent.symbol} produced unidentified segment {key!r}")
            products.append(by[key])
        rules.append(DecayRule(parent, tuple(products)))
    return tuple(rules)


def decay_chart() -> tuple[DecayRule, ...]:
    """One decay rule per particle, ordered as the registry."""
    return _chart(lambda p: _DECAY_PRODUCTS[p.symbol], _PARTICLES)


# ---------------------------------------------------------------------------
# Particle multisets
# ---------------------------------------------------------------------------

def _registry_sorted(symbols: Collection[str]) -> list[str]:
    """The registry symbols in ``symbols``, in registry order."""
    return [sym for sym in REGISTRY_ORDER if sym in symbols]


def multiset(counts: Mapping[str, int] | Iterable[str]) -> dict[str, int]:
    """Normalize symbol counts into a plain dict, validating symbols."""
    tally = Counter(counts)
    for sym, count in tally.items():
        if sym not in _PARTICLES:
            raise KeyError(f"unknown particle symbol {sym!r}")
        if count < 0:
            raise ValueError(f"negative count for {sym}")
    return {sym: tally[sym] for sym in REGISTRY_ORDER if tally.get(sym)}


def evolve(ms: Mapping[str, int], n: int = 1) -> dict[str, int]:
    """Apply the decay chart ``n`` times to a particle multiset.

    The chart drives the piece engine, ``core._piece_counts``.  Counts are
    exact Python integers; fermion counts grow beyond 64 bits after a
    couple of hundred steps.  No command evolves a multiset: this is the
    reference ``TestLimitSets.test_matches_evolved_counts`` checks
    ``limit_sets`` against, and ``TestFermionSaturation`` (acceptance
    criterion 10) evolves each fermion.
    """
    if n < 0:
        raise ValueError("step count must be non-negative")
    counts = next(islice(_piece_counts(multiset(ms), _DECAY_PRODUCTS), n, None))
    return {sym: counts[sym] for sym in REGISTRY_ORDER if sym in counts}


def limit_sets(ms: Mapping[str, int]) -> tuple[frozenset[str], frozenset[str]]:
    """(limsup, liminf) of the particle support under evolution.

    Every particle has a product and counts stay positive, so the support
    of a multiset is the union of its particles' supports; the counts
    themselves are never needed.
    """
    return _limits(frozenset(multiset(ms)))


# Every particle's support is periodic from step 14 with a period dividing
# 4 (tests/test_particles.py proves it in
# test_support_orbits_settle_by_14_with_period_dividing_4), so its supports
# at steps 14-17 are its whole cycle, one phase each.
@cache
def _phase_table() -> dict[str, tuple[frozenset[str], ...]]:
    """Each particle's supports at steps 14, 15, 16 and 17."""
    return {
        sym: tuple(map(frozenset, islice(_piece_counts([sym], _DECAY_PRODUCTS), 14, 18)))
        for sym in REGISTRY_ORDER
    }


def _limits(support: frozenset[str]) -> tuple[frozenset[str], frozenset[str]]:
    """``limit_sets`` of a support: the union and the intersection, over
    the 4 phases, of the union of the support's rows of the phase table
    (both empty for the empty support)."""
    rows = map(_phase_table().__getitem__, support)
    phases = [frozenset().union(*phase) for phase in zip(*rows)] or [frozenset()]
    return frozenset.union(*phases), frozenset.intersection(*phases)


# ---------------------------------------------------------------------------
# JSON export
# ---------------------------------------------------------------------------

def registry_json() -> list[dict]:
    """Registry and chart as plain data: symbol, digits, class, products."""
    return [
        {
            "symbol": p.symbol,
            "digits": p.digits.text,
            "class": p.kind.value,
            "products": list(_DECAY_PRODUCTS[p.symbol]),
        }
        for p in _PARTICLES.values()
    ]
