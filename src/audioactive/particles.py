"""The 24 common base-3 particles and their decay behaviour.

Sufficiently old base-3 strings factor entirely into 24 recurring
irreducible strings.  They fall into three groups: eight fermions, which
dominate asymptotically; thirteen bosons, most of which are transient; and
three neutrinos, which are fixed points of the step.  The decay chart maps
each particle to the one or two particles its step factors into.

Two particle orders are used deliberately: ``REGISTRY_ORDER`` is the
reading order of the table of particles, while ``MATRIX_ORDER`` is the
bordering used for the fermion transition matrix.  Keep them straight.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import cache
from itertools import islice
from typing import Collection, Iterable, Mapping

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


FERMION_ORDER = ("E", "M", "U", "D", "S", "C", "B", "T")
BOSON_ORDER = ("Ph", "Gl", "Wb", "Zb", "H", "Se", "Sm", "Su", "Sd", "Ss", "Sc", "Sb", "St")
NEUTRINO_ORDER = ("Ne", "Nm", "Nt")
REGISTRY_ORDER = FERMION_ORDER + BOSON_ORDER + NEUTRINO_ORDER

# Transition-matrix bordering (differs from the registry reading order).
MATRIX_ORDER = ("E", "M", "D", "B", "U", "S", "T", "C")

_PARTICLE_DIGITS = {
    "E": "10",
    "M": "1110",
    "U": "110",
    "D": "2110",
    "S": "122110",
    "C": "11222110",
    "B": "22110",
    "T": "222110",
    "Ph": "211",
    "Gl": "1221",
    "Wb": "112211",
    "Zb": "12221",
    "H": "2",
    "Se": "12",
    "Sm": "1112",
    "Su": "112",
    "Sd": "2112",
    "Ss": "122112",
    "Sc": "11222112",
    "Sb": "22112",
    "St": "222112",
    "Ne": "22",
    "Nm": "11110",
    "Nt": "11112",
}

_DECAY_PRODUCTS = {
    "E": ("M",),
    "M": ("E", "U"),
    "U": ("D",),
    "D": ("S",),
    "S": ("C",),
    "C": ("D", "B"),
    "B": ("T",),
    "T": ("E", "B"),
    "Ph": ("Gl",),
    "Gl": ("Wb",),
    "Wb": ("H", "Zb"),
    "Zb": ("M", "Ph"),
    "H": ("Se",),
    "Se": ("Sm",),
    "Sm": ("E", "Su"),
    "Su": ("Sd",),
    "Sd": ("Ss",),
    "Ss": ("Sc",),
    "Sc": ("D", "Sb"),
    "Sb": ("St",),
    "St": ("E", "Sb"),
    "Ne": ("Ne",),
    "Nm": ("Nm",),
    "Nt": ("Nt",),
}


def _kind_of(symbol: str) -> ParticleClass:
    if symbol in FERMION_ORDER:
        return ParticleClass.FERMION
    if symbol in BOSON_ORDER:
        return ParticleClass.BOSON
    return ParticleClass.NEUTRINO


_PARTICLES = {
    sym: Particle(sym, DigitString(_PARTICLE_DIGITS[sym], 3), _kind_of(sym))
    for sym in REGISTRY_ORDER
}
_BY_TEXT = {p.digits.text: p for p in _PARTICLES.values()}
_SYMBOL_BY_TEXT = {text: p.symbol for text, p in _BY_TEXT.items()}
PARTICLE_TEXTS = frozenset(_BY_TEXT)


def registry() -> tuple[Particle, ...]:
    """The 24 particles in registry reading order."""
    return tuple(_PARTICLES[sym] for sym in REGISTRY_ORDER)


def lookup(symbol: str) -> Particle:
    try:
        return _PARTICLES[symbol]
    except KeyError:
        raise KeyError(f"unknown particle symbol {symbol!r}") from None


def identify(s: DigitString | str) -> Particle | None:
    """The particle whose digits equal ``s``, or None."""
    text = s.text if isinstance(s, DigitString) else s
    return _BY_TEXT.get(text)


def decay_chart() -> tuple[DecayRule, ...]:
    """One decay rule per particle, ordered as the registry."""
    return tuple(
        DecayRule(_PARTICLES[sym], tuple(_PARTICLES[p] for p in _DECAY_PRODUCTS[sym]))
        for sym in REGISTRY_ORDER
    )


def derive_decay_chart() -> tuple[DecayRule, ...]:
    """Recompute the chart from each particle's entry in the base-3 piece
    memo, ``splitting._children``: its step, cut at every split.

    Acts as the oracle for :func:`decay_chart`: every piece of each
    particle's step must identify as a registry particle, and the derived
    rules must match the hardcoded ones exactly.  The memo is what
    ``k_value`` and base-3 growth read, so this checks the very entries
    they use.
    """
    from .splitting import _children  # deferred: splitting imports this module

    rules = []
    for sym in REGISTRY_ORDER:
        products = []
        for text in _children[_PARTICLE_DIGITS[sym]]:
            if text not in _BY_TEXT:
                raise AssertionError(f"decay of {sym} produced unidentified segment {text!r}")
            products.append(_BY_TEXT[text])
        rules.append(DecayRule(_PARTICLES[sym], tuple(products)))
    return tuple(rules)


# ---------------------------------------------------------------------------
# Particle multisets
# ---------------------------------------------------------------------------

def _registry_sorted(symbols: Collection[str]) -> list[str]:
    """The registry symbols in ``symbols``, in registry order."""
    return [sym for sym in REGISTRY_ORDER if sym in symbols]


def multiset(counts: Mapping[str, int] | Iterable[str]) -> dict[str, int]:
    """Normalize symbol counts into a plain dict, validating symbols."""
    tally = Counter(counts) if not isinstance(counts, Mapping) else Counter(dict(counts))
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
    couple of hundred steps.
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


def total_digit_length(ms: Mapping[str, int]) -> int:
    """Total number of digits carried by a particle multiset."""
    return sum(len(_PARTICLES[sym].digits) * count for sym, count in multiset(ms).items())


# ---------------------------------------------------------------------------
# JSON export
# ---------------------------------------------------------------------------

def registry_json() -> list[dict]:
    """Registry and chart as plain data: symbol, digits, class, products."""
    return [
        {
            "symbol": sym,
            "digits": _PARTICLE_DIGITS[sym],
            "class": _PARTICLES[sym].kind.value,
            "products": list(_DECAY_PRODUCTS[sym]),
        }
        for sym in REGISTRY_ORDER
    ]
