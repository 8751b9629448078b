import json
import random
from itertools import combinations

import pytest

from audioactive import (
    DigitString,
    ParticleClass,
    decay_chart,
    decompose,
    derive_decay_chart,
    evolve,
    identify,
    limit_sets,
    lookandsay_step,
    lookup,
    registry,
    registry_json,
)
from audioactive import particles
from audioactive.particles import BOSON_ORDER, FERMION_ORDER, NEUTRINO_ORDER

import reference_values as ref


class TestRegistry:
    def test_exactly_24(self):
        parts = registry()
        assert len(parts) == 24
        assert len({p.digits.text for p in parts}) == 24

    def test_class_counts(self):
        parts = registry()
        by_kind = {k: [p for p in parts if p.kind is k] for k in ParticleClass}
        assert len(by_kind[ParticleClass.FERMION]) == 8
        assert len(by_kind[ParticleClass.BOSON]) == 13
        assert len(by_kind[ParticleClass.NEUTRINO]) == 3

    def test_table_data(self):
        for sym, (digits, kind) in ref.PARTICLE_TABLE.items():
            p = lookup(sym)
            assert p.digits.text == digits
            assert p.kind.value == kind

    @pytest.mark.parametrize("sym,digits", [("C", "11222110"), ("St", "222112"), ("Ne", "22")])
    def test_lookup_examples(self, sym, digits):
        assert lookup(sym).digits.text == digits

    def test_lookup_unknown(self):
        with pytest.raises(KeyError):
            lookup("X")

    def test_identify(self):
        assert identify(DigitString("10")).symbol == "E"
        assert identify(DigitString("1")) is None
        assert identify(DigitString("")) is None

    def test_every_particle_is_irreducible(self):
        from audioactive import split_points

        for p in registry():
            # the raw cut scan, not decompose, which short-circuits on particles
            assert split_points(p.digits) == [], p.symbol
            assert decompose(p.digits).segments == (p.digits,)


class TestDecayChart:
    def test_rules_match_reference(self):
        for rule in decay_chart():
            assert tuple(p.symbol for p in rule.products) == ref.DECAY_CHART[rule.parent.symbol]

    def test_derived_equals_hardcoded(self):
        assert derive_decay_chart() == decay_chart()

    @pytest.mark.parametrize(
        "sym,products",
        [("C", ("D", "B")), ("Wb", ("H", "Zb")), ("Ne", ("Ne",)), ("St", ("E", "Sb"))],
    )
    def test_examples(self, sym, products):
        rule = next(r for r in decay_chart() if r.parent.symbol == sym)
        assert tuple(p.symbol for p in rule.products) == products

    def test_fermions_produce_only_fermions(self):
        for rule in decay_chart():
            if rule.parent.kind is ParticleClass.FERMION:
                assert all(p.kind is ParticleClass.FERMION for p in rule.products)

    def test_rule_consistent_with_step(self):
        for rule in decay_chart():
            child = lookandsay_step(rule.parent.digits)
            assert child.text == "".join(p.digits.text for p in rule.products)

    def test_one_product_chains_end_at_two_products_or_a_neutrino(self):
        # The step of a compound never loses particles, so on a cycle every
        # particle has one product; following one-product entries must
        # then reach a neutrino's self-loop or leave the cycle.
        products = {r.parent.symbol: tuple(p.symbol for p in r.products) for r in decay_chart()}
        two = {sym for sym, ps in products.items() if len(ps) == 2}
        assert all(len(ps) == 1 for sym, ps in products.items() if sym not in two)
        for sym in products:
            chain = [sym]
            while chain[-1] not in two and products[chain[-1]][0] not in chain:
                chain.append(products[chain[-1]][0])
            if sym in NEUTRINO_ORDER:
                assert chain == [sym] and products[sym] == (sym,)
            else:
                assert chain[-1] in two, chain

    def test_chart_derivation_examples(self):
        for sym, expected in (("Sm", ("E", "Su")), ("T", ("E", "B")), ("M", ("E", "U"))):
            dec = decompose(lookandsay_step(lookup(sym).digits))
            assert tuple(identify(seg).symbol for seg in dec.segments) == expected


class TestEvolve:
    def test_single_step(self):
        assert evolve({"E": 1}, 1) == {"M": 1}

    def test_two_steps_from_charm(self):
        assert evolve({"C": 1}, 2) == {"S": 1, "T": 1}

    def test_neutrinos_fixed(self):
        ms = {"Ne": 1, "Nm": 2}
        for n in (0, 1, 5, 40):
            assert evolve(ms, n) == ms

    def test_neutrino_conservation_mixed(self):
        ms = {"E": 3, "Ne": 2, "Nt": 1, "Ph": 4}
        for n in (1, 7, 23):
            out = evolve(ms, n)
            assert out.get("Ne", 0) == 2
            assert out.get("Nt", 0) == 1
            assert out.get("Nm", 0) == 0

    def test_counts_exceed_64_bits(self):
        out = evolve({"E": 1}, 500)
        assert sum(out.values()) > 2**64

    def test_fermion_closure(self):
        out = evolve({sym: 1 for sym in FERMION_ORDER}, 25)
        assert set(out) <= set(FERMION_ORDER)

    def test_length_conservation_one_step(self):
        ms = {"E": 2, "C": 1, "Zb": 3, "Ne": 1}
        stepped_lengths = sum(
            len(lookandsay_step(lookup(sym).digits)) * count for sym, count in ms.items()
        )
        evolved_lengths = sum(
            len(lookup(sym).digits) * count for sym, count in evolve(ms, 1).items()
        )
        assert evolved_lengths == stepped_lengths

    def test_boson_count_linear_bound(self):
        bosons = set(BOSON_ORDER)
        for seed in BOSON_ORDER:
            ms = {seed: 1}
            for n in range(201):
                count = sum(c for sym, c in ms.items() if sym in bosons)
                assert count <= n / 2 + 6, (seed, n, count)
                ms = evolve(ms, 1)

    def test_fermion_saturation_at_14(self):
        for seed in FERMION_ORDER:
            out = evolve({seed: 1}, 14)
            assert all(out.get(sym, 0) > 0 for sym in FERMION_ORDER), seed

    def test_rejects_unknown_symbol(self):
        with pytest.raises(KeyError):
            evolve({"Q": 1}, 1)

    def test_rejects_negative_counts_and_steps(self):
        with pytest.raises(ValueError, match="negative count for E"):
            evolve({"E": -1}, 1)
        with pytest.raises(ValueError, match="step count must be non-negative"):
            evolve({"E": 1}, -1)

    def test_matches_a_chart_loop(self):
        # Against a loop over the public chart, on seeded random multisets
        # and every step count 0-40; the items must also come in registry
        # order, as multisets do.
        products = {r.parent.symbol: [p.symbol for p in r.products] for r in decay_chart()}
        symbols = [p.symbol for p in registry()]
        rng = random.Random(29)
        for _ in range(40):
            ms = {sym: rng.randint(0, 5) for sym in rng.sample(symbols, rng.randint(0, 24))}
            state = {sym: ms[sym] for sym in symbols if ms.get(sym)}
            for n in range(41):
                assert list(evolve(ms, n).items()) == list(state.items()), (ms, n)
                nxt = dict.fromkeys(symbols, 0)
                for sym, count in state.items():
                    for product in products[sym]:
                        nxt[product] += count
                state = {sym: count for sym, count in nxt.items() if count}


class TestLimitSets:
    def test_single_fermion_saturates(self):
        limsup, liminf = limit_sets({"E": 1})
        assert limsup == liminf == frozenset(FERMION_ORDER)

    def test_neutrino(self):
        assert limit_sets({"Ne": 1}) == (frozenset({"Ne"}), frozenset({"Ne"}))

    def test_sbottom_window(self):
        limsup, _ = limit_sets({"Sb": 1})
        assert {"Sb", "St"} <= limsup
        assert set(FERMION_ORDER) <= limsup

    def test_boson_loop_recurs_forever(self):
        # a single photon walks the 4-cycle, so the loop bosons alternate:
        # they all recur (limsup) but are never simultaneous (liminf)
        limsup, liminf = limit_sets({"Ph": 1})
        assert {"Ph", "Gl", "Wb", "Zb", "H"} <= limsup
        assert not ({"Ph", "Gl", "Wb", "Zb"} & liminf)
        assert set(FERMION_ORDER) <= liminf

    def test_matches_evolved_counts(self):
        def by_evolve(ms):
            state = evolve(ms, 32)
            supports = []
            for _ in range(32):
                state = evolve(state, 1)
                supports.append({sym for sym, count in state.items() if count})
            return frozenset(set.union(*supports)), frozenset(set.intersection(*supports))

        cases = [{p.symbol: 1} for p in registry()]
        cases += [{"Ph": 2, "Ne": 1}, {"Gl": 1, "Zb": 3}, {"E": 5, "Sb": 1, "H": 2}, {}]
        for ms in cases:
            assert limit_sets(ms) == by_evolve(ms), ms

    def test_support_orbits_settle_by_14_with_period_dividing_4(self):
        # The support map is the union of the per-particle maps, so every
        # multiset's support is periodic from step 14 with a period
        # dividing 4: a 32-step warmup and 32-step window see whole cycles.
        preperiods = []
        for p in registry():
            state = {p.symbol: 1}
            first_seen: dict[frozenset, int] = {}
            n = 0
            while (support := frozenset(state)) not in first_seen:
                first_seen[support] = n
                state = evolve(state, 1)
                n += 1
            preperiod = first_seen[support]
            assert preperiod <= 14, p.symbol
            assert 4 % (n - preperiod) == 0, p.symbol
            preperiods.append(preperiod)
        assert max(preperiods) == 14

    def test_memo_answers_do_not_depend_on_call_order(self):
        # Against a fresh walk of the support orbit: every singleton, every
        # pair and a random sample, through ``_limits`` and then through
        # ``limit_sets`` in two orders.
        symbols = [p.symbol for p in registry()]
        rng = random.Random(26)
        supports = [frozenset({a}) for a in symbols]
        supports += [frozenset(pair) for pair in combinations(symbols, 2)]
        supports += [frozenset(rng.sample(symbols, rng.randint(3, 24))) for _ in range(200)]
        assert len(supports) == 24 + 276 + 200
        want = [orbit_limits(s) for s in supports]
        for support, limits in zip(supports, want):
            assert particles._limits(support) == limits, support
        for order in (supports, supports[::-1]):
            got = {s: limit_sets(dict.fromkeys(s, 1)) for s in order}
            assert [got[s] for s in supports] == want
        assert limit_sets({}) == (frozenset(), frozenset())

    def test_phase_table_matches_the_support_walk(self):
        # Every support of at most 3 particles, then 20,000 seeded random
        # supports.
        symbols = [p.symbol for p in registry()]
        supports = [frozenset(c) for size in range(4) for c in combinations(symbols, size)]
        assert len(supports) == 2325
        rng = random.Random(29)
        supports += [frozenset(rng.sample(symbols, rng.randint(4, 24))) for _ in range(20_000)]
        for support in supports:
            assert particles._limits(support) == orbit_limits(support), support


CHART_PRODUCTS = {r.parent.symbol: {p.symbol for p in r.products} for r in decay_chart()}


def orbit_limits(support):
    """(limsup, liminf) of ``support`` by walking its orbit, read from the
    public chart, until a support repeats: the union and intersection over
    the cycle."""
    orbit = [support]
    while (nxt := frozenset().union(*(CHART_PRODUCTS[s] for s in orbit[-1]))) not in orbit:
        orbit.append(nxt)
    cycle = orbit[orbit.index(nxt):]
    return frozenset.union(*cycle), frozenset.intersection(*cycle)


class TestJsonExport:
    def test_schema(self):
        data = registry_json()
        assert len(data) == 24
        for entry in data:
            assert set(entry) == {"symbol", "digits", "class", "products"}
        round_trip = json.loads(json.dumps(data))
        assert round_trip == data

    def test_values(self):
        by_symbol = {e["symbol"]: e for e in registry_json()}
        assert by_symbol["C"]["digits"] == "11222110"
        assert by_symbol["C"]["class"] == "fermion"
        assert by_symbol["C"]["products"] == ["D", "B"]
        assert by_symbol["Ne"]["products"] == ["Ne"]

    def test_order_is_registry_order(self):
        data = registry_json()
        assert [e["symbol"] for e in data] == list(FERMION_ORDER + BOSON_ORDER + NEUTRINO_ORDER)
