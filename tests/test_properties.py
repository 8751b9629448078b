"""Randomized and exhaustive dynamic property suites.

These are the heavy invariants: run-bound contraction for huge runs,
run-bound persistence, the split/iteration homomorphism on a thousand
random run-bounded strings, the exhaustive leading-digit sweep for the
forever-leading-2-free characterization, and saturation of the fermion
population.  Seeds are fixed so failures reproduce.
"""

import functools
import math
import random

from audioactive import (
    DigitString,
    is_ancient,
    is_flf,
    is_run_bounded,
    iterate,
    iterate_tokens,
    lookandsay_step,
    split_points,
    step_of_runs,
    TokenString,
)
from audioactive.core import _step_text
from audioactive.particles import FERMION_ORDER, NEUTRINO_ORDER
from audioactive import evolve, lookup

from oracles import all_ancient_texts, leading_digits


def ds(text):
    return DigitString(text, 3)


def random_run_list(rng, max_runs=10, max_run=10**6):
    """Random base-3 run list with log-uniform run lengths up to max_run."""
    n_runs = rng.randint(1, max_runs)
    out = []
    last = None
    for _ in range(n_runs):
        d = rng.choice([x for x in (0, 1, 2) if x != last])
        length = int(math.exp(rng.uniform(0.0, math.log(max_run))))
        out.append((d, max(1, length)))
        last = d
    return out


def random_ancient_text(rng, max_len=16):
    length = rng.randint(1, max_len)
    chunks = []
    total = 0
    last = ""
    while total < length:
        d = rng.choice([c for c in "012" if c != last])
        cap = 1 if d == "0" else 3
        n = rng.randint(1, min(cap, length - total))
        chunks.append(d * n)
        total += n
        last = d
    return "".join(chunks)


def max_runs_by_digit(text):
    caps = {"0": 0, "1": 0, "2": 0}
    i = 0
    while i < len(text):
        j = i
        while j < len(text) and text[j] == text[i]:
            j += 1
        caps[text[i]] = max(caps[text[i]], j - i)
        i = j
    return caps


def zero_pieces(text):
    pieces = []
    prev = 0
    for p in range(1, len(text)):
        if text[p - 1] == "0" and text[p] != "0":
            pieces.append(text[prev:p])
            prev = p
    pieces.append(text[prev:])
    return pieces


def iterate_distinct_pieces(text, steps):
    """Distinct zero-separated pieces of each iterate (no run crosses a cut)."""
    pieces = set(zero_pieces(text))
    yield pieces
    children = {}
    for _ in range(steps):
        nxt = set()
        for piece in pieces:
            subs = children.get(piece)
            if subs is None:
                subs = children[piece] = zero_pieces(_step_text(piece, 3))
            nxt.update(subs)
        pieces = nxt
        yield pieces


# The helpers below memoize pure computations for the session, so that
# test_criterion_10_property_suites and the standalone suites share one run
# of each while checking the same inputs with the same assertions.


@functools.cache
def distinct_pieces(text, steps):
    """``iterate_distinct_pieces`` of ``text``, computed once per session."""
    return tuple(map(frozenset, iterate_distinct_pieces(text, steps)))


@functools.cache
def piece_caps(piece):
    """``max_runs_by_digit`` of one piece, computed once per session."""
    return max_runs_by_digit(piece)


@functools.cache
def leads_to_horizon_50(text):
    """Leading digits of iterates 0..50 of ``text``, computed once per session."""
    return "".join(leading_digits(text, 50))


class TestRunBoundContraction:
    """Run lengths contract fast, then stay inside the mature bounds."""

    def test_thousand_random_strings(self):
        rng = random.Random(0xA0DA)
        for case in range(1000):
            run_list = random_run_list(rng)
            m = max(n for _, n in run_list)
            child = step_of_runs(run_list, 3)
            caps = max_runs_by_digit(child.text)
            child_max = max(caps.values())
            if m > 7:
                bound = 3 + 2 * math.log(m, 3)
                assert child_max <= bound < m, (case, m, child_max)
            # by the third iterate every run has length at most 7
            third = _step_text(_step_text(child.text, 3), 3)
            assert max(max_runs_by_digit(third).values()) <= 7, case
            # and two steps after that the mature run bounds hold for good
            for step_no, pieces in enumerate(distinct_pieces(third, 22)):
                if step_no < 2:
                    continue
                for piece in pieces:
                    caps = piece_caps(piece)
                    assert caps["0"] <= 1 and caps["1"] <= 4 and caps["2"] <= 3, (
                        case,
                        step_no,
                        piece,
                    )

    def test_persistence_on_direct_strings(self):
        rng = random.Random(0xB0B)
        for _ in range(100):
            text = "".join(rng.choice("012") for _ in range(rng.randint(1, 60)))
            s = ds(text)
            for n, it in enumerate(iterate(s, 25)):
                if n >= 5:
                    assert is_run_bounded(it), (text, n)


class TestAncientPersistence:
    def test_essential_ancient_strings_stay_ancient(self):
        rng = random.Random(0xCAFE)
        for _ in range(300):
            text = random_ancient_text(rng)
            for step_no, pieces in enumerate(iterate_distinct_pieces(text, 20)):
                for piece in pieces:
                    caps = max_runs_by_digit(piece)
                    assert caps["0"] <= 1 and caps["1"] <= 3 and caps["2"] <= 3, (
                        text,
                        step_no,
                        piece,
                    )

    def test_is_ancient_along_iterates(self):
        rng = random.Random(0xF00D)
        for _ in range(60):
            s = ds(random_ancient_text(rng, max_len=12))
            for it in iterate(s, 20):
                assert is_ancient(it), s.text


@functools.cache
def twenty_iterates(text):
    """Iterates 1..20 of ``text``, stepped once per distinct text per session."""
    out = []
    for _ in range(20):
        text = _step_text(text, 3)
        out.append(text)
    return tuple(out)


class TestHomomorphism:
    """Valid split points commute with iteration (criterion: 1000 x 20)."""

    def test_thousand_random_ancient_strings(self):
        rng = random.Random(0x5EED)
        checked_cuts = 0
        for _ in range(1000):
            text = random_ancient_text(rng)
            for p in split_points(ds(text)):
                checked_cuts += 1
                steps = zip(
                    twenty_iterates(text), twenty_iterates(text[:p]), twenty_iterates(text[p:])
                )
                for whole, left, right in steps:
                    assert whole == left + right, (text, p)
        assert checked_cuts > 400  # the sample genuinely exercises the cut rules


class TestLeadingTwoFreedom:
    """is_flf against the true leading digits, exhaustively to length 10."""

    def test_exhaustive_sweep_horizon_50(self):
        for text in all_ancient_texts(10):
            leads = leads_to_horizon_50(text)
            hits_two = "2" in leads
            assert is_flf(ds(text)) == (not hits_two), text

    def test_oracle_self_check(self):
        # the truncated-prefix oracle must agree with direct iteration
        rng = random.Random(0xFACE)
        for _ in range(120):
            text = random_ancient_text(rng, max_len=8)
            direct = [it.text[0] for it in iterate(ds(text), 14)]
            assert leading_digits(text, 14)[: len(direct)] == direct, text


class TestNeutrinoFixedness:
    def test_base3_fixed_strings(self):
        for sym in NEUTRINO_ORDER:
            digits = lookup(sym).digits
            assert lookandsay_step(digits) == digits

    def test_base2_fixed_string(self):
        s = DigitString("111", 2)
        assert lookandsay_step(s) == s


class TestTokenDigitEquivalence:
    """Token mode and digit mode agree while runs stay below the base."""

    def test_thirty_iterations_from_one(self):
        for base in range(4, 11):
            digit_iterates = iterate(DigitString("1", base), 30)
            token_iterates = iterate_tokens(TokenString((1,)), 30)
            for d_it, t_it in zip(digit_iterates, token_iterates):
                assert all(tok < base for tok in t_it.tokens), base
                rendered = "".join(str(tok) for tok in t_it.tokens)
                assert rendered == d_it.text, base


class TestFermionSaturation:
    def test_every_single_fermion_fills_the_population(self):
        for seed in FERMION_ORDER:
            out = evolve({seed: 1}, 14)
            missing = [sym for sym in FERMION_ORDER if out.get(sym, 0) <= 0]
            assert not missing, (seed, missing)
