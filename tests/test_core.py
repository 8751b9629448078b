import ast
import copy
import importlib.util
import pickle
import random
import re
import sys
import types
from itertools import islice, product
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

import audioactive
from audioactive import (
    CosmologyReport,
    CountDescriptor,
    DecayRule,
    DecayTable,
    Decomposition,
    DigitString,
    FrequencyVector,
    GrowthEstimate,
    InvalidDigitError,
    KValueReport,
    Particle,
    ParticleClass,
    SearchBudgetError,
    TokenString,
    TransitionMatrix,
    fixed_point_search,
    is_ancient,
    is_run_bounded,
    iterate,
    iterate_tokens,
    length_sequence,
    lookandsay_step,
    lookup,
    runs,
    step_of_runs,
    token_step,
)
from audioactive import _arrays, automata, core, cosmology, spectral, splitting
from audioactive._arrays import _array_step, _array_to_text, _text_to_array
from audioactive.core import _step_text
from audioactive.cosmology import DEFAULT_CAP

from orbit_oracle import orbit_cutter
from oracles import (
    ANCIENT_CAPS,
    RUN_BOUNDED_CAPS,
    all_base3_texts,
    brute_force_fixed,
    reference_step,
    within_caps,
)


def ds(text, base=3):
    return DigitString(text, base)


digit_texts = st.integers(2, 10).flatmap(
    lambda b: st.tuples(
        st.just(b), st.text(alphabet="0123456789"[:b], max_size=40)
    )
)


class TestDigitString:
    MESSAGE = r"^digit '3' at position 3 is not valid in base 3$"

    def test_round_trip(self):
        s = DigitString("1012211", 3)
        assert s.text == "1012211"
        assert DigitString(s.text, 3) == s

    def test_digits_and_len(self):
        assert len(ds("110")) == 3

    def test_rejects_digit_out_of_base(self):
        with pytest.raises(InvalidDigitError, match=self.MESSAGE):
            DigitString("120301", 3)

    @pytest.mark.parametrize(
        "text,pos",
        [("3120", 0), ("10331", 2), ("1203", 3), ("12٣", 2)],
        ids=["first", "middle", "last", "non-ascii"],
    )
    def test_reports_the_first_bad_position(self, text, pos):
        message = rf"^digit {text[pos]!r} at position {pos} is not valid in base 3$"
        with pytest.raises(InvalidDigitError, match=message):
            DigitString(text, 3)

    @pytest.mark.parametrize("base", range(2, 11))
    def test_first_bad_digit_in_every_base(self, base):
        # Valid text is checked in one pass and only invalid text is
        # searched for its first bad digit: the same message and position for
        # ASCII and non-ASCII characters, after a short or a 300,000-digit
        # valid prefix, and valid text of any length is accepted.
        valid = "0123456789"[:base]
        bad = ["a", "١", "-", " ", "\x00", "٣"] + (["0123456789"[base]] if base < 10 else [])
        assert DigitString("", base).text == ""
        for n in (0, 5, 300_000):
            prefix = (valid * (n // base + 1))[:n]
            assert DigitString(prefix, base).text == prefix
            for c in bad:
                message = rf"^digit {re.escape(repr(c))} at position {n} is not valid in base {base}$"
                for text in (prefix + c, prefix + c + valid, prefix + c + "a"):
                    with pytest.raises(InvalidDigitError, match=message):
                        DigitString(text, base)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            DigitString("0", 1)
        with pytest.raises(ValueError):
            DigitString("0", 11)

    @given(digit_texts)
    def test_parse_render_round_trip(self, pair):
        base, text = pair
        s = DigitString(text, base)
        assert DigitString(s.text, base) == s


class TestRuns:
    def test_simple(self):
        assert runs(ds("110")) == [(1, 2), (0, 1)]

    def test_empty(self):
        assert runs(ds("")) == []

    def test_longer(self):
        assert runs(ds("1110112221")) == [(1, 3), (0, 1), (1, 2), (2, 3), (1, 1)]

    def test_max_run_length(self):
        def longest(text):
            return max((length for _, length in runs(ds(text))), default=0)

        assert longest("1112221112221110") == 3
        assert longest("11110") == 4
        assert longest("") == 0

    @given(digit_texts)
    def test_reconstruction(self, pair):
        base, text = pair
        s = DigitString(text, base)
        rebuilt = "".join(str(d) * n for d, n in runs(s))
        assert rebuilt == text

    @given(digit_texts)
    def test_adjacent_runs_differ(self, pair):
        base, text = pair
        rs = runs(DigitString(text, base))
        assert all(a[0] != b[0] for a, b in zip(rs, rs[1:]))


class TestStep:
    @pytest.mark.parametrize(
        "text,base,expected",
        [
            ("111221", 3, "1012211"),
            ("22", 3, "22"),
            ("11110", 3, "11110"),
            ("11112", 3, "11112"),
            ("111", 2, "111"),
            ("5555555555", 10, "105"),
            ("0", 3, "10"),
            ("", 3, ""),
        ],
    )
    def test_examples(self, text, base, expected):
        assert lookandsay_step(ds(text, base)).text == expected

    def test_decimal_concatenation_sequence(self):
        seq = iterate(ds("105", 10), 2)
        assert [s.text for s in seq] == ["105", "111015", "31101115"]

    def test_decimal_from_description_string(self):
        seq = iterate(ds("121355", 10), 3)
        assert [s.text for s in seq] == [
            "121355",
            "1112111325",
            "311231131215",
            "13211213211311121115",
        ]

    @given(digit_texts)
    def test_matches_reference(self, pair):
        base, text = pair
        got = lookandsay_step(DigitString(text, base))
        want = DigitString(reference_step(text, base), base)
        assert got == want and hash(got) == hash(want)

    def test_array_path_matches_reference(self):
        # both array paths: runs all shorter than the base (pairs), and runs
        # whose numerals have 2..17 digits, including 512/513 and ~10**5
        rng = random.Random(401)
        for base in range(2, 11):
            alphabet = "0123456789"[:base]

            def noise(n):
                return "".join(rng.choice(alphabet) for _ in range(n))

            texts = ["", noise(9000), (alphabet[:2] * 50)[: rng.randint(1, 100)]]
            texts.append("".join(rng.choice(alphabet) * (base - 1) for _ in range(200)))
            lengths = (1, 2, base - 1, base, base + 1, base**2 - 1, base**2, base**3, 511, 512, 513)
            for n in lengths + tuple(rng.randint(1, 100_000) for _ in range(3)):
                d = rng.choice(alphabet)
                texts.append(noise(rng.randint(0, 40)) + d * n + noise(rng.randint(0, 40)))
            texts.append("".join(rng.choice(alphabet) * rng.choice(lengths) for _ in range(60)))
            texts.append(alphabet[-1] * (10**5 + rng.randrange(1000)))
            for text in texts:
                got = _array_to_text(_array_step(_text_to_array(text), base))
                assert got == reference_step(text, base), (base, len(text))

    def test_text_paths_consistent_at_threshold(self, monkeypatch):
        # numpy steps a text only from 4096 digits and 64 runs on
        array_steps = []
        array_step = _arrays._array_step

        def spy(a, base):
            array_steps.append(a.size)
            return array_step(a, base)

        monkeypatch.setattr(_arrays, "_array_step", spy)
        rng = random.Random(402)
        dense = "".join(rng.choice("012") for _ in range(5000))
        few = "".join("012"[k % 3] * 70 for k in range(63))  # 4410 digits, 63 runs
        cases = [
            (dense, True),
            (dense[:4095], False),
            (few, False),
            (few + "0", True),
            ("1" * 100_000 + "0" + "2" * 3, False),
        ]
        for text, arrays in cases:
            array_steps.clear()
            got = _step_text(text, 3)
            assert got == reference_step(text, 3), len(text)
            assert array_steps == ([len(text)] if arrays else []), len(text)
        via_arrays = _step_text(dense, 3)
        monkeypatch.setattr(core, "_ARRAY_DIGITS", float("inf"))  # the Python loop alone
        array_steps.clear()
        assert _step_text(dense, 3) == via_arrays and array_steps == []


class TestStepOfRuns:
    def test_long_runs_never_materialized(self):
        child = step_of_runs([(1, 10**6), (0, 1)], 3)
        n = 10**6
        digits = ""
        while n:
            digits = str(n % 3) + digits
            n //= 3
        assert child.text == digits + "1" + "10"

    def test_agrees_with_step_on_materialized_string(self):
        assert step_of_runs([(2, 3), (1, 2)], 3).text == reference_step("22211", 3)

    @given(
        st.integers(2, 10).flatmap(
            lambda b: st.tuples(
                st.just(b),
                st.lists(st.tuples(st.integers(0, b - 1), st.integers(1, 30)), max_size=12),
            )
        )
    )
    def test_matches_reference(self, pair):
        base, pairs = pair
        text = "".join(str(d) * n for d, n in pairs)
        got = step_of_runs(pairs, base)
        want = DigitString(reference_step(text, base), base)
        assert got == want and hash(got) == hash(want)

    def test_composes_with_runs(self):
        # runs gives the pairs step_of_runs takes: every string of up to 6
        # digits in bases 2-4, and random strings in bases 5-10
        rng = random.Random(39)
        texts = [(b, "".join(t)) for b in (2, 3, 4) for n in range(7) for t in product("0123"[:b], repeat=n)]
        for b in range(5, 11):
            texts += [
                (b, "".join(rng.choice("0123456789"[:b]) for _ in range(rng.randint(0, 40))))
                for _ in range(200)
            ]
        for b, text in texts:
            s = DigitString(text, b)
            assert step_of_runs(runs(s), b) == lookandsay_step(s), (b, text)

    def test_merges_adjacent_equal_digits(self):
        assert step_of_runs([(1, 2), (1, 1)], 3).text == _step_text("111", 3)

    def test_rejects_bad_digit(self):
        with pytest.raises(InvalidDigitError):
            step_of_runs([(3, 2)], 3)


class TestTokenMode:
    def test_ten_fives(self):
        assert token_step(TokenString((5,) * 10)) == TokenString((10, 5))

    def test_mixed(self):
        assert token_step(TokenString((1, 10, 1, 5))) == TokenString((1, 1, 1, 10, 1, 1, 1, 5))

    def test_empty(self):
        assert token_step(TokenString(())) == TokenString(())

    def test_parse_render(self):
        t = TokenString.parse("1,10,1,5")
        assert t.tokens == (1, 10, 1, 5)
        assert t.render() == "1,10,1,5"

    def test_iterate_tokens(self):
        seq = iterate_tokens(TokenString((5,) * 10), 3)
        assert [t.tokens for t in seq] == [
            (5,) * 10,
            (10, 5),
            (1, 10, 1, 5),
            (1, 1, 1, 10, 1, 1, 1, 5),
        ]


class TestIterate:
    def test_decay_chain_seed_one(self):
        seq = iterate(ds("1"), 4)
        assert [s.text for s in seq] == ["1", "11", "21", "1211", "111221"]

    def test_fixed_string(self):
        seq = iterate(ds("22"), 5)
        assert [s.text for s in seq] == ["22"] * 6

    def test_binary_chain(self):
        seq = iterate(ds("1", 2), 3)
        assert [s.text for s in seq] == ["1", "11", "101", "111011"]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            iterate(ds("1"), -1)


class TestRunBounds:
    @pytest.mark.parametrize(
        "text,expected",
        [("11110", True), ("2222", False), ("100", False), ("", True)],
    )
    def test_run_bounded(self, text, expected):
        assert is_run_bounded(ds(text)) is expected

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("11112", False),
            ("1121122", True),
            ("1112221112221110", True),
            ("22", True),
        ],
    )
    def test_ancient(self, text, expected):
        assert is_ancient(ds(text)) is expected

    def test_base3_only(self):
        with pytest.raises(ValueError):
            is_ancient(ds("11", 2))

    def test_exhaustive_against_oracle(self):
        for text in all_base3_texts(10):
            assert is_run_bounded(ds(text)) is within_caps(text, RUN_BOUNDED_CAPS), text
            assert is_ancient(ds(text)) is within_caps(text, ANCIENT_CAPS), text


class TestFixedPoints:
    def test_base3_primitives(self):
        assert [s.text for s in fixed_point_search(3, 16)] == ["11110", "11112", "22"]

    def test_base2(self):
        assert [s.text for s in fixed_point_search(2, 8)] == ["111"]

    def test_length_one_has_none(self):
        assert fixed_point_search(3, 1) == []

    @pytest.mark.parametrize("base,max_len", [(2, 8), (3, 8), (4, 6)])
    def test_full_set_matches_brute_force(self, base, max_len):
        got = [s.text for s in fixed_point_search(base, max_len, primitive_only=False)]
        assert got == brute_force_fixed(base, max_len)

    def test_fixed_points_are_the_neutrino_compounds(self):
        # Every fixed string of at most 20 digits is a concatenation of the
        # neutrinos 22, 11110 and 11112 whose every junction splits.
        follow = automata.junction_splits()
        neutrinos = ("22", "11110", "11112")
        compounds, level = [], [(n, n) for n in neutrinos]
        while level:  # (compound, its last neutrino), one more neutrino a level
            compounds += [text for text, _ in level]
            level = [
                (text + n, n)
                for text, last in level
                for n in neutrinos
                if n in follow[last] and len(text) + len(n) <= 20
            ]
        fixed = [s.text for s in fixed_point_search(3, 20, primitive_only=False)]
        assert len(fixed) == 87
        assert sorted(fixed) == sorted(compounds)

    def test_composites_are_fixed(self):
        for s in fixed_point_search(3, 12, primitive_only=False):
            assert lookandsay_step(s).text == s.text

    def test_budget(self, monkeypatch):
        # the budget counts visited prefixes; max_len 16 visits 101
        monkeypatch.setattr(core, "_SEARCH_BUDGET", 101)
        assert len(fixed_point_search(3, 16)) == 3
        monkeypatch.setattr(core, "_SEARCH_BUDGET", 100)
        with pytest.raises(SearchBudgetError):
            fixed_point_search(3, 16)

    def test_default_budget_admits_long_searches(self):
        assert [s.text for s in fixed_point_search(3, 32)] == ["11110", "11112", "22"]
        assert [s.text for s in fixed_point_search(10, 12)] == ["22"]


class TestSingleStepHomomorphism:
    @given(digit_texts, st.data())
    def test_non_merging_concatenation_commutes(self, pair, data):
        base, left = pair
        right = data.draw(st.text(alphabet="0123456789"[:base], min_size=1, max_size=20))
        assume(left and left[-1] != right[0])
        combined = lookandsay_step(DigitString(left + right, base))
        split = lookandsay_step(DigitString(left, base)).text + lookandsay_step(
            DigitString(right, base)
        ).text
        assert combined.text == split


class TestLengthSequence:
    def test_matches_direct_iteration(self):
        for base in (2, 3, 10):
            seq = iterate(ds("1", base), 12)
            assert length_sequence(ds("1", base), 12) == [len(s) for s in seq]

    def test_empty_seed(self):
        assert length_sequence(ds(""), 3) == [0, 0, 0, 0]
        assert length_sequence(ds("", 10), 3) == [0, 0, 0, 0]

    def test_matches_array_steps_in_every_base(self):
        # the piece multiset against stepping whole arrays
        for base, seed in _length_seeds():
            want = _array_lengths(seed, base)
            got = length_sequence(ds(seed, base), len(want) - 1)
            assert got == want, (base, seed[:40])

    def test_base3_cuts_with_splitting_alone(self, monkeypatch):
        # every base asks splitting for its cutter; base 3's is splitting's
        # own _cut, stepped through its memo, and base 2's the cut after 0s
        assert splitting._cutter(3) is splitting._cut
        assert splitting._cutter(2) is splitting._zero_pieces
        asked = []
        real = splitting._cutter
        monkeypatch.setattr(splitting, "_cutter", lambda base: asked.append(base) or real(base))
        seeds = ["1", "12000", "2", "1111011112", "20221110"]
        want = [_array_lengths(seed, 3, steps=40) for seed in seeds]
        splitting._children.clear()
        for seed, lengths in zip(seeds, want):
            assert length_sequence(ds(seed, 3), len(lengths) - 1) == lengths, seed
            est = spectral.empirical_growth(ds(seed, 3), len(lengths) - 1)
            assert est.lengths == tuple(lengths), seed
            assert set(splitting._cut(seed)) <= set(splitting._children[3]), seed
        assert length_sequence(ds("1", 2), 12) == [len(s) for s in iterate(ds("1", 2), 12)]
        assert set(asked) == {2, 3}

    def test_unproven_cuts_stay_uncut(self, monkeypatch):
        # a cutter that proves fewer cuts must not change the lengths: the
        # rule's cuts with the frozen table, without it (so bases 4-10 cut
        # every piece they meet, not only the transients), and cuts after 0s
        # alone in every base, base 3's memo included; each run after the
        # first patches in fresh memos, made as the real ones are
        cases = [
            (base, seed, _array_lengths(seed, base, stop=10_000))
            for base, seed in _length_seeds()
            if len(seed) < 100
        ]

        def assert_lengths():
            for base, seed, want in cases:
                assert length_sequence(ds(seed, base), len(want) - 1) == want, (base, seed)

        assert_lengths()
        monkeypatch.setattr(splitting, "_high_base_table", lambda: {})
        monkeypatch.setattr(splitting, "_children", splitting._Memo(splitting._base_children))
        assert_lengths()
        zeros = splitting._zero_pieces
        monkeypatch.setattr(splitting, "_cutter", lambda base: zeros)
        monkeypatch.setattr(splitting, "_children", splitting._Memo(splitting._base_children))
        assert_lengths()


def _array_lengths(seed, base, steps=60, stop=200_000):
    """Lengths of up to ``steps`` iterates of ``seed`` stepped as whole
    arrays, ending with the first iterate over ``stop`` digits."""
    a = _text_to_array(seed)
    lengths = [a.size]
    while len(lengths) <= steps and lengths[-1] <= stop:
        a = _array_step(a, base)
        lengths.append(a.size)
    return lengths


def _length_seeds():
    """(base, seed) in bases 2..10: the empty seed, 1, random seeds and a long run."""
    rng = random.Random(403)
    for base in range(2, 11):
        alphabet = "0123456789"[:base]
        yield base, ""
        yield base, "1"
        yield base, alphabet[-1] * 3 + "0" + alphabet[-1] * 20_000 + "1"
        for _ in range(4):
            yield base, "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 60)))


class TestOrbitCutter:
    """Every cut the orbit cutter and Conway's rule make in bases 4..10 is a
    split, checked by stepping."""

    CUTTERS = (orbit_cutter, splitting._cutter)

    @staticmethod
    def assert_splits(cut, text, base, steps=12):
        """Step the pieces apart and the text whole for ``steps`` steps.

        The concatenated iterates of the pieces equal the iterate of the
        whole only while no boundary merges (a merge shortens the whole), so
        this checks both sides of every cut at once.
        """
        pieces = cut(text)
        assert "".join(pieces) == text
        whole = text
        for _ in range(steps):
            whole = reference_step(whole, base)
            pieces = [reference_step(piece, base) for piece in pieces]
            assert "".join(pieces) == whole, (base, text[:40])
        return len(pieces) - 1

    def test_iterates_of_one(self):
        for cutter in self.CUTTERS:
            for base in range(4, 11):
                cut = cutter(base)
                for text in iterate(ds("1", base), 14)[1:]:
                    self.assert_splits(cut, text.text, base)
                assert len(cut(iterate(ds("1", base), 14)[-1].text)) > 5, base

    def test_random_seeds(self):
        for cutter in self.CUTTERS:
            rng = random.Random(404)
            cuts = 0
            for base in range(4, 11):
                cut = cutter(base)
                alphabet = "0123456789"[:base]
                for _ in range(40):
                    text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 24)))
                    cuts += self.assert_splits(cut, text, base)
            assert cuts > 1000  # the sample genuinely exercises the cuts

    def test_long_run(self):
        for cutter in self.CUTTERS:
            rng = random.Random(405)
            for base in range(4, 11):
                cut = cutter(base)
                alphabet = "0123456789"[:base]
                d = rng.choice(alphabet[1:])
                others = alphabet.replace(d, "")
                noise = "".join(rng.choice(others) for _ in range(30))
                text = noise + d * (10**5 + rng.randrange(1000)) + noise[::-1]
                assert self.assert_splits(cut, text, base) > 0, base

    def test_empty_and_single_runs(self):
        for cutter in self.CUTTERS:
            cut = cutter(10)
            assert cut("") == []
            assert cut("7") == ["7"]
            assert cut("0123") == ["0", "12", "3"]  # 3's iterates lead with 1 or 3
            assert cut("22") == ["22"]


def _held_pieces(seed, base, steps):
    """The pieces the engine holds at ``steps`` from ``seed``, without a table."""
    cut = splitting._cutter(base)
    children = splitting._Memo(lambda piece: cut(_step_text(piece, base)))
    counts = core._piece_counts(cut(seed), children)
    return set().union(*islice(counts, steps.start, steps.stop))


class TestHighBaseTable:
    """The frozen pieces of bases 4..10 and the pieces of their steps."""

    TABLE = splitting._high_base_table()

    def test_entries_are_the_cutters_pieces_in_every_base(self):
        for base in range(4, 11):
            cut = splitting._cutter(base)
            for piece, subs in self.TABLE.items():
                assert tuple(cut(_step_text(piece, base))) == subs, (base, piece)
                assert "".join(subs) == reference_step(piece, base), (base, piece)

    def test_keys_are_the_late_pieces_of_one_in_base_10(self):
        assert set(self.TABLE) == _held_pieces("1", 10, range(61, 81))
        assert len(self.TABLE) == 92
        assert {sub for subs in self.TABLE.values() for sub in subs} <= set(self.TABLE)

    def test_late_pieces_of_other_seeds_are_keys(self):
        rng = random.Random(406)
        for base in range(4, 11):
            alphabet = "0123456789"[:base]
            seeds = [*alphabet, "123", "31", "22"] + [
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8))) for _ in range(4)
            ]
            for seed in seeds:
                low = {p for p in _held_pieces(seed, base, range(51, 61)) if set(p) <= set("123")}
                assert low <= set(self.TABLE), (base, seed, low - set(self.TABLE))

    def test_six_held_runs_prove_the_same_cuts(self):
        # the entries are Conway's common elements: the orbit cutter with six
        # held runs splits none of them, and cuts each one's step as the rule
        for base in (4, 10):
            cut = orbit_cutter(base, held=6)
            assert {piece for piece in self.TABLE if cut(piece) != [piece]} == set()
            for piece, subs in self.TABLE.items():
                assert tuple(cut(_step_text(piece, base))) == subs, (base, piece)


def _eye(scale):
    return tuple(tuple(scale * (i == j) for j in range(8)) for i in range(8))


# (class, positional arguments built afresh per call, the defaults of the
#  fields they leave out, one field with a different value)
_VALUES = [
    (DigitString, lambda: ("1211",), {"base": 3}, ("text", "2")),
    (TokenString, lambda: ((1, 10),), {}, ("tokens", (1,))),
    (
        Particle,
        lambda: ("E", DigitString("10"), ParticleClass.FERMION),
        {},
        ("kind", ParticleClass.BOSON),
    ),
    (DecayRule, lambda: (lookup("U"), (lookup("D"),)), {}, ("products", ())),
    (Decomposition, lambda: (("1",), {"1": ("10",)}, ("12211",)), {}, ("tail", ())),
    (DecayTable, lambda: (((1, 2),), (1,), DEFAULT_CAP), {}, ("lengths", (2,))),
    (
        CosmologyReport,
        lambda: (DecayTable(((3,),), (1,), 0), True, 0, ()),
        {},
        ("failures", ("21221",)),
    ),
    (
        KValueReport,
        lambda: (
            DigitString("10"), 0, (("E", 1),), frozenset({"E"}), frozenset({"E"}), True, 1
        ),
        {},
        ("k", (1, 2)),
    ),
    (TransitionMatrix, lambda: (_eye(1),), {"order": spectral.MATRIX_ORDER}, ("entries", _eye(2))),
    (
        GrowthEstimate,
        lambda: ("1", 3, (1, 2, 2), (2.0, 1.0), 1.0),
        {},
        ("base", 10),
    ),
    (CountDescriptor, lambda: (((2, 1), (1, 2)),), {}, ("pairs", ((1, 1),))),
    (FrequencyVector, lambda: ((0, 2),), {}, ("counts", (1, 2))),
]


def _with(cls, values, name, value):
    """``cls`` built from ``values`` with field ``name`` set to ``value``."""
    values = list(values)
    values[cls._fields.index(name)] = value
    return cls(*values)


class TestValueSemantics:
    """The package's value classes compare, hash, copy and stay frozen
    field by field."""

    @pytest.mark.parametrize(
        "cls, make, defaults, changed", _VALUES, ids=[case[0].__name__ for case in _VALUES]
    )
    def test_value_class(self, cls, make, defaults, changed):
        value, twin = cls(*make()), cls(*make())
        assert value == twin and not value != twin
        assert hash(value) == hash(twin)
        name, other = changed
        assert value != _with(cls, make(), name, other)
        assert value != type("Sub", (cls,), {})(*make())  # equal fields, other class
        for field, default in defaults.items():
            assert getattr(value, field) == default
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, other)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(copied) is cls and copied == value
        assert repr(value).startswith(f"{cls.__name__}(")

    @pytest.mark.parametrize(
        "cls, make, defaults, changed", _VALUES, ids=[case[0].__name__ for case in _VALUES]
    )
    def test_construction(self, cls, make, defaults, changed):
        required = make()
        assert cls._fields == cls._fields[: len(required)] + tuple(defaults)
        values = [*required, *defaults.values()]
        assert cls(*values) == cls(*required)
        calls = [required[:n] for n in range(len(required))]  # a required field left out
        calls.append((*values, values[0]))  # one position too many
        for args in calls:
            with pytest.raises(TypeError, match=cls.__name__):
                cls(*args)

    def test_every_record_class_has_a_case(self):
        classes = [case[0] for case in _VALUES]
        assert len(set(classes)) == 12 and set(classes) == set(core._Record.__subclasses__())

    def test_decomposition_hash_ignores_its_table(self):
        dec = Decomposition(("1",), {"1": ("10",)}, ("12211",))
        assert hash(dec) == hash((("1",), ("12211",)))
        assert dec != Decomposition(("1",), {"1": ("1", "0")}, ("12211",))


# Public names with no ``__module__`` of their own, and the module defining each.
_CONSTANTS = {"GROWTH_POLYNOMIAL": "audioactive.spectral"}


def test_every_public_name_is_its_defining_modules_attribute():
    names = audioactive.__all__
    assert len(set(names)) == len(names)
    constants = set()
    for name in names:
        obj = getattr(audioactive, name)
        home = getattr(obj, "__module__", None)
        if home is None:
            constants.add(name)
            home = _CONSTANTS[name]
        assert home.startswith("audioactive."), name
        assert getattr(sys.modules[home], name) is obj, name
    assert constants == set(_CONSTANTS)
    # The package binds exactly the eager names of ``__all__``; the
    # descriptor names are found on first access.
    bound = {
        name for name, obj in vars(audioactive).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert audioactive._DESCRIPTORS <= set(names)
    assert bound == set(names) - audioactive._DESCRIPTORS


def test_every_benchmarked_name_resolves():
    # The benchmark wraps ``layers.TRACED`` and enumerates the essential
    # strings itself, so each of these must stay where it names it.
    path = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("_bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    pairs = [(module, name) for module, name, _ in layers.TRACED]
    pairs.append((cosmology, "enumerate_essential_ancient"))
    for module, name in pairs:
        assert callable(getattr(module, name)), (module.__name__, name)


def _package_imports():
    """Each module of the package -> (the package modules it imports at
    any depth, those it imports inside a function)."""
    src = Path(audioactive.__file__).parent
    modules = {path.stem for path in src.glob("*.py")}

    def targets(node):
        """The package modules an import statement loads."""
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            base = ".".join(filter(None, ["audioactive" if node.level else "", node.module]))
            names = [base] if node.module else [f"{base}.{alias.name}" for alias in node.names]
        for name in names:
            parts = name.split(".")
            if parts[0] == "audioactive":
                yield parts[1] if parts[1:] and parts[1] in modules else "__init__"

    graph = {}
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found, deferred = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found.update(targets(node))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        deferred.update(targets(node))
        graph[path.stem] = (found - {path.stem}, deferred)
    return graph


def test_package_imports_form_no_cycle():
    # No module imports one that imports it, directly or through others,
    # counting imports inside functions; the deferred ones all point down.
    graph = _package_imports()
    assert "splitting" in graph["cosmology"][0] and "automata" in graph["cosmology"][1]
    done, path = set(), []

    def visit(module):
        assert module not in path, " -> ".join([*path[path.index(module):], module])
        if module in done:
            return
        path.append(module)
        for target in sorted(graph[module][0]):
            visit(target)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)
    deferred = set().union(*(later for _, later in graph.values()))
    assert deferred == {"automata", "_automata_search", "_arrays", "descriptors"}
