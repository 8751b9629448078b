import json
from collections import Counter
from itertools import accumulate, product

import pytest
from hypothesis import given, settings, strategies as st

from audioactive import (
    DigitString,
    SplitDomainError,
    decompose,
    is_common,
    is_flf,
    split_points,
)
from audioactive.cosmology import _essential_texts
from audioactive.core import _step_text
from audioactive import _automata_search, automata, particles, splitting
from audioactive.splitting import _CUT, _CUT_AHEAD, Decomposition, _factor

import reference_values as ref
from orbit_oracle import orbit_cutter
from oracles import (
    all_base3_texts,
    all_split_domain_texts,
    cut_positions,
    in_split_domain,
    leading_digits,
    random_split_domain_text,
    recursive_factor,
    reference_iterates,
    zero_run_cuts,
    zero_run_pieces,
)

PARTICLE_TEXTS = {digits for digits, _ in ref.PARTICLE_TABLE.values()}
SYMBOL_OF = {digits: sym for sym, (digits, _) in ref.PARTICLE_TABLE.items()}


def ds(text):
    return DigitString(text, 3)


def conservative_cuts(text):
    """Cut positions of ``text``'s conservative pieces."""
    return list(accumulate(map(len, decompose(ds(text), "conservative").texts)))[:-1]


@st.composite
def ancient_texts(draw, max_len=16):
    """Random base-3 strings with 0-runs <= 1 and other runs <= 3."""
    length = draw(st.integers(1, max_len))
    chunks = []
    total = 0
    last = ""
    while total < length:
        d = draw(st.sampled_from([c for c in "012" if c != last]))
        cap = 1 if d == "0" else 3
        n = draw(st.integers(1, min(cap, length - total)))
        chunks.append(d * n)
        total += n
        last = d
    return "".join(chunks)


class TestFlf:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("12221", True),
            ("110", False),
            ("2", False),
            ("210", False),
            ("10", True),
            ("1221", False),
            ("0", True),
            ("0110", True),
            ("111", True),
            ("12", True),
            ("121", True),
            ("1222", True),
            ("122", False),
            ("11", False),
            ("1", False),
        ],
    )
    def test_examples(self, text, expected):
        assert is_flf(ds(text)) is expected

    def test_empty_is_flf(self):
        assert is_flf(ds(""))

    def test_outside_domain_raises(self):
        # 111111 -> 201: the syntactic pattern would call it flf
        assert leading_digits("111111", 1) == ["1", "2"]
        with pytest.raises(SplitDomainError):
            is_flf(ds("111111"))
        with pytest.raises(SplitDomainError):
            is_flf(DigitString("11", 2))

    def test_bare_one_leads_with_two(self):
        # 1 -> 11 -> 21: the singleton is not forever-leading-2-free
        assert leading_digits("1", 2) == ["1", "1", "2"]

    def test_oracle_agreement_on_short_strings(self):
        # syntactic flf must equal "no iterate leads with 2" on a slice of
        # the exhaustive domain (the full sweep lives in the property suite)
        from oracles import all_ancient_texts

        for text in all_ancient_texts(6):
            lead2 = "2" in leading_digits(text, 50)
            assert is_flf(ds(text)) == (not lead2), text


class TestSplitPoints:
    def test_zero_separated_chain(self):
        assert split_points(ds("101102110211")) == [2, 5, 9]

    def test_cut_after_leading_two(self):
        assert split_points(ds("212221")) == [1]

    def test_irreducible_particle(self):
        assert split_points(ds("22")) == []

    def test_cut_after_numeral(self):
        assert split_points(ds("1022110")) == [2]

    def test_conservative_examples(self):
        assert conservative_cuts("1012211") == [2]
        assert conservative_cuts("22") == []
        assert conservative_cuts("101102110211") == [2, 5, 9]

    def test_domain_gate(self):
        with pytest.raises(SplitDomainError):
            split_points(ds("2222"))
        with pytest.raises(SplitDomainError):
            split_points(ds("11111"))
        with pytest.raises(SplitDomainError):
            split_points(ds("1111"))  # four 1s at the end of the string

    def test_embedded_neutrinos_allowed(self):
        assert split_points(ds("1111210")) == [5]
        assert split_points(ds("11110111121011110")) != []

    @given(ancient_texts())
    @settings(max_examples=150)
    def test_conservative_subset_of_full(self, text):
        assert set(conservative_cuts(text)) <= set(split_points(ds(text)))


class TestDecompose:
    def test_full_chain(self):
        dec = decompose(ds("101102110211"))
        assert [s.text for s in dec.segments] == ["10", "110", "2110", "211"]
        assert dec.particle_names() == "E.U.D.Ph"
        assert dec.render() == "10.110.2110.211"
        assert dec.is_common

    def test_single_neutrino(self):
        dec = decompose(ds("11112"))
        assert [s.text for s in dec.segments] == ["11112"]
        assert dec.particle_names() == "Nt"

    def test_two_neutrinos(self):
        dec = decompose(ds("1111011112"))
        assert dec.particle_names() == "Nm.Nt"

    def test_conservative_mode(self):
        dec = decompose(ds("1012211"), "conservative")
        assert dec.render() == "10.12211"
        assert dec.particle_names() == "E.?"
        assert not dec.is_common

    def test_recursion_exposes_segment_final_cuts(self):
        # 2122 only cuts as 21.22 at the top level; 21 then stays whole
        dec = decompose(ds("2122"))
        assert [s.text for s in dec.segments] == ["21", "22"]
        dec2 = decompose(ds("21210"))
        assert [s.text for s in dec2.segments] == ["2", "12", "10"]

    def test_empty(self):
        dec = decompose(ds(""))
        assert dec.segments == ()
        assert dec.is_common  # vacuously

    def test_is_common_kept_out_of_equality(self):
        # computed once and stored on the instance, but not a field; the
        # same holds for the lazy segments
        dec = decompose(ds("1012211"))
        assert not dec.is_common and not dec.is_common
        dec.segments
        fresh = decompose(ds("1012211"))
        assert dec == fresh and hash(dec) == hash(fresh)
        assert dec == Decomposition(("1",), {"1": ("10",)}, ("12211",))
        assert dec.json_parts() == fresh.json_parts()

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            decompose(ds("22"), "fast")

    def test_json(self):
        data = json.loads("".join(decompose(ds("22")).json_parts()))
        assert data == {"segments": ["22"], "particles": ["Ne"], "common": True}

    def test_multiset(self):
        dec = decompose(ds("1010"))
        assert dec.multiset() == {"E": 2}

    @given(ancient_texts())
    @settings(max_examples=200)
    def test_totality_and_irreducibility(self, text):
        dec = decompose(ds(text))
        assert "".join(s.text for s in dec.segments) == text
        for seg in dec.segments:
            assert split_points(seg) == []


class TestExhaustiveAgainstOracle:
    """Domain gate, split points and zero cuts on every base-3 string of
    length <= 10."""

    def test_domain_gate_and_zero_cuts(self):
        for text in all_base3_texts(10):
            s = ds(text)
            try:
                cuts = split_points(s)
                gated = False
            except SplitDomainError:
                gated = True
            assert gated is not in_split_domain(text), text
            if not gated:
                assert cuts == cut_positions(text), text
            assert conservative_cuts(text) == zero_run_cuts(text), text
            segments = decompose(s, "conservative").segments
            assert [seg.text for seg in segments] == zero_run_pieces(text), text

    def test_empty_string(self):
        assert split_points(ds("")) == []
        assert conservative_cuts("") == []
        assert decompose(ds(""), "conservative").segments == ()


def assert_text_views(dec, want):
    """The views joined from the body table equal the eager build."""
    assert "".join(dec.json_parts()) == json.dumps(want["json"])
    assert dec.render() == want["render"]
    assert dec.particle_names() == want["particle_names"]


def eager_views(texts):
    """Every public view of a decomposition, built eagerly from its texts
    the way the object-per-segment version built them."""
    segments = tuple(DigitString(t, 3) for t in texts)
    identified = tuple(particles.identify(seg) for seg in segments)
    common = all(p is not None for p in identified)
    return {
        "segments": segments,
        "render": ".".join(seg.text for seg in segments),
        "particle_names": ".".join(p.symbol if p else "?" for p in identified),
        "is_common": common,
        "multiset": particles.multiset([p.symbol for p in identified]) if common else None,
        "json": {
            "segments": [seg.text for seg in segments],
            "particles": [p.symbol if p else None for p in identified],
            "common": common,
        },
    }


class TestDecompositionOnTexts:
    """The body split and the lazy views against the cut regexes and the
    eager build."""

    def test_full_mode_is_the_cut_on_every_string_to_length_10(self):
        checked = 0
        for text in all_base3_texts(10):
            # the domain is checked on the distinct chunks and the tail
            try:
                dec = decompose(ds(text))
            except SplitDomainError:
                assert not in_split_domain(text), text
                continue
            assert in_split_domain(text), text
            if text:
                assert dec.texts == tuple(_CUT.split(text)), text
                assert_text_views(dec, eager_views(dec.texts))
                checked += 1
        assert checked == len(all_split_domain_texts(10))

    def test_conservative_mode_is_the_zero_cut_on_every_string_to_length_8(self):
        for text in all_base3_texts(8)[1:]:
            dec = decompose(ds(text), "conservative")
            assert dec.texts == tuple(zero_run_pieces(text)), text
            assert_text_views(dec, eager_views(dec.texts))

    @pytest.mark.parametrize("mode", ["full", "conservative"])
    @pytest.mark.parametrize(
        "text, want",
        [("", ()), ("0", ("0",)), ("012", ("0", "12")), ("1010", ("10", "10"))],
    )
    def test_edge_cases(self, text, mode, want):
        assert decompose(ds(text), mode).texts == want

    def test_double_zero_only_in_conservative_mode(self):
        with pytest.raises(SplitDomainError):
            decompose(ds("1001"))
        assert decompose(ds("1001"), "conservative").texts == ("100", "1")

    @pytest.mark.parametrize(
        "text, mode",
        [
            ("", "full"),
            ("101102110211", "full"),
            ("1012211", "full"),
            ("1012211", "conservative"),
            ("1001", "conservative"),
            ("1111011112", "full"),
            ("11112111121", "full"),
            ("1112221112221110", "full"),
            (reference_iterates("1", 3, 24)[-1], "full"),
            (reference_iterates("12", 3, 24)[-1], "conservative"),
            (reference_iterates("1", 3, 40)[-1], "full"),
            (reference_iterates("1", 3, 40)[-1], "conservative"),
            # chunks start at every 0222: here at the start, twice, and
            # right before the final 0
            ("022211202221120", "full"),
            # most chunks distinct
            (random_split_domain_text("views", 20_000), "full"),
        ],
    )
    def test_every_view_matches_the_eager_build(self, text, mode):
        dec = decompose(ds(text), mode)
        texts = (_CUT.split(text) if text else []) if mode == "full" else zero_run_pieces(text)
        assert dec.texts == tuple(texts)
        want = eager_views(dec.texts)
        assert dec.segments == want["segments"]
        assert_text_views(dec, want)
        assert dec.is_common is want["is_common"]
        if want["is_common"]:
            assert dec.multiset() == want["multiset"]
        else:
            with pytest.raises(ValueError):
                dec.multiset()

    def test_work_is_once_per_distinct_body_and_segment(self, monkeypatch):
        text = reference_iterates("1", 3, 40)[-1]
        *bodies, tail = text.split("0")
        calls = {"factor": Counter(), "dumps": Counter(), "symbol": Counter()}

        def spy(name, func):
            def counted(arg):
                calls[name][arg] += 1
                return func(arg)
            return counted

        monkeypatch.setattr(splitting, "_factor", spy("factor", _factor))
        dec = decompose(ds(text))
        assert set(calls["factor"]) <= {body + "0" for body in bodies} | {tail}
        assert sum(calls["factor"].values()) <= len(set(bodies)) + 1
        # segments repeat across bodies and chunks, yet each is shown once
        monkeypatch.setattr(json, "dumps", spy("dumps", json.dumps))
        monkeypatch.setattr(splitting, "_json_symbol", spy("symbol", splitting._json_symbol))
        dec.json_parts()
        distinct = set(dec.texts)
        assert calls["symbol"] and set(calls["symbol"]) <= distinct
        for counted in calls["dumps"], calls["symbol"]:
            assert all(counted[seg] <= 1 for seg in distinct)

    def test_views_are_built_only_on_demand(self, monkeypatch):
        s = ds(reference_iterates("1", 3, 40)[-1])
        calls = []
        valid = DigitString._valid.__func__

        def spy(cls, text, base):
            calls.append(text)
            return valid(cls, text, base)

        monkeypatch.setattr(DigitString, "_valid", classmethod(spy))
        dec = decompose(s)
        dec.json_parts()
        dec.render()
        dec.particle_names()
        assert dec.is_common
        dec.multiset()
        assert not {"texts", "segments"} & dec.__dict__.keys()
        assert calls == []
        # reading the segments builds one object per distinct text
        assert dec.segments[0].text == dec.texts[0]
        assert "segments" in dec.__dict__ and sorted(calls) == sorted(set(dec.texts))
        assert len(dec.segments) == 33403


class TestFactorAgainstRecursiveDefinition:
    """One cut pass against the definition: cut, then factor each piece again."""

    def test_every_in_domain_string_to_length_11(self):
        texts = all_split_domain_texts(11)
        assert len(texts) == 92871  # as many as in_split_domain admits, bar ""
        for text in texts:
            assert _factor(text) == recursive_factor(text, PARTICLE_TEXTS), text

    def test_every_essential_ancient_string(self):
        texts = [t for n in range(1, 17) for t in _essential_texts(n)]
        assert len(texts) == ref.TOTAL_STRINGS
        for text in texts:
            assert _factor(text) == recursive_factor(text, PARTICLE_TEXTS), text

    @pytest.mark.parametrize("seed", ["1", "12", "2211"])
    def test_decompose_long_iterates(self, seed):
        text = reference_iterates(seed, 3, 30)[-1]
        text = text[: text.rindex("0") + 1]
        want = recursive_factor(text, PARTICLE_TEXTS)
        dec = decompose(ds(text))
        assert [seg.text for seg in dec.segments] == want
        symbols = [p.symbol if p else None for p in map(particles.identify, dec.segments)]
        assert symbols == [SYMBOL_OF.get(x) for x in want]


class TestOrbitCertificate:
    """The hand-written split rules are the orbit criterion (no iterate of R
    leads with L's last digit), proven exactly: with 8 held runs the orbit
    cutter proves every cut the rules make, and no other.  A string not
    starting with 2 is flf exactly when a 2 before it splits off."""

    def test_every_in_domain_string_to_length_11(self):
        cut = orbit_cutter(3, held=8)
        for text in all_split_domain_texts(11):
            cuts = list(accumulate(len(piece) for piece in cut(text)))[:-1]
            assert cuts == split_points(ds(text)), text
            if text[0] != "2":
                assert (cut("2" + text)[0] == "2") == is_flf(ds(text)), text

    @pytest.mark.parametrize("held", [1, 2, 3, 4, 5])
    def test_fewer_held_runs_prove_only_splits(self, held):
        # with few held runs most states are partial; a cut they prove must
        # still be one of the rules' splits
        cut = orbit_cutter(3, held=held)
        for text in all_split_domain_texts(9):
            cuts = list(accumulate(len(piece) for piece in cut(text)))[:-1]
            assert set(cuts) <= set(split_points(ds(text))), (held, text)


def led_by(a, m):
    """The strings ``m`` accepts that start with the digit ``a``."""
    delta, accept = m
    width = len(delta[0])

    def moves(q):
        if q == "start":
            return False, tuple(delta[0][d] if str(d) == a else None for d in range(width))
        return q is not None and accept[q], ((None,) * width if q is None else delta[q])

    return _automata_search._minimal(*automata._explore("start", moves))


def union(a, b):
    def moves(s):
        return a[1][s[0]] or b[1][s[1]], tuple(zip(a[0][s[0]], b[0][s[1]]))

    return _automata_search._minimal(*automata._explore((0, 0), moves))


def led_by_after_steps(a, pre=_automata_search.pre, every=automata.ANY):
    """G_a: the domain strings some iterate R_n, n >= 1, of which leads with a.

    The union of pre^n(domain strings led by a) over n >= 1 stops growing at
    the first preimage that adds nothing: pre is monotone and distributes
    over union, so no later one adds anything either.  ``every`` is the DFA
    of all strings over pre's digits, so that ``pre(every)`` is its domain;
    the defaults are base 3's.  Minimal DFAs are equal exactly when their
    languages are, so a union equal to ``grown`` added nothing.
    """
    dom = pre(every)
    layer = grown = pre(led_by(a, dom))
    for n in range(2, 16):
        layer = pre(layer)
        if union(grown, layer) == grown:
            return grown, n
        grown = union(grown, layer)
    raise AssertionError(f"no fixed point for {a} within 15 preimages")


class TestSplitRulesAtEveryLength:
    """At every length, _CUT cuts a + R at position 1 exactly when no iterate
    of R leads with a, for every nonempty R with R[0] != a and a + R in the
    domain.  _CUT is read through a trie of R's first _CUT_AHEAD + 2
    characters, longer than it looks, so that bound is checked as well."""

    @pytest.mark.parametrize("a", "012")
    def test_cut_is_the_orbit_criterion(self, a):
        g, preimages = led_by_after_steps(a)
        assert preimages <= 4
        dom = _automata_search.pre(automata.ANY)
        dead = automata._dead(dom)
        depth = _CUT_AHEAD + 2
        # (domain state after a + R, R's trie node, G_a state); R[0] != a
        start = (dom[0][0][int(a)], "", 0)
        path = {start: ""}
        queue = [start]  # breadth first: grows while it is read
        for p, node, q in queue:
            if node and dom[1][p]:
                assert (_CUT.match(a + node, 1) is not None) != g[1][q], a + path[p, node, q]
            for d, c in enumerate("012"):
                nxt = dom[0][p][d], node + c if len(node) < depth else node, g[0][q][d]
                if nxt[0] != dead and (node or c != a) and nxt not in path:
                    path[nxt] = path[p, node, q] + c
                    queue.append(nxt)


ANY_5 = (((0,) * 5,), (True,))  # every string over the digits 0-4


def pre_5(m):
    """pre(m) in base 5: the strings over 0-4 with no run of 4 whose step
    ``m`` accepts.  In every base from 4 on, a run of k <= 3 copies of d
    steps to the two digits k and d."""
    delta, accept = m

    def moves(state):
        if state is None:  # a run of 4: dead
            return False, (None,) * 5
        d, k, q = state  # k copies of d open (none when k is 0), m in state q before them
        closed = delta[delta[q][k]][d] if k else q
        return accept[closed], tuple(
            ((d, k + 1, q) if k < 3 else None) if c == d else (c, 1, closed) for c in range(5)
        )

    return _automata_search._minimal(*automata._explore((-1, 0, 0), moves))


class TestConwayRuleAtEveryLength:
    """At every length, in every base 4..10, ``splitting._rule`` cuts a + R
    at position 1 only where no iterate R_n, n >= 1, leads with a, for every
    nonempty R with R[0] != a and a + R without a run of 4.

    The lemma: from base 4 on, the step maps strings whose runs are at most
    3 to such strings, alike in every base, and its numerals there are 1-3.
    So no R_n leads with an inert digit n (0, or one from 4 up), and every
    cut after an n is a split.  The step also leaves inert digits isolated
    between numerals, so renaming R's inert runs, 0 and 4 in turn along
    each stretch of adjacent ones, keeps R's runs and changes no leading
    digit in 1-3 of any R_n.  The rule reads inert digits only for being
    inert and for equal neighbours, so it decides alike on the renamed
    string, and the proof over the digits 0-4 in base 5 covers every base
    4..10.  As in ``TestSplitRulesAtEveryLength``, G_a is built with pre in
    base 5, and the rule is read through a trie of R's first _CUT_AHEAD + 2
    digits, longer than it looks.
    """

    @pytest.mark.parametrize("a", "01234")
    def test_every_cut_is_outside_the_orbit_criterion(self, a):
        g, _ = led_by_after_steps(a, pre_5, ANY_5)
        dom = pre_5(ANY_5)
        (dd, da), (gd, ga) = dom, g
        dead = next(p for p, (row, ok) in enumerate(zip(dd, da)) if not ok and set(row) == {p})
        # the pairs (domain state, G_a state) from which some continuation
        # ends in both: some R through such a pair is in G_a
        pairs = [(p, q) for p in range(len(dd)) for q in range(len(gd))]
        back = {pq: [] for pq in pairs}
        for p, q in pairs:
            for nxt in zip(dd[p], gd[q]):
                back[nxt].append((p, q))
        led = [(p, q) for p, q in pairs if da[p] and ga[q]]
        reach = set(led)
        for pq in led:  # grows while it is read
            for prev in back[pq]:
                if prev not in reach:
                    reach.add(prev)
                    led.append(prev)
        rule = splitting._rule()
        depth = _CUT_AHEAD + 2
        cuts = 0
        # R's trie nodes, R[0] != a, with a + R in the domain so far: a node
        # shorter than depth is R itself, and one at depth any R it starts
        nodes = [("", dd[0][int(a)], 0)]
        for node, p, q in nodes:  # grows while it is read
            if node and rule.match(a + node, 1):
                cuts += 1
                assert not ((p, q) in reach if len(node) == depth else da[p] and ga[q]), a + node
            if len(node) < depth:
                for d, c in enumerate("01234"):
                    if dd[p][d] != dead and (node or c != a):
                        nodes.append((node + c, dd[p][d], gd[q][d]))
        assert cuts > 1000, cuts

    @pytest.mark.parametrize("base, digits, top", [(5, "01234", 6), (10, "012358", 5)])
    def test_cuts_are_the_orbit_cutters(self, base, digits, top):
        # every string over ``digits`` of up to ``top`` of them, runs of 4
        # included: the cutter cuts only where the orbit cutter with eight
        # held runs proves a split
        rule_cut, orbit_cut = splitting._cutter(base), orbit_cutter(base, held=8)
        for n in range(1, top + 1):
            for text in map("".join, product(digits, repeat=n)):
                got = list(accumulate(map(len, rule_cut(text))))[:-1]
                proven = list(accumulate(map(len, orbit_cut(text))))[:-1]
                assert set(got) <= set(proven), text


class TestPredicates:
    def test_sixteen_digit_ancient_string_splits(self):
        # the length-16 two-2-run string is sometimes quoted as irreducible,
        # but the characterization (and the dynamics) disagree: after 111222
        # the remainder 1112221110 leads with 1 forever, so the cut is valid
        text = "1112221112221110"
        assert split_points(ds(text)) == [6, 12]
        dec = decompose(ds(text))
        assert [s.text for s in dec.segments] == ["111222", "111222", "1110"]
        assert split_points(ds(text))
        left, right, whole = text[:6], text[6:], text
        for _ in range(20):
            left = _step_text(left, 3)
            right = _step_text(right, 3)
            whole = _step_text(whole, 3)
            assert whole == left + right

    def test_segments_of_it_are_irreducible(self):
        assert split_points(ds("111222")) == []

    def test_is_common_examples(self):
        assert not is_common(ds("1012211"))
        assert is_common(ds("10110"))

    def test_is_common_neutrino_forms(self):
        assert is_common(ds("1111011112"))
        assert is_common(ds("1111211112"))  # two adjacent tau copies

    def test_disrupted_tau_does_not_split_off(self):
        # 11112 followed by a bare 1 is NOT two independent pieces: the
        # right-hand remainder eventually decays into the leading 2 region
        dec = decompose(ds("11112111121"))
        assert [s.text for s in dec.segments] == ["11112", "111121"]


class TestHomomorphism:
    @given(ancient_texts())
    @settings(max_examples=120, deadline=None)
    def test_cuts_commute_with_iteration(self, text):
        cuts = split_points(ds(text))
        for p in cuts:
            left, right, whole = text[:p], text[p:], text
            for _ in range(8):
                left = _step_text(left, 3)
                right = _step_text(right, 3)
                whole = _step_text(whole, 3)
                assert whole == left + right
