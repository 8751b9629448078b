import random
import subprocess
import sys
from itertools import product

import pytest

from audioactive import (
    AudioactiveError,
    ConvergenceError,
    DigitString,
    decompose,
    enumerate_essential_ancient,
    f_closed,
    f_recursive,
    is_common,
    iterate,
    iterations_to_common,
    k_value,
    length_sequence,
    verify_cosmological,
)
from audioactive import SplitDomainError, _automata_search, automata, cosmology, particles, splitting
from audioactive.particles import lookup

import reference_values as ref
from oracles import (
    ANCIENT_CAPS,
    all_base3_texts,
    all_split_domain_texts,
    decay_time,
    in_split_domain,
    reference_step,
    within_caps,
)


def ds(text):
    return DigitString(text, 3)


PARTICLE_TEXTS = {digits for digits, _ in ref.PARTICLE_TABLE.values()}


ALL24_SEED = "".join(
    lookup(sym).digits.text
    for sym in ("Nm", "Nt", "E", "Ph", "Ne", "E", "Gl", "Ne", "E", "Wb", "Ne", "E", "Zb")
)


class TestEnumeration:
    def test_length_one(self):
        assert [s.text for s in enumerate_essential_ancient(1)] == ["0", "1", "2"]

    def test_counts(self):
        for n in range(1, 17):
            count = sum(1 for _ in enumerate_essential_ancient(n))
            assert count == ref.ROW_TOTALS[n], n

    def test_lexicographic_and_valid(self):
        texts = [s.text for s in enumerate_essential_ancient(5)]
        assert texts == sorted(texts)
        for text in texts:
            assert len(text) == 5
            assert "0" not in text[:-1]
            assert all(text.count(d * 4) == 0 for d in "012")

    def test_layers_match_brute_force_filter(self):
        for n in range(1, 11):
            brute = [
                text
                for text in map("".join, product("012", repeat=n))
                if "0" not in text[:-1] and within_caps(text, ANCIENT_CAPS)
            ]
            assert list(cosmology._essential_texts(n)) == sorted(brute), n

    def test_ancients_lists_what_verify_counts(self):
        # ``ancients`` lists _essential_texts; ``verify`` counts the strings
        # of the essential automaton, and lists those over its cap with
        # ``difference``, which against a DFA that rejects everything lists
        # every string the automaton accepts.
        reject_all = (((0, 0, 0),), (False,))
        listed = _automata_search.difference(16, automata.essential(), reject_all)
        for n in range(1, 17):
            assert listed[n] == list(cosmology._essential_texts(n)), n

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            list(enumerate_essential_ancient(0))
        with pytest.raises(ValueError):
            list(enumerate_essential_ancient(17))

    def test_strings_equal_checked_ones(self):
        # the texts are wrapped unchecked; the checking constructor agrees
        for n in (1, 7, 16):
            for s in enumerate_essential_ancient(n):
                assert type(s) is DigitString and s == ds(s.text), s
        for n in (0, 17):
            with pytest.raises(ValueError, match="length must be 1..16"):
                next(enumerate_essential_ancient(n))


class TestCountingFunction:
    def test_small_values_against_enumeration(self):
        # zero-free essential ancient strings, counted directly
        for n in range(2, 11):
            direct = sum(1 for s in enumerate_essential_ancient(n) if "0" not in s.text)
            assert f_closed(n) == direct
            assert f_recursive(n) == direct

    def test_closed_equals_recursive_up_to_40(self):
        for n in range(2, 41):
            assert f_closed(n) == f_recursive(n), n

    def test_automaton_count_agrees_up_to_40(self):
        # A third count: the essential strings a two-state "no 0" DFA accepts.
        no_zero = (((1, 0, 0), (1, 1, 1)), (True, False))
        counts = automata.count(40, automata.essential(), no_zero)
        for n in range(2, 41):
            assert counts[n] == f_closed(n) == f_recursive(n), n

    @pytest.mark.parametrize("n,value", [(2, 4), (3, 8), (4, 14), (5, 26), (7, 88), (16, 21218)])
    def test_pinned_values(self, n, value):
        assert f_recursive(n) == value

    def test_row_totals_are_consecutive_sums(self):
        for n in range(2, 17):
            assert f_recursive(n - 1) + f_recursive(n) == ref.ROW_TOTALS[n]

    def test_domain(self):
        with pytest.raises(ValueError):
            f_closed(1)
        with pytest.raises(ValueError):
            f_recursive(0)


class TestIterationsToCommon:
    @pytest.mark.parametrize(
        "text,expected",
        [("1", 7), ("2", 0), ("0", 1), ("1121122", 5), ("22", 0), ("1212", 0), ("", 0)],
    )
    def test_examples(self, text, expected):
        assert iterations_to_common(ds(text)) == expected

    def test_cap_exceeded_returns_none(self):
        assert iterations_to_common(ds("1"), cap=3) is None

    def test_long_input_recursion_is_bounded_by_the_cap(self):
        # The text is walked through each decay automaton in a loop, so its
        # length costs no recursion, and D_0 already accepts it.
        text = iterate(ds("1"), 40)[-1].text
        assert len(text) == 147673
        assert len(splitting._factor(text)) == 33403
        assert iterations_to_common(ds(text)) == 0

    def test_monotone_once_common(self):
        rng = random.Random(20240)
        pool = [s for s in enumerate_essential_ancient(6)]
        for s in rng.sample(pool, 12):
            n = iterations_to_common(s)
            for m in range(n, n + 6):
                assert is_common(iterate(s, m)[-1]), (s.text, m)

    def test_tally_by_length_is_the_reference_table(self):
        for n in range(1, 13):
            row = [0] * 11
            for s in enumerate_essential_ancient(n):
                row[iterations_to_common(s)] += 1
            assert tuple(row) == ref.DECAY_TABLE_ROWS[n], n


class TestVerification:
    def test_table_matches_reference(self, verification):
        report, _ = verification
        assert report.verified
        assert report.max_iterations == 10
        assert report.failures == ()
        assert report.total_strings == ref.TOTAL_STRINGS
        for n in range(1, 17):
            assert report.table.row(n) == ref.DECAY_TABLE_ROWS[n], f"length {n}"
            assert report.table.row_total(n) == ref.ROW_TOTALS[n]

    def test_csv_shape(self, verification):
        report, _ = verification
        lines = report.table.to_csv().splitlines()
        assert lines[0] == (
            "length,iter0,iter1,iter2,iter3,iter4,iter5,iter6,iter7,iter8,iter9,iter10,total"
        )
        assert len(lines) == 17
        assert lines[7] == "7,17,33,5,18,14,8,5,18,14,3,1,136"

    def test_eight_slowest_length7(self):
        got = {s.text for s in enumerate_essential_ancient(7) if iterations_to_common(s) == 5}
        assert got == ref.LENGTH7_FIVE_ITERATIONS

    def test_answer_does_not_depend_on_earlier_runs(self, decay_languages):
        # The languages are checked once per process and equal a fresh build
        # of D_0-D_11; clearing the cache checks them again and changes no
        # answer.
        built = automata.decay_languages()
        assert built == tuple(decay_languages[:12])
        texts = ["1", "21221", "111121221", "1121122", "2221222111212211"]
        before = [iterations_to_common(ds(t), 11) for t in texts]
        assert before == [7, 10, 11, 5, 10]
        automata.decay_languages.cache_clear()
        assert [iterations_to_common(ds(t), 11) for t in texts] == before
        assert automata.decay_languages() is not built

    def test_cap_below_ten_fails_exactly_the_ten_iteration_strings(self):
        # The count finds failures at lengths 5-16, so those lengths are
        # listed string by string, each in lexicographic order.
        report = verify_cosmological(cap=9)
        assert not report.verified
        assert report.failures[0] == "21221"
        assert report.failures[-1] == "2221222111212211"
        assert len(report.failures) == sum(row[10] for row in ref.DECAY_TABLE_ROWS.values())
        assert len(report.failures) == 1187
        for n in range(1, 17):
            assert report.table.row(n) == ref.DECAY_TABLE_ROWS[n][:10], f"length {n}"

    def test_parallel_run_is_identical(self, verification):
        # ``jobs`` is accepted and ignored: both runs count the same
        # automata, and a jobs value must not change the report.
        serial, _ = verification
        parallel = verify_cosmological(jobs=2)
        assert serial.table.to_csv() == parallel.table.to_csv()
        assert serial.max_iterations == parallel.max_iterations


def essential_upto(n):
    return [t for k in range(1, n + 1) for t in cosmology._essential_texts(k)]


@pytest.fixture(scope="module")
def oracle_times():
    """(text, string decay time) of each essential string of 1-12 digits,
    one list per length, by the independent oracle."""
    memo = {}
    return [
        [(text, decay_time(text, PARTICLE_TEXTS, memo)) for text in cosmology._essential_texts(n)]
        for n in range(1, 13)
    ]


def oracle_report(cap, times):
    """Table rows and failures at ``cap``, string by string."""
    rows, failures = [], []
    for layer in times:
        row = [0] * (cap + 1)
        for text, t in layer:
            if t > cap:
                failures.append(text)
            else:
                row[t] += 1
        rows.append(tuple(row))
    return tuple(rows), tuple(failures)


class TestClassCount:
    def test_head_width(self):
        # The splits of d + s' are position 1, decided on the first
        # 1 + _CUT_AHEAD characters alone, plus the splits of s' shifted by one;
        # _essential_texts builds every length by such prepending.
        head = splitting._CUT_AHEAD
        for rest in essential_upto(12):
            rest_splits = [m.start() + 1 for m in splitting._CUT.finditer(rest)]
            for d in "12":
                if rest.startswith(d * 3):
                    continue
                text = d + rest
                splits = [m.start() for m in splitting._CUT.finditer(text)]
                first = splitting._CUT.match(text[: 1 + head], 1) is not None
                assert splits == [1] * first + rest_splits, text

    def test_head_width_is_tight(self):
        text = "1221222"  # 22 + the flf prefix 1222
        assert splitting._CUT.match(text, 1)
        assert not splitting._CUT.match(text[:splitting._CUT_AHEAD], 1)

    @pytest.mark.parametrize("cap", range(11))
    def test_every_cap_against_string_oracle(self, cap, oracle_times):
        # The oracle checks lengths 1-12 string by string; the report's rows
        # and failures of those lengths must agree with it.
        report = verify_cosmological(cap=cap)
        rows, failures = oracle_report(cap, oracle_times)
        assert report.table.cells[:12] == rows
        assert tuple(t for t in report.failures if len(t) <= 12) == failures
        assert report.table.lengths == tuple(range(1, 17))

    def test_listed_failures_must_match_the_count(self, monkeypatch):
        real = cosmology._decay_counts

        def overcount(cap):
            rows, fails, within_cap = real(cap)
            fails[-1] += 1
            return rows, fails, within_cap

        monkeypatch.setattr(cosmology, "_decay_counts", overcount)
        with pytest.raises(
            AudioactiveError, match="length 16: 591 strings listed over the cap, 592 counted"
        ):
            verify_cosmological(cap=9)


@pytest.fixture(scope="module")
def decay_languages():
    """D_0 (the particle compounds) to D_12, each D_t = pre(D_{t-1})."""
    levels = [_automata_search.compounds()]
    for _ in range(12):
        levels.append(_automata_search.pre(levels[-1]))
    return levels


class TestDecayAutomata:
    """All-length results, each an emptiness check on a product automaton:
    ``witness(a, b)`` is None exactly when every string of a is in b."""

    def test_compound_language(self, decay_languages):
        assert sum(map(len, automata.junction_splits().values())) == 297
        assert len(decay_languages[0][0]) == 28
        assert max(len(delta) for delta, _ in decay_languages) == 56

    def test_state_counts_and_least_new_strings(self, decay_languages):
        # The least string D_t adds to D_{t-1} takes exactly t steps by
        # stepping and factoring, which does not read the automata.
        assert [len(delta) for delta, _ in decay_languages[:12]] == [
            28, 42, 53, 56, 52, 50, 43, 37, 39, 26, 17, 10
        ]
        pairs = zip(decay_languages, decay_languages[1:12])
        least = [_automata_search.witness(b, a) for a, b in pairs]
        assert least == [
            "0", "2211", "221", "1211", "21", "11", "1", "111", "111122", "21221", "111121221"
        ]
        memo: dict[str, int] = {}
        assert [decay_time(w, PARTICLE_TEXTS, memo) for w in least] == list(range(1, 12))

    def test_states_are_numbered_breadth_first(self, decay_languages):
        # Equal languages give equal tuples only under one numbering.
        dom = _automata_search.pre(automata.ANY)
        for delta, _ in [*decay_languages, automata.essential(), dom]:
            order = [0]
            for q in order:  # grows while it is read
                for t in delta[q]:
                    if t not in order:
                        order.append(t)
            assert order == list(range(len(delta)))

    def test_step_keeps_the_splitting_domain(self):
        # So every iterate of a domain string can be factored, at every length.
        dom = _automata_search.pre(automata.ANY)
        assert len(dom[0]) == 10
        assert _automata_search.witness(dom, _automata_search.pre(dom)) is None

    def test_domain_automaton_is_the_domain_predicate(self):
        accepts = automata.recognizer(_automata_search.pre(automata.ANY))
        for n in range(11):
            for digits in product("012", repeat=n):
                text = "".join(digits)
                assert accepts(text) == in_split_domain(text), text

    def test_essential_strings_of_every_length_decay_in_ten_steps(self, decay_languages):
        essential = automata.essential()
        assert _automata_search.witness(essential, decay_languages[10]) is None
        assert _automata_search.witness(essential, decay_languages[9]) == "21221"

    def test_domain_strings_of_every_length_decay_in_eleven_steps(self, decay_languages):
        dom = _automata_search.pre(automata.ANY)
        assert _automata_search.witness(dom, decay_languages[11]) is None
        assert _automata_search.witness(dom, decay_languages[10]) == "111121221"
        assert decay_languages[11] == decay_languages[12] == dom

    def test_membership_is_the_string_decay_time(self, decay_languages):
        # The least t with w in D_t, against stepping and factoring w, on
        # every splitting-domain string of at most 10 digits; the public
        # answer at cap 11 is that t as well.
        states = {"": (0,) * len(decay_languages)}

        def reached(text):  # the state of each D_t after reading text
            if text not in states:
                d = int(text[-1])
                states[text] = tuple(
                    m[0][q][d] for m, q in zip(decay_languages, reached(text[:-1]))
                )
            return states[text]

        memo = {}
        slowest = []
        for text in all_split_domain_texts(10):
            now = reached(text)
            least = next(t for t, (m, q) in enumerate(zip(decay_languages, now)) if m[1][q])
            assert least == decay_time(text, PARTICLE_TEXTS, memo), text
            assert iterations_to_common(ds(text), 11) == least, text
            if least == 11:
                slowest.append(text)
        assert sorted(slowest) == ["0111121221", "111121221", "2111121221"]


def brute_layers(top, languages):
    """For each length 0..``top``, the state of each DFA after every base-3
    string of that length, the strings in digit order."""
    layer = [("", (0,) * len(languages))]
    for _ in range(top + 1):
        yield layer
        layer = [
            (text + str(d), tuple(m[0][q][d] for m, q in zip(languages, states)))
            for text, states in layer
            for d in range(3)
        ]


class TestDecayCertificate:
    """The shipped D_0-D_11 and the lockstep check that proves them."""

    def test_stored_text_is_the_search_chain(self, decay_languages):
        chain = tuple(decay_languages[:12])
        assert _automata_search._render(chain) == automata._DECAY_CERTIFICATE
        assert automata._parse(automata._DECAY_CERTIFICATE) == chain
        assert len(automata._DECAY_CERTIFICATE) == 3550
        automata.decay_languages.cache_clear()
        assert automata.decay_languages() == chain

    def test_verify_does_not_search(self, monkeypatch):
        def no_search(m):
            raise AssertionError("pre was called")

        monkeypatch.setattr(_automata_search, "pre", no_search)
        automata.decay_languages.cache_clear()
        report = verify_cosmological()
        assert (report.verified, report.max_iterations, report.total_strings) == (True, 10, 71775)
        assert iterations_to_common(ds("111121221"), 11) == 11

    def test_every_flipped_bit_and_redirected_edge_fails(self, decay_languages, monkeypatch):
        # Each state of each stored D_t, once with its accept bit flipped and
        # once with one edge sent to the next state: every such certificate
        # fails the check, at an equation that reads D_t.
        chain = list(decay_languages[:12])
        for t, (delta, accept) in enumerate(chain):
            for q in range(len(delta)):
                flipped = accept[:q] + (not accept[q],) + accept[q + 1:]
                d = q % 3
                row = list(delta[q])
                row[d] = (row[d] + 1) % len(delta)
                redirected = delta[:q] + (tuple(row),) + delta[q + 1:]
                for bad in (delta, flipped), (redirected, accept):
                    text = _automata_search._render(tuple(chain[:t] + [bad] + chain[t + 1:]))
                    monkeypatch.setattr(automata, "_DECAY_CERTIFICATE", text)
                    automata.decay_languages.cache_clear()
                    with pytest.raises(AudioactiveError, match=f"D_{t} is not"):
                        automata.decay_languages()
        monkeypatch.undo()
        automata.decay_languages.cache_clear()
        assert automata.decay_languages() == tuple(chain)

    def test_lockstep_check_agrees_with_pre(self, decay_languages):
        # Every ordered pair of the chain, and of the chain with the essential
        # strings, every string and the domain, in both argument orders.
        chain = decay_languages[:12]
        dom = _automata_search.pre(automata.ANY)
        others = [automata.essential(), automata.ANY, dom]
        for a in chain:
            image = _automata_search.pre(a)
            for b in chain:
                assert automata._is_pre(a, b) == (image == b)
        for a, b in [(a, b) for m in chain for o in others for a, b in ((m, o), (o, m))]:
            assert automata._is_pre(a, b) == (_automata_search.pre(a) == b)
        for m in others:
            assert automata._is_pre(m, m) == (_automata_search.pre(m) == m)
        assert automata._is_pre(automata.ANY, dom)
        assert automata._is_pre(dom, dom)
        assert _automata_search.pre(dom) == dom
        for t in range(11):
            assert _automata_search.pre(chain[t]) == chain[t + 1], t

    def test_count_and_difference_against_every_string(self, decay_languages):
        # Every base-3 string of at most 10 digits, read through the
        # essential automaton and each D_t.
        top = 10
        essential = automata.essential()
        chain = decay_languages[:12]
        counts = [[0] * (top + 1) for _ in chain]
        rejected = [[[] for _ in range(top + 1)] for _ in chain]
        for n, layer in enumerate(brute_layers(top, [essential, *chain])):
            for text, (e, *states) in layer:
                if essential[1][e]:
                    for t, (m, q) in enumerate(zip(chain, states)):
                        if m[1][q]:
                            counts[t][n] += 1
                        else:
                            rejected[t][n].append(text)
        for t, m in enumerate(chain):
            assert automata.count(top, essential, m) == counts[t], t
            assert _automata_search.difference(top, essential, m) == rejected[t], t


class TestCheckerAndSearch:
    """``automata`` holds only what a verification runs; the search that
    wrote its certificate lives in ``_automata_search``."""

    def test_compound_check_rejects_every_later_level(self):
        levels = automata.decay_languages()
        moves = automata._compound_moves()
        checks = [automata._accepts_as(automata._COMPOUND_START, moves, m) for m in levels]
        assert checks == [True] + [False] * 11

    def test_essential_automaton_is_minimal(self):
        essential = automata.essential()
        assert essential == _automata_search._minimal(*essential)

    def test_junction_splits_read_the_last_digit(self):
        texts = [rule.parent.digits.text for rule in particles.decay_chart()]
        pairs = {(e, f) for e in texts for f in texts if splitting._CUT.match(e + f, len(e))}
        got = automata.junction_splits()
        assert list(got) == texts
        assert {(e, f) for e, follow in got.items() for f in follow} == pairs


class TestKValue:
    def test_neutrino(self):
        report = k_value(ds("22"))
        assert report.k == 1
        assert report.stabilized
        assert report.limsup == frozenset({"Ne"})

    def test_electron(self):
        report = k_value(ds("10"))
        assert report.k == 8
        assert report.limsup == frozenset({"E", "M", "U", "D", "S", "C", "B", "T"})
        assert report.liminf == report.limsup

    def test_two_neutrinos(self):
        report = k_value(ds("1111011112"))
        assert report.k == 2
        assert report.limsup == frozenset({"Nm", "Nt"})

    def test_all_24_seed(self):
        report = k_value(ds(ALL24_SEED))
        assert len(report.limsup) == 24
        assert report.stabilized
        assert report.k == 24

    def test_iterations_recorded(self):
        assert k_value(ds("1")).iterations == 7

    def test_non_convergence_raises(self):
        with pytest.raises(ConvergenceError):
            k_value(ds("1"), max_iter=2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            k_value(ds(""))

    def test_json(self):
        data = k_value(ds("22")).to_json()
        assert data["k"] == 1
        assert data["limsup"] == ["Ne"]
        assert data["stabilized"] is True

    def test_liminf_subset_of_limsup(self):
        rng = random.Random(91)
        for _ in range(25):
            text = "".join(rng.choice("012") for _ in range(rng.randint(1, 20)))
            report = k_value(ds(text))
            assert report.liminf <= report.limsup
            assert 1 <= len(report.limsup) <= 24


def eager_k_value(text, cap=64):
    """k_value's report fields, decomposing every iterate into objects;
    None when no iterate up to the ``cap``-th is common."""
    for iterations in range(cap + 1):
        try:
            dec = decompose(ds(text))
        except SplitDomainError:
            dec = None
        if dec is not None and dec.is_common:
            break
        text = reference_step(text, 3)
    else:
        return None
    ms = dec.multiset()
    limsup, liminf = particles.limit_sets(ms)
    return iterations, tuple(ms.items()), limsup, liminf


class TestKValueOnTexts:
    def test_no_decomposition_per_iterate_and_reports_unchanged(self, monkeypatch):
        rng = random.Random(12)
        seeds = [p.digits.text for p in particles.registry()] + [
            "".join(rng.choice("012") for _ in range(rng.randint(1, 20))) for _ in range(200)
        ]
        want = [eager_k_value(text) for text in seeds]
        built = []
        init = splitting.Decomposition.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(splitting.Decomposition, "__init__", spy)
        reports = [k_value(ds(text)) for text in seeds]
        assert built == []
        for text, report, (iterations, counts, limsup, liminf) in zip(seeds, reports, want):
            assert report.iterations == iterations, text
            assert report.counts == counts, text
            assert (report.limsup, report.liminf) == (limsup, liminf), text
        # the spy does see a decomposition being built
        decompose(ds("10"))
        assert built == [(("1",), {"1": ("10",)}, ())]

    @pytest.mark.parametrize("cap", [64, 3])
    def test_every_string_of_up_to_7_digits(self, cap):
        # whole strings stepped and decomposed, against the piece engine
        texts = all_base3_texts(7)[1:]
        assert len(texts) == 3279
        failed = 0
        for text in texts:
            want = eager_k_value(text, cap)
            if want is None:
                failed += 1
                with pytest.raises(ConvergenceError):
                    k_value(ds(text), max_iter=cap)
                continue
            report = k_value(ds(text), max_iter=cap)
            got = report.iterations, report.counts, report.limsup, report.liminf
            assert got == want, text
        assert failed == (0 if cap == 64 else 1561)  # both branches are met


def random_texts(count, seed):
    """``count`` random base-3 texts of 6 to 20 digits."""
    rng = random.Random(seed)
    return ["".join(rng.choice("012") for _ in range(rng.randint(6, 20))) for _ in range(count)]


class TestPieceMemo:
    """k_value and length_sequence step and cut each piece once per
    process, in the base's memo in ``splitting._children``; what the memos
    hold changes no answer."""

    SEEDS = random_texts(300, 28)

    @pytest.fixture(autouse=True)
    def _cleared_memo(self):
        yield
        splitting._children.clear()

    def test_entries_are_the_factors_of_each_step(self):
        # Each entry is the step of its piece, fully factored in the
        # splitting domain and cut only after its 0s outside it.
        for text in self.SEEDS:
            k_value(ds(text))
        assert len(splitting._children[3]) > len(particles.PARTICLE_TEXTS)
        outside = 0
        for piece, subs in splitting._children[3].items():
            step = reference_step(piece, 3)
            if in_split_domain(step):
                assert list(subs) == splitting._factor(step), piece
            else:
                outside += 1
                assert list(subs) == splitting._zero_pieces(step), piece
        assert outside  # both branches are met

    def test_one_memo_matches_a_cleared_one_and_the_eager_reports(self):
        shared = [k_value(ds(text)) for text in self.SEEDS]
        cleared = []
        for text in self.SEEDS:
            splitting._children.clear()
            cleared.append(k_value(ds(text)))
        assert shared == cleared
        for text, report in zip(self.SEEDS, shared):
            got = report.iterations, report.counts, report.limsup, report.liminf
            assert got == eager_k_value(text), text

    def test_clear_changes_no_answer(self):
        before = [k_value(ds(text)) for text in self.SEEDS[:50]]
        splitting._children.clear()
        assert not splitting._children
        assert [k_value(ds(text)) for text in self.SEEDS[:50]] == before

    def test_a_second_growth_steps_no_piece(self, monkeypatch):
        # bases 2 and 10 keep their memos for the process, as base 3 does
        splitting._children.clear()
        steps = []
        real = splitting._step_text

        def counted(text, base):
            steps.append(base)
            return real(text, base)

        monkeypatch.setattr(splitting, "_step_text", counted)
        for base, seed, iters in ((10, "1", 60), (2, "1", 50), (10, "31", 40), (2, "1101", 30)):
            first = length_sequence(DigitString(seed, base), iters)
            stepped = len(steps)
            assert length_sequence(DigitString(seed, base), iters) == first, (base, seed)
            assert len(steps) == stepped, (base, seed)
        assert set(steps) == {2, 10}  # the first calls did step pieces

    def test_clear_empties_every_base(self):
        for base in range(2, 11):
            length_sequence(DigitString("1", base), 20)
        k_value(ds("1201"))
        assert sorted(splitting._children) == list(range(2, 11))
        assert all(splitting._children.values())
        splitting._children.clear()
        assert not splitting._children
        # the next lookup makes a base's memo afresh: the table alone from base 4 up
        assert not splitting._children[2] and not splitting._children[3]
        assert splitting._children[10] == splitting._high_base_table()

    def test_a_fresh_import_starts_empty(self):
        # so clear() returns every memo to its import state; a second
        # growth in bases 2, 3 and 10 steps no piece, and clear() empties
        # every base
        code = """if True:
            from audioactive import DigitString, k_value, length_sequence, splitting
            print(len(splitting._children))
            calls = []
            real = splitting._step_text
            splitting._step_text = lambda text, base: calls.append(base) or real(text, base)
            for base in (10, 2, 3):
                first = length_sequence(DigitString("1", base), 50)
                stepped = len(calls)
                assert length_sequence(DigitString("1", base), 50) == first
                assert len(calls) == stepped
            k_value(DigitString("1201", 3))
            print(sorted(splitting._children), sorted(set(calls)))
            splitting._children.clear()
            print(len(splitting._children))
        """
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
        assert (run.returncode, run.stdout, run.stderr) == (0, "0\n[2, 3, 10] [2, 3, 10]\n0\n", "")


class TestSmallWorldConsequence:
    def test_random_strings_become_common_quickly(self):
        rng = random.Random(77)
        for _ in range(150):
            length = rng.randint(1, 40)
            text = "".join(rng.choice("012") for _ in range(length))
            report = k_value(ds(text), max_iter=19)
            assert report.iterations <= 19

    def test_decompose_after_iteration_matches_is_common(self):
        rng = random.Random(78)
        for _ in range(40):
            text = "".join(rng.choice("012") for _ in range(rng.randint(1, 12)))
            s = ds(text)
            report = k_value(s, max_iter=19)
            final = iterate(s, report.iterations)[-1]
            pieces = decompose(final, "conservative")
            # every conservative piece is itself fully common
            for seg in pieces.segments:
                assert is_common(seg)
