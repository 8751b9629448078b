import pytest

from audioactive import (
    CountDescriptor,
    DigitString,
    FrequencyVector,
    TokenString,
    counting_sequence,
    counting_step,
    iterate,
    iterate_tokens,
    selfdesc_sequence,
    selfdesc_step,
)


class TestCountDescriptor:
    def test_describe(self):
        d = CountDescriptor.describe("121355")
        assert d.pairs == ((2, 1), (1, 2), (1, 3), (2, 5))
        assert d.render() == "21121325"

    def test_fixed_descriptor(self):
        d = CountDescriptor(((3, 1), (1, 2), (3, 3), (1, 5)))
        assert d.render() == "31123315"
        assert counting_step(d) == d

    def test_empty(self):
        d = CountDescriptor(())
        assert counting_step(d) == d
        assert d.render() == ""

    def test_reaches_fixed_point_by_step_three(self):
        seq = counting_sequence(CountDescriptor.describe("121355"), 3)
        assert [d.render() for d in seq] == [
            "21121325",
            "31321315",
            "31123315",
            "31123315",
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            CountDescriptor(((0, 1),))
        with pytest.raises(ValueError):
            CountDescriptor(((1, 2), (1, 1)))  # digits must increase

    @pytest.mark.parametrize(
        "text", ["\u0661\u0662\u0662", "1\u00b2", "12a"], ids=["arabic-indic", "superscript", "letter"]
    )
    def test_only_ascii_digits_are_described(self, text):
        bad = next(ch for ch in text if ch not in "0123456789")
        with pytest.raises(ValueError, match=f"non-digit character {bad!r}"):
            CountDescriptor.describe(text)
        with pytest.raises(ValueError, match=f"non-digit character {bad!r}"):
            FrequencyVector.describe(text)

    def test_multidigit_counts_feed_digit_tally(self):
        # twelve 1s renders as "121", whose digits are 1, 2, 1
        d = CountDescriptor(((12, 1),))
        assert counting_step(d) == CountDescriptor(((2, 1), (1, 2)))


class TestFrequencyVector:
    def test_initial_description(self):
        assert FrequencyVector.describe("121355", size=6) == FrequencyVector((0, 2, 1, 1, 0, 2))

    def test_table_rows(self):
        t1 = FrequencyVector((0, 2, 1, 1, 0, 2))
        t2 = selfdesc_step(t1)
        t3 = selfdesc_step(t2)
        assert t2 == FrequencyVector((2, 2, 2, 0, 0, 0))
        assert t3 == FrequencyVector((3, 0, 3, 0, 0, 0))

    def test_period_two_tail(self):
        t7 = FrequencyVector((3, 1, 1, 1, 0, 0))
        t8 = selfdesc_step(t7)
        assert t8 == FrequencyVector((2, 3, 0, 1, 0, 0))
        assert selfdesc_step(t8) == t7

    def test_sequence_reaches_period_two(self):
        seq = selfdesc_sequence(FrequencyVector((0, 2, 1, 1, 0, 2)), 8)
        assert seq[6] == FrequencyVector((3, 1, 1, 1, 0, 0))
        assert seq[7] == FrequencyVector((2, 3, 0, 1, 0, 0))
        assert seq[8] == seq[6]

    def test_index_range_never_shrinks(self):
        v = FrequencyVector((0, 0, 0, 0, 0, 0, 0, 0))
        assert len(selfdesc_step(v).counts) == 8

    def test_index_range_grows_when_needed(self):
        # an entry of 9 puts a 9 into the tally even from a short vector
        v = FrequencyVector((9, 0))
        out = selfdesc_step(v)
        assert len(out.counts) == 10
        assert out.counts[9] == 1

    def test_multidigit_entries_contribute_each_digit(self):
        v = FrequencyVector((12, 0, 0))
        out = selfdesc_step(v)
        assert out.counts[0] == 2  # the two 0 entries
        assert out.counts[1] == 1 and out.counts[2] == 1  # digits of 12

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyVector((-1, 0))


@pytest.mark.parametrize(
    "sequence,start,n",
    [
        (counting_sequence, CountDescriptor.describe("1"), -1),
        (selfdesc_sequence, FrequencyVector((1,)), -2),
        (iterate, DigitString("1", 3), -1),
        (iterate_tokens, TokenString.parse("1"), -1),
    ],
)
def test_negative_iteration_count(sequence, start, n):
    with pytest.raises(ValueError, match="iteration count must be non-negative"):
        sequence(start, n)
