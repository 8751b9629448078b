"""Digit-tally describing sequences.

Two small iterations that describe a string by digit counts rather than by
runs.  A :class:`CountDescriptor` lists "count, digit" pairs for the digits
present ("two 1s, one 2, ..."), sorted by digit; a :class:`FrequencyVector`
lists the count of every digit from 0 up to the largest index tracked,
keeping zero placeholders.  Counts are rendered in base 10, and
multi-digit counts contribute each of their decimal digits to the next
tally.

Both kinds of sequence are eventually periodic, from every start.  A
vector's width never shrinks and never grows past max(start width, 10).
Each entry of a step's output is at most the number of decimal digits in
the input's entries, or in the rendering of a descriptor, which has at most
10 pairs.  So within a few steps every entry is below 100: a vector of
width w <= 10 then sums to at most 2w, and a descriptor's counts to at most
30.  The sequence stays in a finite set from then on, and a map on a finite
set is eventually periodic.  The tests check the paper's T7/T8 pair and
criterion 12's examples, not every start.
"""

from __future__ import annotations

from collections import Counter

from .core import _Record, _iterates


def _digit_tally(text: str) -> Counter:
    tally = Counter()
    for ch in text:
        if not "0" <= ch <= "9":
            raise ValueError(f"non-digit character {ch!r}")
        tally[int(ch)] += 1
    return tally


class CountDescriptor(_Record):
    """Sorted (count, digit) pairs, one per distinct digit present."""

    _fields = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...]):
        last = -1
        for count, digit in pairs:
            if count < 1:
                raise ValueError(f"count {count} must be positive")
            if not 0 <= digit <= 9:
                raise ValueError(f"digit {digit} out of range")
            if digit <= last:
                raise ValueError("digits must be strictly increasing")
            last = digit
        super().__init__(pairs)

    @classmethod
    def describe(cls, text: str) -> "CountDescriptor":
        tally = _digit_tally(text)
        return cls(tuple((tally[d], d) for d in sorted(tally)))

    def render(self) -> str:
        return "".join(f"{count}{digit}" for count, digit in self.pairs)


def counting_step(d: CountDescriptor) -> CountDescriptor:
    """Describe the digits of the rendered descriptor, giving the next one."""
    return CountDescriptor.describe(d.render())


def counting_sequence(d: CountDescriptor, n: int) -> list[CountDescriptor]:
    """The paper's counting description, each digit present after its
    count, iterated: ``n`` steps from ``d`` (n+1 entries, ``d`` first)."""
    return _iterates(d, counting_step, n)


class FrequencyVector(_Record):
    """counts[d] = occurrences of digit d; zero placeholders are kept."""

    _fields = ("counts",)

    def __init__(self, counts: tuple[int, ...]):
        for c in counts:
            if c < 0:
                raise ValueError(f"count {c} must be non-negative")
        super().__init__(counts)

    @classmethod
    def describe(cls, text: str, size: int | None = None) -> "FrequencyVector":
        tally = _digit_tally(text)
        width = max(size or 0, max(tally) + 1 if tally else 0)
        return cls(tuple(tally.get(d, 0) for d in range(width)))


def selfdesc_step(v: FrequencyVector) -> FrequencyVector:
    """Tally the decimal digits appearing in the entries of ``v``.

    The index range never shrinks: the result is at least as long as ``v``,
    growing only if some entry contains a digit beyond the current range.
    """
    return FrequencyVector.describe("".join(map(str, v.counts)), size=len(v.counts))


def selfdesc_sequence(v: FrequencyVector, n: int) -> list[FrequencyVector]:
    """The paper's self-descriptive sequence T_1, T_2, ... (the count of
    every digit, zeros kept as placeholders): ``n`` steps from ``v`` (n+1
    entries)."""
    return _iterates(v, selfdesc_step, n)
