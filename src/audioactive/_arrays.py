"""numpy step engine for long run-dense digit texts.

Imported on first use, so commands that never step such inputs never load
numpy.  A run emits its count and its digit as two digits while every count
is below the base.  Longer numerals are placed by one cumulative sum of the
per-run output widths.
"""

from __future__ import annotations

import numpy as np

_ZERO = ord("0")


def _text_to_array(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8) - _ZERO


def _array_to_text(a: np.ndarray) -> str:
    return (a + _ZERO).astype(np.uint8).tobytes().decode("ascii")


def _array_runs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run digits and run lengths of a digit array."""
    if a.size == 0:
        return a[:0], np.zeros(0, dtype=np.int64)
    boundaries = np.flatnonzero(a[1:] != a[:-1])
    r = boundaries.size + 1
    digs = np.empty(r, dtype=a.dtype)
    digs[0] = a[0]
    digs[1:] = a[boundaries + 1]
    counts = np.empty(r, dtype=np.int64)
    if r == 1:
        counts[0] = a.size
    else:
        counts[0] = boundaries[0] + 1
        counts[1:-1] = np.diff(boundaries)
        counts[-1] = a.size - 1 - boundaries[-1]
    return digs, counts


def _run_pairs(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each run's count followed by its value, in the values' dtype."""
    out = np.empty(2 * values.size, dtype=values.dtype)
    out[0::2] = counts
    out[1::2] = values
    return out


def _array_step(a: np.ndarray, base: int) -> np.ndarray:
    digs, counts = _array_runs(a)
    maxc = int(counts.max(initial=0))
    if maxc < base:  # every numeral is one digit
        return _run_pairs(counts, digs)
    counts = counts.astype(np.min_scalar_type(maxc))  # narrow ints divide faster
    # output width per run: numeral digits plus the run digit
    widths = np.full(digs.size, 2, dtype=np.uint8)
    p = base
    while p <= maxc:
        widths += counts >= p
        p *= base
    ends = np.cumsum(widths, dtype=np.int64)  # position just past each run's emission
    out = np.empty(int(ends[-1]), dtype=a.dtype)
    out[ends - 1] = digs
    out[ends - 2] = counts % base
    # deeper numeral digits exist only for the runs with count >= base
    deep = np.flatnonzero(counts >= base)
    ends, rest = ends[deep], counts[deep] // base
    depth = 3
    while rest.size:
        out[ends - depth] = rest % base
        rest //= base
        more = rest > 0
        ends, rest = ends[more], rest[more]
        depth += 1
    return out
