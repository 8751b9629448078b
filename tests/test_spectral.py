import math
import random
from fractions import Fraction

import numpy as np
import pytest

from audioactive import (
    ConvergenceError,
    DigitString,
    GROWTH_POLYNOMIAL,
    TransitionMatrix,
    characteristic_polynomial,
    dominant_eigenvalue,
    eigenvalues,
    empirical_growth,
    evolve,
    fermion_matrix,
    limiting_frequencies,
    polynomial_division,
    primitivity_power,
)
from audioactive.particles import MATRIX_ORDER, ParticleClass, decay_chart
from audioactive.spectral import charpoly_csv, eigenvalues_csv, frequencies_csv

import oracles
import reference_values as ref


def _primitive_matrices():
    """The fermion matrix and random primitive matrices of sizes 2 to 6."""
    yield fermion_matrix()
    rng = np.random.default_rng(11)
    found = 0
    while found < 6:
        n = int(rng.integers(2, 7))
        entries = rng.integers(0, 3, size=(n, n)).tolist()
        m = TransitionMatrix(tuple(map(tuple, entries)), order=tuple("abcdef"[:n]))
        if primitivity_power(m) is not None:
            found += 1
            yield m


def _column(m, parent):
    j = MATRIX_ORDER.index(parent)
    return tuple(row[j] for row in m.entries)


class TestMatrix:
    def test_hardcoded_entries(self):
        m = fermion_matrix()
        assert m.entries == ref.TRANSITION_MATRIX
        assert m.order == ref.MATRIX_ORDER

    def test_charm_column(self):
        m = fermion_matrix()
        charm = _column(m, "C")
        assert charm[MATRIX_ORDER.index("D")] == 1
        assert charm[MATRIX_ORDER.index("B")] == 1
        assert sum(charm) == 2

    def test_electron_column(self):
        m = fermion_matrix()
        assert _column(m, "E") == (0, 1, 0, 0, 0, 0, 0, 0)  # E -> M only

    def test_trace_zero(self):
        entries = fermion_matrix().entries
        assert sum(entries[i][i] for i in range(len(entries))) == 0

    def test_column_sums_match_product_counts(self):
        m = fermion_matrix()
        for rule in decay_chart():
            if rule.parent.kind is ParticleClass.FERMION:
                assert sum(_column(m, rule.parent.symbol)) == len(rule.products)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TransitionMatrix(((1, 0),))
        with pytest.raises(ValueError):
            TransitionMatrix(((-1,) * 8,) * 8)

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            TransitionMatrix(((1, 0), (0, 1)), ("a", "a"))

    def test_matrix_powers_match_multiset_evolution(self):
        m = fermion_matrix()
        order = list(m.order)
        vec = [1 if sym == "E" else 0 for sym in order]
        counts = {"E": 1}
        for _ in range(30):
            vec = [
                sum(m.entries[i][j] * vec[j] for j in range(8)) for i in range(8)
            ]
            counts = evolve(counts, 1)
            assert vec == [counts.get(sym, 0) for sym in order]


class TestEigenvalue:
    def test_dominant_value(self):
        lam = dominant_eigenvalue(fermion_matrix(), tol=1e-13)
        assert abs(lam - ref.PLASTIC_NUMBER) < 1e-8
        assert abs(lam**3 - lam - 1) < 1e-8

    def test_scalar_case(self):
        assert dominant_eigenvalue(TransitionMatrix(((2,),), order=("X",))) == pytest.approx(2.0)

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            dominant_eigenvalue(fermion_matrix(), tol=0)

    def test_matches_numpy_eigvals(self):
        for m in _primitive_matrices():
            want = max(abs(np.linalg.eigvals(np.asarray(m.entries, dtype=float))))
            assert abs(dominant_eigenvalue(m) - want) < 1e-12, m.entries

    def test_matches_step_by_step_power_iteration(self):
        for m in _primitive_matrices():
            want, _ = oracles.power_iteration(m.entries, 1e-12)
            assert abs(dominant_eigenvalue(m) - want) < 1e-12, m.entries

    def test_badly_scaled_matrix_converges(self):
        # Eigenvalues 1 +- 10**4; the step-by-step loop gives up on it.
        m = TransitionMatrix(((1, 10**8), (1, 1)), ("a", "b"))
        assert dominant_eigenvalue(m) == pytest.approx(10_001, rel=1e-9)


# Not primitive: the powers of a periodic matrix cycle, and a Jordan block's
# converge only algebraically.  A stop that tests the change in the
# eigenvalue estimate along the squarings returns 1.5 for the first matrix;
# its true spectral radius is sqrt(2).
_NOT_PRIMITIVE = (
    ((0, 2), (1, 0)),
    ((0, 0, 3), (1, 0, 0), (0, 2, 0)),
    ((1, 1), (0, 1)),
)


@pytest.mark.parametrize("entries", _NOT_PRIMITIVE)
@pytest.mark.parametrize("routine", [dominant_eigenvalue, limiting_frequencies])
def test_not_primitive_is_a_convergence_error(routine, entries):
    m = TransitionMatrix(entries, tuple("abc"[: len(entries)]))
    with pytest.raises(ConvergenceError):
        routine(m)


def _assert_charpoly_matches_determinants(a):
    """det(xI - a) from Bareiss elimination at x = 0..n: the characteristic
    polynomial has degree n, so n + 1 agreeing points make it the same one."""
    n = len(a)
    coeffs = characteristic_polynomial(a)
    assert len(coeffs) == n + 1
    for x in range(n + 1):
        x_minus_a = [[(x if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)]
        assert sum(c * x ** (n - k) for k, c in enumerate(coeffs)) == oracles.bareiss_determinant(x_minus_a)


class TestCharacteristicPolynomial:
    def test_fermion_matrix_divisible_by_growth_polynomial(self):
        coeffs = characteristic_polynomial(fermion_matrix())
        assert len(coeffs) == 9 and coeffs[0] == 1
        quotient, remainder = polynomial_division(coeffs, GROWTH_POLYNOMIAL)
        assert remainder == ()
        assert len(quotient) == 6 and quotient[0] == 1

    def test_zero_matrix(self):
        assert characteristic_polynomial(((0, 0), (0, 0))) == (1, 0, 0)

    def test_swap_matrix(self):
        assert characteristic_polynomial(((0, 1), (1, 0))) == (1, 0, -1)

    def test_scalar(self):
        assert characteristic_polynomial(((5,),)) == (1, -5)

    def test_against_numpy_on_random_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            m = rng.integers(-4, 5, size=(n, n))
            got = characteristic_polynomial(m.tolist())
            want = np.poly(m.astype(float))
            assert np.allclose(np.asarray(got, dtype=float), want, atol=1e-6)

    def test_beyond_size_16_against_bareiss_determinants(self):
        rng = random.Random(17)
        for n in (17, 24):
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            _assert_charpoly_matches_determinants(a)

    def test_sparse_beyond_size_16_against_bareiss_determinants(self):
        # About 10 % of the entries nonzero, the case the sparse stages skip.
        rng = random.Random(23)
        for n in (17, 24):
            a = [[rng.randint(1, 3) if rng.random() < 0.1 else 0 for _ in range(n)] for _ in range(n)]
            _assert_charpoly_matches_determinants(a)

    def test_division_validation(self):
        with pytest.raises(ValueError):
            polynomial_division((1, 0), (2, 1))

    def test_division_with_remainder(self):
        quotient, remainder = polynomial_division((1, 0, 0), (1, 1))  # x^2 / (x+1)
        assert quotient == (1, -1)
        assert remainder == (1,)


class TestPrimitivity:
    def test_fermion_matrix_is_14(self):
        assert primitivity_power(fermion_matrix()) == 14

    def test_power_14_entrywise_positive(self):
        m = fermion_matrix()
        power = [[1 if i == j else 0 for j in range(8)] for i in range(8)]
        for _ in range(14):
            power = [
                [sum(power[i][t] * m.entries[t][j] for t in range(8)) for j in range(8)]
                for i in range(8)
            ]
        assert all(v >= 1 for row in power for v in row)

    def test_identity_never_positive(self):
        ident = TransitionMatrix(
            tuple(tuple(1 if i == j else 0 for j in range(2)) for i in range(2)),
            order=("a", "b"),
        )
        assert primitivity_power(ident) is None

    def test_wielandt_matrix_reaches_its_exponent(self):
        # Wielandt's n x n matrix has the largest exponent, (n - 1)**2 + 1.
        n = 9
        grid = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            grid[i][i + 1] = 1
        grid[n - 1][0] = grid[n - 1][1] = 1
        m = TransitionMatrix(tuple(map(tuple, grid)), order=tuple("abcdefghi"))
        assert primitivity_power(m) == (n - 1) ** 2 + 1 == 65

    def test_cyclic_and_reducible_are_not_primitive(self):
        cyclic = TransitionMatrix(((0, 1, 0), (0, 0, 1), (1, 0, 0)), order=("a", "b", "c"))
        reducible = TransitionMatrix(((1, 1), (0, 1)), order=("a", "b"))
        assert primitivity_power(cyclic) is None
        assert primitivity_power(reducible) is None

    def test_matches_integer_powers_up_to_wielandt_bound(self):
        # A primitive n x n matrix is positive by power (n - 1)**2 + 1, so
        # searching the exact integer powers that far decides primitivity.
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 5)
            grid = tuple(tuple(int(rng.random() < 0.35) for _ in range(n)) for _ in range(n))
            m = TransitionMatrix(grid, order=tuple("abcde"[:n]))
            assert primitivity_power(m) == oracles.primitivity_by_powers(grid), grid


class TestFrequencies:
    def test_values(self):
        freqs = limiting_frequencies()
        for sym, expected in ref.FERMION_FREQUENCIES.items():
            assert abs(freqs[sym] - expected) < 1e-4, sym

    def test_sum_to_one(self):
        freqs = limiting_frequencies()
        assert abs(sum(freqs.values()) - 1.0) < 1e-12

    def test_degenerate_tiers(self):
        freqs = limiting_frequencies()
        assert abs(freqs["M"] - freqs["D"]) < 1e-9
        assert abs(freqs["M"] - freqs["B"]) < 1e-9
        assert abs(freqs["U"] - freqs["S"]) < 1e-9
        assert abs(freqs["U"] - freqs["T"]) < 1e-9

    def test_match_numpy_eigenvector(self):
        for m in _primitive_matrices():
            values, vectors = np.linalg.eig(np.asarray(m.entries, dtype=float))
            v = vectors[:, np.argmax(abs(values))].real
            want = dict(zip(m.order, v / v.sum()))
            got = limiting_frequencies(m)
            assert got.keys() == want.keys()
            assert all(abs(got[sym] - want[sym]) < 1e-9 for sym in m.order), m.entries

    def test_match_step_by_step_power_iteration(self):
        for m in _primitive_matrices():
            _, v = oracles.power_iteration(m.entries, 1e-12)
            got = limiting_frequencies(m)
            assert all(abs(got[sym] - x / sum(v)) < 1e-9 for sym, x in zip(m.order, v)), m.entries

    def test_tier_ratio_is_inverse_growth_rate(self):
        freqs = limiting_frequencies()
        lam = dominant_eigenvalue(fermion_matrix())
        assert abs(freqs["M"] / freqs["E"] - 1 / lam) < 1e-3

    def test_nilpotent_matrix_is_a_convergence_error(self):
        # m times the first iterate is already zero.
        nilpotent = TransitionMatrix(((0, 1), (0, 0)), ("a", "b"))
        for routine in (dominant_eigenvalue, limiting_frequencies):
            with pytest.raises(ConvergenceError, match="zero vector"):
                routine(nilpotent)


def test_printed_digits_are_the_exact_roundings():
    """lambda to 9 places and each frequency to 6, as printed, equal the
    roundings of the exact values: lambda bounded by bisection, each
    frequency solved over Q(lambda) and bounded on lambda's interval.  No
    interval may straddle a rounding boundary, or the digit is unproven."""
    lo, hi = oracles.plastic_interval(Fraction(1, 10**24))
    exact = [oracles.qlam_interval(f, lo, hi)
             for f in oracles.exact_perron_frequencies(ref.TRANSITION_MATRIX)]
    want = [oracles.exact_rounding(lo, hi, 9)] + [oracles.exact_rounding(*f, 6) for f in exact]
    assert None not in want, want
    freqs = limiting_frequencies()
    got = [f"{dominant_eigenvalue(fermion_matrix()):.9f}"]
    got += [f"{freqs[sym]:.6f}" for sym in ref.MATRIX_ORDER]
    assert got == want


class TestEigenvalues:
    def test_count_and_dominance(self):
        vals = eigenvalues(fermion_matrix())
        assert len(vals) == 8
        assert abs(vals[0] - ref.PLASTIC_NUMBER) < 1e-6
        assert abs(vals[0].imag) < 1e-9
        assert all(abs(z) <= abs(vals[0]) + 1e-9 for z in vals)

    def test_match_numpy(self):
        ours = sorted(eigenvalues(fermion_matrix()), key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        direct = sorted(
            (complex(z) for z in np.linalg.eigvals(np.asarray(fermion_matrix().entries, dtype=float))),
            key=lambda z: (round(z.real, 6), round(z.imag, 6)),
        )
        for a, b in zip(ours, direct):
            assert abs(a - b) < 1e-6


class TestGrowth:
    def test_base3(self):
        est = empirical_growth(DigitString("1", 3), 60)
        assert abs(est.estimate - ref.PLASTIC_NUMBER) < 0.005

    def test_base2(self):
        est = empirical_growth(DigitString("1", 2), 50)
        assert abs(est.estimate - ref.BASE2_GROWTH) < 0.005

    def test_base10(self):
        est = empirical_growth(DigitString("1", 10), 60)
        assert abs(est.estimate - ref.HIGH_BASE_GROWTH) < 0.01

    def test_fixed_string_ratios(self):
        est = empirical_growth(DigitString("22", 3), 20)
        assert set(est.ratios) == {1.0}
        assert est.estimate == 1.0

    def test_growth_agrees_with_spectrum(self):
        est = empirical_growth(DigitString("10", 3), 60)
        lam = dominant_eigenvalue(fermion_matrix())
        assert abs(est.estimate - lam) < 0.005

    def test_ratio_definition(self):
        est = empirical_growth(DigitString("1", 3), 12)
        assert len(est.ratios) == 12
        assert est.ratios[0] == est.lengths[1] / est.lengths[0]
        tail = max(1, 12 // 4)
        expected = (est.lengths[-1] / est.lengths[-1 - tail]) ** (1 / tail)
        assert est.estimate == pytest.approx(expected)
        assert math.isfinite(est.estimate)

    def test_minimum_iterations(self):
        with pytest.raises(ValueError):
            empirical_growth(DigitString("1", 3), 5)


class TestCsvEmission:
    def test_frequencies_csv(self):
        text = frequencies_csv(limiting_frequencies())
        lines = text.splitlines()
        assert lines[0] == "particle,frequency"
        assert lines[1].startswith("E,0.185")
        assert len(lines) == 9

    def test_charpoly_csv(self):
        text = charpoly_csv(characteristic_polynomial(fermion_matrix()))
        lines = text.splitlines()
        assert lines[0] == "coeff_degree,coeff_value"
        assert lines[1] == "8,1"
        assert lines[-1] == "0,-1"

    def test_eigenvalues_csv(self):
        text = eigenvalues_csv(eigenvalues(fermion_matrix()))
        lines = text.splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 9
        assert lines[1].startswith("1.324717957")
