import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from igusa_zeta import LocalRing, MultiPoly, _kernels, oracle_counts, parse
from igusa_zeta.analysis import congruence_count
from igusa_zeta.errors import BudgetExceeded

from _util import brute_counts_char0, brute_counts_charp, from_digits

Z3 = LocalRing(3)
Z5 = LocalRing(5)
F3PI = LocalRing(3, positive_char=True)

CASES_CHAR0 = [
    ("x^2+y^3", Z5, 2),
    ("x^2+y^3+x*y^2", Z3, 3),
    ("x^3+y^4", Z3, 3),
    ("x^2+y^2+z^2", Z3, 2),
    ("x", Z5, 3),
    ("2*x^2 - 3*y + 1", Z3, 2),
]


@pytest.mark.parametrize("text,ring,jmax", CASES_CHAR0)
def test_lift_counts_match_reference_char0(text, ring, jmax):
    f = parse(text, ring)
    expected = brute_counts_char0(f, jmax)
    assert [1] + [congruence_count(f, j) for j in range(1, jmax + 1)] == expected


CASES_CHARP = [
    ("x^2+y^3", F3PI, 2),
    ("u*y^2+x", F3PI, 3),
    ("x^3+u*x+y^2", F3PI, 2),
]


@pytest.mark.parametrize("text,ring,jmax", CASES_CHARP)
def test_lift_counts_match_reference_charp(text, ring, jmax):
    f = parse(text, ring)
    expected = brute_counts_charp(f, jmax)
    assert [1] + [congruence_count(f, j) for j in range(1, jmax + 1)] == expected


def test_zero_polynomial_counts():
    f = parse("0", Z3, n_hint=2)
    assert congruence_count(f, 2) == 3**4


# Counts out of reach of the pure-Python enumerations, recorded from the
# former brute-force numpy kernel (p^(n j) points per level).
CASES_PINNED = [
    ("x^2+y^3", Z5, [1, 5, 45, 225, 1125, 5625]),
    ("x^2+y^3+x*y^2", LocalRing(7), [1, 6, 84, 588, 4116]),
    ("x^2+y^2+z^2", Z5, [1, 25, 725, 18125]),
    ("x^2+y^2+z^2", LocalRing(7), [1, 49, 2695, 132055]),
    ("x^2+u*y^3", LocalRing(5, positive_char=True), [1, 5, 25, 125, 3125]),
    # a mixed monomial in characteristic p (5^12 points at the last level),
    # recorded from the lifting kernel that built every candidate row
    ("x^2+u*y^3+x*y*z+u^2*z^2", LocalRing(5, positive_char=True), [1, 41, 1425, 33125, 1140625]),
]


@pytest.mark.parametrize("text,ring,expected", CASES_PINNED)
def test_pinned_counts(text, ring, expected):
    assert oracle_counts(parse(text, ring), len(expected) - 1) == expected


def test_counts_past_int64_products():
    # from 11^10 on, (m - 1)^2 no longer fits in int64
    f = parse("x^2", LocalRing(11))
    assert oracle_counts(f, 10) == [11 ** (j // 2) for j in range(11)]


def test_budget_charges_lifting_candidates():
    # N = [1, 7, 91, 637]: level j lifts N_(j-1) * 7^2 candidates (49, 343, 4459);
    # the survivors of the last level are only counted, so they are not charged
    f = parse("x^2+y^3", LocalRing(7))
    assert oracle_counts(f, 3, budget=4459) == [1, 7, 91, 637]
    with pytest.raises(BudgetExceeded):
        oracle_counts(f, 3, budget=4458)
    assert oracle_counts(f, 2, budget=343) == [1, 7, 91]
    with pytest.raises(BudgetExceeded):
        oracle_counts(f, 2, budget=342)


def test_charp_digits_past_one_byte():
    f = parse("x^2", LocalRing(257, positive_char=True))
    assert oracle_counts(f, 3) == [1, 1, 257, 257]


# x^k = 0 mod u^j exactly when the first ceil(j / k) digits of x vanish, so
# N_j = p^(j - ceil(j / k)).  x^2 over F_5((u)) at J = 8 packs 8 lanes of
# 8 bits (J b = 64, one word); x^3 over F_2((u)) at J = 16 needs 5-bit lanes,
# 6 to a word, so 3 words.
PACKING_BOUNDARIES = [
    pytest.param(2, 5, 8, 8, 1, id="x^2-F5-J8-one-full-word"),
    pytest.param(3, 2, 16, 5, 3, id="x^3-F2-J16-three-words"),
]


@pytest.mark.parametrize("k, p, levels, bits, words", PACKING_BOUNDARIES)
def test_counts_at_packing_boundaries(k, p, levels, bits, words):
    f = parse(f"x^{k}", LocalRing(p, positive_char=True))
    lanes = _kernels._Lanes([(k,)], [(1,)], 1, p, levels)
    assert (lanes.bits, lanes.words) == (bits, words)
    assert oracle_counts(f, levels) == [p ** (j + (-j // k)) for j in range(levels + 1)]


@pytest.mark.parametrize("k, p, levels, bits, words", PACKING_BOUNDARIES)
def test_packed_values_stay_uint64(monkeypatch, k, p, levels, bits, words):
    # a float64 or object promotion would lose the exact lanes without an error
    seen = []
    grid_values, rows = _kernels._grid_values, _kernels._Lanes.rows

    def record(array, word_axis):
        seen.append((array.dtype, array.shape[word_axis]))
        return array

    monkeypatch.setattr(_kernels, "_grid_values", lambda *a: record(grid_values(*a), 0))
    monkeypatch.setattr(_kernels._Lanes, "rows", lambda *a: record(rows(*a), 2))
    oracle_counts(parse(f"x^{k}+u*x^{k + 1}", LocalRing(p, positive_char=True)), levels)
    assert {dtype for dtype, _ in seen} == {np.dtype(np.uint64)}
    assert max(count for _, count in seen) == words


def test_lanes_wider_than_a_word_are_refused():
    # x_1 ... x_8 over F_257((u)): one lane of the term can reach 256^8 = 2^64
    with pytest.raises(BudgetExceeded, match="digit lanes of 65 bits"):
        _kernels._Lanes([(1,) * 8], [[1]], 8, 257, 1)


SLICED = [
    ("x^2+y^3+x*y^2", Z3, 3),
    ("x^2+y^2+z^2", Z3, 2),
    ("u*y^2+x", F3PI, 3),
    ("x^2+u*y^3+x*y*z", F3PI, 2),
]


@pytest.mark.parametrize("text,ring,jmax", SLICED)
def test_counts_with_the_lift_grid_sliced(monkeypatch, text, ring, jmax):
    # a slice of 4 candidates cuts every grid of p^n = 9 or 27 points
    f = parse(text, ring)
    brute = brute_counts_charp if ring.positive_char else brute_counts_char0
    expected = brute(f, jmax)
    monkeypatch.setattr(_kernels, "_SLICE", 4)
    assert (oracle_counts(f, jmax), congruence_count(f, jmax)) == (expected, expected[jmax])


@st.composite
def counting_cases(draw):
    """(f, levels) with p^(n levels) at most 5000.

    Coefficient digit lists run up to ``levels`` long.  Within 5000 points
    the drawn lanes fit one word; the examples of the test add three.
    """
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 3))
    levels = draw(st.integers(1, max(1, max(j for j in range(1, 13) if p ** (n * j) <= 5000))))
    positive_char = draw(st.booleans())
    ring = LocalRing(p, positive_char=positive_char)
    terms = {}
    # mixed monomials and the constant monomial (0, ..., 0) are both drawn
    for e in draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=5)):
        v = draw(st.integers(0, 2))  # coefficients of positive valuation
        if positive_char:
            digits = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=levels))
            c = from_digits(ring, digits)
        else:
            c = ring.from_int(draw(st.integers(-7, 7)))
        terms[e] = c * ring.pi(v)
    return MultiPoly(ring, n, terms), levels


def _words_case():
    # 1 + x + x^2 + x^3 times a unit of 11 digits 1 over F_2((u)), to J = 11:
    # lanes of 6 bits, 5 to a word, so 3 words
    ring = LocalRing(2, positive_char=True)
    c = from_digits(ring, [1] * 11)
    return MultiPoly(ring, 1, {(e,): c for e in range(4)}), 11


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(counting_cases())
@example(_words_case())
def test_lift_counts_match_reference_property(case):
    f, levels = case
    brute = brute_counts_charp if f.ring.positive_char else brute_counts_char0
    expected = brute(f, levels)
    assert [1] + [congruence_count(f, j) for j in range(1, levels + 1)] == expected
    assert oracle_counts(f, levels) == expected
