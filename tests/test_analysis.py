from fractions import Fraction

import pytest

from igusa_zeta import (
    BudgetExceeded,
    InvalidParameters,
    InvariantViolation,
    LocalRing,
    RatFun,
    WeightSystem,
    two_term_closed_form,
    oracle_counts,
    parse,
    poincare_from_zeta,
    zeta_semiquasihomogeneous,
)

from _util import brute_counts_char0, brute_counts_charp

Z3 = LocalRing(3)
Z5 = LocalRing(5)
Z7 = LocalRing(7)
F5PI = LocalRing(5, positive_char=True)


# -- oracle ---------------------------------------------------------------------


def test_oracle_counts_cusp():
    N = oracle_counts(parse("x^2+y^3", Z5), 3)
    assert N[0] == 1 and N[1] == 5
    assert N == brute_counts_char0(parse("x^2+y^3", Z5), 3)


def test_oracle_counts_line():
    assert oracle_counts(parse("x", Z5), 5) == [1] * 6
    assert oracle_counts(parse("x", Z3), 4) == [1] * 5


def test_oracle_counts_unit_constant():
    assert oracle_counts(parse("2", Z5, n_hint=1), 3) == [1, 0, 0, 0]


def test_oracle_counts_charp_matches_reference():
    f = parse("x^2+u*y^3", F5PI)
    assert oracle_counts(f, 2) == brute_counts_charp(f, 2)


def test_oracle_budget():
    with pytest.raises(BudgetExceeded):
        oracle_counts(parse("x^2+y^3", Z5), 4, budget=100)


# -- Poincare series ---------------------------------------------------------------


def test_poincare_unit_polynomial():
    P = poincare_from_zeta(RatFun.const(5, 1), 1)
    assert P.ratfun == RatFun.const(5, 1)
    assert P.counts(3) == [1, 0, 0, 0]


def test_poincare_line():
    Z = RatFun(5, (Fraction(4, 5),), ((1, 1),))
    P = poincare_from_zeta(Z, 1)
    assert P.ratfun == RatFun(5, (1,), ((1, 1),))
    assert P.counts(4) == [1, 1, 1, 1, 1]


def test_poincare_counts_match_oracle():
    for text, ring, jmax in [
        ("x^2+y^3", Z5, 3),
        ("x^2+y^3+x*y^2", Z7, 3),
        ("x^2+y^2+z^2", Z3, 3),
    ]:
        f = parse(text, ring)
        Z, _ = zeta_semiquasihomogeneous(f)
        P = poincare_from_zeta(Z, f.n)
        assert P.counts(jmax) == oracle_counts(f, jmax)


def test_poincare_rejects_perturbed_zeta():
    Z = RatFun(5, (Fraction(4, 5),), ((1, 1),))
    # breaks divisibility by (1 - t)
    with pytest.raises(InvariantViolation, match=r"^numerator not divisible by \(1 - 1 t\^1\)$"):
        poincare_from_zeta(Z + RatFun.const(5, Fraction(1, 3)), 1)
    # survives division but produces a non-integral count
    skewed = Z + RatFun.monomial(5, Fraction(1, 7), 1) - RatFun.monomial(5, Fraction(1, 7), 2)
    with pytest.raises(InvariantViolation,
                       match=r"^coefficient of t\^2 gives non-integral or negative count -18/7$"):
        poincare_from_zeta(skewed, 1).counts(3)


# -- closed form ---------------------------------------------------------------------


def test_closed_form_invalid_parameters():
    with pytest.raises(InvalidParameters):
        two_term_closed_form(Z5, 2, 2, Z5.one(), Z5.one())  # not coprime
    with pytest.raises(InvalidParameters):
        two_term_closed_form(Z5, 1, 3, Z5.one(), Z5.one())  # exponent 1
    with pytest.raises(InvalidParameters):
        two_term_closed_form(Z5, 2, 3, Z5.from_int(5), Z5.one())  # alpha not unit
    with pytest.raises(InvalidParameters):
        two_term_closed_form(Z5, 2, 3, Z5.one(), Z5.zero())  # beta zero


def test_closed_form_matches_engine_basic():
    f = parse("x^2+y^3", Z5)
    Z, _ = zeta_semiquasihomogeneous(f)
    assert two_term_closed_form(Z5, 2, 3, Z5.one(), Z5.one()) == Z


def test_closed_form_matches_engine_valuated_beta():
    # v(beta) = 1 at p = 7 exercises the intermediate slab
    f = parse("x^2+7*y^3", Z7)
    Z, _ = zeta_semiquasihomogeneous(f)
    assert two_term_closed_form(Z7, 2, 3, Z7.one(), Z7.from_int(7)) == Z


def test_closed_form_residue_char_divides_one_exponent():
    # p = 3 divides n = 3; the unit-square zeros are still smooth
    f = parse("x^3+y^4", Z3)
    Z, _ = zeta_semiquasihomogeneous(f)
    assert two_term_closed_form(Z3, 3, 4, Z3.one(), Z3.one()) == Z


def test_closed_form_charp():
    f = parse("x^2+u^2*y^3", F5PI)
    Z, _ = zeta_semiquasihomogeneous(f)
    assert two_term_closed_form(F5PI, 2, 3, F5PI.one(), F5PI.pi(2)) == Z


def test_closed_form_scaled_unit_coefficients():
    # nontrivial unit alpha and unit part of beta
    f = parse("2*x^2+3*y^3", Z5)
    Z, _ = zeta_semiquasihomogeneous(f)
    assert two_term_closed_form(Z5, 2, 3, Z5.from_int(2), Z5.from_int(3)) == Z
