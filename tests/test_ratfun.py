import json
import random
from fractions import Fraction

import pytest

from igusa_zeta import DenomFactor, InvariantViolation, PoincareSeries, RatFun, poincare_from_zeta

from _ratfun_reference import ReferenceRatFun, counts_reference, poincare_reference


def geo(p, a, b):
    """1 / (1 - p^-a t^b)"""
    return RatFun(p, (1,), ((a, b),))


def test_denom_factor_validation():
    DenomFactor(1, 1)
    with pytest.raises(ValueError, match="requires a >= 1 and b >= 1"):
        DenomFactor(0, 1)
    with pytest.raises(ValueError, match="requires a >= 1 and b >= 1"):
        DenomFactor(1, 0)
    assert repr(DenomFactor(1, 1)) == "DenomFactor(a=1, b=1)"


def test_poincare_series_validation():
    PoincareSeries(RatFun.const(5, 1), 1, 5)
    for ratfun in (RatFun.const(5, 2), RatFun.zero(5), RatFun.monomial(5, 1, 1)):
        with pytest.raises(InvariantViolation, match="must have constant term 1"):
            PoincareSeries(ratfun, 1, 5)


def test_add_geometric_identity():
    # 1 + q^-1 t / (1 - q^-1 t) == 1 / (1 - q^-1 t) at p = 5
    lhs = RatFun.const(5, 1) + RatFun(5, (0, Fraction(1, 5)), ((1, 1),))
    assert lhs == geo(5, 1, 1)
    assert lhs.num == (Fraction(1),)
    assert lhs.denom == (DenomFactor(1, 1),)


def test_scale():
    assert RatFun.const(5, 1).scale(Fraction(1, 25), 3) == RatFun.monomial(5, Fraction(1, 25), 3)
    r = geo(5, 2, 3)
    assert (r + RatFun.zero(5)) == r


def test_geometric_close_and_cancel():
    assert RatFun.const(5, 1).geometric_close(5, 6) == geo(5, 5, 6)
    numerator = RatFun(5, (1, 0, 0, 0, 0, 0, Fraction(-1, 5**5)))  # 1 - q^-5 t^6
    assert numerator.geometric_close(5, 6) == RatFun.const(5, 1)
    assert numerator.geometric_close(5, 6).denom == ()
    assert RatFun.zero(5).geometric_close(5, 6).is_zero()


def test_series_expand():
    assert geo(5, 1, 1).series_expand(3) == [1, Fraction(1, 5), Fraction(1, 25), Fraction(1, 125)]
    assert RatFun.monomial(5, 1, 2).series_expand(3) == [0, 0, 1, 0]
    r = RatFun(5, (Fraction(4, 5),), ((1, 1),))
    assert r.series_expand(2) == [Fraction(4, 5), Fraction(4, 25), Fraction(4, 125)]


def test_pole_real_parts():
    r = RatFun(5, (1, 1), ((1, 1), (5, 6)))
    assert r.pole_real_parts() == {Fraction(-1), Fraction(-5, 6)}
    assert RatFun(5, (1, 2, 3)).pole_real_parts() == set()
    assert RatFun(5, (1, 1), ((3, 2),)).pole_real_parts() == {Fraction(-3, 2)}


def test_cross_multiplied_equality():
    # same function, structurally different representations
    a = RatFun(7, (1,), ((1, 1),))
    b = RatFun(7, (1, Fraction(1, 7)), ((2, 2),))  # (1 + t/7)/(1 - t^2/49)
    assert a == b
    assert not (a == RatFun(7, (1,), ((2, 2),)))
    with pytest.raises(ValueError):
        a + RatFun(5, (1,))


def test_addition_series_linearity_random():
    rng = random.Random(99)
    for _ in range(50):
        p = rng.choice([3, 5, 7])
        def rand_rf():
            num = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(rng.randint(1, 4))]
            denom = []
            for _ in range(rng.randint(0, 2)):
                denom.append((rng.randint(1, 3), rng.randint(1, 3)))
            return RatFun(p, num, denom)
        r1, r2 = rand_rf(), rand_rf()
        s = r1 + r2
        lhs = s.series_expand(20)
        rhs = [a + b for a, b in zip(r1.series_expand(20), r2.series_expand(20))]
        assert lhs == rhs
        # canonicalization is stable: re-adding zero changes nothing
        assert (s + RatFun.zero(p)).series_expand(20) == lhs


def test_subtraction_and_negation():
    r = geo(5, 1, 1)
    assert (r - r).is_zero()
    assert (-r + r).is_zero()


def test_json_roundtrip():
    r = RatFun(5, (Fraction(4, 5), 0, Fraction(-1, 3)), ((1, 1), (5, 6)))
    blob = json.dumps(r.to_json())
    back = RatFun.from_json(json.loads(blob), 5)
    assert back == r
    assert back.num == r.num and back.denom == r.denom
    # a zero and a negative coefficient, each in lowest terms
    assert r.to_json() == {
        "num": [[4, 5], [0, 1], [-1, 3]], "denom": [{"a": 1, "b": 1}, {"a": 5, "b": 6}]
    }
    assert RatFun(7, (Fraction(-6, 49), 0, 2)).to_json() == {
        "num": [[-6, 49], [0, 1], [2, 1]], "denom": []
    }


def test_divide_numerator_exactly():
    # the Fraction reference's division, which poincare_reference runs: (1 - t) / (1 - t) = 1
    r = ReferenceRatFun(5, (1, -1))
    assert r.divide_numerator_exactly(1, 1) == ReferenceRatFun(5, (1,))
    with pytest.raises(InvariantViolation, match=r"not divisible by \(1 - 1 t\^1\)"):
        ReferenceRatFun(5, (1, 1)).divide_numerator_exactly(1, 1)


def test_times_factor_inverts_geometric_close():
    # multiplying by (1 - 5^-3 t^2) is subtracting the value times 5^-3 t^2
    r = RatFun(5, (1, Fraction(2, 5)), ((1, 1),))
    closed = r.geometric_close(3, 2)
    assert closed - closed.scale(Fraction(1, 5**3), 2) == r


def test_str_and_latex():
    r = RatFun(5, (Fraction(4, 5), Fraction(-1, 3)), ((1, 1),))
    assert "1 - 5^-1*t" in str(r)
    assert "\\frac" in r.latex()
    assert RatFun.zero(5).latex() == "0"



def _mul_factor(num, c, b):
    """num * (1 - c t^b), Fraction coefficients."""
    out = list(num) + [Fraction(0)] * b
    for i, v in enumerate(num):
        out[i + b] -= c * v
    return out


def times_factor(r, a, b):
    """r * (1 - p^-a t^b), as r minus r scaled by p^-a t^b."""
    return r - r.scale(Fraction(1, r.p**a), b)


def _same(new, ref):
    return new.num == ref.num and new.denom == ref.denom


def _outcome(op):
    try:
        return op()
    except InvariantViolation as exc:
        return str(exc)


def test_integer_arithmetic_matches_fraction_reference():
    rng = random.Random(16)
    for _ in range(400):
        p = rng.choice([2, 3, 5, 7])
        d = rng.randint(2, 4)
        pool = [(1, 1), (d, d), (1, 2), (2, 1), (3, 2), (d + 1, d), (1, 3), (5, 2)]  # a < b, a > b
        denominators = [1, 3, 7, p, p * p, 3 * p]  # 3 and 7 are not powers of most p

        def draw():
            num = [Fraction(rng.randint(-6, 6), rng.choice(denominators))
                   for _ in range(rng.choice([0, 1, 2, 3, 5]))]
            factors = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.3:
                factors += [(1, 1), (d, d)]  # |alpha| = d: (1 - t/p) divides (1 - t^d/p^d)
            for a, b in factors:  # plant cancellations
                if num and rng.random() < 0.4:
                    num = _mul_factor(num, Fraction(1, p**a), b)
            return RatFun(p, num, factors), ReferenceRatFun(p, num, factors)

        (x, rx), (y, ry) = draw(), draw()
        assert _same(x, rx) and _same(y, ry)
        assert _same(x + y, rx + ry) and _same(x - y, rx - ry) and _same(-x, -rx)
        c = Fraction(rng.randint(-4, 4), rng.choice(denominators))
        e = rng.randint(0, 3)
        assert _same(x.scale(c, e), rx.scale(c, e))
        assert (x == x.scale(c)) == (rx == rx.scale(c))
        a, b = rng.choice(pool)
        assert _same(x.geometric_close(a, b), rx.geometric_close(a, b))
        assert _same(times_factor(x, a, b), rx.times_factor(a, b))
        assert (x == y) == (rx == ry)
        z, rz = times_factor(x.geometric_close(a, b), a, b), rx.geometric_close(a, b).times_factor(a, b)
        assert _same(z, rz) and (x == z) and (rx == rz)
        # the integer series against the Fraction recurrence
        assert x.series_expand(9) == rx.series_expand(9)
        assert (x + y).series_expand(9) == (rx + ry).series_expand(9)
        # the Poincare bridge: Z = 1 - (1 - t) y has mass one and P = 1 + t y; x mostly has not
        n = rng.randint(1, 3)
        one = RatFun.const(p, 1)
        for u in (x, one - y + y.scale(1, 1)):
            want = _outcome(lambda: poincare_reference(u))
            got = _outcome(lambda: poincare_from_zeta(u, n).ratfun)
            if isinstance(want, str):
                assert got == want
                continue
            assert (got._num, got._den, got.denom) == (want._num, want._den, want.denom)
            assert u is x or got == one + y.scale(1, 1)
            want = _outcome(lambda: counts_reference(got, n, 6))
            assert _outcome(lambda: PoincareSeries(got, n, p).counts(6)) == want
