import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igusa_zeta import (
    BudgetExceeded,
    InsufficientValuation,
    LocalRing,
    LocalRingElement,
    MultiPoly,
    ResidueRegion,
    classify_points,
    parse,
)

from _util import from_digits, region_points

Z5 = LocalRing(5)
Z3 = LocalRing(3)
F3PI = LocalRing(3, positive_char=True)
F5PI = LocalRing(5, positive_char=True)


def test_prime_field_validation():
    LocalRing(2)
    LocalRing(13, positive_char=True)
    with pytest.raises(ValueError):
        LocalRing(1)
    with pytest.raises(ValueError):
        LocalRing(9)


def test_valuation_char0():
    assert Z5.from_int(75).valuation() == 2
    assert Z5.from_int(0).valuation() == math.inf
    assert Z5.from_int(3).valuation() == 0
    assert Z5.from_int(-250).valuation() == 3


def _naive_valuation(k, p):
    k, v = abs(k), 0
    while k % p == 0:
        k //= p
        v += 1
    return v


def test_valuation_char0_matches_naive_loop():
    rng = random.Random(2002)
    for p in (2, 3, 5, 7):
        ring = LocalRing(p)
        cases = [p**2002, -(p**3000)] + [(-1) ** v * (p + 1) * p**v for v in range(20)]
        for _ in range(50):
            unit = rng.randrange(1, 10**6)
            while unit % p == 0:
                unit = rng.randrange(1, 10**6)
            cases.append(rng.choice((1, -1)) * unit * p ** rng.randint(0, 3000))
        for k in cases:
            assert ring.from_int(k).valuation() == _naive_valuation(k, p)
    assert Z3.from_int(3**2002).valuation() == 2002
    assert Z3.from_int(-2 * 3**2002).valuation() == 2002


def test_valuation_charp():
    x = from_digits(F3PI, (0, 0, 1, 2))  # pi^2 + 2 pi^3
    assert x.valuation() == 2
    assert F3PI.zero().valuation() == math.inf
    assert F3PI.one().valuation() == 0


def test_divide_by_uniformizer():
    assert Z5.from_int(75).divide_by_uniformizer(2) == Z5.from_int(3)
    assert Z5.zero().divide_by_uniformizer(7) == Z5.zero()
    with pytest.raises(InsufficientValuation):
        Z5.from_int(5).divide_by_uniformizer(2)
    x = from_digits(F5PI, (0, 0, 2))
    assert x.divide_by_uniformizer(2) == F5PI.from_int(2)
    with pytest.raises(InsufficientValuation):
        F5PI.pi(1).divide_by_uniformizer(2)


def test_times_pi():
    assert Z5.from_int(3).times_pi(2) == Z5.from_int(75)
    assert Z5.from_int(-2).times_pi(0) == Z5.from_int(-2)
    assert Z5.zero().times_pi(4) == Z5.zero()
    x = from_digits(F5PI, (2, 0, 1))
    assert x.times_pi(3) == x * F5PI.pi(3) == from_digits(F5PI, (0, 0, 0, 2, 0, 1))
    assert F5PI.zero().times_pi(2) == F5PI.zero()


@pytest.mark.parametrize("ring", [Z5, F5PI], ids=["char0", "charp"])
def test_negative_uniformizer_powers_are_rejected(ring):
    x, f = ring.from_int(3), parse("x^2+y", ring)
    shifts = [
        lambda: x.times_pi(-1),
        lambda: ring.pi(3).divide_by_uniformizer(-1),
        lambda: ring.zero().times_pi(-2),
        lambda: f.divide_by_uniformizer(-1),
        lambda: MultiPoly.zero(ring, 2).divide_by_uniformizer(-1),
        lambda: f.substitute_affine([ring.zero()] * 2, [-1, 0]),
    ]
    for shift in shifts:
        with pytest.raises(ValueError, match="negative uniformizer power"):
            shift()


def test_enumerate_points():
    assert list(region_points(ResidueRegion.full(2, 1))) == [(0,), (1,)]
    pts = list(region_points(ResidueRegion.full(3, 2)))
    assert len(pts) == 9
    assert pts[0] == (0, 0) and pts[-1] == (2, 2)
    assert len(set(pts)) == 9
    # a one-part reduction on 2^64 points is refused before it is enumerated
    Z2 = LocalRing(2)
    one_part = MultiPoly(Z2, 64, {(1,) * 64: Z2.one()})
    with pytest.raises(BudgetExceeded):
        classify_points(one_part, ResidueRegion.full(2, 64))


def test_reduce_and_lift():
    # the canonical lift of a residue reduces back to it
    for ring in (Z5, F5PI):
        for a in range(5):
            assert ring.from_int(a).reduce() == a
    # adding multiples of pi does not change the residue
    assert Z5.from_int(7).reduce() == 2


@pytest.mark.parametrize("ring", [Z5, Z3, F3PI, F5PI])
def test_valuation_properties_random(ring):
    rng = random.Random(20240 + ring.p + (100 if ring.positive_char else 0))

    def rand_elem():
        if ring.positive_char:
            return from_digits(ring, [rng.randint(0, ring.p - 1) for _ in range(4)])
        return ring.from_int(rng.randint(-400, 400))

    for _ in range(1000):
        x, y = rand_elem(), rand_elem()
        vx, vy = x.valuation(), y.valuation()
        assert (x * y).valuation() == vx + vy
        assert (x + y).valuation() >= min(vx, vy)


@pytest.mark.parametrize("ring", [Z5, F3PI])
def test_reduce_is_homomorphism(ring):
    rng = random.Random(7)
    p = ring.p

    def rand_elem():
        if ring.positive_char:
            return from_digits(ring, [rng.randint(0, p - 1) for _ in range(3)])
        return ring.from_int(rng.randint(-50, 50))

    for _ in range(300):
        x, y = rand_elem(), rand_elem()
        assert (x + y).reduce() == (x.reduce() + y.reduce()) % p
        assert (x * y).reduce() == (x.reduce() * y.reduce()) % p


def test_charp_arithmetic():
    # (1 + pi)(2 + pi) = 2 + 3 pi + pi^2 over F_5
    a = from_digits(F5PI, (1, 1))
    b = from_digits(F5PI, (2, 1))
    assert a * b == from_digits(F5PI, (2, 3, 1))
    # in F_3: (1 + 2 pi) + (2 + pi) = 0
    c = from_digits(F3PI, (1, 2))
    d = from_digits(F3PI, (2, 1))
    assert (c + d).is_zero()


def test_element_render():
    assert Z5.from_int(-12).render() == "-12"
    assert from_digits(F5PI, (1, 0, 3)).render() == "1 + 3*u^2"
    assert from_digits(F5PI, (0, 1)).render() == "u"
    assert F5PI.zero().render() == "0"


CACHE_RINGS = [LocalRing(p, positive_char=c) for p in (2, 3, 5) for c in (False, True)]


def ring_elements(ring):
    """Elements of O_K with valuations up to 8 and some zeros, as payloads go in."""
    if ring.positive_char:
        return st.lists(st.integers(0, ring.p - 1), max_size=10).map(
            lambda digits: from_digits(ring, digits)
        )
    return st.builds(
        lambda u, k: ring.from_int(u * ring.p**k), st.integers(-60, 60), st.integers(0, 8)
    )


def fresh(x):
    """x with a cold cache: the valuation is computed from the payload alone."""
    return LocalRingElement(x.ring, x.payload)


CACHE_OPS = ["times_pi", "divide", "add", "sub", "mul", "pow", "neg", "from_int", "pi"]


@pytest.mark.parametrize("ring", CACHE_RINGS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cached_valuation_matches_a_fresh_element(ring, data):
    # a chain of operations, each on operands whose caches are cold or warm;
    # every result's valuation equals a cold copy's, and == and hash ignore the cache
    x = data.draw(ring_elements(ring))
    for op in data.draw(st.lists(st.sampled_from(CACHE_OPS), min_size=1, max_size=8)):
        y = data.draw(ring_elements(ring))
        k = data.draw(st.integers(0, 6))
        for operand in (x, y):
            if data.draw(st.booleans()):
                operand.valuation()
        try:
            x = {
                "times_pi": lambda: x.times_pi(k),
                "divide": lambda: x.divide_by_uniformizer(k),
                "add": lambda: x + y,
                "sub": lambda: x - y,
                "mul": lambda: x * y,
                "pow": lambda: x ** (k % 4),
                "neg": lambda: -x,
                "from_int": lambda: ring.from_int(data.draw(st.integers(-100, 100))),
                "pi": lambda: ring.pi(k),
            }[op]()
        except InsufficientValuation:
            assert op == "divide" and fresh(x).valuation() < k
            with pytest.raises(InsufficientValuation):
                fresh(x).divide_by_uniformizer(k)
            continue
        cold = fresh(x)
        if data.draw(st.booleans()):
            x.valuation()
        assert x == cold and hash(x) == hash(cold)
        assert x.valuation() == cold.valuation()
