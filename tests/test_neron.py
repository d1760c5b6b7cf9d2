import itertools
import random
from fractions import Fraction

import pytest

from igusa_zeta import (
    BudgetExceeded,
    LocalRing,
    MultiPoly,
    ResidueRegion,
    classify_points,
    dilate,
    neron,
    parse,
    weighted_degree,
)

from _util import (
    evaluate_residue, from_digits, int_poly, poly_times_pi, random_poly, region_points,
    residue_gradient,
)

Z5 = LocalRing(5)
Z3 = LocalRing(3)
F5PI = LocalRing(5, positive_char=True)


def test_classify_cusp_full_plane():
    f = parse("x^2 + y^3", Z5)
    cls = classify_points(f, ResidueRegion.full(5, 2))
    # recount by a literal loop, independent of the package path
    zeros = [
        (x, y) for x, y in itertools.product(range(5), repeat=2) if (x * x + y**3) % 5 == 0
    ]
    assert len(zeros) == 5
    assert cls.singular == [(0, 0)]
    assert cls.nu == Fraction(20, 25)
    assert cls.sigma == Fraction(4, 25)


def test_classify_line():
    cls = classify_points(parse("x", Z5), ResidueRegion.full(5, 1))
    assert (cls.nu, cls.sigma, cls.singular) == (Fraction(4, 5), Fraction(1, 5), [])


def test_classify_unit_constant():
    region = ResidueRegion(5, 2, frozenset({0}))
    cls = classify_points(parse("1", Z5, n_hint=2), region)
    assert cls.nu == Fraction(4 * 5, 25)
    assert cls.sigma == 0 and cls.singular == []


def random_mask(p, n, rng):
    """A residue region whose unit coordinates are a random subset of range(n)."""
    return ResidueRegion(p, n, frozenset(i for i in range(n) if rng.random() < 0.5))


def unit_masks(p, n, rng):
    """The masks with no units and with all units, and a random one."""
    return [
        ResidueRegion.full(p, n), ResidueRegion(p, n, frozenset(range(n))), random_mask(p, n, rng),
    ]


def expand_singular(cls, region):
    """The region's singular points {c_U} x prod_{i not in U} R_i, in region order."""
    factors = [region.residues(i) for i in range(region.n)]
    points = []
    for c_u in cls.singular:
        rows = list(factors)
        for i, c in zip(cls.support, c_u):
            rows[i] = [c]
        points.extend(itertools.product(*rows))
    return sorted(points)


def reference_classify(f, region):
    """One evaluate_residue per point and partial, in the region's order."""
    fbar = f.reduce_mod_pi()
    grad = residue_gradient(fbar)
    nonvanishing, smooth, singular = 0, 0, []
    for point in region_points(region):
        if evaluate_residue(fbar, point) != 0:
            nonvanishing += 1
        elif any(evaluate_residue(g, point) != 0 for g in grad):
            smooth += 1
        else:
            singular.append(point)
    total = region.p**region.n
    return Fraction(nonvanishing, total), Fraction(smooth, total), singular


def assert_matches_reference(f, region):
    cls = classify_points(f, region)
    assert (cls.nu, cls.sigma, expand_singular(cls, region)) == reference_classify(f, region)
    assert len(cls.singular) * cls.fibre == len(expand_singular(cls, region))
    fbar = f.reduce_mod_pi()
    assert cls.support == tuple(i for i in range(f.n) if any(e[i] for e in fbar.terms))


def missing_coordinate(f, rng):
    """f with every term in one random coordinate times p: the reduction misses it."""
    i = rng.randrange(f.n)
    pi = f.ring.pi(1)
    return MultiPoly(f.ring, f.n, {e: c * pi if e[i] else c for e, c in f.terms.items()})


def test_classify_partition_random():
    rng = random.Random(3)
    for case in range(60):
        f = random_poly(Z3, 2, rng)
        if case % 2:
            f = missing_coordinate(f, rng)
        if f.content_valuation() > 0:
            continue
        region = random_mask(3, 2, rng)
        cls = classify_points(f, region)
        total = cls.nu + cls.sigma + Fraction(len(cls.singular) * cls.fibre, 9)
        assert total == Fraction(region.card(), 9)
        assert_matches_reference(f, region)


def test_classify_on_support_only():
    # x^2 in three variables at p = 5: U = {x}, one singular point on it,
    # which stands for the 25 singular points {0} x F_5 x F_5
    cls = classify_points(parse("x^2", Z5, n_hint=3), ResidueRegion.full(5, 3))
    assert (cls.support, cls.singular, cls.fibre) == ((0,), [(0,)], 25)
    assert (cls.nonzero, cls.smooth) == (100, 0)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_classify_matches_pointwise_evaluation(p):
    # exponents run past p, so x^k and x^(k mod (p-1)) tables must agree
    rng = random.Random(p)
    ring = LocalRing(p)
    for n in (1, 2, 3):
        for case in range(12):
            terms = {
                tuple(rng.randint(0, 2 * p + 1) for _ in range(n)): rng.randint(1, 3 * p)
                for _ in range(rng.randint(1, 4))
            }
            terms[tuple(rng.randint(0, 2 * p + 1) for _ in range(n))] = 1
            f = int_poly(ring, n, terms)
            if case % 2:
                f = missing_coordinate(f, rng)
                if f.content_valuation() > 0:
                    continue
            for region in unit_masks(p, n, rng):
                assert_matches_reference(f, region)


def random_parts_poly(ring, n, rng):
    """A polynomial whose reduction is random parts on a random partition of the coordinates.

    Exponents run past p and include multiples of p, so a whole part can be
    critical; some terms carry a coefficient divisible by pi (they drop out
    of the reduction), and the constant term is optional.
    """
    p, pi = ring.p, ring.pi(1)
    coords = rng.sample(range(n), n)
    terms = {}
    while coords:
        size = rng.randint(1, len(coords))
        block, coords = coords[:size], coords[size:]
        if rng.random() < 0.2:
            continue  # these coordinates stay out of f
        critical = rng.random() < 0.25  # every exponent a multiple of p
        for _ in range(rng.randint(1, 3)):
            e = [0] * n
            for i in rng.sample(block, rng.randint(1, len(block))):
                if critical:
                    e[i] = p * rng.randint(1, 2)
                else:
                    e[i] = rng.choice([rng.randint(1, 2 * p + 1), p, 2 * p])
            c = ring.from_int(rng.randint(1, p - 1) if p > 2 else 1)
            terms[tuple(e)] = c * pi if rng.random() < 0.15 else c
    constant = rng.choice([0, 0, 1, rng.randint(1, 3 * p)])
    if constant:
        terms[(0,) * n] = ring.from_int(constant)
    return MultiPoly(ring, n, terms)


@pytest.mark.parametrize("positive_char", [False, True])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_classify_parts_match_reference(p, positive_char):
    # sums of parts on disjoint coordinates, as the engine meets them, and the
    # singular points in the reference's order, projected to the support
    rng = random.Random(100 * p + positive_char)
    ring = LocalRing(p, positive_char=positive_char)
    max_n = {2: 5, 3: 4, 5: 3, 7: 3}[p]
    cases = 0
    while cases < 40:
        n = rng.randint(1, max_n)
        f = random_parts_poly(ring, n, rng)
        if f.is_zero() or f.content_valuation() > 0:
            continue
        cases += 1
        for reg in unit_masks(p, n, rng):
            cls = classify_points(f, reg)
            nu, sigma, singular = reference_classify(f, reg)
            assert (cls.nu, cls.sigma) == (nu, sigma)
            on_support = [tuple(point[i] for i in cls.support) for point in singular]
            assert cls.singular == list(dict.fromkeys(on_support))
            assert len(cls.singular) * cls.fibre == len(singular)


@pytest.mark.parametrize("positive_char", [False, True])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_classify_univariate_monomials(p, positive_char, monkeypatch):
    # reductions c x_i^k, closed without evaluating a part: k = p and p + 1
    # give a singular zero with p | k and with k = 1 mod (p - 1); the other
    # terms of f carry pi and drop out of the reduction
    ring = LocalRing(p, positive_char=positive_char)
    monkeypatch.setattr(neron, "_evaluate_part", None)
    c, pi = ring.from_int(p - 1), ring.pi(1)
    for n in (1, 3):
        i = n - 1
        # no units, units off x_i, on x_i only, and everywhere
        regions = [
            ResidueRegion.full(p, n),
            ResidueRegion(p, n, frozenset(range(i))),
            ResidueRegion(p, n, frozenset({i})),
            ResidueRegion(p, n, frozenset(range(n))),
        ]
        for k in (1, 2, p, p + 1):
            e = (0,) * i + (k,)
            for f in (
                MultiPoly(ring, n, {e: c}),
                MultiPoly(ring, n, {e: c, (k + 1,) * n: pi, (0,) * n: pi}),
            ):
                for region in regions:
                    assert_matches_reference(f, region)


def _refuse(*args):
    raise AssertionError("a monomial part was evaluated point by point")


@pytest.mark.parametrize("positive_char", [False, True])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_classify_monomial_parts(p, positive_char, monkeypatch):
    # sums c_1 x_1^k_1 + ... + c_n x_n^k_n: every part is one monomial, read
    # off the power rows with its critical set in closed form (all of R_i if
    # p | k, none if k = 1, x_i = 0 otherwise), so nothing is evaluated at points
    rng = random.Random(10 * p + positive_char)
    ring = LocalRing(p, positive_char=positive_char)
    monkeypatch.setattr(neron, "_evaluate_at", _refuse)
    for n in (2, 3):
        i = n - 1
        regions = [
            ResidueRegion.full(p, n),
            ResidueRegion(p, n, frozenset(range(i))),
            ResidueRegion(p, n, frozenset({i})),
            ResidueRegion(p, n, frozenset(range(n))),
        ]
        for ks in itertools.product((1, 2, p, p + 1), repeat=n):
            terms = {
                tuple(k if j == l else 0 for j in range(n)): ring.from_int(rng.randint(1, p - 1))
                for l, k in enumerate(ks)
            }
            if rng.random() < 0.5:
                terms[(0,) * n] = ring.from_int(rng.randint(1, p - 1))
            for region in regions:
                assert_matches_reference(MultiPoly(ring, n, terms), region)


def test_classify_budget():
    with pytest.raises(BudgetExceeded):
        classify_points(parse("x", Z5), ResidueRegion.full(5, 1), budget=3)
    # x^2 charges its 5 points, then one more for the singular zero's join
    with pytest.raises(BudgetExceeded, match="takes 6 steps"):
        classify_points(parse("x^2", Z5), ResidueRegion.full(5, 1), budget=5)
    assert classify_points(parse("x^2", Z5), ResidueRegion.full(5, 1), budget=6).singular == [(0,)]
    # monomial parts x^2 and y^2 charge their 10 points, then one combination
    x2y2, plane = parse("x^2+y^2", Z5), ResidueRegion.full(5, 2)
    with pytest.raises(BudgetExceeded, match="takes 11 steps"):
        classify_points(x2y2, plane, budget=10)
    assert classify_points(x2y2, plane, budget=11).singular == [(0, 0)]


def test_dilate_examples():
    f = parse("x^2 + y^3", Z5)
    zero2 = (Z5.zero(), Z5.zero())
    fp, e = dilate(f, zero2, (1, 1))
    assert e == 2
    assert fp.terms[(2, 0)] == Z5.one() and fp.terms[(0, 3)] == Z5.from_int(5)

    fp, e = dilate(f, zero2, (3, 2))
    assert e == 6 and fp == f

    g = parse("x^2 + 5", Z5)
    gp, e = dilate(g, (Z5.zero(),), (1,))
    assert e == 1 and gp == parse("5*x^2 + 1", Z5)


def test_dilate_identity_random():
    rng = random.Random(13)
    for ring in (Z5, F5PI):
        for _ in range(20):
            if ring.positive_char:
                f = MultiPoly(
                    ring,
                    2,
                    {
                        (rng.randint(0, 2), rng.randint(0, 2)): from_digits(
                            ring, [rng.randint(0, 4) for _ in range(2)]
                        )
                        for _ in range(3)
                    },
                )
                if f.is_zero():
                    continue
                point = tuple(ring.from_int(rng.randint(0, 4)) for _ in range(2))
            else:
                f = random_poly(ring, 2, rng)
                point = tuple(ring.from_int(rng.randint(-5, 5)) for _ in range(2))
            m = (rng.randint(0, 2), rng.randint(0, 2))
            fp, e = dilate(f, point, m)
            assert fp.content_valuation() == 0
            assert poly_times_pi(fp, e) == f.substitute_affine(point, m)
    # all-zero centres take the one-pass rescale: it must give what expansion,
    # content and division give, also where a coefficient's pi pays for a
    # term of weight <m, a> below e, so that the term is divided by pi
    divided = 0
    for ring in (Z5, F5PI):
        zero = (ring.zero(),) * 2
        for _ in range(40):
            f = MultiPoly(ring, 2, {
                (rng.randint(0, 3), rng.randint(0, 3)):
                    ring.from_int(rng.randint(1, 4)).times_pi(rng.randint(0, 3))
                for _ in range(rng.randint(1, 4))
            })
            m = (rng.randint(0, 2), rng.randint(0, 2))
            substituted = f.substitute_affine(zero, m)
            e = substituted.content_valuation()
            assert dilate(f, zero, m) == (substituted.divide_by_uniformizer(e), e)
            divided += any(weighted_degree(a, m) < e for a in f.terms)
    assert divided >= 10
    with pytest.raises(ValueError, match="center/scale length mismatch"):
        dilate(parse("x^2+y^3", Z5), (Z5.zero(),), (1, 1))
