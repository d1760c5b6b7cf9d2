import random
from fractions import Fraction

import pytest

from igusa_zeta import (
    DenomFactor,
    DepthExceeded,
    LocalRing,
    MultiPoly,
    RatFun,
    ResidueRegion,
    SpfConfig,
    ZeroPolynomial,
    parse,
    series_check,
    spf_zeta,
    zeta_semiquasihomogeneous,
)
from igusa_zeta.spf import tally_ratfun

from _util import brute_valuation_masses

Z5 = LocalRing(5)
Z3 = LocalRing(3)
F5PI = LocalRing(5, positive_char=True)
F7PI = LocalRing(7, positive_char=True)


def test_single_smooth_zero():
    Z, trace = spf_zeta(parse("x", Z5), ResidueRegion.full(5, 1))
    assert Z == RatFun(5, (Fraction(4, 5),), ((1, 1),))
    assert trace.root.singular_count == 0


def test_unit_constant_is_measure():
    region = ResidueRegion(5, 2, frozenset({0}))
    Z, _ = spf_zeta(parse("1", Z5, n_hint=2), region)
    assert Z == RatFun.const(5, Fraction(4, 5))


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        spf_zeta(MultiPoly.zero(Z5, 1), ResidueRegion.full(5, 1))


def test_content_normalization():
    # |pi^2 g|^s = t^2 |g|^s
    f = parse("25*x", Z5)
    Z, _ = spf_zeta(f, ResidueRegion.full(5, 1))
    base, _ = spf_zeta(parse("x", Z5), ResidueRegion.full(5, 1))
    assert Z == base.scale(1, 2)


def test_cusp_on_unit_square_against_brute_force():
    f = parse("x^2+y^3", Z5)
    Z, _ = spf_zeta(f, ResidueRegion(5, 2, frozenset({0, 1})))
    # pure-python measures of { v(f) = j } on unit residues, j <= 3
    level = 4
    masses = brute_valuation_masses(
        f, level, member=lambda q: q[0] % 5 != 0 and q[1] % 5 != 0
    )
    assert Z.series_expand(level - 1) == masses


def test_depth_one_denominator_shape():
    # no singular descendants: denominator divides (1 - q^-1 t)
    for text, region in [
        ("x", ResidueRegion.full(5, 1)),
        ("x^2+y^3", ResidueRegion(5, 2, frozenset({0, 1}))),
        ("x^2+5", ResidueRegion.full(5, 1)),
    ]:
        Z, _ = spf_zeta(parse(text, Z5), region)
        assert set(Z.denom) <= {DenomFactor(1, 1)} and len(Z.denom) <= 1


def test_series_check_positive_and_negative():
    f = parse("x", Z5)
    good = RatFun(5, (Fraction(4, 5),), ((1, 1),))
    assert series_check(f, good, 4)
    perturbed = good + RatFun.monomial(5, Fraction(1, 7), 2)
    assert not series_check(f, perturbed, 4)


def test_trace_reconstructs_expansion():
    # summing nu/sigma contributions with weights q^(-S) t^E over the tree
    # reproduces the value (the iterated-formula expansion); the last case
    # dilates two boxes, rescaling x and then y
    cases = [
        (parse("x^2+5", Z5), ResidueRegion.full(5, 1)),
        (parse("x^2+y^3", Z5), ResidueRegion(5, 2, frozenset({0}))),
        (parse("x^2+u^3", F5PI), ResidueRegion.full(5, 1)),
        (parse("x^2+5*y^5+25", Z5), ResidueRegion.full(5, 2)),
    ]
    for f, region in cases:
        Z, trace = spf_zeta(f, region)
        p = f.ring.p
        total = RatFun.zero(p)
        for node in trace.root.walk():
            weight = Fraction(1, p**node.S_accum)
            piece = RatFun.const(p, node.nu)
            if node.sigma:
                piece = piece + RatFun(p, (0, node.sigma * (1 - Fraction(1, p))), ((1, 1),))
            total = total + piece.scale(weight, node.E_accum)
        assert total == Z


def _tally_terms(p, tally):
    """The tally's value as a RatFun sum of its per-key terms."""
    total = RatFun.zero(p)
    for (e, k), (a, b) in tally.items():
        weight = Fraction(1, p**k)
        total = total + RatFun.monomial(p, a * weight, e)
        total = total + RatFun(p, (0,) * e + (0, b * weight * (1 - Fraction(1, p))), ((1, 1),))
    return total


def _random_tally(rng, p, smooth):
    return {
        (rng.randrange(7), rng.randrange(9)): (
            rng.randint(-30, 30), rng.randint(-30, 30) if smooth else 0,
        )
        for _ in range(rng.randint(0, 6))
    }


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_tally_ratfun_matches_ratfun_sums(p):
    # the same canonical form as adding RatFuns term by term, also when the
    # numerator is divisible by (1 - q^(-1) t) and the denominator cancels
    rng = random.Random(p)
    for case in range(60):
        kind = case % 3
        tally = _random_tally(rng, p, smooth=kind != 1)
        if kind == 2:
            # make B(p) = 0: then (1 - t/p) divides B(t), hence the whole numerator
            b_at_p = sum(b * p ** (e - k + 8) for (e, k), (_, b) in tally.items())
            a0, b0 = tally.get((0, 8), (0, 0))
            tally[(0, 8)] = (a0, b0 - b_at_p)
        got = tally_ratfun(p, tally)
        expected = _tally_terms(p, tally)
        assert got == expected
        assert got.to_json() == expected.to_json()
        if kind != 0:
            assert got.denom == ()


def test_trace_E_accum_increases():
    f = parse("x^2+y^3", Z5)
    _, trace = spf_zeta(f, ResidueRegion(5, 2, frozenset({1})))

    def check(node):
        for child in node.children:
            assert child.E_accum == node.E_accum + child.e
            assert child.e >= 1
            check(child)

    check(trace.root)


def test_depth_cap_detects_nonisolated_singularity():
    # the singular locus of x^2 y is a whole line; the descent cannot flatten
    f = parse("x^2*y", Z3)
    with pytest.raises(DepthExceeded):
        spf_zeta(f, ResidueRegion.full(3, 2), SpfConfig(max_depth=12))
    # x^2 in two variables: the box dilatation reproduces its parent
    with pytest.raises(DepthExceeded):
        spf_zeta(parse("x^2", Z5, n_hint=2), ResidueRegion.full(5, 2), SpfConfig(max_depth=12))


def test_box_dilatation_is_one_child():
    # the reduction x^2 is singular on the whole line x = 0: one dilatation
    # x -> pi x covers it, with y left alone; its child 5x^2 + y^5 + 5
    # reduces to y^5, a box in y.  (Without the constant the origin is
    # singular over Z_5 and the descent would not end on the full space.)
    f = parse("x^2+5*y^5+25", Z5)
    Z, trace = spf_zeta(f, ResidueRegion.full(5, 2))
    root = trace.root
    assert root.singular_count == 5
    (child,) = root.children
    assert child.m == (1, 0) and child.S_accum == 1 and child.region == "full"
    assert [c.reduce() for c in child.center] == [0, 0]
    (grandchild,) = child.children
    assert grandchild.m == (0, 1) and grandchild.S_accum == 2
    assert series_check(f, Z, 3)


def test_box_child_keeps_the_region_off_S():
    # on units x full the reduction y^3 is singular on units x {0}
    f = parse("25*x^2+y^3", Z5)
    Z, trace = spf_zeta(f, ResidueRegion(5, 2, frozenset({0})))
    (child,) = trace.root.children
    assert child.m == (0, 1) and child.region == "unitsx*"
    # pure-python measures of { v(f) = j } on units x full, j <= 3
    level = 4
    masses = brute_valuation_masses(f, level, member=lambda q: q[0] % 5 != 0)
    assert Z.series_expand(level - 1) == masses


def test_isolated_singular_points_dilate_one_by_one():
    # x^2 + y^2 (y - 1)^2 + 5: the reduction uses x and y, so its singular
    # points (0, 0) and (0, 1) each get their own dilatation
    f = parse("x^2+y^4-2*y^3+y^2+5", Z5)
    Z, trace = spf_zeta(f, ResidueRegion.full(5, 2))
    children = trace.root.children
    assert [tuple(c.reduce() for c in child.center) for child in children] == [(0, 0), (0, 1)]
    assert all(child.m == (1, 1) and child.S_accum == 2 for child in children)
    assert series_check(f, Z, 3)


@pytest.mark.parametrize("text", ["x^4-2*x^3+x^2+5*y", "x^4-2*x^3+x^2+5*y+5*z^3"])
def test_singular_points_on_the_support_dilate_as_boxes(text):
    # the reduction x^2 (x - 1)^2 misses y (and z), and is singular at x = 0
    # and x = 1: two boxes {c} x F_5^(n-1), one dilatation x -> c + pi x
    # each, where one dilatation per residue point made 10 (n = 2) and 50
    # (n = 3) children
    f = parse(text, Z5)
    region = ResidueRegion.full(5, f.n)
    Z, trace = spf_zeta(f, region)
    root = trace.root
    assert root.singular_count == 2 * 5 ** (f.n - 1)
    assert [child.m for child in root.children] == [(1,) + (0,) * (f.n - 1)] * 2
    assert [child.center[0].reduce() for child in root.children] == [0, 1]
    assert all(child.S_accum == 1 and child.region == "full" for child in root.children)
    assert trace.stats["nodes"] == 3
    assert Z == RatFun(5, (Fraction(3, 5), Fraction(1, 5)), ((1, 1),))
    assert series_check(f, Z, 3)


@pytest.mark.parametrize("text, ring, nodes", [
    pytest.param("x^2+121*y^5", LocalRing(11), 11, id="x^2+121*y^5"),
    pytest.param("x^3+y^5+x^2*y^2", LocalRing(7), 32, id="x^3+y^5+x^2*y^2"),
    pytest.param("x^2+2*y^2+z^3+x*y*z", LocalRing(5), 30, id="x^2+2*y^2+z^3+x*y*z"),
])
def test_box_dilatation_node_counts(text, ring, nodes):
    # one dilatation per box, summed over the trees of every complement cell
    _, report = zeta_semiquasihomogeneous(parse(text, ring))
    assert report.tree_stats["nodes"] == nodes


@pytest.mark.parametrize("text, ring, zeta", [
    ("x^3+y^5+x^2*y^2", LocalRing(7), {
        "denom": [{"a": 1, "b": 1}, {"a": 8, "b": 15}],
        "num": [[43, 49], [-13, 343], [0, 1], [6, 343], [-6, 2401], [6, 2401],
                [0, 1], [-6, 117649], [0, 1], [6, 117649], [0, 1], [-6, 5764801],
                [6, 5764801], [-6, 40353607], [0, 1], [-1, 282475249],
                [1, 282475249]],
    }),
    ("x^2+121*y^5", LocalRing(11), {
        "denom": [{"a": 1, "b": 1}, {"a": 7, "b": 10}],
        "num": [[10, 11], [-10, 121], [10, 121], [-10, 14641], [10, 14641],
                [-10, 161051], [10, 161051], [0, 1], [0, 1], [-10, 214358881]],
    }),
    ("x^2+y^3+z^3", LocalRing(7), {
        "denom": [{"a": 1, "b": 1}, {"a": 7, "b": 6}],
        "num": [[6, 7], [-6, 2401], [6, 2401], [-12, 117649], [12, 117649],
                [-6, 5764801]],
    }),
    ("x^2+u*y^5", F7PI, {
        "denom": [{"a": 1, "b": 1}, {"a": 7, "b": 10}],
        "num": [[6, 7], [0, 1], [0, 1], [-6, 2401], [6, 2401], [-6, 16807],
                [6, 16807], [-6, 823543], [6, 823543], [-6, 5764801]],
    }),
    ("x^2+y^2+z^3+x*y*z", LocalRing(13), {
        "denom": [{"a": 1, "b": 1}, {"a": 8, "b": 6}],
        "num": [[2040, 2197], [-168, 28561], [144, 371293], [12, 371293],
                [-12, 815730721], [144, 10604499373], [-12, 1792160394037],
                [12, 1792160394037]],
    }),
    ("x^2+y^2+z^2+w^3+w^4", LocalRing(5), {
        "denom": [{"a": 1, "b": 1}, {"a": 11, "b": 6}],
        "num": [[101, 125], [-29, 3125], [4, 3125], [0, 1], [0, 1],
                [-4, 244140625], [-1, 6103515625], [1, 6103515625]],
    }),
])
def test_pinned_zeta(text, ring, zeta):
    # the first four computed with one dilatation per singular point, the
    # last two (tailed, so iterates reuse the limit's cells) with every cell
    # of every iterate through the engine
    Z, _ = zeta_semiquasihomogeneous(parse(text, ring))
    assert Z == RatFun.from_json(zeta, ring.p)


def test_charp_smooth_zero():
    Z, _ = spf_zeta(parse("x", F5PI), ResidueRegion.full(5, 1))
    assert Z == RatFun(5, (Fraction(4, 5),), ((1, 1),))
