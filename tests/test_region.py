import itertools
import random
from fractions import Fraction

import pytest

from igusa_zeta import (
    LocalRing,
    MultiPoly,
    ResidueRegion,
    ValuationCell,
    ZeroPolynomial,
    cell_change_of_variables,
    complement_cells,
    parse,
)

from _util import brute_valuation_masses, int_valuation, region_points

Z5 = LocalRing(5)
Z3 = LocalRing(3)


def test_card_on_unit_masks():
    assert ResidueRegion.full(5, 3).card() == 125
    assert ResidueRegion(5, 2, frozenset({0})).card() == 4 * 5
    assert ResidueRegion(5, 3, frozenset({0, 2})).card() == 4 * 5 * 4
    assert ResidueRegion(2, 2, frozenset({0, 1})).card() == 1


def test_residues_and_describe_on_masks():
    reg = ResidueRegion(3, 3, frozenset({0, 2}))
    assert [list(reg.residues(i)) for i in range(3)] == [[1, 2], [0, 1, 2], [1, 2]]
    assert reg.describe() == "unitsx*xunits"
    assert ResidueRegion(5, 2, frozenset()).describe() == "full"
    assert ResidueRegion(2, 2, frozenset({0, 1})).describe() == "unitsxunits"
    assert list(ResidueRegion(2, 1, frozenset({0})).residues(0)) == [1]  # F_2^* = {1}
    assert repr(ResidueRegion(7, 2, frozenset({1}))) == "ResidueRegion(*xunits, p=7, n=2)"


def test_units_outside_the_coordinates_are_rejected():
    for units in ({2}, {-1}, {0, 5}):
        with pytest.raises(ValueError, match="outside"):
            ResidueRegion(5, 2, frozenset(units))
    assert ResidueRegion(5, 2, frozenset({0, 1})).units == {0, 1}


def test_region_points_and_contains():
    reg = ResidueRegion(3, 2, frozenset({0}))
    assert list(region_points(reg)) == [(x, y) for x in (1, 2) for y in range(3)]
    assert list(region_points(ResidueRegion(2, 2, frozenset({1})))) == [(0, 1), (1, 1)]


def test_complement_cells_dimension_one():
    cells = complement_cells((1,))
    assert cells == [ValuationCell((0,), 0)]


def test_complement_cells_two_sets():
    # v(x) = 0, or v(x) >= 1 and v(y) = 0
    cells = complement_cells((1, 1))
    assert cells == [ValuationCell((0, 0), 0), ValuationCell((1, 0), 1)]


def test_complement_cells_family_size():
    # r = (2, 3): y comes first (larger radius), 3 cells for it, 2 for x
    cells = complement_cells((2, 3))
    assert len(cells) == 5
    assert [(c.m, c.unit) for c in cells] == [
        ((0, 0), 1), ((0, 1), 1), ((0, 2), 1), ((0, 3), 0), ((1, 3), 0),
    ]
    rng = random.Random(5)
    for _ in range(20):
        r = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
        assert len(complement_cells(r)) == sum(r)


def test_signed_measures_sum_to_complement():
    # every cell of the partition counts once, with sign +1
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 3)
        p = rng.choice([2, 3, 5])
        r = tuple(rng.randint(1, 3) for _ in range(n))
        total = sum(Fraction(p - 1, p ** (c.depth_shift() + 1)) for c in complement_cells(r))
        assert total == 1 - Fraction(1, p ** sum(r))


def test_signed_indicators_sum_to_complement_indicator():
    # the cells partition the complement: a valuation profile outside A_r lies
    # in exactly one cell, one inside A_r in none
    for r in [(2, 2), (3, 1), (1, 3), (2, 1, 2)]:
        cells = complement_cells(r)
        for profile in itertools.product(range(5), repeat=len(r)):
            covering = [
                c for c in cells
                if profile[c.unit] == c.m[c.unit] and all(map(int.__ge__, profile, c.m))
            ]
            inside = all(map(int.__ge__, profile, r))
            assert len(covering) == (0 if inside else 1)


def test_cell_change_of_variables_examples():
    f = parse("x^2 + y^3", Z5)
    e, d, fb, target = cell_change_of_variables(f, ValuationCell((1, 0), 0))
    assert (e, d) == (0, 1)
    assert fb.terms[(2, 0)] == Z5.from_int(25) and fb.terms[(0, 3)] == Z5.one()
    assert target.describe() == "unitsx*"

    g = parse("x", Z5)
    e, d, gb, target = cell_change_of_variables(g, ValuationCell((2,), 0))
    assert (e, d) == (2, 2)
    assert gb == parse("x", Z5)
    assert target.describe() == "units"

    # terms above the content lose their surplus powers of pi exactly
    h = parse("25+x+5*y", Z5)
    e, d, hb, target = cell_change_of_variables(h, ValuationCell((3, 0), 1))
    assert (e, d) == (1, 3)
    assert hb == parse("5+25*x+y", Z5)
    assert target.describe() == "*xunits"
    with pytest.raises(ZeroPolynomial):
        cell_change_of_variables(MultiPoly.zero(Z5, 2), ValuationCell((1, 0), 0))

    # quasihomogeneity: scaling by the weights is trivial on the weighted part
    e, d, fb, target = cell_change_of_variables(f, ValuationCell((3, 2), 1))
    assert (e, d) == (6, 5)
    assert fb == f
    assert target.describe() == "*xunits"


def test_cell_change_contract_against_brute_force():
    # measure of { v(f) = j } on the cell equals the series of
    # q^-d t^e * Z(f_B, D') term by term; inputs with the origin as the
    # only singularity so the recursion terminates on every cell
    from igusa_zeta.spf import spf_zeta

    rng = random.Random(41)
    p = 3
    level = 4
    corpus = ["x^2+y^3", "x^2+y^3+x*y^2", "x+y^2", "x^2+3*y^3", "x*y+x^3+y^3", "x^2+y^2"]
    for text in corpus:
        f = parse(text, Z3, n_hint=2)
        for _ in range(3):
            cell = ValuationCell((rng.randint(0, 1), rng.randint(0, 1)), rng.randint(0, 1))
            e, d, fb, target = cell_change_of_variables(f, cell)

            def member(point, cell=cell):
                v = [int_valuation(x, p, level) for x in point]
                return v[cell.unit] == cell.m[cell.unit] and all(map(int.__ge__, v, cell.m))

            lhs = brute_valuation_masses(f, level, member)
            value, _ = spf_zeta(fb, target)
            rhs = value.scale(Fraction(1, p**d), e).series_expand(level - 1)
            assert lhs == rhs
