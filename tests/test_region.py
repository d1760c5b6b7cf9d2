import random
from fractions import Fraction

import pytest

from igusa_zeta import (
    LocalRing,
    Polydisc,
    ResidueRegion,
    ValuationCell,
    cell_change_of_variables,
    complement_cells,
    parse,
)

from _util import brute_valuation_masses, int_valuation

Z5 = LocalRing(5)
Z3 = LocalRing(3)


def test_measure():
    assert ResidueRegion.full(5, 3).measure() == 1
    units_all = ResidueRegion.product(5, [frozenset(range(1, 5)), frozenset(range(5))])
    assert units_all.measure() == Fraction(4, 5)
    pts = ResidueRegion.product(5, [frozenset({0, 1, 3}), frozenset({2})])
    assert pts.measure() == Fraction(3, 25)


def test_region_points_and_contains():
    reg = ResidueRegion.product(3, [frozenset({1, 2}), frozenset({0})])
    assert list(reg.points()) == [(1, 0), (2, 0)]
    assert reg.contains((2, 0)) and not reg.contains((0, 0))
    unsorted = ResidueRegion.product(3, [[2, 0]])
    assert list(unsorted.points()) == [(0,), (2,)]


def test_polydisc_validation():
    Polydisc((1, 2))
    with pytest.raises(ValueError):
        Polydisc((0, 1))
    with pytest.raises(ValueError):
        Polydisc(())


def test_complement_cells_dimension_one():
    cells = complement_cells(Polydisc((1,)))
    assert len(cells) == 1
    sign, cell = cells[0]
    assert sign == 1 and cell.constraints == ((0, 0),)


def test_complement_cells_two_sets():
    cells = complement_cells(Polydisc((1, 1)))
    as_set = {(s, c.constraints) for s, c in cells}
    assert as_set == {
        (1, ((0, 0),)),
        (1, ((1, 0),)),
        (-1, ((0, 0), (1, 0))),
    }


def test_complement_cells_family_size():
    # r = (3, 2): 3 cells for {x}, 2 for {y}, 6 for both
    cells = complement_cells(Polydisc((3, 2)))
    assert len(cells) == 11
    singles_x = [c for s, c in cells if c.coords == (0,)]
    assert sorted(a for (_, a), in (c.constraints for c in singles_x)) == [0, 1, 2]


def test_signed_measures_sum_to_complement():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 3)
        p = rng.choice([2, 3, 5])
        r = tuple(rng.randint(1, 3) for _ in range(n))
        total = sum(s * c.measure(p) for s, c in complement_cells(Polydisc(r)))
        assert total == 1 - Fraction(1, p ** sum(r))


def test_signed_indicators_sum_to_complement_indicator():
    # pointwise: valuation profiles below r are covered exactly once
    p, r = 3, (2, 2)
    cells = complement_cells(Polydisc(r))
    for vx in range(4):
        for vy in range(4):
            covered = sum(
                s
                for s, c in cells
                if all(dict(c.constraints).get(i, v) == v for i, v in enumerate((vx, vy)))
            )
            inside = vx >= r[0] and vy >= r[1]
            assert covered == (0 if inside else 1)


def test_cell_change_of_variables_examples():
    f = parse("x^2 + y^3", Z5)
    e, d, fb, target = cell_change_of_variables(f, ValuationCell(2, ((0, 1),)))
    assert (e, d) == (0, 1)
    assert fb.terms[(2, 0)] == Z5.from_int(25) and fb.terms[(0, 3)] == Z5.one()
    assert target.describe() == "unitsx*"

    g = parse("x", Z5)
    e, d, gb, target = cell_change_of_variables(g, ValuationCell(1, ((0, 2),)))
    assert (e, d) == (2, 2)
    assert gb == parse("x", Z5)
    assert target.describe() == "units"

    # quasihomogeneity: scaling by the weights is trivial on the weighted part
    e, d, fb, target = cell_change_of_variables(f, ValuationCell(2, ((0, 3), (1, 2))))
    assert (e, d) == (6, 5)
    assert fb == f
    assert target.describe() == "unitsxunits"


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
            constraints = tuple(
                sorted((i, rng.randint(0, 1)) for i in rng.sample(range(2), rng.randint(1, 2)))
            )
            cell = ValuationCell(2, constraints)
            e, d, fb, target = cell_change_of_variables(f, cell)

            def member(point, constraints=constraints):
                return all(
                    int_valuation(point[i], p, level) == a for i, a in constraints
                )

            lhs = brute_valuation_masses(f, level, member)
            value, _ = spf_zeta(fb, target)
            rhs = value.scale(Fraction(1, p**d), e).series_expand(level - 1)
            assert lhs == rhs
