import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from igusa_zeta import (
    BudgetExceeded,
    DenomFactor,
    InsufficientValuation,
    InvalidHint,
    InvariantViolation,
    LocalRing,
    NotSemiQuasiHomogeneous,
    RatFun,
    ResidueRegion,
    SpfConfig,
    WeightSystem,
    ZeroPolynomial,
    detect_weights,
    limit_cells,
    parse,
    scale_step,
    series_check,
    spf_zeta,
    zeta_on_complement,
    zeta_semiquasihomogeneous,
)
from igusa_zeta import sqh
from igusa_zeta.poly import MultiPoly, weighted_degree
from igusa_zeta.region import ValuationCell, cell_change_of_variables, complement_cells
from igusa_zeta.spf import SpfContext, tally_ratfun

from _util import evaluate_residue, tail_stays_above

Z3 = LocalRing(3)
Z5 = LocalRing(5)
Z7 = LocalRing(7)
F5PI = LocalRing(5, positive_char=True)


# -- weight detection --------------------------------------------------------


def test_weight_system_validation():
    WeightSystem((3, 2), 6)
    with pytest.raises(ValueError, match="weights must be coprime"):
        WeightSystem((2, 4), 6)  # gcd 2
    with pytest.raises(ValueError, match="weights must be positive"):
        WeightSystem((0, 1), 1)
    with pytest.raises(ValueError, match="weights must be positive"):
        WeightSystem((), 1)
    with pytest.raises(ValueError, match="weighted degree must be positive"):
        WeightSystem((1, 1), 0)


def test_spf_config_validation():
    SpfConfig(max_depth=1)
    with pytest.raises(ValueError, match="max_depth must be >= 1"):
        SpfConfig(max_depth=0)


def test_sqh_decomposition_validation():
    w = WeightSystem((3, 2), 6)
    quasi, tail = parse("x^2+y^3", Z5), parse("x*y^2", Z5, n_hint=2)
    assert sqh.SqhDecomposition(quasi, tail, w).weights == w
    with pytest.raises(InvariantViolation, match="quasihomogeneous part off weight"):
        sqh.SqhDecomposition(parse("x^2+y^3+x*y^2", Z5), MultiPoly(Z5, 2, {}), w)
    with pytest.raises(InvariantViolation, match="tail monomial at or below weight"):
        sqh.SqhDecomposition(parse("x^2", Z5, n_hint=2), parse("y^3", Z5, n_hint=2), w)
    with pytest.raises(InvariantViolation, match="empty quasihomogeneous part"):
        sqh.SqhDecomposition(MultiPoly(Z5, 2, {}), tail, w)


def test_detect_cusp():
    dec = detect_weights(parse("x^2+y^3", Z5))
    assert dec.weights == WeightSystem((3, 2), 6)
    assert dec.tail.is_zero()


def test_detect_with_tail():
    dec = detect_weights(parse("x^2+y^3+x*y^2", Z5))
    assert dec.weights == WeightSystem((3, 2), 6)
    assert dec.quasi == parse("x^2+y^3", Z5)
    assert dec.tail == parse("x*y^2", Z5, n_hint=2)


def test_detect_examples_more():
    assert detect_weights(parse("x", Z5)).weights == WeightSystem((1,), 1)
    assert detect_weights(parse("x^2+y^2+z^2", Z5)).weights == WeightSystem((1, 1, 1), 2)
    assert detect_weights(parse("x^3+y^4", Z5)).weights == WeightSystem((4, 3), 12)
    assert detect_weights(parse("x^2+5*y^3", Z5)).weights == WeightSystem((3, 2), 6)


def test_detect_rejects_constant_term():
    with pytest.raises(NotSemiQuasiHomogeneous):
        detect_weights(parse("x^2+5", Z5))
    with pytest.raises(ZeroPolynomial):
        detect_weights(MultiPoly.zero(Z5, 1))


def test_weight_search_is_charged_to_the_budget():
    # x*y has the 2^2 candidates (1,1), (1,2), (2,1), (2,2); the hint skips the search
    f = parse("x*y", Z5)
    with pytest.raises(BudgetExceeded, match="weight search: 2\\^2 candidate"):
        detect_weights(f, budget=3)
    assert detect_weights(f, budget=4).weights == WeightSystem((1, 1), 2)
    assert detect_weights(f, WeightSystem((1, 1), 2), budget=1).weights == WeightSystem((1, 1), 2)


def test_hint_validation():
    f = parse("x^2+y^3+x*y", Z5)
    with pytest.raises(InvalidHint):
        detect_weights(f, WeightSystem((3, 2), 6))  # x*y has weight 5 < 6
    with pytest.raises(InvalidHint):
        detect_weights(parse("x^2+y^3", Z5), WeightSystem((3, 2), 5))  # nothing at 5
    dec = detect_weights(f, WeightSystem((2, 1), 3))
    assert dec.quasi == parse("y^3+x*y", Z5)


def test_detect_without_hint_finds_alternative():
    # x^2+y^3+x*y is not quasihomogeneous for (3,2) but carries other valid
    # systems; the search returns (1,1) with the nodal part x^2 + x*y
    f = parse("x^2+y^3+x*y", Z5)
    dec = detect_weights(f)
    assert dec.weights == WeightSystem((1, 1), 2)
    assert dec.quasi == parse("x^2+x*y", Z5)
    # the zeta function does not depend on the admissible system chosen
    Z_auto, _ = zeta_semiquasihomogeneous(f)
    Z_hint, _ = zeta_semiquasihomogeneous(f, WeightSystem((2, 1), 3))
    assert Z_auto == Z_hint


# -- scale step ----------------------------------------------------------------


def test_scale_step_fixed_point():
    f = parse("x^2+y^3", Z5)
    assert scale_step(f, WeightSystem((3, 2), 6)) == f


def test_scale_step_gains_powers():
    w = WeightSystem((3, 2), 6)
    f = parse("x^2+y^3+x*y^2", Z5)
    assert scale_step(f, w) == parse("x^2+y^3+5*x*y^2", Z5)
    g = parse("x^2+y^3+x^3", Z5)
    assert scale_step(g, w) == parse("x^2+y^3+125*x^3", Z5)


def test_scale_step_divides_a_monomial_below_weight_exactly():
    # x*y has weight 5 < d = 6: the step divides its coefficient by pi
    w = WeightSystem((3, 2), 6)
    assert scale_step(parse("x^2+y^3+5*x*y", Z5), w) == parse("x^2+y^3+x*y", Z5)
    with pytest.raises(InsufficientValuation):
        scale_step(parse("x^2+y^3+x*y", Z5), w)
    F3 = LocalRing(3, positive_char=True)
    assert scale_step(parse("x^2+y^3+u^2*x*y", F3), w) == parse("x^2+y^3+u*x*y", F3)
    with pytest.raises(InsufficientValuation):
        scale_step(parse("x^2+y^3+2*x*y", F3), w)


def test_scale_step_tail_valuation_strictly_increases():
    w = WeightSystem((3, 2), 6)
    quasi = parse("x^2+y^3", Z5)
    current = parse("x^2+y^3+x*y^2", Z5)
    levels = []
    for _ in range(5):
        current = scale_step(current, w)
        levels.append((current - quasi).content_valuation())
    assert levels == sorted(set(levels))  # strictly increasing


# -- complement integrals ---------------------------------------------------------


def test_zeta_on_complement_line():
    value = tally_ratfun(5, zeta_on_complement(parse("x", Z5), WeightSystem((1,), 1)))
    assert value == RatFun.const(5, Fraction(4, 5))


def test_zeta_on_complement_denominator_shape():
    value = tally_ratfun(5, zeta_on_complement(parse("x^2+y^3", Z5), WeightSystem((3, 2), 6)))
    assert set(value.denom) <= {DenomFactor(1, 1)}


def test_complement_signed_cells_equal_direct_spf():
    # for r = (1,1) the complement is the preimage of F_p^2 minus the origin
    f = parse("x^2+y^3", Z5)
    total = RatFun.zero(5)
    for cell in complement_cells((1, 1)):
        e, d, fb, target = cell_change_of_variables(f, cell)
        value, _ = spf_zeta(fb, target)
        total = total + value.scale(Fraction(1, 5**d), e)
    # F_5^2 minus the origin is units x * plus * x units less units x units
    direct = RatFun.zero(5)
    for units, sign in (({0}, 1), ({1}, 1), ({0, 1}, -1)):
        value, _ = spf_zeta(f, ResidueRegion(5, 2, frozenset(units)))
        direct = direct + value.scale(sign, 0)
    assert total == direct


def reference_complement(F, w):
    """Every complement cell through the engine, no cell closed or reused."""
    p = F.ring.p
    total, roots = RatFun.zero(p), []
    for cell in complement_cells(w.alpha):
        e, d, f_cell, target = cell_change_of_variables(F, cell)
        value, trace = spf_zeta(f_cell, target)
        total = total + value.scale(Fraction(1, p**d), e)
        roots.append(trace.root)
    return total, roots


def signed_family_complement(F, w):
    """The complement as inclusion-exclusion over D(B, a) = {v(x_i) = a_i, i in B}, a < alpha."""
    p, n = F.ring.p, F.n
    total = RatFun.zero(p)
    for size in range(1, n + 1):
        for B in itertools.combinations(range(n), size):
            for a in itertools.product(*(range(w.alpha[i]) for i in B)):
                m = [dict(zip(B, a)).get(i, 0) for i in range(n)]
                scaled = F.substitute_affine([F.ring.zero()] * n, m)
                e = scaled.content_valuation()
                units = ResidueRegion(p, n, frozenset(B))
                value, _ = spf_zeta(scaled.divide_by_uniformizer(e), units)
                total = total + value.scale(Fraction((-1) ** (size + 1), p ** sum(a)), e)
    return total


class EngineCalls:
    """Counts the engine calls that sqh makes."""

    def __init__(self, monkeypatch):
        self.count = 0
        engine = sqh.spf_tally

        def counted(*args, **kwargs):
            self.count += 1
            return engine(*args, **kwargs)

        monkeypatch.setattr(sqh, "spf_tally", counted)


# fresh engine calls of the iterates k = 0..3
FRESH_CALLS = {
    ("x^2+y^2+z^4+z^5", Z5): [5, 0, 0, 0],
    ("x^3+y^5+x^2*y^2+y^6", Z5): [6, 0, 0, 0],
    ("x^2+y^3+x*y^2", F5PI): [1, 0, 0, 0],
    ("x^2+y^3+x*y^2", Z5): [1, 0, 0, 0],
}


@pytest.mark.parametrize("text, ring", list(FRESH_CALLS))
def test_iterate_complements_match_engine_on_every_cell(text, ring, monkeypatch):
    # reused and closed cells give the engine's value, trees and statistics;
    # from the first scaling step on, every cell is reused from the limit
    F = parse(text, ring)
    dec = detect_weights(F)
    w = dec.weights
    cells = len(complement_cells(w.alpha))
    calls = EngineCalls(monkeypatch)
    limit = limit_cells(dec)
    current = F
    seen = []
    for k in range(4):
        expected, roots = reference_complement(current, w)
        calls.count = 0
        ctx = SpfContext(SpfConfig())
        tally = zeta_on_complement(current, w, ctx=ctx, limit=limit, k=k)
        assert tally_ratfun(ring.p, tally) == expected
        assert [r.to_json() for r in ctx.roots] == [r.to_json() for r in roots]
        stats = ctx.stats_dict()
        assert stats["spf_calls"] == cells
        assert stats["nodes"] == sum(len(list(r.walk())) for r in roots)
        seen.append(calls.count)
        current = scale_step(current, w)
    assert seen == FRESH_CALLS[text, ring]


def replay_passes(F, dec, k, cell, known):
    """The reference replay of the k-th iterate's tail down the limit cell's tree."""
    current = F
    for _ in range(k):
        current = scale_step(current, dec.weights)
    zero = [F.ring.zero()] * F.n
    shifted = (current - dec.quasi).substitute_affine(zero, cell.m)
    return tail_stays_above(shifted, known.e, known.root)


def reuse_from(tail, w, cell, known):
    """sqh's reuse index of one cell for the tail under the weights w."""
    return sqh._reuse_from(sqh._tail_terms(tail, w), cell, known)


def test_tail_replay_checks_every_node():
    # g = y^2+5x^2 on units x *: the root dilates y -> 5y with e_c = 1, and
    # the child x^2+5y^2 is a leaf
    g = parse("y^2+5*x^2", Z5)
    region = ResidueRegion(5, 2, frozenset({0}))
    value, trace = spf_zeta(g, region)
    (child,) = trace.root.children
    assert child.m == (0, 1) and child.e == 1 and not child.children
    for text in ["25", "5*y", "5*x*y"]:
        tau = parse(text, Z5, n_hint=2)
        assert tail_stays_above(tau, 0, trace.root)
        value_tau, trace_tau = spf_zeta(g + tau, region)
        assert value_tau == value
        assert trace_tau.root.to_json() == trace.root.to_json()
    # 5 passes the root but not the child: there g+5 becomes 5(x^2+1+5y^2),
    # whose reduction has smooth zeros, so the tree and the value change
    five = parse("5", Z5, n_hint=2)
    assert five.content_valuation() > trace.root.e
    assert not tail_stays_above(five, 0, trace.root)
    value_five, trace_five = spf_zeta(g + five, region)
    assert value_five != value
    assert trace_five.root.to_json() != trace.root.to_json()
    # the index reads the same nodes: under the weights (1, 1):1, 5xy has
    # content 2 > 1 at the child from k = 0 on, 5x^2 only 1 + k
    w = WeightSystem((1, 1), 1)
    known = sqh.CellIntegral({}, 0, trace.root)
    cell = ValuationCell((0, 0), 0)
    for text, k_star in [("5*x*y", 0), ("5*x^2", 1), ("x^2", 2)]:
        tail = parse(text, Z5, n_hint=2)
        assert reuse_from(tail, w, cell, known) == k_star
        scaled = tail
        for k in range(k_star + 3):
            assert tail_stays_above(scaled, 0, trace.root) == (k >= k_star)
            scaled = scale_step(scaled, w)


def test_tail_replay_deeper_than_recursion_limit():
    # x^2 + 3^2400 in x, y descends as a chain: each node dilates x -> 3x
    # and takes out e = 2, down to x^2 + 1 at depth 1200.  Under the weights
    # (1, 1):1 a tail 3^a x y has content a + j + k at depth j of the k-th
    # iterate, against E_accum = 2j, so it is reused from k = 1201 - a on;
    # the index walks the 1201 nodes without recursing.
    _, trace = spf_zeta(parse(f"x^2+{3**2400}", Z3, n_hint=2), ResidueRegion.full(3, 2),
                        SpfConfig(max_depth=1300))
    chain = list(trace.root.walk())
    assert [node.depth for node in chain] == list(range(1201))
    assert all(node.e == 2 and len(node.children) == (node.depth < 1200) for node in chain[1:])
    w = WeightSystem((1, 1), 1)
    known = sqh.CellIntegral({}, 0, trace.root)
    cell = ValuationCell((0, 0), 0)
    for a, k_star in [(5000, 0), (1201, 0), (1200, 1), (1000, 201)]:
        assert reuse_from(parse(f"{3**a}*x*y", Z3), w, cell, known) == k_star
        # the replay of the single monomial passes exactly from k_star on
        for k in {max(k_star - 1, 0), k_star}:
            tail = parse(f"{3**(a + k)}*x*y", Z3)
            assert tail_stays_above(tail, 0, trace.root) == (k >= k_star)


# deep chains, and x^3+y^3 whose singular classes (1, 2), (2, 1) put v(C_i) below M_i
TAILS = [(f"x^2+{3**a}*y^3+x*y^3", Z3) for a in (1, 5, 20)] + [("x^3+y^3+x^2*y^2", Z3)]
REPLAY_INPUTS = [
    pytest.param(text, ring, id=f"{text}-{ring.p}{'u' * ring.positive_char}-default")
    for text, ring in list(FRESH_CALLS) + TAILS
]


def assert_reuse_index_is_exact(F, dec):
    """The reference replay passes at every k >= reuse_from, and a tail of one
    monomial fails at reuse_from - 1: Gauss's lemma gives its content exactly."""
    limit = limit_cells(dec)
    for cell, known in limit.cells.items():
        k_star = limit.reuse_from[cell]
        assert all(replay_passes(F, dec, k, cell, known) for k in range(k_star, k_star + 3))
        if k_star and len(dec.tail.terms) == 1:
            assert not replay_passes(F, dec, k_star - 1, cell, known)


@pytest.mark.parametrize("text, ring", REPLAY_INPUTS)
def test_reuse_from_against_the_replay(text, ring):
    F = parse(text, ring)
    assert_reuse_index_is_exact(F, detect_weights(F))


# inputs over Q_p whose limit trees have a nonzero centre, which no input of
# the benchmark's workloads has
NONZERO_CENTRES = [("x^2+y^2+z^3+x*y*z", 2), ("x^2+y^2+x*y^2", 2), ("x^3+y^3+x^2*y^2", 3)]


@pytest.mark.parametrize("text, p", NONZERO_CENTRES)
def test_limit_trees_have_nonzero_centres(text, p):
    limit = limit_cells(detect_weights(parse(text, LocalRing(p))))
    centres = [
        c for known in limit.cells.values() for node in known.root.walk()
        if node.center is not None for c in node.center
    ]
    assert any(not c.is_zero() for c in centres)


@st.composite
def tailed_parts(draw):
    """(F, w): a part sum c_i x_i^(a_i) of unit coefficients plus a tail above its weight.

    p is 2 or 3 in either characteristic, n is 2 or 3 and 2 <= a_i <= 4, so
    w = (alpha, d) with d = lcm(a) and alpha_i = d / a_i.  In characteristic
    p at most one a_i is a multiple of p, which keeps the part's singularity
    at the origin isolated.  The tail has one to three monomials of weighted
    degree above d, each a unit times pi^v, v <= 3.
    """
    p = draw(st.sampled_from([2, 3]))
    positive_char = draw(st.booleans())
    n = draw(st.integers(2, 3))
    ring = LocalRing(p, positive_char=positive_char)
    exps = draw(st.lists(st.integers(2, 4), min_size=n, max_size=n).filter(
        lambda a: not positive_char or sum(x % p == 0 for x in a) <= 1))
    d = math.lcm(*exps)
    alpha = tuple(d // a for a in exps)
    unit = st.integers(1, p - 1).map(ring.from_int)
    terms = {tuple(a if j == i else 0 for j in range(n)): draw(unit) for i, a in enumerate(exps)}
    above = st.tuples(*[st.integers(0, 4)] * n).filter(lambda e: weighted_degree(e, alpha) > d)
    for e in draw(st.lists(above, min_size=1, max_size=3, unique=True)):
        terms[e] = draw(unit) * ring.pi(draw(st.integers(0, 3)))
    return MultiPoly(ring, n, terms), WeightSystem(alpha, d)


def _nonzero_centre_example(text, p):
    return example((parse(text, LocalRing(p)), None))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tailed_parts())
@_nonzero_centre_example(*NONZERO_CENTRES[0])
@_nonzero_centre_example(*NONZERO_CENTRES[1])
@_nonzero_centre_example(*NONZERO_CENTRES[2])
def test_reuse_from_against_the_replay_property(case):
    F, w = case
    assert_reuse_index_is_exact(F, detect_weights(F, w))


@pytest.mark.parametrize("text, ring", list(FRESH_CALLS))
def test_reuse_index_bounds_the_iterates(text, ring, monkeypatch):
    # iterate k* reuses every limit cell, so the driver's iterates stop there
    F = parse(text, ring)
    dec = detect_weights(F)
    w = dec.weights
    limit = limit_cells(dec)
    k_star = max(limit.reuse_from.values())
    current = F
    for _ in range(k_star):
        current = scale_step(current, w)
    calls = EngineCalls(monkeypatch)
    cells = sqh._cell_integrals(current, w, SpfContext(), limit, k_star)
    assert all(cells[cell] is known for cell, known in limit.cells.items())
    assert calls.count == 0
    _, report = zeta_semiquasihomogeneous(F)
    assert report.k0 <= max(k_star, 1)


@pytest.mark.parametrize("a, k_star, k0", [
    pytest.param(20, 4, 4, id="x^2+3^20*y^3+x*y^3"),
    pytest.param(100, 17, 17, id="x^2+3^100*y^3+x*y^3"),
])
def test_reuse_index_against_k0(a, k_star, k0):
    # x^2 + 3^a y^3 + x y^3 at p = 3: k* grows with a and meets k0
    F = parse(f"x^2+{3**a}*y^3+x*y^3", LocalRing(3))
    assert max(limit_cells(detect_weights(F)).reuse_from.values()) == k_star
    assert zeta_semiquasihomogeneous(F)[1].k0 == k0


def test_early_stop_below_reuse_index():
    # k* = 1 = k0: the driver runs the limit and iterate 0 over the 8 cells
    # each, and closes the sum at k*, where the reuse lemma takes over.
    # Computed fresh, without the limit's trees, iterates 1..4 equal C_inf.
    F = parse("x^3+y^5+x^2*y^2", Z5)
    dec = detect_weights(F)
    w = dec.weights
    assert (w.alpha, w.d) == ((5, 3), 15)
    k_star = max(limit_cells(dec).reuse_from.values())
    assert k_star == 1
    value, report = zeta_semiquasihomogeneous(F)
    assert report.k0 == 1
    assert report.tree_stats["spf_calls"] == 8 * (1 + k_star)
    c_inf = tally_ratfun(5, zeta_on_complement(dec.quasi, w))
    current = F
    for _ in range(4):
        current = scale_step(current, w)
        assert tally_ratfun(5, zeta_on_complement(current, w)) == c_inf
    u = Fraction(1, 5**w.total)
    expected = tally_ratfun(5, zeta_on_complement(F, w))
    assert value == expected + c_inf.scale(u, w.d).geometric_close(w.total, w.d)


def test_k0_is_at_least_one_with_a_tail():
    # C_0 = C_inf here, and so is every computed iterate; k0 stays 1 while F
    # has a tail
    F = parse("x^3+y^5+x^2*y^2+x*y^4", Z5)
    dec = detect_weights(F)
    c_0 = tally_ratfun(5, zeta_on_complement(F, dec.weights))
    assert c_0 == tally_ratfun(5, zeta_on_complement(dec.quasi, dec.weights))
    assert zeta_semiquasihomogeneous(F)[1].k0 == 1


@pytest.mark.parametrize("text, ring", [
    ("x^2+y^2+z^4+z^5", Z5),
    ("x^3+y^5+x^2*y^2+y^6", Z5),
    ("x^2+y^3+x*y^2", F5PI),
])
def test_partition_matches_signed_family(text, ring):
    # the partition and the overlapping inclusion-exclusion family integrate
    # the same function over the same set
    F = parse(text, ring)
    w = detect_weights(F).weights
    for _ in range(4):
        assert tally_ratfun(ring.p, zeta_on_complement(F, w)) == signed_family_complement(F, w)
        F = scale_step(F, w)


def test_closed_cells_have_the_engine_root(monkeypatch):
    # x^2+y^3+z^5 with the weights (15, 10, 6): in 6 of its 31 cells one
    # monomial in the unit coordinate alone reduces, which classify_points
    # closes; every cell is an engine call with the engine's root
    f = parse("x^2+y^3+z^5", Z5)
    w = WeightSystem((15, 10, 6), 30)
    calls = EngineCalls(monkeypatch)
    limit = limit_cells(detect_weights(f, w))
    assert calls.count == len(limit.cells)
    for cell in complement_cells(w.alpha):
        e, d, f_cell, target = cell_change_of_variables(f, cell)
        value, trace = spf_zeta(f_cell, target)
        integral = limit.cells[cell]
        assert integral.root.to_json() == trace.root.to_json()
        assert integral.e == e
        assert tally_ratfun(5, integral.value) == value.scale(Fraction(1, 5**d), e)


# -- the full driver -----------------------------------------------------------------


def test_quasihomogeneous_shortcut():
    f = parse("x^2+y^3", Z5)
    Z, report = zeta_semiquasihomogeneous(f)
    assert report.k0 == 0
    c_inf = tally_ratfun(5, zeta_on_complement(f, report.weights))
    assert c_inf.geometric_close(5, 6) == Z


def test_driver_with_tail_stabilizes():
    f = parse("x^2+y^3+x*y^2", Z7)
    Z, report = zeta_semiquasihomogeneous(f)
    assert report.weights == WeightSystem((3, 2), 6)
    assert report.k0 >= 1
    allowed = {DenomFactor(1, 1), DenomFactor(5, 6)}
    assert set(Z.denom) <= allowed
    assert series_check(f, Z, 4)
    assert sorted(Z.pole_real_parts()) in (
        [Fraction(-1)],
        [Fraction(-5, 6)],
        [Fraction(-1), Fraction(-5, 6)],
        sorted({Fraction(-1), Fraction(-5, 6)}),
    )


def test_driver_diagonal():
    f = parse("x^2+y^2+z^2", Z5)
    Z, report = zeta_semiquasihomogeneous(f)
    assert report.weights == WeightSystem((1, 1, 1), 2)
    assert set(Z.denom) <= {DenomFactor(1, 1), DenomFactor(3, 2)}
    assert series_check(f, Z, 3)


def test_driver_content_normalization():
    # 5 * (x^2 + y^3): overall content contributes t^1
    f = parse("5*x^2+5*y^3", Z5)
    Z, report = zeta_semiquasihomogeneous(f)
    base, _ = zeta_semiquasihomogeneous(parse("x^2+y^3", Z5))
    assert Z == base.scale(1, 1)
    assert report.content_shift == 1


def test_driver_charp():
    f = parse("x^2+y^3", F5PI)
    Z, report = zeta_semiquasihomogeneous(f)
    assert report.k0 == 0
    assert series_check(f, Z, 3)


def test_driver_charp_with_pi_tail():
    f = parse("x^2+y^3+u*x*y^2", F5PI)
    Z, _ = zeta_semiquasihomogeneous(f)
    assert series_check(f, Z, 3)


@pytest.mark.parametrize("text, ring, k0", [
    ("x^2+3*y^3", Z3, 0),
    ("x^2+y^3+x*y^3", Z3, 1),
    (f"x^2+{3**20}*y^3+x*y^3", Z3, 4),
    (f"x^2+{3**100}*y^3+x*y^3", Z3, 17),
    (f"x^2+{3**70}*y^3+x*y^2", Z3, 36),
    ("5*x^2+5*y^3+25*x*y^2", Z5, 1),
    ("u*x^2+u*y^3+u^2*x*y^2", F5PI, 1),
    ("x^3+y^3+y^4", Z3, 2),
    ("x^2+y^2", Z5, 0),
    ("x*y+x^3+y^3", Z5, 1),
])
def test_driver_is_the_iterate_sum(text, ring, k0):
    # Z = t^e0 (sum_{k < k0} u^k C_k + u^k0 C_inf / (1 - u)), u = q^(-|alpha|) t^d,
    # summed in RatFun arithmetic from complements computed without the
    # limit, and Z's denominator divides (1 - q^(-1) t)(1 - q^(-|alpha|) t^d)
    F = parse(text, ring)
    Z, report = zeta_semiquasihomogeneous(F)
    assert report.k0 == k0
    p, e0 = ring.p, F.content_valuation()
    F = F.divide_by_uniformizer(e0)
    dec = detect_weights(F)
    w = dec.weights
    u = Fraction(1, p**w.total)
    expected = RatFun.zero(p)
    for k in range(k0):
        expected = expected + tally_ratfun(p, zeta_on_complement(F, w)).scale(u**k, k * w.d)
        F = scale_step(F, w)
    c_inf = tally_ratfun(p, zeta_on_complement(dec.quasi, w))
    expected = expected + c_inf.scale(u**k0, k0 * w.d).geometric_close(w.total, w.d)
    assert Z == expected.scale(1, e0)
    rest = list(Z.denom)
    for factor in (DenomFactor(1, 1), DenomFactor(w.total, w.d)):
        if factor in rest:
            rest.remove(factor)
    assert rest == []


def test_driver_needs_two_exceptional_terms():
    # the perturbation still changes the complement integral after one
    # scaling step, so the exceptional sum keeps two terms (k0 = 2)
    cases = [("x^3+y^3+y^4", LocalRing(3)), ("x^2+y^2+y^3", LocalRing(2))]
    for text, ring in cases:
        f = parse(text, ring)
        Z, report = zeta_semiquasihomogeneous(f)
        assert report.k0 == 2
        assert series_check(f, Z, 3)


def test_constant_coefficient_is_nonvanishing_mass():
    # c_0 of Z equals the measure of { v(F) = 0 }, i.e. the density of
    # residue classes where the reduction does not vanish
    import itertools

    for text, ring in [("x^2+y^3", Z5), ("x^2+y^3+x*y^2", Z7), ("x^2+y^2+z^2", Z5)]:
        f = parse(text, ring)
        Z, _ = zeta_semiquasihomogeneous(f)
        fbar = f.reduce_mod_pi()
        p, n = ring.p, f.n
        nonzero = sum(
            1 for q in itertools.product(range(p), repeat=n) if evaluate_residue(fbar, q) != 0
        )
        assert Z.series_expand(0)[0] == Fraction(nonzero, p**n)


def test_report_json_schema():
    _, report = zeta_semiquasihomogeneous(parse("x^2+y^3", Z5))
    doc = report.to_json()
    assert doc["weights"] == [3, 2]
    assert doc["d"] == 6
    assert doc["k0"] == 0
    assert {"num", "denom"} <= set(doc["zeta"])
    assert doc["pole_real_parts"] == [[-1, 1], [-5, 6]]
    assert "nodes" in doc["tree_stats"]


@pytest.mark.parametrize("text, ring, hint", [
    ("x^2+y^3+x*y^2", Z5, None),
    ("x^2+y^2+z^4+x*y*z", Z5, None),
    ("x^2+y^3+z^5", Z7, WeightSystem((15, 10, 6), 30)),
])
def test_zeta_invariant_under_permuting_variables(text, ring, hint):
    # the order of the cells follows the weights, ties by index; Z must not
    F = parse(text, ring)
    values = set()
    for order in itertools.permutations(range(F.n)):
        G = MultiPoly(ring, F.n, {tuple(e[i] for i in order): c for e, c in F.terms.items()})
        h = hint and WeightSystem(tuple(hint.alpha[i] for i in order), hint.d)
        Z, _ = zeta_semiquasihomogeneous(G, h)
        values.add(str(Z))
    assert len(values) == 1
