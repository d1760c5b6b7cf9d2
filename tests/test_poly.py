import random

import pytest

from igusa_zeta import (
    LocalRing,
    MultiPoly,
    NonUnitContent,
    PolynomialSyntaxError,
    UniformizerInCharZero,
    ZeroPolynomial,
    parse,
    weighted_degree,
)

from _util import (
    evaluate,
    evaluate_residue,
    from_digits,
    poly_product,
    random_poly,
    residue_partial,
    residue_product,
)

Z5 = LocalRing(5)
Z3 = LocalRing(3)
F5PI = LocalRing(5, positive_char=True)


# -- parsing -------------------------------------------------------------------


def test_parse_basic():
    f = parse("x^2 + 3*y^3", Z5)
    assert f.n == 2
    assert {e: c.payload for e, c in f.terms.items()} == {(2, 0): 1, (0, 3): 3}


def test_parse_uniformizer_charp():
    f = parse("u*y^2 + x", F5PI)
    assert f.terms[(0, 2)] == F5PI.pi(1)
    assert f.terms[(1, 0)] == F5PI.one()


@pytest.mark.parametrize("text, n_hint, error, message, position", [
    ("x0", None, PolynomialSyntaxError, "variable index must be >= 1", 0),
    ("x^^2", None, PolynomialSyntaxError, "expected nat, found ^", 2),
    ("x^2 + y^", None, PolynomialSyntaxError, "expected nat, found end", 8),
    ("x +", None, PolynomialSyntaxError, "expected a coefficient or variable, found end", 3),
    ("+x", None, PolynomialSyntaxError, "expected a coefficient or variable, found +", 0),
    ("", None, PolynomialSyntaxError, "expected a coefficient or variable, found end", 0),
    ("3x", None, PolynomialSyntaxError, "expected end, found var", 1),
    ("x y", None, PolynomialSyntaxError, "expected end, found var", 2),
    ("z", 1, PolynomialSyntaxError, "n_hint 1 below used variable count 3", 0),
    ("u^^2", None, UniformizerInCharZero, "uniformizer symbol u in characteristic 0", 0),
    # the whole text is tokenized first: a bad character beats an earlier grammar error
    ("x^^2+²", None, PolynomialSyntaxError, "unexpected character '²'", 5),
], ids=["index-zero", "double-caret", "power-at-end", "trailing-plus", "leading-plus", "empty",
        "juxtaposed-coefficient", "juxtaposed-variables", "n-hint-too-small",
        "uniformizer-before-power", "bad-character-first"])
def test_parse_errors(text, n_hint, error, message, position):
    with pytest.raises(PolynomialSyntaxError) as err:
        parse(text, Z5, n_hint=n_hint)
    assert type(err.value) is error
    assert (str(err.value), err.value.position) == (f"{message} (at position {position})", position)


@pytest.mark.parametrize("text, position, char", [
    ("x²+y³", 1, "²"),
    ("x^٢+y^3", 2, "٢"),
    ("x١", 1, "١"),  # not a variable index either
], ids=["superscript", "arabic-indic", "arabic-indic-index"])
def test_parse_rejects_non_ascii_digits(text, position, char):
    with pytest.raises(PolynomialSyntaxError) as err:
        parse(text, Z5)
    assert err.value.position == position
    assert str(err.value) == f"unexpected character {char!r} (at position {position})"


def test_parse_uniformizer_char0_rejected():
    with pytest.raises(UniformizerInCharZero):
        parse("u*x", Z5)


def test_parse_more_shapes():
    assert parse("-x^2 + y", Z5).terms[(2, 0)].payload == -1
    assert parse("2*3*x", Z5).terms[(1,)].payload == 6
    assert parse("x*x", Z5).terms == parse("x^2", Z5).terms
    assert parse("x1^2 + x3", Z5).n == 3
    assert parse("7", Z5).terms[(0,)].payload == 7
    assert parse("0", Z5).is_zero()
    assert parse("x - 2*y", Z5).terms[(0, 1)].payload == -2
    # numbered and named variables share slots: x2 and y both mean slot 1
    f = parse("x2 + y", Z5)
    assert f.n == 2 and f.terms[(0, 1)].payload == 2
    with pytest.raises(PolynomialSyntaxError):
        parse("q + 1", Z5)


def test_parse_charp_coefficient_reduction():
    f = parse("7*x + u^2*y", F5PI)
    assert f.terms[(1, 0)] == F5PI.from_int(2)
    assert f.terms[(0, 1)] == F5PI.pi(2)


def test_n_hint():
    f = parse("x^2", Z5, n_hint=3)
    assert f.n == 3 and f.terms == {(2, 0, 0): Z5.one()}


def test_render_parse_roundtrip():
    rng = random.Random(11)
    for _ in range(60):
        f = random_poly(Z5, rng.randint(1, 3), rng)
        assert parse(f.render(), Z5, n_hint=f.n) == f
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            terms[e] = from_digits(F5PI, [rng.randint(0, 4) for _ in range(3)])
        f = MultiPoly(F5PI, 2, terms)
        if f.is_zero():
            continue
        assert parse(f.render(), F5PI, n_hint=2) == f


# -- content, reduction ---------------------------------------------------------


def test_content_valuation():
    assert parse("25*x + 5*y^2", Z5).content_valuation() == 1
    assert parse("x + y", Z5).content_valuation() == 0
    with pytest.raises(ZeroPolynomial):
        MultiPoly.zero(Z5, 2).content_valuation()


def test_reduce_mod_pi():
    fbar = parse("x^2 + 3*y", Z3).reduce_mod_pi()
    assert fbar.terms == {(2, 0): 1}
    with pytest.raises(NonUnitContent):
        parse("3*x", Z3).reduce_mod_pi()
    gbar = parse("x^2 + y^3", Z5).reduce_mod_pi()
    assert gbar.terms == {(2, 0): 1, (0, 3): 1}


def test_reduce_is_multiplicative():
    rng = random.Random(23)
    for _ in range(40):
        f = random_poly(Z5, 2, rng)
        g = random_poly(Z5, 2, rng)
        if f.content_valuation() == 0 and g.content_valuation() == 0:
            expected = residue_product(f.reduce_mod_pi(), g.reduce_mod_pi())
            assert poly_product(f, g).reduce_mod_pi() == expected


# -- calculus --------------------------------------------------------------------


def test_partial_derivative():
    # the gradient test_neron.reference_classify takes of the reduction
    fbar = parse("x^2 + y^3", Z5).reduce_mod_pi()
    assert residue_partial(fbar, 0) == parse("2*x", Z5, n_hint=2).reduce_mod_pi()
    # in characteristic 3 the exponent multiple vanishes
    ybar = parse("y^3", LocalRing(3, positive_char=True), n_hint=2).reduce_mod_pi()
    assert residue_partial(ybar, 1).is_zero()
    assert residue_partial(parse("7", Z5).reduce_mod_pi(), 0).is_zero()


def test_evaluate():
    f = parse("x^2 + y^3", Z5)
    assert evaluate(f, (Z5.one(), Z5.one())) == Z5.from_int(2)
    fbar = f.reduce_mod_pi()
    assert evaluate_residue(fbar, (1, 2)) == 4
    assert evaluate(MultiPoly.zero(Z5, 2), (Z5.one(), Z5.one())).is_zero()


def test_weighted_degree():
    assert weighted_degree((2, 0), (3, 2)) == 6
    assert weighted_degree((0, 3), (3, 2)) == 6
    assert weighted_degree((1, 2), (3, 2)) == 7


# -- affine substitution -----------------------------------------------------------


def test_substitute_affine_scaling():
    f = parse("x^2 + y^3", Z5)
    zero = (Z5.zero(), Z5.zero())
    g = f.substitute_affine(zero, (1, 1))
    assert g.terms[(2, 0)] == Z5.from_int(25)
    assert g.terms[(0, 3)] == Z5.from_int(125)
    assert f.substitute_affine(zero, (0, 0)) == f


def test_substitute_affine_binomial():
    f = parse("x^2", Z5)
    g = f.substitute_affine((Z5.one(),), (1,))
    assert g == parse("1 + 10*x + 25*x^2", Z5)


def test_substitute_composition_law():
    # substituting center P scale m, then center Q scale m', equals one
    # substitution with center P + pi^m o Q and scale m + m'
    rng = random.Random(31)
    for ring in (Z5, F5PI):
        for _ in range(25):
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
                P = tuple(from_digits(ring, [rng.randint(0, 4)]) for _ in range(2))
                Q = tuple(from_digits(ring, [rng.randint(0, 4)]) for _ in range(2))
            else:
                f = random_poly(ring, 2, rng)
                P = tuple(ring.from_int(rng.randint(-3, 3)) for _ in range(2))
                Q = tuple(ring.from_int(rng.randint(-3, 3)) for _ in range(2))
            m = (rng.randint(0, 2), rng.randint(0, 2))
            m2 = (rng.randint(0, 2), rng.randint(0, 2))
            step = f.substitute_affine(P, m).substitute_affine(Q, m2)
            combined_center = tuple(
                pi + ring.pi(mi) * qi if mi else pi + qi
                for pi, qi, mi in zip(P, Q, m)
            )
            once = f.substitute_affine(
                combined_center, tuple(a + b for a, b in zip(m, m2))
            )
            assert step == once


def test_substitute_affine_matches_evaluation():
    # g(x) == f(c + pi^m x) at random points, with centres that mix zero and
    # nonzero coordinates, checked through evaluate only
    rng = random.Random(37)
    for ring in (Z5, F5PI):
        for _ in range(40):
            if ring.positive_char:
                f = MultiPoly(ring, 3, {
                    tuple(rng.randint(0, 4) for _ in range(3)): from_digits(
                        ring, [rng.randint(0, 4) for _ in range(3)]
                    )
                    for _ in range(rng.randint(1, 4))
                })
                if f.is_zero():
                    continue

                def element():
                    return from_digits(ring, [rng.randint(0, 4) for _ in range(3)])
            else:
                f = random_poly(ring, 3, rng, max_exp=4)

                def element():
                    return ring.from_int(rng.randint(-30, 30))
            center = tuple(ring.zero() if rng.random() < 0.5 else element() for _ in range(3))
            m = tuple(rng.randint(0, 3) for _ in range(3))
            g = f.substitute_affine(center, m)
            for _ in range(4):
                x = tuple(element() for _ in range(3))
                shifted = tuple(c + ring.pi(k) * xi for c, k, xi in zip(center, m, x))
                assert evaluate(g, x) == evaluate(f, shifted)


def test_substitute_charp():
    f = parse("x^2 + y^3", F5PI)
    zero = (F5PI.zero(), F5PI.zero())
    g = f.substitute_affine(zero, (3, 2))
    assert g.terms[(2, 0)] == F5PI.pi(6)
    assert g.terms[(0, 3)] == F5PI.pi(6)
