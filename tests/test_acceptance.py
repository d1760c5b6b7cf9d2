"""Acceptance suite.

One test per acceptance criterion; each prints a PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see them).  All comparisons are
exact: the identities under test are algebraic, so there is no tolerance
anywhere.
"""

import ast
from fractions import Fraction
from pathlib import Path

from igusa_zeta import (
    DenomFactor,
    InvalidHint,
    LocalRing,
    RatFun,
    ResidueRegion,
    WeightSystem,
    classify_points,
    detect_weights,
    dilate,
    two_term_closed_form,
    oracle_counts,
    parse,
    poincare_from_zeta,
    scale_step,
    series_check,
    zeta_on_complement,
    zeta_semiquasihomogeneous,
)
from igusa_zeta.cli import main
from igusa_zeta.spf import tally_ratfun

from _util import poly_times_pi

BUDGET = 10**8

CORPUS = ["x", "x^2+y^3", "x^2+y^3+x*y^2", "x^2+y^2+z^2", "x^3+y^4", "x^2+{p}*y^3"]
PRIMES = [3, 5, 7]


def _report(number: int, description: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _corpus_poly(text: str, ring: LocalRing):
    return parse(text.format(p=ring.p), ring)


def _feasible_levels(p: int, n: int, j_cap: int = 5):
    return [j for j in range(1, j_cap + 1) if p ** (n * j) <= BUDGET]


def test_criterion_1_closed_form_equivalence():
    checked = 0
    ok = True
    for n, m in [(2, 3), (3, 4), (2, 5)]:
        for p in [5, 7, 11]:
            if (n * m) % p == 0:
                continue
            ring = LocalRing(p)
            for k in range(3):  # beta = 1, pi, pi^2
                beta = ring.pi(k)
                f = parse(f"x^{n}+{beta.payload}*y^{m}", ring)
                engine, _ = zeta_semiquasihomogeneous(f)
                closed = two_term_closed_form(ring, n, m, ring.one(), beta)
                ok = ok and closed == engine
                checked += 1
    _report(1, f"engine equals two-term closed form on {checked} cases", ok and checked == 24)


def test_criterion_2_oracle_coefficient_match():
    ok = True
    for p in PRIMES:
        ring = LocalRing(p)
        for text in CORPUS:
            f = _corpus_poly(text, ring)
            Z, _ = zeta_semiquasihomogeneous(f)
            levels = _feasible_levels(p, f.n)
            j_max = max(levels)
            counts = oracle_counts(f, j_max, BUDGET)
            extracted = poincare_from_zeta(Z, f.n).counts(j_max)
            ok = ok and counts == extracted
            ok = ok and series_check(f, Z, j_max, BUDGET)
    _report(2, "series check and N_j agreement over the corpus", ok)


def test_criterion_3_denominator_shape():
    ok = True
    for p in PRIMES:
        ring = LocalRing(p)
        for text in CORPUS:
            f = _corpus_poly(text, ring)
            Z, report = zeta_semiquasihomogeneous(f)
            w = report.weights
            allowed = [DenomFactor(1, 1), DenomFactor(w.total, w.d)]
            remaining = list(Z.denom)
            for factor in allowed:
                if factor in remaining:
                    remaining.remove(factor)
            ok = ok and not remaining
            ok = ok and Z.pole_real_parts() <= {Fraction(-1), Fraction(-w.total, w.d)}
    _report(3, "denominators divide (1-q^-1 t)(1-q^-|a| t^d), poles in {-1, -|a|/d}", ok)


def test_criterion_4_quasihomogeneous_shortcut():
    ok = True
    quasihomogeneous = ["x", "x^2+y^3", "x^2+y^2+z^2", "x^3+y^4", "x^2+{p}*y^3"]
    for p in PRIMES:
        ring = LocalRing(p)
        for text in quasihomogeneous:
            f = _corpus_poly(text, ring)
            Z, report = zeta_semiquasihomogeneous(f)
            w = report.weights
            complement = tally_ratfun(p, zeta_on_complement(f, w))
            ok = ok and report.k0 == 0
            ok = ok and complement.geometric_close(w.total, w.d) == Z
    _report(4, "k0 = 0 and Z (1 - q^-|a| t^d) equals the complement integral", ok)


def test_criterion_5_positive_characteristic():
    ring = LocalRing(5, positive_char=True)
    f = parse("x^2+y^3", ring)
    Z, report = zeta_semiquasihomogeneous(f)  # any cap error fails the test
    counts = oracle_counts(f, 4, BUDGET)
    extracted = poincare_from_zeta(Z, 2).counts(4)
    ok = counts == extracted
    ok = ok and series_check(f, Z, 4, BUDGET)
    _report(5, "rationality and counts over F_5((u)) up to j = 4", ok)


def test_criterion_6_structural_properties():
    ok = True
    ring = LocalRing(5)

    # dilatation identity on corpus polynomials at assorted centers
    for text in ["x^2+y^3", "x^2+y^3+x*y^2"]:
        f = parse(text, ring)
        for center in [(0, 0), (0, 5), (1, 2), (5, 10)]:
            lifted = tuple(ring.from_int(c) for c in center)
            for m in [(1, 1), (2, 1), (3, 2)]:
                fp, e = dilate(f, lifted, m)
                ok = ok and poly_times_pi(fp, e) == f.substitute_affine(lifted, m)
                ok = ok and fp.content_valuation() == 0

    # classification partitions the region measure
    for text in ["x^2+y^3", "x*y", "x^2+y^2"]:
        f = parse(text, ring)
        for region in [
            ResidueRegion.full(5, 2),
            ResidueRegion(5, 2, frozenset({0})),
        ]:
            cls = classify_points(f, region)
            total = cls.nu + cls.sigma + Fraction(len(cls.singular), 25)
            ok = ok and total == Fraction(region.card(), 25)

    # tail valuation strictly increases along scale steps
    w = WeightSystem((3, 2), 6)
    quasi = parse("x^2+y^3", ring)
    current = parse("x^2+y^3+x*y^2", ring)
    previous = (current - quasi).content_valuation()
    for _ in range(4):
        current = scale_step(current, w)
        level = (current - quasi).content_valuation()
        ok = ok and level > previous
        previous = level

    # Poincare integrality and nonnegativity over the corpus
    for p in PRIMES:
        ring_p = LocalRing(p)
        for text in CORPUS:
            f = _corpus_poly(text, ring_p)
            Z, _ = zeta_semiquasihomogeneous(f)
            counts = poincare_from_zeta(Z, f.n).counts(4)  # raises if violated
            ok = ok and counts[0] == 1 and all(c >= 0 for c in counts)

    _report(6, "dilatation identity, partition, tail growth, P(t) integrality", ok)


def test_criterion_7_negative_controls():
    ring = LocalRing(5)
    rejected = False
    try:
        detect_weights(parse("x^2+y^3+x*y", ring), WeightSystem((3, 2), 6))
    except InvalidHint:
        rejected = True
    f = parse("x", ring)
    Z, _ = zeta_semiquasihomogeneous(f)
    perturbed = Z + RatFun.monomial(5, Fraction(1, 9), 3)
    fails = not series_check(f, perturbed, 4)
    _report(7, "bad hint rejected and perturbed value fails the series check", rejected and fails)


def test_check_passes_on_box_singular_surface(capsys):
    # x^2 + y^2 + z^2 + w^3 at p = 5: reductions along the descent are
    # singular on whole boxes of residue points, one dilatation each
    code = main(["check", "x^2+y^2+z^2+w^3", "--prime", "5", "--levels", "3"])
    out = capsys.readouterr().out
    assert code == 0 and "FAIL" not in out
    assert "checked N up to j=3: [1, 125, 16125, 2015625]" in out


def test_exports_resolve():
    # a name left in __all__ after its definition is deleted breaks star imports
    import igusa_zeta

    names = igusa_zeta.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(igusa_zeta, name)] == []
    namespace = {}
    exec("from igusa_zeta import *", namespace)
    assert set(names) <= set(namespace)


def _self_calls(source: str):
    """Module-level functions that call themselves by name, and methods that
    call self.<their own name>."""
    found = []
    module = ast.parse(source)
    scopes = [(module, False)] + [(c, True) for c in module.body if isinstance(c, ast.ClassDef)]
    for scope, is_class in scopes:
        for fn in scope.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                target = call.func
                if is_class:
                    hit = (isinstance(target, ast.Attribute) and target.attr == fn.name
                           and isinstance(target.value, ast.Name) and target.value.id == "self")
                else:
                    hit = isinstance(target, ast.Name) and target.id == fn.name
                if hit:
                    found.append(f"{scope.name + '.' if is_class else ''}{fn.name}")
    return found


def test_no_function_calls_itself():
    # trees of any depth are walked on explicit stacks; a recursive walk
    # would end in RecursionError past the interpreter's limit
    assert _self_calls("def f(n):\n    return f(n - 1)\n") == ["f"]
    assert _self_calls("class A:\n    def g(self):\n        self.g()\n") == ["A.g"]
    package = Path(__file__).resolve().parents[1] / "src" / "igusa_zeta"
    found = {path.name: _self_calls(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}
