"""Recursive evaluation of zeta integrals by the stationary phase formula.

One step of the formula splits the integral over a residue region, where
each R_i is F_p^* on the region's unit coordinates and F_p elsewhere, into

* the mass of residue classes where the reduction does not vanish (a
  constant),
* the smooth zero classes, each contributing the closed geometric factor
  (1 - q^(-1)) t / (1 - q^(-1) t) times their mass, and
* dilatations covering the singular zero classes, each recursing with
  weight q^(-|U|) t^e, where U is the set of coordinates it rescales.

The singular zero classes come as boxes.  Let U be the coordinates that
occur in the reduction f-bar.  Off U the reduction does not see the residue,
so the region's singular points are Sing_U x prod_{i not in U} R_i, where
Sing_U is the singular set of f-bar on prod_{i in U} R_i (classify_points
gives it in closed form when f-bar is one univariate monomial c x_i^k, and
otherwise finds it part by part, without enumerating that product when
f-bar is a sum of parts in disjoint coordinates).  Each c_U in Sing_U gets
one dilatation x_i -> c_i + pi x_i (i in U, other coordinates unchanged),
c_i the canonical lift ring.from_int of the residue, with scaling vector 1
on U and 0 off it, weight q^(-|U|) t^e, and a child region that is full on
U and keeps the region's units off it.  Termination is guaranteed for regions bounded away from
an isolated singularity, so the depth cap is a diagnostic for violated
hypotheses rather than a tolerance.

Unrolled, the value over a region is a finite sum over its tree.  A node
with accumulated content E and S rescaled coordinates, on which a residue
points do not reduce to zeros and b are smooth zeros, contributes

    q^(-(n + S)) t^E (a + b (1 - q^(-1)) t / (1 - q^(-1) t)).

So the engine adds integers: every node adds (a, b) to a tally keyed by
(E, n + S), and one RatFun is built from the tally at the end
(tally_ratfun), with numerator A(t) (1 - q^(-1) t) + B(t) (1 - q^(-1)) t
over (1 - q^(-1) t).  That numerator goes to RatFun as integers over the
one denominator p^(K+1), with no Fraction built per coefficient; RatFun
cancels and gcd-normalises once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import analysis
from .coeff import DEFAULT_BUDGET
from .errors import DepthExceeded, ZeroPolynomial
from .neron import DilatationNode, classify_points, dilate
from .poly import MultiPoly
from .ratfun import DenomFactor, RatFun
from .region import ResidueRegion


class SpfConfig:
    """Caps for the recursive engine.

    max_depth bounds the dilatation descent; it is the only bound on the
    descent, and no a priori bound is computed (see module docs).  budget
    caps the work of one classification: the residue points enumerated part
    by part, p^2 per histogram convolution and the combinations of critical
    points visited (see neron.classify_points), and sqh's weight search.
    The semiquasihomogeneous iteration needs no cap: the reuse lemma bounds it.
    """

    __slots__ = ("max_depth", "budget")

    def __init__(self, max_depth: int = 64, budget: int = DEFAULT_BUDGET):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.budget = budget


class SpfTrace:
    """Dilatation tree of one engine run plus aggregate statistics."""

    __slots__ = ("root", "stats")

    def __init__(self, root: DilatationNode, stats: dict):
        self.root = root
        self.stats = stats

    def to_json(self) -> dict:
        return {"stats": self.stats, "tree": self.root.to_json()}


class SpfContext:
    """Per-computation state: the config and the collected trees, one per engine call."""

    def __init__(self, cfg: Optional[SpfConfig] = None):
        self.cfg = cfg if cfg is not None else SpfConfig()
        self.roots: List[DilatationNode] = []

    def stats_dict(self) -> dict:
        """Engine calls, nodes and the largest node depth, read off the collected trees."""
        nodes = [node for root in self.roots for node in root.walk()]
        return {
            "spf_calls": len(self.roots),
            "nodes": len(nodes),
            "max_depth": max((node.depth for node in nodes), default=0),
            # always 0 (there is no node cache); zetabench/tracer.py reads the key
            "cache_hits": 0,
        }


Tally = Dict[Tuple[int, int], Tuple[int, int]]
"""{(E, k): (a, b)}: sum (a + b (1 - q^(-1)) t / (1 - q^(-1) t)) p^(-k) t^E; a, b may be < 0."""


def tally_add(tally: Tally, key: Tuple[int, int], a: int, b: int):
    """Add (a, b) to the entry at key."""
    a0, b0 = tally.get(key, (0, 0))
    tally[key] = (a0 + a, b0 + b)


def tally_merge(into: Tally, tally: Tally, e: int = 0, k: int = 0, sign: int = 1) -> Tally:
    """Add sign p^(-k) t^e times the tally's value to ``into``, and return ``into``."""
    for (E, K), (a, b) in tally.items():
        tally_add(into, (E + e, K + k), sign * a, sign * b)
    return into


def tally_ratfun(p: int, tally: Tally, *closing: DenomFactor) -> RatFun:
    """The rational function a tally stands for, over the ``closing`` factors, normalised once.

    Over p^(K+1), K the largest k, the numerator gains p^(K-k) (a p) at
    t^E and p^(K-k) (b (p - 1) - a) at t^(E+1) per entry, all integers.
    They go to RatFun.from_integers over (1 - q^(-1) t) and ``closing``.
    """
    top = max((k for _, k in tally), default=0)
    degree = max((e for e, _ in tally), default=-1) + 2
    num = [0] * degree
    for (e, k), (a, b) in tally.items():
        weight = p ** (top - k)
        num[e] += weight * a * p
        num[e + 1] += weight * (b * (p - 1) - a)
    return RatFun.from_integers(p, num, p ** (top + 1), (DenomFactor(1, 1),) + closing)


def spf_zeta(
    f: MultiPoly, region: ResidueRegion, cfg: Optional[SpfConfig] = None
) -> Tuple[RatFun, SpfTrace]:
    """Exact value of the zeta integral of f over the region.

    Content is normalized first: pi^e0 g contributes t^e0 times the value
    for g.  Raises DepthExceeded when the descent does not flatten within
    the configured depth (suspected non-isolated singularity on the region).
    """
    ctx = SpfContext(cfg)
    tally, root = spf_tally(f, region, ctx)
    return tally_ratfun(f.ring.p, tally), SpfTrace(root, ctx.stats_dict())


def spf_tally(
    f: MultiPoly, region: ResidueRegion, ctx: SpfContext
) -> Tuple[Tally, DilatationNode]:
    """The tally of the zeta integral of f over the region, and its tree.

    spf_zeta without building the RatFun, for callers that add tallies.
    """
    if f.is_zero():
        raise ZeroPolynomial("zeta integral of the zero polynomial diverges")
    e0 = f.content_valuation()
    if e0:
        f = f.divide_by_uniformizer(e0)
    tally: Tally = {}
    root = _spf(f, region, e0, ctx, tally)
    ctx.roots.append(root)
    return tally, root


def _spf(
    f: MultiPoly, region: ResidueRegion, e0: int, ctx: SpfContext, tally: Tally
) -> DilatationNode:
    """The descent from f (unit content, e0 taken out) over the region, in pre-order.

    A stack holds the pending dilatations, so the depth cap and not the
    interpreter's recursion limit bounds the descent.  Children are pushed in
    reverse and dilated when popped, so the classify_points and dilate calls,
    tally entries and child lists come in the order of a recursive descent.
    """
    cfg = ctx.cfg
    p, n = f.ring.p, f.n
    top: List[DilatationNode] = []
    # (siblings, parent polynomial, region, depth, parent E_accum, S_accum, centre, scaling)
    stack = [(top, f, region, 0, 0, 0, None, None)]
    while stack:
        siblings, f, region, depth, e_accum, s_accum, center, m = stack.pop()
        f, e = (f, e0) if center is None else dilate(f, center, m)
        e_accum += e
        if depth > cfg.max_depth:
            raise DepthExceeded(f"dilatation depth exceeded {cfg.max_depth}")
        cls = classify_points(f, region, cfg.budget)
        if cls.nonzero or cls.smooth:
            tally_add(tally, (e_accum, n + s_accum), cls.nonzero, cls.smooth)
        node = DilatationNode(
            center, m, e, e_accum, s_accum, depth, cls.nonzero, cls.smooth, cls.total,
            len(cls.singular) * cls.fibre, region,
        )
        siblings.append(node)
        if cls.singular:
            support = cls.support
            zero = f.ring.zero()
            # x_i = c_i + pi y_i on U maps the child region onto the singular
            # classes {c_U} x prod_{i not in U} R_i, with Jacobian q^(-|U|)
            scaling = tuple(int(i in support) for i in range(n))
            child_region = ResidueRegion(p, n, region.units - set(support))
            for point in reversed(cls.singular):
                c_u = dict(zip(support, point))
                c_box = tuple(f.ring.from_int(c_u[i]) if i in c_u else zero for i in range(n))
                stack.append((
                    node.children, f, child_region, depth + 1, e_accum, s_accum + len(support),
                    c_box, scaling,
                ))
    return top[0]


def series_check(
    f: MultiPoly,
    Z: RatFun,
    J: int,
    budget: int = DEFAULT_BUDGET,
    counts: Optional[List[int]] = None,
) -> bool:
    """Compare the expansion of Z, f's zeta integral over O_K^n, with counted valuation fibers.

    The coefficient of t^j is the measure of the set of points where f has
    valuation exactly j, which equals N_j p^(-n j) - N_{j+1} p^(-n (j+1))
    in terms of the solution counts.  Checks orders 0..J-1.  ``counts`` may
    pass N_0..N_J if they are already known; otherwise they are counted here.
    """
    if J <= 0:
        return True
    p, n = f.ring.p, f.n
    if counts is None:
        counts = analysis.oracle_counts(f, J, budget)
    masses = [Fraction(counts[j], p ** (n * j)) for j in range(J + 1)]
    expected = [masses[j] - masses[j + 1] for j in range(J)]
    return Z.series_expand(J - 1) == expected
