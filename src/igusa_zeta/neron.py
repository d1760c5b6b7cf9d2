"""Singularity bookkeeping: point classification, dilatations, descent trees.

A dilatation recenters and rescales a polynomial, x -> P + pi^m o x, and
divides out the full power of the uniformizer (the arithmetic multiplicity
e).  Iterated dilatations at the singular residue points found by
classify_points drive the recursive zeta evaluation, and DilatationNode
records each step of that descent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .coeff import DEFAULT_BUDGET, LocalRingElement
from .errors import BudgetExceeded, InvariantViolation
from .poly import MultiPoly, ResiduePoly
from .region import ResidueRegion


@dataclass
class PointClassification:
    """Exhaustive split of a residue region by the reduced hypersurface.

    support is U, the coordinates that occur in the reduction, and fibre the
    number of residue choices off U (the product of the region's |R_i| for i
    not in U), which the reduction does not see.  nonzero counts the residue
    points of the region where the reduction does not vanish and smooth
    those where it vanishes to order one; singular lists the singular points
    c_U of the reduction on prod_{i in U} R_i, so the region's singular
    points are {c_U} x prod_{i not in U} R_i.  total is p^n, so nu and sigma,
    the measures of the first two sets, are nonzero/total and smooth/total.
    """

    nonzero: int
    smooth: int
    support: Tuple[int, ...]
    singular: List[Tuple[int, ...]]
    fibre: int
    total: int

    @property
    def nu(self) -> Fraction:
        return Fraction(self.nonzero, self.total)

    @property
    def sigma(self) -> Fraction:
        return Fraction(self.smooth, self.total)


def classify_points(
    f: MultiPoly, region: ResidueRegion, budget: int = DEFAULT_BUDGET
) -> PointClassification:
    """Classify the residue points of the region against the reduction of f.

    Requires unit content (so the reduction is defined and nonzero).  Only
    the points of prod_{i in U} R_i are enumerated, U the support of the
    reduction, and the counts are multiplied by the fibre off U.  The
    reduction is evaluated on all of them at once, one monomial at a time,
    from per-coordinate tables of x^k mod p for the exponents k that occur;
    the gradient on U is evaluated the same way on the zeros only.  Singular
    points come out in lexicographic order.  The budget still bounds p^n.
    """
    p, n = region.p, region.n
    if p**n > budget:
        raise BudgetExceeded(f"{p}^{n} residue points exceed budget {budget}")
    fbar = f.reduce_mod_pi()
    support = tuple(i for i in range(n) if any(e[i] for e in fbar.terms))
    fbar = ResiduePoly(
        p, len(support), {tuple(e[i] for i in support): c for e, c in fbar.terms.items()}
    )
    grad = fbar.gradient()
    powers = _power_tables([fbar] + grad, p, len(support))
    points = list(itertools.product(*(sorted(region.allowed[i]) for i in support)))
    fibre = math.prod(len(region.allowed[i]) for i in range(n) if i not in support)
    values = _evaluate_at(fbar, powers, points)
    zeros = [point for point, v in zip(points, values) if v == 0]
    slopes = [_evaluate_at(g, powers, zeros) for g in grad]
    singular = [point for point, *ds in zip(zeros, *slopes) if not any(ds)]
    if len(points) * fibre != region.card():
        raise InvariantViolation("point classification does not partition the region")
    return PointClassification(
        (len(points) - len(zeros)) * fibre, (len(zeros) - len(singular)) * fibre,
        support, singular, fibre, p**n,
    )


def _power_tables(polys: Sequence[ResiduePoly], p: int, n: int) -> List[Dict[int, List[int]]]:
    """Per coordinate, the row [x^k mod p for x in F_p] of every exponent k > 0 used."""
    needed: List[set] = [set() for _ in range(n)]
    for poly in polys:
        for e in poly.terms:
            for i, k in enumerate(e):
                if k:
                    needed[i].add(k)
    return [{k: [pow(x, k, p) for x in range(p)] for k in ks} for ks in needed]


def _evaluate_at(
    poly: ResiduePoly, powers: List[Dict[int, List[int]]], points: List[Tuple[int, ...]]
) -> List[int]:
    """Values mod p of poly at the points, one monomial at a time over all of them."""
    columns = [[point[i] for point in points] for i in range(poly.n)]
    total = [0] * len(points)
    for e, c in poly.terms.items():
        vals = None
        for i, k in enumerate(e):
            if k:
                row, col = powers[i][k], columns[i]
                if vals is None:
                    vals = [row[x] for x in col]
                else:
                    vals = [v * row[x] for v, x in zip(vals, col)]
        if vals is None:
            total = [t + c for t in total]
        else:
            total = [t + c * v for t, v in zip(total, vals)]
    return [t % poly.p for t in total]


def dilate(
    f: MultiPoly, center: Sequence[LocalRingElement], m: Sequence[int]
) -> Tuple[MultiPoly, int]:
    """Dilatation of f at ``center`` with scaling vector m.

    Returns (f_P, e) with f(center + pi^m o x) = pi^e f_P(x) exactly and
    f_P of unit content.
    """
    substituted = f.substitute_affine(center, m)
    e = substituted.content_valuation()
    return substituted.divide_by_uniformizer(e), e


@dataclass
class DilatationNode:
    """One step of the descendant tree built by the recursive engine.

    E_accum sums the extracted contents e along the path from the root and
    S_accum the numbers of rescaled coordinates, so the node's integral
    enters the root's value with weight q^(-S_accum) t^E_accum.
    """

    center: Optional[Tuple[LocalRingElement, ...]]
    m: Optional[Tuple[int, ...]]
    e: int
    E_accum: int
    S_accum: int
    depth: int
    nu: Fraction
    sigma: Fraction
    singular_count: int
    region: str
    children: List["DilatationNode"] = field(default_factory=list)

    def to_json(self) -> dict:
        """The subtree as nested dicts, built on an explicit stack (any depth)."""
        root = self._fields()
        stack = [(self, root)]
        while stack:
            node, doc = stack.pop()
            for child in node.children:
                doc["children"].append(child._fields())
                stack.append((child, doc["children"][-1]))
        return root

    def _fields(self) -> dict:
        return {
            "center": None if self.center is None else [c.to_json() for c in self.center],
            "m": None if self.m is None else list(self.m),
            "e": self.e,
            "E_accum": self.E_accum,
            "S_accum": self.S_accum,
            "depth": self.depth,
            "nu": str(self.nu),
            "sigma": str(self.sigma),
            "singular": self.singular_count,
            "region": self.region,
            "children": [],
        }

    def walk(self):
        """The nodes of the subtree in pre-order, on an explicit stack."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))
