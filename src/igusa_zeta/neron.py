"""Singularity bookkeeping: point classification, dilatations, descent trees.

A dilatation recenters and rescales a polynomial, x -> P + pi^m o x, and
divides out the full power of the uniformizer (the arithmetic multiplicity
e).  Iterated dilatations at the singular residue points found by
classify_points drive the recursive zeta evaluation, and DilatationNode
records each step of that descent.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .coeff import DEFAULT_BUDGET, LocalRingElement
from .errors import BudgetExceeded, InvariantViolation
from .poly import MultiPoly, ResiduePoly
from .region import ResidueRegion


class PointClassification:
    """Exhaustive split of a residue region by the reduced hypersurface.

    support is U, the coordinates that occur in the reduction, and fibre the
    number of residue choices off U (the product of the region's |R_i| for i
    not in U), which the reduction does not see.  nonzero counts the residue
    points of the region where the reduction does not vanish and smooth
    those where it vanishes to order one; singular lists the singular points
    c_U of the reduction on prod_{i in U} R_i in lexicographic order, so the
    region's singular points are {c_U} x prod_{i not in U} R_i.  A
    reduction c x_i^k is classified in closed form; other counts come from
    per-part value histograms (see classify_points), so a reduction that
    splits into parts is never walked over all of prod_{i in U} R_i.  total
    is p^n, so nu and sigma, the measures of the first two sets, are
    nonzero/total and smooth/total.
    """

    __slots__ = ("nonzero", "smooth", "support", "singular", "fibre", "total")

    def __init__(
        self,
        nonzero: int,
        smooth: int,
        support: Tuple[int, ...],
        singular: List[Tuple[int, ...]],
        fibre: int,
        total: int,
    ):
        self.nonzero = nonzero
        self.smooth = smooth
        self.support = support
        self.singular = singular
        self.fibre = fibre
        self.total = total

    @property
    def nu(self) -> Fraction:
        return Fraction(self.nonzero, self.total)

    @property
    def sigma(self) -> Fraction:
        return Fraction(self.smooth, self.total)


class Part:
    """One part P of a reduction: g_P at the points of prod_{i in P} R_i.

    coords are the coordinates of P, terms the monomials of g_P as
    (exponents, coefficient), points prod_{i in P} R_i in lexicographic
    order and values g_P mod p at each point.
    """

    __slots__ = ("coords", "terms", "points", "values")

    def __init__(
        self,
        coords: Tuple[int, ...],
        terms: List[Tuple[Tuple[int, ...], int]],
        points: List[Tuple[int, ...]],
        values: List[int],
    ):
        self.coords = coords
        self.terms = terms
        self.points = points
        self.values = values

    def critical(self, indices, p: int) -> List[Tuple[Tuple[int, ...], int]]:
        """The (point, value) pairs among the indexed ones at which every partial of g_P vanishes.

        Each partial is evaluated only at the points the previous ones kept.
        """
        for i in self.coords:
            if not indices:
                break
            partial = [(e[:i] + (e[i] - 1,) + e[i + 1 :], c * e[i]) for e, c in self.terms if e[i]]
            slopes = _evaluate_at(partial, self.coords, [self.points[j] for j in indices], p)
            indices = [j for j, s in zip(indices, slopes) if not s]
        return [(self.points[j], self.values[j]) for j in indices]


class MonomialPart:
    """A part P = {i} whose g_P is one monomial c x_i^k, c a unit, on R_i.

    Its values c x^k mod p are read off _power_row, with no point
    enumerated, and its critical set comes in closed form, by the rule of
    _classify_monomial: all of R_i when p | k, nothing when k = 1, and
    x_i = 0 otherwise.
    """

    __slots__ = ("coords", "residues", "k", "values")

    def __init__(self, i: int, k: int, c: int, residues: range, p: int):
        self.coords = (i,)
        self.residues = residues
        self.k = k
        self.values = [c * y % p for y in _power_row(p, k)[residues.start:]]

    def critical(self, indices, p: int) -> List[Tuple[Tuple[int, ...], int]]:
        """The (point, value) pairs among the indexed ones where k c x_i^(k - 1) vanishes."""
        if self.k % p == 0:
            keep = indices
        elif self.k == 1 or self.residues.start:
            keep = ()
        else:
            keep = [0] if 0 in indices else []  # index 0 is the residue 0
        return [((self.residues[j],), self.values[j]) for j in keep]


def classify_points(
    f: MultiPoly, region: ResidueRegion, budget: int = DEFAULT_BUDGET
) -> PointClassification:
    """Classify the residue points of the region against the reduction of f.

    Requires unit content (so the reduction is defined and nonzero).  Only
    the support U of the reduction is classified, and the counts are
    multiplied by the fibre off U.  A reduction that is one univariate
    monomial c x_i^k is classified in closed form (see _classify_monomial),
    with no point enumerated.  Otherwise U splits into parts, two
    coordinates sharing a part when some monomial uses both, so the
    reduction is c + sum_P g_P with each g_P in the coordinates of P alone.
    Each part enumerates only its own product prod_{i in P} R_i and
    evaluates g_P there, one monomial at a time from tables of x^k mod p.
    A part that is one monomial c x_i^k enumerates nothing: its values are
    its table's row and its critical set is closed (see MonomialPart).

    The zeros are counted by convolving the value histograms of all parts
    but the largest mod p, shifted by c, and joining the largest part by
    lookup.  A singular point is a zero at which every part's gradient
    vanishes.  The largest part's gradient is taken only at its points whose
    value completes a zero (its zeros, when the reduction is one part); only
    when some of them are critical are the other parts' critical points
    found and combined.  The singular points come out in lexicographic
    order.

    The budget bounds the work, charged before it is done: the points the
    parts enumerate, p^2 for each convolution of two parts' histograms, and
    the combinations of the other parts' critical points.
    """
    p, n = region.p, region.n
    fbar = f.reduce_mod_pi()
    used = [(i, k) for e in fbar.terms for i, k in enumerate(e) if k]
    if len(fbar.terms) == 1 and len(used) == 1:
        return _classify_monomial(region, *used[0], budget)
    parts = _split_into_parts(fbar)
    support = tuple(sorted(i for coords, _ in parts for i in coords))
    sizes = [math.prod(len(region.residues(i)) for i in coords) for coords, _ in parts]
    size = math.prod(sizes)
    fibre = region.card() // size
    spent = sum(sizes) + max(len(parts) - 2, 0) * p * p
    _charge(spent, budget)
    # the largest part comes last: it is joined by lookup
    *others, last = [
        _evaluate_part(*parts[k], region) for k in sorted(range(len(parts)), key=sizes.__getitem__)
    ]
    constant = fbar.terms.get((0,) * n, 0)
    histogram = {constant: 1}
    for part in others:
        histogram = _convolve(histogram, _histogram(part.values), p)
    # a point of the last part with value v completes histogram[-v] zeros
    completes = {-s % p: m for s, m in histogram.items()}
    zeros = sum(map(completes.get, last.values, itertools.repeat(0)))
    last_critical: Dict[int, List[Tuple[int, ...]]] = {}  # by value, at zeros only
    at_zeros = [j for j, v in enumerate(last.values) if v in completes]
    for x, v in last.critical(at_zeros, p):
        last_critical.setdefault(v, []).append(x)
    singular = (
        _join(others, last, last_critical, constant, spent, budget, p) if last_critical else []
    )
    if not len(singular) <= zeros <= size:
        raise InvariantViolation("point classification does not partition the region")
    return PointClassification(
        (size - zeros) * fibre, (zeros - len(singular)) * fibre, support, singular, fibre, p**n,
    )


def _classify_monomial(region: ResidueRegion, i: int, k: int, budget: int) -> PointClassification:
    """The classification of a reduction c x_i^k, c a unit, in closed form.

    Its zeros are the points with x_i = 0: smooth when k = 1, singular when
    k >= 2 (also when p divides k, which needs k >= 2).  The budget is
    charged as the general path charges it: |R_i| for the one part, then
    |R_i| + 1 when the zero is singular, so the same inputs fail with the
    same message.
    """
    size = len(region.residues(i))
    fibre = region.card() // size
    zero = i not in region.units
    singular = [(0,)] if zero and k > 1 else []
    _charge(size, budget)
    _charge(size + len(singular), budget)
    return PointClassification(
        (size - zero) * fibre, fibre if zero and k == 1 else 0, (i,), singular, fibre,
        region.p**region.n,
    )


def _join(
    others: list, last, last_critical, constant: int, spent: int, budget: int, p: int
):
    """The singular points, in lexicographic order on the support.

    Each combines critical points of the other parts with a critical point
    of the last part from last_critical[v], v the value that brings the sum
    to 0.  The combinations of the other parts are charged to the budget
    first.
    """
    critical = [part.critical(range(len(part.values)), p) for part in others]
    _charge(spent + math.prod(map(len, critical)), budget)
    combos = [((), constant)]  # residues part by part, with c + their values
    for pairs in critical:
        combos = [(xs + x, (s + v) % p) for xs, s in combos for x, v in pairs]
    # perm puts residues listed part by part in support order
    order = [i for part in others + [last] for i in part.coords]
    perm = sorted(range(len(order)), key=order.__getitem__)
    return sorted(
        tuple(map((xs + x).__getitem__, perm))
        for xs, s in combos for x in last_critical.get(-s % p, ())
    )


def _charge(spent: int, budget: int):
    if spent > budget:
        raise BudgetExceeded(
            f"classification takes {spent} steps (points of the parts, p^2 per convolution,"
            f" critical combinations), more than budget {budget}"
        )


def _split_into_parts(fbar: ResiduePoly) -> List[Tuple[Tuple[int, ...], list]]:
    """The nonconstant terms of fbar grouped into parts, as (coords, terms), by least coordinate.

    Two coordinates share a part when some monomial uses both.  A constant
    fbar is one empty part, whose one point () has value 0.
    """
    groups: List[Tuple[set, list]] = []
    for e, c in fbar.terms.items():
        used = {i for i, k in enumerate(e) if k}
        if used:
            coords, terms = used, [(e, c)]
            for group in [g for g in groups if not used.isdisjoint(g[0])]:
                coords |= group[0]
                terms += group[1]
                groups.remove(group)
            groups.append((coords, terms))
    return sorted((tuple(sorted(coords)), terms) for coords, terms in groups) or [((), [])]


def _evaluate_part(coords, terms, region: ResidueRegion):
    """The part on coords with the given terms, evaluated at its points of the region."""
    if len(terms) == 1 and len(coords) == 1:
        (i,), ((e, c),) = coords, terms
        return MonomialPart(i, e[i], c, region.residues(i), region.p)
    points = list(itertools.product(*(region.residues(i) for i in coords)))
    return Part(coords, terms, points, _evaluate_at(terms, coords, points, region.p))


def _histogram(values: List[int]) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return counts


def _convolve(a: Dict[int, int], b: Dict[int, int], p: int) -> Dict[int, int]:
    """The histogram of u + v mod p for u, v drawn from the histograms a and b."""
    out: Dict[int, int] = {}
    for u, m in a.items():
        for v, k in b.items():
            w = (u + v) % p
            out[w] = out.get(w, 0) + m * k
    return out


@functools.lru_cache(maxsize=128)
def _power_row(p: int, k: int) -> Tuple[int, ...]:
    """(x^k mod p for x in F_p).

    One computation meets a few (p, k) at every node, so the rows are kept;
    at most 128 of them, so they hold at most 128 p integers.
    """
    return tuple(pow(x, k, p) for x in range(p))


def _evaluate_at(terms, coords, points, p: int) -> List[int]:
    """Values mod p of the sum of the terms at points on the coordinates coords.

    One monomial at a time over all the points, from the rows of _power_row.
    """
    if not points:
        return []
    columns = dict(zip(coords, zip(*points)))
    total = None
    for e, c in terms:
        vals = None
        for i in coords:
            k = e[i]
            if k:
                row = _power_row(p, k)
                if vals is None:
                    vals = [c * row[x] for x in columns[i]]
                else:
                    vals = [v * row[x] for v, x in zip(vals, columns[i])]
        if vals is None:
            vals = [c] * len(points)
        total = vals if total is None else [t + v for t, v in zip(total, vals)]
    return [0] * len(points) if total is None else [t % p for t in total]


def dilate(
    f: MultiPoly, center: Sequence[LocalRingElement], m: Sequence[int]
) -> Tuple[MultiPoly, int]:
    """Dilatation of f at ``center`` with scaling vector m.

    Returns (f_P, e) with f(center + pi^m o x) = pi^e f_P(x) exactly and
    f_P of unit content.  At an all-zero centre this is one rescale of the
    terms (MultiPoly.dilate_at_zero, as for a valuation cell); only a
    nonzero centre expands binomially (MultiPoly.substitute_affine).
    """
    if len(center) != f.n or len(m) != f.n:
        raise ValueError("center/scale length mismatch")
    if all(c.is_zero() for c in center):
        return f.dilate_at_zero(m)
    substituted = f.substitute_affine(center, m)
    e = substituted.content_valuation()
    return substituted.divide_by_uniformizer(e), e


class DilatationNode:
    """One step of the descendant tree built by the recursive engine.

    E_accum sums the extracted contents e along the path from the root and
    S_accum the numbers of rescaled coordinates, so the node's integral
    enters the root's value with weight q^(-S_accum) t^E_accum.  The node
    keeps its classification's integer counts nonzero and smooth out of
    total = p^n residue points, and the ResidueRegion it classified;
    nu = nonzero/total, sigma = smooth/total and the region's description
    are derived from them when read (only --trace reads them).
    """

    __slots__ = (
        "center", "m", "e", "E_accum", "S_accum", "depth", "nonzero", "smooth", "total",
        "singular_count", "residue_region", "children",
    )

    def __init__(
        self,
        center: Optional[Tuple[LocalRingElement, ...]],
        m: Optional[Tuple[int, ...]],
        e: int,
        E_accum: int,
        S_accum: int,
        depth: int,
        nonzero: int,
        smooth: int,
        total: int,
        singular_count: int,
        residue_region: ResidueRegion,
        children: Optional[List["DilatationNode"]] = None,
    ):
        self.center = center
        self.m = m
        self.e = e
        self.E_accum = E_accum
        self.S_accum = S_accum
        self.depth = depth
        self.nonzero = nonzero
        self.smooth = smooth
        self.total = total
        self.singular_count = singular_count
        self.residue_region = residue_region
        self.children = [] if children is None else children

    @property
    def nu(self) -> Fraction:
        return Fraction(self.nonzero, self.total)

    @property
    def sigma(self) -> Fraction:
        return Fraction(self.smooth, self.total)

    @property
    def region(self) -> str:
        return self.residue_region.describe()

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
