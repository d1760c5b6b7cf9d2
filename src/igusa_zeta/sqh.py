"""Driver for semiquasihomogeneous polynomials.

A weight system (alpha, d) splits F into a quasihomogeneous part f (all
monomials of weighted degree exactly d) and a tail of strictly larger
weighted degree.  The full-space zeta integral then satisfies a functional
equation under the scaling x -> pi^alpha o x: the polydisc A_alpha maps onto
the full space, producing the factor q^(-|alpha|) t^d and replacing F by a
polynomial whose tail gained one more power of pi.  Iterating, the
complement integrals stabilize to the one for f alone, and the geometric
tail closes the sum:

    Z(F) = sum_{k < k0} u^k C_k  +  u^k0 C_inf / (1 - u),      u = q^(-|alpha|) t^d,

with C_k the complement integral of the k-th iterate and C_inf that of f.
The sum is exact when every iterate from k0 on equals C_inf.  The reuse
lemma below proves C_k = C_inf for every k >= k*, with k* read off the
limit's cells (see _reuse_index): from iterate k* on every cell is reused.
So the iterates stop at k*: those with k < max(k*, 1) are computed, and k0
is the least k >= 1 from which the computed ones equal C_inf.  Only the
check command certifies Z (spf.series_check).

The complement of A_alpha is partitioned into |alpha| valuation cells (see
region.complement_cells): with the coordinates ordered by decreasing
alpha_i, the cell (i, a) is { v(x_j) >= alpha_j for the coordinates j
before i, v(x_i) = a, later coordinates free }, 0 <= a < alpha_i.  Under
x = pi^m o y, m_j = alpha_j before i, m_i = a and 0 after, it becomes the
region with y_i a unit and Jacobian q^(-sum m).  Each complement integral is
the sum over these cells, and most cells of an iterate need no fresh
descent:

* Reuse.  The limit f is evaluated first, keeping per cell its content e
  (the pi-order of f(pi^m y)) and its dilatation tree.  Let T = F - f be
  the tail.  The tail is replayed down the limit cell's tree: at the root
  T(pi^m y) must have content above e, and tau = pi^(-e) T(pi^m y); at each
  child (centre c, scaling m_c, content e_c, read from the stored node)
  tau(c + pi^(m_c) x) must have content above e_c, and the child's tau is
  pi^(-e_c) tau(c + pi^(m_c) x).  Where every node passes, F's polynomial
  at each node is f's plus a multiple of pi (by induction down the tree),
  so every reduction, classification, singular centre and extracted
  content, hence the whole tree and value, are f's.  The cell's record is
  reused unchanged.
* Closing.  If one monomial alone has the least level and uses only the
  cell's unit coordinate x_i, |F|^s is t^low on the whole cell, which
  closes as q^(-sum m) t^low times the cell region's measure, before any
  substitution.

Reused and closed cells are counted in tree_stats and collected in the
trees as engine calls, with the trees the engine would have built for them,
so the statistics and the --trace export do not depend on the shortcuts.

Cell values are kept as the engine's integer tallies (see the spf module),
shifted per cell; a complement integral adds its cells' tallies and builds
one RatFun.  The iterate sum, the comparison of the last iterates with
C_inf and the geometric close stay in RatFun arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple

from .errors import (
    InvalidHint,
    InvariantViolation,
    NotSemiQuasiHomogeneous,
    ZeroPolynomial,
)
from .neron import DilatationNode
from .poly import MultiPoly, weighted_degree
from .ratfun import DenomFactor, RatFun
from .region import ValuationCell, cell_change_of_variables, complement_cells
from .spf import SpfConfig, SpfContext, Tally, spf_tally, tally_add, tally_ratfun, tally_shift


@dataclass(frozen=True)
class WeightSystem:
    """Coprime positive exponents alpha and the weighted degree d."""

    alpha: Tuple[int, ...]
    d: int

    def __post_init__(self):
        if not self.alpha or any(a < 1 for a in self.alpha):
            raise ValueError("weights must be positive")
        if gcd(*self.alpha) != 1:
            raise ValueError("weights must be coprime")
        if self.d < 1:
            raise ValueError("weighted degree must be positive")

    @property
    def total(self) -> int:
        return sum(self.alpha)


@dataclass
class SqhDecomposition:
    """F = quasi + tail with the tail strictly above weighted degree d."""

    quasi: MultiPoly
    tail: MultiPoly
    weights: WeightSystem

    def __post_init__(self):
        alpha, d = self.weights.alpha, self.weights.d
        if self.quasi.is_zero():
            raise InvariantViolation("empty quasihomogeneous part")
        if any(weighted_degree(e, alpha) != d for e in self.quasi.terms):
            raise InvariantViolation("quasihomogeneous part off weight")
        if any(weighted_degree(e, alpha) <= d for e in self.tail.terms):
            raise InvariantViolation("tail monomial at or below weight")


def _split_by_weight(F: MultiPoly, w: WeightSystem) -> Tuple[MultiPoly, MultiPoly]:
    quasi = {e: c for e, c in F.terms.items() if weighted_degree(e, w.alpha) == w.d}
    tail = {e: c for e, c in F.terms.items() if weighted_degree(e, w.alpha) > w.d}
    return MultiPoly(F.ring, F.n, quasi), MultiPoly(F.ring, F.n, tail)


def detect_weights(F: MultiPoly, hint: Optional[WeightSystem] = None) -> SqhDecomposition:
    """Find (or validate) a weight system exhibiting F as semiquasihomogeneous.

    With a hint, every monomial must have weighted degree >= d and those
    equal to d must be nonempty.  Without one, weight vectors with entries
    up to the total degree are searched in order of |alpha| then
    lexicographically; a candidate is admissible when every variable occurs
    in the minimal-weight part (a cheap necessary condition for the origin
    to be the only singularity of that part -- the full condition refers to
    the algebraic closure and is asserted by the caller, not decided here).
    """
    if F.is_zero():
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    if not F.constant_term().is_zero():
        raise NotSemiQuasiHomogeneous("polynomial has a constant term")
    if hint is not None:
        if len(hint.alpha) != F.n:
            raise InvalidHint(f"weight hint has {len(hint.alpha)} weights for {F.n} variables")
        degrees = {e: weighted_degree(e, hint.alpha) for e in F.terms}
        below = [e for e, deg in degrees.items() if deg < hint.d]
        if below:
            raise InvalidHint(
                f"monomial {below[0]} has weighted degree {degrees[below[0]]} < {hint.d}"
            )
        quasi, tail = _split_by_weight(F, hint)
        if quasi.is_zero():
            raise InvalidHint(f"no monomial of weighted degree exactly {hint.d}")
        return SqhDecomposition(quasi, tail, hint)

    n = F.n
    box = max(F.total_degree(), 1)
    candidates = sorted(
        (alpha for alpha in itertools.product(range(1, box + 1), repeat=n)
         if gcd(*alpha) == 1),
        key=lambda a: (sum(a), a),
    )
    needed = frozenset(range(n))
    for alpha in candidates:
        degrees = {e: weighted_degree(e, alpha) for e in F.terms}
        d = min(degrees.values())
        quasi_exps = [e for e, deg in degrees.items() if deg == d]
        covered = frozenset(i for e in quasi_exps for i in range(n) if e[i] > 0)
        if covered == needed:
            w = WeightSystem(tuple(alpha), d)
            quasi, tail = _split_by_weight(F, w)
            return SqhDecomposition(quasi, tail, w)
    raise NotSemiQuasiHomogeneous(
        f"no admissible weight system with entries up to {box}"
    )


def scale_step(F: MultiPoly, w: WeightSystem) -> MultiPoly:
    """The iterate pi^(-d) F(pi^alpha o x); exact by semiquasihomogeneity.

    Fixes the weight-d part and multiplies each tail monomial by
    pi^(weighted degree - d).
    """
    zero = [F.ring.zero()] * F.n
    return F.substitute_affine(zero, w.alpha).divide_by_uniformizer(w.d)


@dataclass
class CellIntegral:
    """The zeta integral over one complement cell, with its tree.

    value is the tally of the cell's contribution q^(-d) t^e V, where e is
    the content of F(pi^m y), d = sum m and V the integral over the cell's
    residue region: the engine's tally of V with every key (E, k) moved to
    (E + e, k + d).
    root is the cell's dilatation tree, whose stored centres, scalings and
    contents the iterates replay their tails against, and e_max is the
    largest E_accum in it.
    """

    value: Tally
    e: int
    root: DilatationNode
    e_max: int = field(init=False)

    def __post_init__(self):
        self.e_max = max(node.E_accum for node in self.root.walk())


@dataclass
class LimitCells:
    """The limit f and its integral over every complement cell of A_alpha."""

    f: MultiPoly
    cells: Dict[ValuationCell, CellIntegral]


def _valued_terms(F: MultiPoly) -> List[Tuple[Tuple[int, ...], int]]:
    return [(e, c.valuation()) for e, c in F.terms.items()]


def _levels(terms, cell: ValuationCell) -> List[Tuple[int, Tuple[int, ...]]]:
    """(v(c) + <m, e>, e) per monomial: its pi-order after x = pi^m o y."""
    return [(v + sum(a * k for a, k in zip(cell.m, e)), e) for e, v in terms]


def _cell_integral(F: MultiPoly, terms, cell: ValuationCell, ctx: SpfContext) -> CellIntegral:
    """F over one cell: closed from the exponents when it can be, else by the engine.

    When a single monomial c y^e has the lowest level and uses only the
    cell's unit coordinate y_i, F(pi^m y) = pi^low (c y^e + pi g) with c y^e
    a unit on the cell, so |F|^s = t^low there and the integral is t^low
    times the region's measure; the root node is the one the engine would
    build.
    """
    p = F.ring.p
    levels = _levels(terms, cell)
    low = min(level for level, _ in levels)
    lowest = [e for level, e in levels if level == low]
    if len(lowest) == 1 and all(k == 0 or i == cell.unit for i, k in enumerate(lowest[0])):
        region = cell.unit_region(p)
        root = DilatationNode(
            None, None, 0, 0, 0, 0, region.measure(), Fraction(0), 0, region.describe()
        )
        ctx.roots.append(root)
        tally, e = {(0, F.n): (region.card(), 0)}, low
    else:
        e, _, f_cell, target = cell_change_of_variables(F, cell)
        tally, root = spf_tally(f_cell, target, ctx)
    return CellIntegral(tally_shift(tally, e, cell.depth_shift()), e, root)


def _tail_stays_above(shifted: MultiPoly, e: int, node: DilatationNode) -> bool:
    """Whether the tail, moved onto node as shifted, keeps f's tree under node.

    shifted is the tail after the node's substitution and before its
    content e is taken out; see the reuse replay of the module docs.  The
    subtree is walked in pre-order on an explicit stack, each child's tail
    substituted when it is popped, and the walk stops at the first failing
    node.
    """
    if shifted.content_valuation() <= e:
        return False
    stack = [(shifted.divide_by_uniformizer(e), child) for child in reversed(node.children)]
    while stack:
        tau, node = stack.pop()
        shifted = tau.substitute_affine(node.center, node.m)
        if shifted.content_valuation() <= node.e:
            return False
        tau = shifted.divide_by_uniformizer(node.e)
        stack.extend((tau, child) for child in reversed(node.children))
    return True


def _reuse_index(tail: MultiPoly, w: WeightSystem, limit: LimitCells) -> int:
    """k*: an iterate from which on every limit cell is reused.

    After k scaling steps the tail is sum_a c_a pi^(k (w(a) - d)) x^a over
    its exponent vectors a, so on a cell its content is
    min_a level_a + k (w(a) - d), with level_a = v(c_a) + <m, a> from
    _levels (the monomials stay distinct).  Substitutions never lower
    content, so the replay passes every node once that content exceeds the
    cell's e plus the largest E_accum in its tree; k* is the least k >= 0 at
    which this holds on every cell.
    """
    k_star = 0
    terms = _valued_terms(tail)
    for cell, known in limit.cells.items():
        for level, exps in _levels(terms, cell):
            need = known.e + known.e_max + 1 - level
            k_star = max(k_star, -(-need // (weighted_degree(exps, w.alpha) - w.d)))
    return k_star


def _cell_integrals(
    F: MultiPoly,
    w: WeightSystem,
    ctx: SpfContext,
    limit: Optional[LimitCells] = None,
) -> Dict[ValuationCell, CellIntegral]:
    """F over every complement cell, reusing the limit's cells where exact.

    A limit cell is reused when the tail F - f, replayed down the cell's
    tree, stays above the content extracted at every node (see the module
    docs); otherwise the cell is closed or descended afresh.
    """
    terms = _valued_terms(F)
    tail = F - limit.f if limit is not None else None
    zero = [F.ring.zero()] * F.n
    out: Dict[ValuationCell, CellIntegral] = {}
    for cell in complement_cells(w.alpha):
        known = limit.cells.get(cell) if limit is not None else None
        if known is not None and (
            tail.is_zero()
            or _tail_stays_above(tail.substitute_affine(zero, cell.m), known.e, known.root)
        ):
            ctx.roots.append(known.root)
            out[cell] = known
        else:
            out[cell] = _cell_integral(F, terms, cell, ctx)
    return out


def _complement_sum(p: int, cells: Dict[ValuationCell, CellIntegral]) -> RatFun:
    """The sum over the partition, one RatFun; its denominator must divide (1 - q^(-1) t)."""
    merged: Tally = {}
    for integral in cells.values():
        for key, (a, b) in integral.value.items():
            tally_add(merged, key, a, b)
    total = tally_ratfun(p, merged)
    if not set(total.denom) <= {DenomFactor(1, 1)} or len(total.denom) > 1:
        raise InvariantViolation(
            f"complement integral has unexpected denominator {total.denom}"
        )
    return total


def limit_cells(f: MultiPoly, w: WeightSystem, ctx: Optional[SpfContext] = None) -> LimitCells:
    """f over every complement cell of A_alpha, kept for reuse by the iterates."""
    return LimitCells(f, _cell_integrals(f, w, ctx or SpfContext()))


def zeta_on_complement(
    F: MultiPoly,
    w: WeightSystem,
    ctx: Optional[SpfContext] = None,
    limit: Optional[LimitCells] = None,
) -> RatFun:
    """Zeta integral of F over the complement of the polydisc A_alpha.

    Assembled as the sum over the |alpha| cells that partition the
    complement, each rewritten onto a residue region and evaluated
    recursively, unless it closes from the exponents (one lowest monomial in
    the unit coordinate alone) or, with ``limit``,
    reuses the limit's integral by the reuse lemma of the module docs.
    Closed and reused cells join ctx's trees, and so its statistics, as
    engine calls, with the trees the engine would build.  The result of each cell
    has a single geometric denominator, so after cancellation the sum's
    denominator divides (1 - q^(-1) t); that is asserted.
    """
    return _complement_sum(F.ring.p, _cell_integrals(F, w, ctx or SpfContext(), limit))


@dataclass
class SqhReport:
    """What the driver learned: weights, stabilization index, poles, sizes.

    roots holds the dilatation tree of every complement cell of the limit
    and of each iterate, in that order; it is left out of to_json.  Cells
    that were reused from the limit or closed from the exponents are
    included, with the trees the engine would build, and tree_stats counts
    them as engine calls.
    """

    weights: WeightSystem
    k0: int
    zeta: RatFun
    pole_real_parts: list
    tree_stats: dict
    content_shift: int = 0
    roots: list = field(default_factory=list, repr=False)

    def to_json(self) -> dict:
        return {
            "weights": list(self.weights.alpha),
            "d": self.weights.d,
            "k0": self.k0,
            "zeta": self.zeta.to_json(),
            "pole_real_parts": [[q.numerator, q.denominator] for q in sorted(self.pole_real_parts)],
            "tree_stats": self.tree_stats,
            "content_shift": self.content_shift,
        }


def zeta_semiquasihomogeneous(
    F: MultiPoly,
    hint: Optional[WeightSystem] = None,
    cfg: Optional[SpfConfig] = None,
) -> Tuple[RatFun, SqhReport]:
    """Full-space zeta function of a semiquasihomogeneous polynomial.

    Returns the value and a report (weights, stabilization index k0, pole
    real parts, tree statistics).  The caller asserts that the origin is the
    only singularity over the algebraic closure; a violated assertion
    surfaces as DepthExceeded (exit code 4 in the CLI), never as a wrong
    value that the cap silently accepts.  The iterates need no cap and no
    test of their values: the reuse lemma proves C_k = C_inf for k >= k*
    (see _reuse_index), so the iterates k < max(k*, 1) are computed and the
    sum closes after them.  k0 drops the trailing computed iterates equal to
    C_inf, down to 1 while F has a tail.
    """
    if F.is_zero():
        raise ZeroPolynomial("zeta integral of the zero polynomial diverges")
    e0 = F.content_valuation()
    if e0:
        F = F.divide_by_uniformizer(e0)
    dec = detect_weights(F, hint)
    w = dec.weights
    p = F.ring.p
    ctx = SpfContext(cfg)
    limit = limit_cells(dec.quasi, w, ctx)
    c_limit = _complement_sum(p, limit.cells)
    u_scale = Fraction(1, p**w.total)

    if dec.tail.is_zero():
        k0 = 0
        value = c_limit.geometric_close(w.total, w.d)
    else:
        iterates: List[RatFun] = [zeta_on_complement(F, w, ctx, limit)]
        current = F
        tail_level = dec.tail.content_valuation()
        for _ in range(1, max(_reuse_index(dec.tail, w, limit), 1)):
            current = scale_step(current, w)
            level = (current - dec.quasi).content_valuation()
            if level <= tail_level:
                raise InvariantViolation("tail valuation failed to increase")
            tail_level = level
            iterates.append(zeta_on_complement(current, w, ctx, limit))
        k0 = len(iterates)
        while k0 > 1 and iterates[k0 - 1] == c_limit:
            k0 -= 1
        value = RatFun.zero(p)
        for k in range(k0):
            value = value + iterates[k].scale(u_scale**k, w.d * k)
        value = value + c_limit.scale(u_scale**k0, w.d * k0).geometric_close(w.total, w.d)

    if e0:
        value = value.scale(1, e0)
    allowed = sorted([DenomFactor(1, 1), DenomFactor(w.total, w.d)])
    remaining = list(value.denom)
    for factor in allowed:
        if factor in remaining:
            remaining.remove(factor)
    if remaining:
        raise InvariantViolation(f"denominator {value.denom} outside the guaranteed shape")
    report = SqhReport(
        weights=w,
        k0=k0,
        zeta=value,
        pole_real_parts=sorted(value.pole_real_parts()),
        tree_stats=ctx.stats_dict(),
        content_shift=e0,
        roots=ctx.roots,
    )
    return value, report
