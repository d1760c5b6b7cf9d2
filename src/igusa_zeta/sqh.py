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
lemma below gives each limit cell one index reuse_from, read off its stored
tree, such that iterate k reuses the cell iff k >= reuse_from; so
C_k = C_inf for every k >= k* = max reuse_from.  The iterates stop there:
those with k < max(k*, 1) are computed, and k0 is the least k >= 1 from
which the computed ones equal C_inf.  Only the check command certifies Z,
in three comparisons: the Poincare counts read off Z against the oracle's
congruence counts, Z's series against the counted valuation fibres
(spf.series_check), and, for a two-term curve a*x^n + b*y^m, Z against the
closed form.

The complement of A_alpha is partitioned into |alpha| valuation cells (see
region.complement_cells): with the coordinates ordered by decreasing
alpha_i, the cell (i, a) is { v(x_j) >= alpha_j for the coordinates j
before i, v(x_i) = a, later coordinates free }, 0 <= a < alpha_i.  Under
x = pi^m o y, m_j = alpha_j before i, m_i = a and 0 after, it becomes the
region with y_i a unit and Jacobian q^(-sum m).  Each complement integral is
the sum over these cells, and each cell goes through the engine (spf_tally
on the cell's residue region) unless the iterate reuses the limit's record
for it.

Reuse.  The limit f is evaluated first, keeping per cell its content e (the
pi-order of f(pi^m y)) and its dilatation tree.  Let T = F - f be the tail,
and let x_i -> C_i + pi^(M_i) x_i be the cell's and the nodes' substitutions
composed along the path to a node.  If T(C + pi^M x) has content above
e + E_accum(node) at every node, F's polynomial at each node is f's plus a
multiple of pi (by induction down the tree), so every reduction,
classification, singular centre and extracted content, hence the whole tree
and value, are f's, and the cell's record is reused unchanged.  The
centres are canonical lifts, so min(v(C_i), M_i) is the M_i at the first
node with a nonzero centre in coordinate i, and M_i before it.  By Gauss's
lemma each tail monomial's content there is read off these, and it grows by
w(a) - d per scaling step, which gives reuse_from (see _reuse_from).  No
polynomial is substituted.

Reused cells are counted in tree_stats and collected in the trees as engine
calls, with the limit's trees, so the statistics and the --trace export do
not depend on the reuse.

Cell values are the engine's integer tallies (see the spf module).  u^k
shifts a key (E, j) by (k d, k |alpha|), so with e0 the content of F,
(1 - u) t^(-e0) Z is one tally, sum_{k < k0} (u^k - u^(k+1)) C_k + u^k0 C_inf,
and Z is its one RatFun, over (1 - q^(-1) t) (1 - u).  Other RatFuns are built
only to compare C_inf with the last iterates, when two or more are computed.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import reduce
from math import gcd
from operator import add, mul
from typing import Dict, List, Optional, Tuple

from .coeff import DEFAULT_BUDGET
from .errors import (
    BudgetExceeded,
    InvalidHint,
    InvariantViolation,
    NotSemiQuasiHomogeneous,
    ZeroPolynomial,
)
from .neron import DilatationNode
from .poly import MultiPoly, weighted_degree
from .ratfun import DenomFactor, RatFun
from .region import ValuationCell, cell_change_of_variables, complement_cells
from .spf import SpfConfig, SpfContext, Tally, spf_tally, tally_merge, tally_ratfun


class WeightSystem(namedtuple("WeightSystem", "alpha d")):
    """Coprime positive exponents alpha (a tuple) and the weighted degree d."""

    __slots__ = ()

    def __new__(cls, alpha: Tuple[int, ...], d: int):
        if not alpha or any(a < 1 for a in alpha):
            raise ValueError("weights must be positive")
        if gcd(*alpha) != 1:
            raise ValueError("weights must be coprime")
        if d < 1:
            raise ValueError("weighted degree must be positive")
        return tuple.__new__(cls, (alpha, d))

    @property
    def total(self) -> int:
        return sum(self.alpha)


class SqhDecomposition:
    """F = quasi + tail with the tail strictly above weighted degree d."""

    __slots__ = ("quasi", "tail", "weights")

    def __init__(self, quasi: MultiPoly, tail: MultiPoly, weights: WeightSystem):
        alpha, d = weights.alpha, weights.d
        if quasi.is_zero():
            raise InvariantViolation("empty quasihomogeneous part")
        if any(weighted_degree(e, alpha) != d for e in quasi.terms):
            raise InvariantViolation("quasihomogeneous part off weight")
        if any(weighted_degree(e, alpha) <= d for e in tail.terms):
            raise InvariantViolation("tail monomial at or below weight")
        self.quasi = quasi
        self.tail = tail
        self.weights = weights


def _split_by_weight(F: MultiPoly, w: WeightSystem) -> Tuple[MultiPoly, MultiPoly]:
    quasi = {e: c for e, c in F.terms.items() if weighted_degree(e, w.alpha) == w.d}
    tail = {e: c for e, c in F.terms.items() if weighted_degree(e, w.alpha) > w.d}
    return MultiPoly(F.ring, F.n, quasi), MultiPoly(F.ring, F.n, tail)


def detect_weights(
    F: MultiPoly, hint: Optional[WeightSystem] = None, budget: int = DEFAULT_BUDGET
) -> SqhDecomposition:
    """Find (or validate) a weight system exhibiting F as semiquasihomogeneous.

    With a hint, every monomial must have weighted degree >= d and those
    equal to d must be nonempty.  Without one, weight vectors with entries
    up to the total degree are searched in order of |alpha| then
    lexicographically; a candidate is admissible when every variable occurs
    in the minimal-weight part (a cheap necessary condition for the origin
    to be the only singularity of that part -- the full condition refers to
    the algebraic closure and is asserted by the caller, not decided here).
    The box^n candidates are charged to ``budget`` before any is built.
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
    if box**n > budget:
        raise BudgetExceeded(f"weight search: {box}^{n} candidate weights exceed budget {budget}")
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
    return F.rescale(w.alpha, w.d)


class CellIntegral:
    """The zeta integral over one complement cell, with its tree.

    value is the tally of the cell's contribution q^(-d) t^e V, where e is
    the content of F(pi^m y), d = sum m and V the integral over the cell's
    residue region: the engine's tally of V with every key (E, k) moved to
    (E + e, k + d).
    root is the cell's dilatation tree, whose stored centres, scalings and
    contents bound the iterates' tails (see _reuse_from).
    """

    __slots__ = ("value", "e", "root")

    def __init__(self, value: Tally, e: int, root: DilatationNode):
        self.value = value
        self.e = e
        self.root = root


class LimitCells:
    """The limit f over every complement cell of A_alpha, and where the iterates reuse it.

    The k-th iterate of the decomposed polynomial f + tail reuses
    cells[cell] iff k >= reuse_from[cell].
    """

    __slots__ = ("cells", "reuse_from")

    def __init__(
        self, cells: Dict[ValuationCell, CellIntegral], reuse_from: Dict[ValuationCell, int]
    ):
        self.cells = cells
        self.reuse_from = reuse_from


def _cell_integral(F: MultiPoly, cell: ValuationCell, ctx: SpfContext) -> CellIntegral:
    """F over one cell: the engine on its residue region, times the cell's q^(-d) t^e."""
    e, d, f_cell, target = cell_change_of_variables(F, cell)
    tally, root = spf_tally(f_cell, target, ctx)
    return CellIntegral(tally_merge({}, tally, e, d), e, root)


def _tail_terms(tail: MultiPoly, w: WeightSystem) -> List[Tuple[Tuple[int, ...], int, int]]:
    """(a, v(c_a), w(a) - d) per tail monomial c_a x^a: its content gains w(a) - d per step."""
    return [(a, c.valuation(), weighted_degree(a, w.alpha) - w.d) for a, c in tail.terms.items()]


def _reuse_from(
    terms: List[Tuple[Tuple[int, ...], int, int]], cell: ValuationCell, known: CellIntegral
) -> int:
    """The least k >= 0 from which the k-th iterate reuses the limit's integral over the cell.

    Along the path to a node of the cell's tree the substitutions compose to
    x_i -> C_i + pi^(M_i) x_i: C = 0 and M = m at the root, and each node
    with centre c and scaling m' adds pi^(M_i) c_i to C_i and m'_i to M_i.
    After k scaling steps a tail monomial c_a x^a is c_a pi^(k (w(a) - d)) x^a,
    so by Gauss's lemma its content at the node is
    v(c_a) + sum_i a_i mu_i + k (w(a) - d) with mu_i = min(v(C_i), M_i).
    The reuse lemma of the module docs holds at the node once every
    monomial's content exceeds e + E_accum(node), and then at every later k
    too.  ``terms`` is the tail's _tail_terms, built once per decomposition.
    The tree is walked on an explicit stack; a zero tail is reused from
    k = 0 without a walk.

    The walk carries per coordinate only V_i, the M_i at the first node
    whose centre is nonzero in coordinate i (None before it), and takes
    mu_i = M_i if V_i is None else V_i.  That is exact because the centres
    are canonical lifts (see spf): a nonzero c_i lifts a residue in
    [1, p), so it is a unit, and it occurs only where the node scales
    coordinate i by 1.  So the terms pi^(M_i) c_i of C_i have valuation the
    M_i at which they are added, and M_i grows by 1 past each of them: the
    digits of C_i sit at distinct positions below M_i, no two terms tie or
    cancel, v(C_i) = V_i, and V_i <= M_i.
    """
    if not terms:
        return 0
    k_star = 0
    stack = [(known.root, (None,) * len(cell.m), cell.m)]
    while stack:
        node, V, M = stack.pop()
        mu = [m if v is None else v for v, m in zip(V, M)]
        floor = known.e + node.E_accum + 1
        for a, v, slope in terms:
            k_star = max(k_star, (floor - v - sum(map(mul, a, mu)) + slope - 1) // slope)
        for child in node.children:
            V_child = tuple(
                m if v is None and not c.is_zero() else v for v, c, m in zip(V, child.center, M)
            )
            stack.append((child, V_child, tuple(map(add, M, child.m))))
    return k_star


def _cell_integrals(
    F: MultiPoly,
    w: WeightSystem,
    ctx: SpfContext,
    limit: Optional[LimitCells] = None,
    k: int = 0,
) -> Dict[ValuationCell, CellIntegral]:
    """F, the k-th iterate, over every complement cell, reusing the limit's where proven.

    A limit cell is reused from its reuse_from on; the other cells go
    through the engine.
    """
    out: Dict[ValuationCell, CellIntegral] = {}
    for cell in complement_cells(w.alpha):
        if limit is not None and k >= limit.reuse_from[cell]:
            out[cell] = limit.cells[cell]
            ctx.roots.append(out[cell].root)
        else:
            out[cell] = _cell_integral(F, cell, ctx)
    return out


def _complement_tally(cells: Dict[ValuationCell, CellIntegral]) -> Tally:
    """The sum over the partition: the cells' tallies added up."""
    return reduce(tally_merge, (integral.value for integral in cells.values()), {})


def limit_cells(dec: SqhDecomposition, ctx: Optional[SpfContext] = None) -> LimitCells:
    """The quasihomogeneous part over every complement cell, kept for reuse by the iterates."""
    w = dec.weights
    cells = _cell_integrals(dec.quasi, w, ctx or SpfContext())
    terms = _tail_terms(dec.tail, w)
    reuse = {cell: _reuse_from(terms, cell, known) for cell, known in cells.items()}
    return LimitCells(cells, reuse)


def zeta_on_complement(
    F: MultiPoly,
    w: WeightSystem,
    ctx: Optional[SpfContext] = None,
    limit: Optional[LimitCells] = None,
    k: int = 0,
) -> Tally:
    """The tally of the zeta integral of F over the complement of the polydisc A_alpha.

    Assembled as the sum over the |alpha| cells that partition the
    complement, each rewritten onto a residue region and evaluated
    recursively, unless, with ``limit``, it is reused from the limit.  Then
    F must be the k-th iterate of the polynomial whose decomposition built
    ``limit``, and the cells with reuse_from <= k are reused.  Reused cells
    join ctx's trees, and so its statistics, as engine calls, with the
    limit's trees.  spf.tally_ratfun(p, tally) is the integral as a
    RatFun, whose denominator divides (1 - q^(-1) t).
    """
    return _complement_tally(_cell_integrals(F, w, ctx or SpfContext(), limit, k))


class SqhReport:
    """What the driver learned: weights, stabilization index, poles, sizes.

    pole_real_parts is sorted.  roots holds the dilatation tree of every
    complement cell of the limit and of each iterate, in that order; it is
    left out of to_json.  Cells that were reused from the limit are
    included, with the limit's trees, and tree_stats counts them as engine
    calls.
    """

    __slots__ = (
        "weights", "k0", "zeta", "pole_real_parts", "tree_stats", "content_shift", "roots",
    )

    def __init__(
        self,
        weights: WeightSystem,
        k0: int,
        zeta: RatFun,
        pole_real_parts: list,
        tree_stats: dict,
        content_shift: int = 0,
        roots: Optional[list] = None,
    ):
        self.weights = weights
        self.k0 = k0
        self.zeta = zeta
        self.pole_real_parts = pole_real_parts
        self.tree_stats = tree_stats
        self.content_shift = content_shift
        self.roots = [] if roots is None else roots

    def to_json(self, zeta: Optional[dict] = None) -> dict:
        """The report as JSON; ``zeta`` is self.zeta.to_json() when the caller has built it."""
        return {
            "weights": list(self.weights.alpha),
            "d": self.weights.d,
            "k0": self.k0,
            "zeta": self.zeta.to_json() if zeta is None else zeta,
            "pole_real_parts": [[q.numerator, q.denominator] for q in self.pole_real_parts],
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
    (see _reuse_from), so the iterates k < max(k*, 1) are computed if F has
    a tail, none if not, and the sum closes after them.  k0 drops the
    trailing computed iterates whose RatFun is C_inf's, down to 1 (so k0 = 0
    without a tail).  Z is built once, from one tally (see the module docs).
    """
    if F.is_zero():
        raise ZeroPolynomial("zeta integral of the zero polynomial diverges")
    e0 = F.content_valuation()
    if e0:
        F = F.divide_by_uniformizer(e0)
    ctx = SpfContext(cfg)
    dec = detect_weights(F, hint, ctx.cfg.budget)
    w = dec.weights
    p = F.ring.p
    limit = limit_cells(dec, ctx)
    c_limit = _complement_tally(limit.cells)

    iterates: List[Tally] = []
    current, level = F, -1
    for k in range(max(max(limit.reuse_from.values()), 1) if dec.tail.terms else 0):
        if k:
            current = scale_step(current, w)
        previous, level = level, (current - dec.quasi).content_valuation()
        if level <= previous:
            raise InvariantViolation("tail valuation failed to increase")
        iterates.append(zeta_on_complement(current, w, ctx, limit, k))
    k0 = len(iterates)
    if k0 > 1:
        c_inf = tally_ratfun(p, c_limit)
        while k0 > 1 and tally_ratfun(p, iterates[k0 - 1]) == c_inf:
            k0 -= 1

    a, d = w.total, w.d  # u^k shifts a key by (k d, k a)
    closed = tally_merge({}, c_limit, e0 + k0 * d, k0 * a)
    for k, c_k in enumerate(iterates[:k0]):
        tally_merge(closed, c_k, e0 + k * d, k * a)
        tally_merge(closed, c_k, e0 + (k + 1) * d, (k + 1) * a, -1)
    value = tally_ratfun(p, closed, DenomFactor(a, d))
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
