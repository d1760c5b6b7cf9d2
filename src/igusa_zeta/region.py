"""Integration domains inside O_K^n.

Three kinds of sets appear in the computation:

* residue regions: preimages under reduction mod pi of products
  R_1 x ... x R_n of subsets of F_p (every region the engine meets is one);
* polydiscs A_r = { v(x_i) >= r_i };
* valuation cells D(B, a) = { v(x_i) = a_i for i in B } with 0 <= a_i < r_i,
  whose signed combination represents the complement of a polydisc.

A coordinate change pi^{a_i} y_i maps a cell onto a residue region (units on
the constrained coordinates), which is what the recursive engine consumes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Iterator, List, Sequence, Tuple

from .coeff import DEFAULT_BUDGET
from .errors import BudgetExceeded
from .poly import MultiPoly


class ResidueRegion:
    """Preimage in O_K^n of a product prod_i R_i of subsets of F_p."""

    __slots__ = ("p", "n", "allowed")

    def __init__(self, p: int, n: int, allowed: Tuple[FrozenSet[int], ...]):
        if len(allowed) != n:
            raise ValueError("allowed sets length mismatch")
        self.p = p
        self.n = n
        self.allowed = allowed

    @classmethod
    def full(cls, p: int, n: int) -> "ResidueRegion":
        return cls.product(p, [frozenset(range(p))] * n)

    @classmethod
    def product(cls, p: int, allowed: Sequence) -> "ResidueRegion":
        sets = tuple(frozenset(a) for a in allowed)
        for s in sets:
            if not s <= frozenset(range(p)):
                raise ValueError("allowed residues outside [0, p)")
        return cls(p, len(sets), sets)

    def is_full(self) -> bool:
        return all(len(a) == self.p for a in self.allowed)

    def card(self) -> int:
        c = 1
        for a in self.allowed:
            c *= len(a)
        return c

    def measure(self) -> Fraction:
        """Haar measure; O_K^n itself has measure one."""
        return Fraction(self.card(), self.p**self.n)

    def points(self, budget: int = DEFAULT_BUDGET) -> Iterator[Tuple[int, ...]]:
        if self.p**self.n > budget:
            raise BudgetExceeded(f"{self.p}^{self.n} exceeds budget {budget}")
        return itertools.product(*(sorted(a) for a in self.allowed))

    def contains(self, point: Tuple[int, ...]) -> bool:
        return all(a in s for a, s in zip(point, self.allowed))

    def describe(self) -> str:
        if self.is_full():
            return "full"
        parts = []
        for a in self.allowed:
            if len(a) == self.p:
                parts.append("*")
            elif a == frozenset(range(1, self.p)):
                parts.append("units")
            else:
                parts.append("{" + ",".join(map(str, sorted(a))) + "}")
        return "x".join(parts)

    def __repr__(self):
        return f"ResidueRegion({self.describe()}, p={self.p}, n={self.n})"


@dataclass(frozen=True)
class Polydisc:
    """A_r = { x : v(x_i) >= r_i } with every r_i >= 1."""

    r: Tuple[int, ...]

    def __post_init__(self):
        if not self.r or any(v < 1 for v in self.r):
            raise ValueError("polydisc radii must be >= 1")

    @property
    def n(self) -> int:
        return len(self.r)


@dataclass(frozen=True)
class ValuationCell:
    """D(B, a) = { x : v(x_i) = a_i for i in B }, B nonempty.

    ``constraints`` is the sorted tuple of (coordinate, value) pairs.
    """

    n: int
    constraints: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        if not self.constraints:
            raise ValueError("empty constraint set gives the empty cell")

    @property
    def coords(self) -> Tuple[int, ...]:
        return tuple(i for i, _ in self.constraints)

    def scale_vector(self) -> Tuple[int, ...]:
        vals = dict(self.constraints)
        return tuple(vals.get(i, 0) for i in range(self.n))

    def depth_shift(self) -> int:
        return sum(a for _, a in self.constraints)

    def measure(self, p: int) -> Fraction:
        m = Fraction(1)
        for _, a in self.constraints:
            m *= Fraction(p - 1, p ** (a + 1))
        return m

    def unit_region(self, p: int) -> ResidueRegion:
        """The product region requiring units on the constrained coordinates."""
        coords = set(self.coords)
        units, everything = range(1, p), range(p)
        return ResidueRegion.product(
            p, [units if i in coords else everything for i in range(self.n)]
        )

    def describe(self) -> str:
        return ",".join(f"v(x{i + 1})={a}" for i, a in self.constraints)


def complement_cells(disc: Polydisc) -> List[Tuple[int, ValuationCell]]:
    """Signed cells whose indicator functions sum to the indicator of A_r^c.

    A point x outside A_r lies in exactly the cells D(B, a) with B contained
    in { i : v(x_i) < r_i } and a_i = v(x_i); inclusion-exclusion over that
    lattice collapses to the family itself with sign (-1)^(|B|+1), since
    intersections of family members are again members or empty.
    """
    n = disc.n
    cells: List[Tuple[int, ValuationCell]] = []
    indices = range(n)
    for size in range(1, n + 1):
        sign = 1 if size % 2 == 1 else -1
        for coords in itertools.combinations(indices, size):
            for values in itertools.product(*(range(disc.r[i]) for i in coords)):
                cell = ValuationCell(n, tuple(zip(coords, values)))
                cells.append((sign, cell))
    return cells


def cell_change_of_variables(f: MultiPoly, cell: ValuationCell):
    """Rewrite the integral over D(B, a) as one over a residue region.

    Substitutes x_i = pi^{a_i} y_i on the constrained coordinates and
    extracts the content e, so that

        integral over D(B,a) of |f|^s  =  q^(-d) t^e * integral over D' of |f_B|^s

    with d the sum of the a_i and D' the product region that requires units
    on the constrained coordinates.  Returns (e, d, f_B, D').
    """
    ring = f.ring
    if cell.n != f.n:
        raise ValueError("cell dimension mismatch")
    zero = [ring.zero()] * f.n
    scaled = f.substitute_affine(zero, cell.scale_vector())
    e = scaled.content_valuation()
    f_b = scaled.divide_by_uniformizer(e)
    return e, cell.depth_shift(), f_b, cell.unit_region(ring.p)
