"""Integration domains inside O_K^n.

Three kinds of sets appear in the computation:

* residue regions: preimages under reduction mod pi of products
  R_1 x ... x R_n with each R_i either F_p or F_p^* (every region the
  engine meets is one);
* polydiscs A_r = { v(x_i) >= r_i };
* valuation cells { v(x_j) >= m_j for all j, v(x_i) = m_i }, sum(r) of
  which partition the complement of a polydisc.

The coordinate change x = pi^m o y maps a cell onto a residue region (units
on coordinate i), which is what the recursive engine consumes.
"""

from __future__ import annotations

from collections import namedtuple
from typing import FrozenSet, List, Tuple

from .errors import ZeroPolynomial
from .poly import MultiPoly


class ResidueRegion:
    """Preimage in O_K^n of prod_i R_i, R_i = F_p^* for i in units and F_p otherwise."""

    __slots__ = ("p", "n", "units")

    def __init__(self, p: int, n: int, units: FrozenSet[int]):
        if not all(0 <= i < n for i in units):
            raise ValueError("unit coordinates outside [0, n)")
        self.p = p
        self.n = n
        self.units = frozenset(units)

    @classmethod
    def full(cls, p: int, n: int) -> "ResidueRegion":
        return cls(p, n, frozenset())

    def residues(self, i: int) -> range:
        """R_i as the residues it allows, in increasing order."""
        return range(i in self.units, self.p)

    def card(self) -> int:
        return self.p ** (self.n - len(self.units)) * (self.p - 1) ** len(self.units)

    def describe(self) -> str:
        if not self.units:
            return "full"
        return "x".join("units" if i in self.units else "*" for i in range(self.n))

    def __repr__(self):
        return f"ResidueRegion({self.describe()}, p={self.p}, n={self.n})"


class ValuationCell(namedtuple("ValuationCell", "m unit")):
    """{ x : v(x_j) >= m_j for every j, v(x_unit) = m_unit }.

    Under x = pi^m o y the cell is the preimage of the product region with
    units on coordinate ``unit`` and every residue elsewhere; the Jacobian
    is q^(-sum m).  m is a tuple of ints and unit an int.
    """

    __slots__ = ()

    def depth_shift(self) -> int:
        return sum(self.m)

    def unit_region(self, p: int) -> ResidueRegion:
        """The product region requiring a unit on the unit coordinate."""
        return ResidueRegion(p, len(self.m), frozenset({self.unit}))


def complement_cells(r: Tuple[int, ...]) -> List[ValuationCell]:
    """The sum(r_i) disjoint cells that partition the complement of A_r (every r_i >= 1).

    With the coordinates ordered by decreasing r_i (ties by index), a point
    outside A_r has a first coordinate i in that order with v(x_i) < r_i; it
    lies in the cell with unit i and m_i = v(x_i), m_j = r_j for the
    coordinates j before i and m_j = 0 after it, and in no other.
    """
    cells: List[ValuationCell] = []
    m = [0] * len(r)
    for i in sorted(range(len(r)), key=lambda j: -r[j]):
        for a in range(r[i]):
            m[i] = a
            cells.append(ValuationCell(tuple(m), i))
        m[i] = r[i]
    return cells


def cell_change_of_variables(f: MultiPoly, cell: ValuationCell):
    """Rewrite the integral over a cell as one over a residue region.

    Substitutes x = pi^m o y and extracts the content e, so that

        integral over the cell of |f|^s  =  q^(-d) t^e * integral over D' of |f_m|^s

    with d = sum m and D' the product region with units on the cell's unit
    coordinate.  Returns (e, d, f_m, D').
    """
    if f.is_zero():
        raise ZeroPolynomial("zeta integral of the zero polynomial diverges")
    f_m, e = f.dilate_at_zero(cell.m)
    return e, cell.depth_shift(), f_m, cell.unit_region(f.ring.p)
