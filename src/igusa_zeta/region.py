"""Integration domains inside O_K^n.

Three kinds of sets appear in the computation:

* residue regions: preimages under reduction mod pi of products
  R_1 x ... x R_n of subsets of F_p (every region the engine meets is one);
* polydiscs A_r = { v(x_i) >= r_i };
* valuation cells { v(x_j) >= m_j for all j, v(x_i) = m_i }, sum(r) of
  which partition the complement of a polydisc.

The coordinate change x = pi^m o y maps a cell onto a residue region (units
on coordinate i), which is what the recursive engine consumes.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import FrozenSet, List, Sequence, Tuple

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
        units, everything = range(1, p), range(p)
        return ResidueRegion.product(
            p, [units if i == self.unit else everything for i in range(len(self.m))]
        )


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
    ring = f.ring
    if len(cell.m) != f.n:
        raise ValueError("cell dimension mismatch")
    scaled = f.substitute_affine([ring.zero()] * f.n, cell.m)
    e = scaled.content_valuation()
    return e, cell.depth_shift(), scaled.divide_by_uniformizer(e), cell.unit_region(ring.p)
