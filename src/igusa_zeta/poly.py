"""Exact multivariate polynomial arithmetic over the coefficient ring.

Polynomials are sparse maps from exponent vectors to nonzero ring elements.
The canonical term order is graded lexicographic, which fixes rendering.
"""

from __future__ import annotations

import math
import re
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .coeff import LocalRing, LocalRingElement
from .errors import (
    NonUnitContent,
    PolynomialSyntaxError,
    UniformizerInCharZero,
    ZeroPolynomial,
)

Exponents = Tuple[int, ...]


def _grlex(exps: Exponents):
    return (sum(exps), exps)


def _accumulate(acc: Dict[Exponents, LocalRingElement], exps: Exponents, c: LocalRingElement):
    """Add c into acc at exps; a zero sum stays, and MultiPoly's constructor drops it."""
    acc[exps] = acc[exps] + c if exps in acc else c


def weighted_degree(exps: Sequence[int], alpha: Sequence[int]) -> int:
    """Sum of alpha_i * m_i for a monomial exponent vector m."""
    if len(exps) != len(alpha):
        raise ValueError("length mismatch")
    return sum(map(mul, alpha, exps))


class MultiPoly:
    """Polynomial in n variables over a :class:`LocalRing`.

    ``terms`` maps exponent tuples of length n to nonzero coefficients; the
    instance is treated as immutable after construction.
    """

    __slots__ = ("ring", "n", "terms")

    def __init__(self, ring: LocalRing, n: int, terms: Dict[Exponents, LocalRingElement]):
        clean: Dict[Exponents, LocalRingElement] = {}
        for exps, c in terms.items():
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps} has length != {n}")
            if not c.is_zero():
                clean[tuple(exps)] = c
        self.ring = ring
        self.n = n
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ring: LocalRing, n: int) -> "MultiPoly":
        return cls(ring, n, {})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> LocalRingElement:
        return self.terms.get((0,) * self.n, self.ring.zero())

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.ring == other.ring
            and self.n == other.n
            and self.terms == other.terms
        )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if self.ring != other.ring or self.n != other.n:
            raise ValueError("incompatible polynomials")
        acc = dict(self.terms)
        for e, c in other.terms.items():
            _accumulate(acc, e, c)
        return MultiPoly(self.ring, self.n, acc)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.ring, self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    # -- ring-specific operations ---------------------------------------------

    def content_valuation(self) -> int:
        """Minimum uniformizer order among the coefficients."""
        if not self.terms:
            raise ZeroPolynomial("content of the zero polynomial")
        return min(c.valuation() for c in self.terms.values())

    def divide_by_uniformizer(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative uniformizer power")
        if k == 0:
            return self
        return MultiPoly(
            self.ring, self.n, {e: c.divide_by_uniformizer(k) for e, c in self.terms.items()}
        )

    def reduce_mod_pi(self) -> "ResiduePoly":
        """Coefficient-wise reduction; requires unit content so the result is nonzero."""
        fbar = ResiduePoly(self.ring.p, self.n, {e: c.reduce() for e, c in self.terms.items()})
        if fbar.is_zero():
            raise NonUnitContent("all coefficients divisible by the uniformizer")
        return fbar

    def substitute_affine(
        self, center: Sequence[LocalRingElement], scale: Sequence[int]
    ) -> "MultiPoly":
        """Exact expansion of f(center_1 + pi^{m_1} x_1, ..., center_n + pi^{m_n} x_n).

        A coordinate with zero center turns x_i^k into pi^(m_i k) x_i^k, so
        per term those powers add up to one pi-shift of the coefficient;
        only coordinates with a nonzero center expand binomially.
        """
        if len(center) != self.n or len(scale) != self.n:
            raise ValueError("center/scale length mismatch")
        ring = self.ring
        at_zero = [i for i in range(self.n) if center[i].is_zero()]
        off_zero = [i for i in range(self.n) if not center[i].is_zero()]
        acc: Dict[Exponents, LocalRingElement] = {}
        for e, c in self.terms.items():
            shift = sum(scale[i] * e[i] for i in at_zero)
            partial: Dict[Exponents, LocalRingElement] = {e: c.times_pi(shift)}
            # Per variable off zero, the row of (center + pi^m x)^k replaces x^k.
            for i in off_zero:
                k = e[i]
                if k == 0:
                    continue
                a, m = center[i], scale[i]
                row = {}
                for j in range(k + 1):
                    coef = (ring.from_int(math.comb(k, j)) * a ** (k - j)).times_pi(m * j)
                    if not coef.is_zero():
                        row[j] = coef
                nxt: Dict[Exponents, LocalRingElement] = {}
                for exps, v in partial.items():
                    for j, coef in row.items():
                        _accumulate(nxt, exps[:i] + (j,) + exps[i + 1 :], v * coef)
                partial = nxt
            for exps, v in partial.items():
                _accumulate(acc, exps, v)
        return MultiPoly(ring, self.n, acc)

    def rescale(self, m: Sequence[int], k: int) -> "MultiPoly":
        """pi^(-k) f(pi^{m_1} x_1, ..., pi^{m_n} x_n), built in one pass.

        The term c x^a becomes c pi^(<m, a> - k) x^a: a pi-shift up, or an
        exact division that raises InsufficientValuation when c has
        valuation below k - <m, a>.
        """
        return self._shift_terms([weighted_degree(a, m) for a in self.terms], k)

    def dilate_at_zero(self, m: Sequence[int]) -> Tuple["MultiPoly", int]:
        """(g, e) with f(pi^{m_1} x_1, ..., pi^{m_n} x_n) = pi^e g(x), g of unit content.

        e is the least v(c) + <m, a> over the terms c x^a, read off the
        coefficients' cached valuations, and g is rescale(m, e).
        """
        if not self.terms:
            raise ZeroPolynomial("content of the zero polynomial")
        degrees = [weighted_degree(a, m) for a in self.terms]
        e = min(c.valuation() + d for c, d in zip(self.terms.values(), degrees))
        return self._shift_terms(degrees, e), e

    def _shift_terms(self, degrees: Sequence[int], k: int) -> "MultiPoly":
        """The terms c x^a times pi^(d - k), d the term's entry in degrees (rescale's formula)."""
        terms: Dict[Exponents, LocalRingElement] = {}
        for (a, c), d in zip(self.terms.items(), degrees):
            shift = d - k
            terms[a] = c.times_pi(shift) if shift >= 0 else c.divide_by_uniformizer(-shift)
        return MultiPoly(self.ring, self.n, terms)

    # -- rendering -------------------------------------------------------------

    def render(self) -> str:
        """Canonical text form; ``parse(render(f))`` reproduces f."""
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms, key=_grlex, reverse=True):
            c = self.terms[e]
            mono = _render_monomial(self.n, e)
            if self.ring.positive_char:
                for k, d in enumerate(c.payload):
                    if d:
                        pieces.append((False, _join_factors(d, k, mono)))
            else:
                v = c.payload
                pieces.append((v < 0, _join_factors(abs(v), None, mono)))
        out = []
        for i, (neg, text) in enumerate(pieces):
            if i == 0:
                out.append(("-" if neg else "") + text)
            else:
                out.append(("- " if neg else "+ ") + text)
        return " ".join(out)

    def __repr__(self):
        return self.render()


def _var_name(n: int, i: int) -> str:
    return "xyzw"[i] if n <= 4 else f"x{i + 1}"


def _render_monomial(n: int, exps: Exponents) -> str:
    parts = []
    for i, k in enumerate(exps):
        if k == 1:
            parts.append(_var_name(n, i))
        elif k > 1:
            parts.append(f"{_var_name(n, i)}^{k}")
    return "*".join(parts)


def _join_factors(coef: int, pi_power: Optional[int], mono: str) -> str:
    parts = []
    if coef != 1 or (pi_power in (None, 0) and not mono):
        parts.append(str(coef))
    if pi_power:
        parts.append("u" if pi_power == 1 else f"u^{pi_power}")
    if mono:
        parts.append(mono)
    return "*".join(parts) if parts else "1"


class ResiduePoly:
    """Polynomial over the residue field F_p with integer coefficients in [1, p)."""

    __slots__ = ("p", "n", "terms")

    def __init__(self, p: int, n: int, terms: Dict[Exponents, int]):
        self.p = p
        self.n = n
        self.terms = {tuple(e): c % p for e, c in terms.items() if c % p}

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ResiduePoly)
            and (self.p, self.n, self.terms) == (other.p, other.n, other.terms)
        )

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex, reverse=True):
            parts.append(_join_factors(self.terms[e], None, _render_monomial(self.n, e)))
        return " + ".join(parts)

    def __repr__(self):
        return self.render()


# -- parser --------------------------------------------------------------------
#
# Grammar (regular, so parse reads the tokens in one pass, with no recursion):
#   expr   := ['-'] term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := coeff | var ('^' nat)?
#   coeff  := nat | 'u' ('^' nat)?          (u only in characteristic p)
#   var    := 'x'|'y'|'z'|'w' | 'x' nat
# Whitespace is insignificant.

_NAMED_VARS = {"x": 0, "y": 1, "z": 2, "w": 3}
# Digits are ASCII only: str.isdigit also accepts superscripts and other scripts.
_TOKEN = re.compile(
    r"(?P<space>\s+)|(?P<nat>[0-9]+)|x(?P<index>[0-9]+)|(?P<name>[xyzw])|(?P<op>[-+*^u])|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> List[Tuple[str, Optional[int], int]]:
    """The (kind, value, position) tokens of text, ending in ("end", None, len(text)).

    Kinds are "nat" and "var" (value: the integer, the 0-based slot), and
    each operator character with value None.  The whole text is read first,
    so a bad character anywhere is reported before any grammar error.
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, value, pos = m.lastgroup, m[m.lastgroup], m.start()
        if kind == "nat":
            tokens.append(("nat", int(value), pos))
        elif kind == "index":
            if int(value) == 0:
                raise PolynomialSyntaxError("variable index must be >= 1", pos)
            tokens.append(("var", int(value) - 1, pos))
        elif kind == "name":
            tokens.append(("var", _NAMED_VARS[value], pos))
        elif kind == "op":
            tokens.append((value, None, pos))
        elif kind == "bad":
            raise PolynomialSyntaxError(f"unexpected character {value!r}", pos)
    tokens.append(("end", None, len(text)))
    return tokens


def parse(text: str, ring: LocalRing, n_hint: Optional[int] = None) -> MultiPoly:
    """Parse polynomial text into a :class:`MultiPoly` over ``ring``.

    Variables resolve by name: x, y, z, w are slots 0..3 and x1..xk is slot
    k-1.  The variable count is the highest slot used (at least 1), or
    ``n_hint`` when that is larger.  In characteristic p the symbol ``u``
    denotes the uniformizer inside coefficients.
    """
    tokens = _tokenize(text)
    negate = tokens[0][0] == "-"
    i = int(negate)
    terms = []  # (coefficient, {slot: power}) per term
    coeff, exps = ring.one(), {}
    while True:
        kind, value, pos = tokens[i]
        i += 1
        if kind == "nat":
            coeff = coeff * ring.from_int(value)
        elif kind == "u" or kind == "var":
            if kind == "u" and not ring.positive_char:
                raise UniformizerInCharZero("uniformizer symbol u in characteristic 0", pos)
            power = 1
            if tokens[i][0] == "^":
                found, power, at = tokens[i + 1]
                if found != "nat":
                    raise PolynomialSyntaxError(f"expected nat, found {found}", at)
                i += 2
            if kind == "u":
                coeff = coeff * ring.pi(power)
            else:
                exps[value] = exps.get(value, 0) + power
        else:
            raise PolynomialSyntaxError(f"expected a coefficient or variable, found {kind}", pos)
        kind, _, pos = tokens[i]
        i += 1
        if kind == "*":
            continue
        terms.append((-coeff if negate else coeff, exps))
        if kind != "+" and kind != "-":
            break
        negate = kind == "-"
        coeff, exps = ring.one(), {}
    if kind != "end":
        raise PolynomialSyntaxError(f"expected end, found {kind}", pos)
    n = max((max(e) for _, e in terms if e), default=-1) + 1
    if n_hint is not None:
        if n_hint < n:
            raise PolynomialSyntaxError(f"n_hint {n_hint} below used variable count {n}", 0)
        n = n_hint
    n = max(n, 1)
    acc: Dict[Exponents, LocalRingElement] = {}
    for coeff, exps in terms:
        _accumulate(acc, tuple(exps.get(slot, 0) for slot in range(n)), coeff)
    return MultiPoly(ring, n, acc)
