"""Seeded op lists for the four benchmark workloads.

Each workload is a fixed list of templates.  A template fixes the monomials
of the weight-d part, a pool of tail monomials strictly above weight d, the
primes and characteristics it runs at, and how many ops it contributes to
one pass.  The seed picks, per op, the prime, the characteristic, the unit
coefficients, the uniformizer power of each coefficient and which optional
tail monomials are present.  The program only ever sees polynomial text.

Tail monomials carry coefficient 1, and each op adds one tail set from a
short list: two optional tails with some unit coefficients give the
hypersurface a second singular point (4x^2+2y^3+xy^2+y^4+x^3, for one),
which is outside the engine's hypotheses.  ``selftest.py --every-input``
runs every input any seed can produce from a template with a tail.

The picks are stratified: within a template every prime and characteristic
occurs equally often over its ops, every valuation and tail choice equally
often among the ops of one prime, and the seed decides how they are paired.
So does the quadratic character of the first two unit coefficients'
product, which decides whether c1 x^2 + c2 y^2 splits over F_p: on
x^2+y^2+z^4 at p = 5 it moves an op's time by a quarter, with the same tree.
Fully independent draws would make the cost of one pass swing by a factor of
two between seeds (a tail quadruples the tree of a surface; x^2+121y^3 at
p = 11 has eight times the nodes of x^2+11y^3), which no run length can
average away.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Sequence, Tuple

Exps = Tuple[int, ...]

# check --levels J uses the deepest J with p^(n J) points within this cap
CHECK_POINT_CAP = 4 * 10**5


@dataclass(frozen=True)
class Template:
    name: str
    command: str                       # "compute" or "check"
    weights: Tuple[Exps, int]          # (alpha, d)
    quasi: Tuple[Exps, ...]            # monomials of weighted degree d
    primes: Tuple[int, ...]
    ops: int                           # ops per pass
    chars: Tuple[str, ...] = ("0",)
    valuations: Tuple[Tuple[int, ...], ...] = ()  # per quasi monomial; default (0,)
    fixed_tails: Tuple[Exps, ...] = ()
    tail_choices: Tuple[Tuple[Exps, ...], ...] = ((),)  # optional tails: one set per op


@dataclass(frozen=True)
class Op:
    op_id: int
    template: str
    command: str
    poly: str
    p: int
    char: str
    n: int
    levels: Optional[int]              # check only
    two_term: Optional[Tuple[Exps, Exps]]  # (x^n, y^m) exponents when the closed form applies

    def argv(self) -> List[str]:
        args = [self.command, self.poly, "--prime", str(self.p), "--char", self.char]
        if self.command == "check":
            return args + ["--levels", str(self.levels)]
        return args + ["--format", "json"]


def _t(*exps: Sequence[int]) -> Tuple[Exps, ...]:
    return tuple(tuple(e) for e in exps)


WORKLOADS = {
    # Deep, narrow trees: dilate -> substitute_affine dominates, and
    # classify_points sees only p^2 points per node.
    "curves": (
        Template("x3+y5+x2y2", "compute", ((5, 3), 15), _t((3, 0), (0, 5)), (5,), 1,
                 fixed_tails=_t((2, 2)), tail_choices=((), _t((1, 4)), _t((0, 6)), _t((1, 4), (0, 6)))),
        Template("x2+p^k*y5", "compute", ((5, 2), 10), _t((2, 0), (0, 5)), (5,), 2,
                 valuations=((0,), (2, 3))),
        Template("x2+y3+xy2", "compute", ((3, 2), 6), _t((2, 0), (0, 3)), (5, 7, 11), 6,
                 fixed_tails=_t((1, 2)), tail_choices=((), _t((2, 1)), _t((0, 4)), _t((3, 0)))),
        Template("x3+p^k*y4", "compute", ((4, 3), 12), _t((3, 0), (0, 4)), (5, 7), 4,
                 valuations=((0,), (0, 1))),
        Template("x2+p^k*y3", "compute", ((3, 2), 6), _t((2, 0), (0, 3)), (5, 7), 12,
                 valuations=((0,), (1, 2))),
    ),
    # p^3 residue points per node: classify_points carries a large share.
    "surfaces": (
        Template("x2+y3+z3", "compute", ((3, 2, 2), 6), _t((2, 0, 0), (0, 3, 0), (0, 0, 3)),
                 (5,), 1, valuations=((0,), (0,), (0, 1))),
        Template("x2+y2+z3", "compute", ((3, 3, 2), 6), _t((2, 0, 0), (0, 2, 0), (0, 0, 3)),
                 (5,), 1),
        Template("x2+y2+z3+xyz", "compute", ((3, 3, 2), 6), _t((2, 0, 0), (0, 2, 0), (0, 0, 3)),
                 (5,), 1, fixed_tails=_t((1, 1, 1))),
        # Three times as many ops at p = 5 as at p = 7: op_s.ptail (10 ops
        # beyond) then falls mid-way through the six slower tailed p = 5 ops,
        # not on the edge between two cost clusters.
        Template("x2+y2+z4@5", "compute", ((2, 2, 1), 4), _t((2, 0, 0), (0, 2, 0), (0, 0, 4)),
                 (5,), 18, tail_choices=((), _t((1, 1, 1)), _t((0, 0, 5)))),
        Template("x2+y2+z4@7", "compute", ((2, 2, 1), 4), _t((2, 0, 0), (0, 2, 0), (0, 0, 4)),
                 (7,), 6, tail_choices=((), _t((1, 1, 1)), _t((0, 0, 5)))),
        Template("x2+y2+z2", "compute", ((1, 1, 1), 2), _t((2, 0, 0), (0, 2, 0), (0, 0, 2)),
                 (5, 7), 18, tail_choices=((), _t((1, 1, 1)), _t((0, 0, 3)))),
    ),
    # F_p((u)): substitute_affine runs on digit tuples, and uniformizer
    # powers on coefficients make the node cache hit.
    "charp": (
        Template("x2+u*y5", "compute", ((5, 2), 10), _t((2, 0), (0, 5)), (7,), 1,
                 chars=("p",), valuations=((0,), (1,))),
        Template("x2+u^k*y3", "compute", ((3, 2), 6), _t((2, 0), (0, 3)), (5, 7), 8,
                 chars=("p",), valuations=((0,), (1, 2))),
        Template("x3+u^k*y4", "compute", ((4, 3), 12), _t((3, 0), (0, 4)), (5, 7), 4,
                 chars=("p",), valuations=((0,), (0, 1))),
        Template("x2+y3+xy2", "compute", ((3, 2), 6), _t((2, 0), (0, 3)), (5, 7), 4,
                 chars=("p",), fixed_tails=_t((1, 2)), tail_choices=((), _t((2, 1)), _t((0, 4)))),
        Template("x2+y2+u*z4", "compute", ((2, 2, 1), 4), _t((2, 0, 0), (0, 2, 0), (0, 0, 4)),
                 (5, 7), 8, chars=("p",), valuations=((0,), (0,), (1,))),
    ),
    # Shallow quasihomogeneous inputs: congruence counting is nearly all of
    # the time and the engine tree stays small.
    "check": (
        Template("x2+y3", "check", ((3, 2), 6), _t((2, 0), (0, 3)), (5, 7), 4, chars=("0", "p")),
        Template("x2+y5", "check", ((5, 2), 10), _t((2, 0), (0, 5)), (3, 7), 4, chars=("0", "p")),
        Template("x2+y2+z2", "check", ((1, 1, 1), 2), _t((2, 0, 0), (0, 2, 0), (0, 0, 2)),
                 (3, 5, 7), 6, chars=("0", "p")),
        Template("x2+y2+z4", "check", ((2, 2, 1), 4), _t((2, 0, 0), (0, 2, 0), (0, 0, 4)),
                 (3, 5, 7), 6, chars=("0", "p")),
        Template("x2+y2+z2+w2", "check", ((1, 1, 1, 1), 2),
                 _t((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)),
                 (3, 5, 7), 6, chars=("0", "p")),
    ),
}


def _weight(e: Exps, alpha: Exps) -> int:
    return sum(a * k for a, k in zip(alpha, e))


def validate_template(t: Template):
    """The rules every generated input obeys; raises ValueError otherwise."""
    alpha, d = t.weights
    n = len(alpha)
    for e in t.quasi:
        if len(e) != n or _weight(e, alpha) != d:
            raise ValueError(f"{t.name}: {e} is not of weighted degree {d}")
    tails = t.fixed_tails + tuple(e for choice in t.tail_choices for e in choice)
    for e in tails:
        if len(e) != n or _weight(e, alpha) <= d:
            raise ValueError(f"{t.name}: tail {e} is not strictly above weight {d}")
    vals = t.valuations or ((0,),) * len(t.quasi)
    if len(vals) != len(t.quasi) or not vals[0] == (0,):
        # the first monomial keeps a unit coefficient (closed form needs it)
        raise ValueError(f"{t.name}: first quasi monomial must have a unit coefficient")
    for p in t.primes:
        if "p" in t.chars and any(k % p == 0 for e in t.quasi + tails for k in e if k):
            raise ValueError(f"{t.name}: p = {p} divides an exponent in characteristic p")


def check_levels(p: int, n: int) -> int:
    """Deepest J >= 1 with p^(n J) within CHECK_POINT_CAP."""
    j = 1
    while p ** (n * (j + 1)) <= CHECK_POINT_CAP:
        j += 1
    return j


def _balanced(rng: random.Random, choices: Sequence, count: int) -> list:
    """count picks in which each choice occurs equally often, in seeded order."""
    picks = [choices[i % len(choices)] for i in range(count)]
    rng.shuffle(picks)
    return picks


_VARS = ("x", "y", "z", "w")


def _monomial(coeff: str, e: Exps) -> str:
    factors = [coeff] if coeff else []
    for name, k in zip(_VARS, e):
        if k:
            factors.append(name if k == 1 else f"{name}^{k}")
    return "*".join(factors)


def _coefficient(unit: int, v: int, p: int, char: str) -> str:
    if char == "p":
        parts = [str(unit)] if unit != 1 else []
        if v:
            parts.append("u" if v == 1 else f"u^{v}")
        return "*".join(parts)
    c = unit * p**v
    return "" if c == 1 else str(c)


def generate(workload: str, seed: int) -> List[Op]:
    """The op list of one pass; the same seed always gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    ops: List[Op] = []
    for t in WORKLOADS[workload]:
        validate_template(t)
        vals = t.valuations or ((0,),) * len(t.quasi)
        settings = _balanced(rng, [(p, c) for p in t.primes for c in t.chars], t.ops)
        # Valuations and tails are balanced within each (prime, char) stratum:
        # a costly choice then lands on a different op, never on more ops.
        picks: list = [None] * t.ops
        for setting in sorted(set(settings)):
            slots = [i for i, s in enumerate(settings) if s == setting]
            per_monomial = [_balanced(rng, v, len(slots)) for v in vals]
            tails = _balanced(rng, [(c, sq) for c in t.tail_choices for sq in (True, False)],
                              len(slots))
            for j, i in enumerate(slots):
                picks[i] = ([v[j] for v in per_monomial], tails[j])
        for (p, char), (valuation, (optional, square)) in zip(settings, picks):
            units = _units(rng, p, len(t.quasi), square)
            ops.append(_op(t, p, char, units, valuation, optional))
    rng.shuffle(ops)
    return [replace(op, op_id=i) for i, op in enumerate(ops)]


def _units(rng: random.Random, p: int, count: int, square: bool) -> List[int]:
    """Units mod p whose first two have a product that is a square mod p iff square."""
    squares = {k * k % p for k in range(1, p)}
    while True:
        units = [rng.randrange(1, p) for _ in range(count)]
        if count < 2 or (units[0] * units[1] % p in squares) == square:
            return units


def _op(t: Template, p: int, char: str, units, valuation, optional) -> Op:
    """Tail monomials carry coefficient 1; quasi monomials unit * p^v (or u^v)."""
    n = len(t.weights[0])
    tails = list(t.fixed_tails) + list(optional)
    terms = [_monomial(_coefficient(c, v, p, char), e)
             for c, v, e in zip(units, valuation, t.quasi)]
    terms += [_monomial("", e) for e in tails]
    two_term = t.quasi if (n == 2 and len(t.quasi) == 2 and not tails) else None
    return Op(
        op_id=-1, template=t.name, command=t.command, poly="+".join(terms), p=p, char=char,
        n=n, levels=check_levels(p, n) if t.command == "check" else None, two_term=two_term,
    )


def every_input(t: Template) -> Iterator[Op]:
    """Every op the generator can ever produce from template t, for any seed."""
    vals = t.valuations or ((0,),) * len(t.quasi)
    for p in t.primes:
        for char in t.chars:
            for valuation in itertools.product(*vals):
                for units in itertools.product(range(1, p), repeat=len(t.quasi)):
                    for optional in t.tail_choices:
                        yield _op(t, p, char, units, valuation, optional)
