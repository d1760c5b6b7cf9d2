"""Congruence counting by Hensel lifting over per-coordinate tables.

N_j is the number of x in (O/pi^j)^n with f(x) = 0 mod pi^j.  Every solution
mod pi^j reduces to a solution mod pi^(j-1), so the solutions at level j are
exactly those of the lifts x + pi^(j-1) t (t in F_p^n) of the level-(j-1)
solutions that satisfy f = 0 mod pi^j.  A lift differs from its survivor in
the last digit only, so over a slice of S survivors coordinate i takes just
S * |T_i| values, T_i the digits it may take: its lift table
L_i = x_i + pi^(j-1) T_i.  The powers of x_i are taken on L_i; f on all
S * prod_i |T_i| candidates is the broadcast sum of its terms, each the
broadcast product of its coordinates' power tables, with coordinate i on
axis 1 + i of the grid.  Every candidate is still evaluated in full mod
pi^j, so the count stays an exhaustive enumeration and shares no code with
the recursive engine.  One pass covers at most _SLICE candidates: a slice of
survivors, or, where p^n alone exceeds _SLICE, one survivor and a slice of
the grid cut along its leading coordinates' digit sets.

Characteristic 0 (``_Residues``) stores points as residues mod p^j, shape
(N, n), as Python ints once (p^j - 1)^2 overflows int64.

Characteristic p (``_Lanes``) packs the pi-adic digit rows into uint64 words
(Kronecker substitution): digit i sits in a b-bit lane, and the product of
two packed rows is a word product whose lanes are the digit convolution
sums, left unreduced.  F_p[[u]] has no carries, so as long as no lane
overflows, lane i of any product or sum is congruent mod p to digit i of the
ring value.  b is fixed once per call of J levels by a bound that every lane
obeys once the power tables are reduced:

    2^b > max(J (p-1)^2,  sum_t s_t (p-1)^(r_t) C(J + r_t - 2, r_t - 1)).

J (p-1)^2 bounds the product of two reduced table rows (a power step).  A
term t is its coefficient, of digit sum s_t, times one reduced power row for
each of the r_t variables it uses, so its lanes are at most
s_t (p-1)^(r_t) C(J + r_t - 2, r_t - 1), the binomial counting the ways to
split lane J - 1 among r_t rows (1 for a constant term).  When J b <= 64 a
row is one word, and a product is one wrapped ``a * c``: the low 64 bits of
a uint64 product are exact, and whatever spills past lane J - 1 never
reaches a lower lane.  Otherwise a row is w = ceil(J / k) words of k digits
with (2k - 1) b <= 64, so that the 2k - 1 lanes of a word product fit in 64
bits; a product is the truncated word convolution, each word product adding
its low k lanes to its own word and the rest to the next, with no carries.
Level j uses only the ceil(j / k) words that hold its j digits.  Digits are
reduced mod p, lane by lane, only on the per-coordinate power tables, which
are table-sized; the grid-sized products and sums are never reduced.  A
candidate is a zero mod pi^j when every lane below j is 0 mod p.  Packed
operands are np.uint64 throughout, so numpy never promotes them to float or
object.

Callers pass plain Python data, so that numpy is imported with this module
only: one exponent tuple per term, and per term a Python int
(characteristic 0) or a list of pi-adic digits (characteristic p).  Points
range over all of (O/pi^j)^n, so every digit set T_i is F_p and the grid's
slices are the same at every level.
"""

from __future__ import annotations

from itertools import product
from math import comb, isqrt
from typing import List

import numpy as np

from .errors import BudgetExceeded

# Candidates evaluated per numpy pass; bounds peak memory.
_SLICE = 1 << 18
# Largest m - 1 whose square fits in int64; larger moduli use Python ints.
_INT64_SAFE = isqrt(np.iinfo(np.int64).max)


def lift_counts(
    terms, coeffs, n: int, p: int, levels: int, positive_char: bool, budget: int
) -> List[int]:
    """N_0..N_levels (N_0 = 1).

    Level j evaluates f on the grid of each slice's lift tables and keeps
    the candidates where it vanishes mod pi^j as the next survivors:
    residues mod p^j in characteristic 0, packed digit rows in
    characteristic p, whose lane width b the lane bound fixes once for all
    ``levels``.  Raises BudgetExceeded, before allocating for it, at a
    level whose N_(j-1) p^n lifting candidates exceed ``budget``; the
    survivors kept for the next level therefore never exceed budget / p^n
    rows.  In characteristic p it also raises when the bound needs lanes
    wider than a 64-bit word.
    """
    size = p**n
    if levels < 1:
        return [1]
    if size > budget:
        raise BudgetExceeded(f"level 1: {p}^{n} lifting candidates exceed budget {budget}")
    ring = _Lanes(terms, coeffs, n, p, levels) if positive_char else _Residues(coeffs, n, p)
    parts = _grid_slices([np.arange(p, dtype=np.int64)] * n, _SLICE)
    chunks = [ring.start]
    step = max(1, _SLICE // size)
    counts = [1]
    for j in range(1, levels + 1):
        ring.level(j)
        found, survivors = 0, []
        for chunk in chunks:
            for lo in range(0, len(chunk), step):
                x = chunk[lo : lo + step]
                for part in parts:
                    tables = [ring.lift(x[:, i], t) for i, t in enumerate(part)]
                    # the grid stays referenced until the next one replaces it: freed
                    # first, it lets malloc trim the heap and fault it in again per slice
                    value = _grid_values(terms, ring, tables)
                    good = ring.zeros(value)
                    if j == levels:
                        found += int(np.count_nonzero(good))
                        continue
                    hits = np.flatnonzero(good)
                    found += len(hits)
                    if found * size > budget:
                        raise BudgetExceeded(
                            f"level {j + 1}: at least {found}*{p}^{n} lifting candidates"
                            f" exceed budget {budget}"
                        )
                    survivors.append(ring.rows(tables, np.unravel_index(hits, good.shape)))
        counts.append(found)
        chunks = survivors
    return counts


def _grid_slices(digits, limit):
    """The grid of the digit sets cut into sub-grids of at most ``limit`` points.

    The trailing coordinates stay whole while their product fits; the
    coordinate before them is cut into pieces, and every earlier one goes
    one digit at a time.  A grid that fits is one slice.
    """
    cut, rest = len(digits), 1
    while cut and rest * len(digits[cut - 1]) <= limit:
        cut -= 1
        rest *= len(digits[cut])
    if cut == 0:
        return [digits]
    piece, split = limit // rest, digits[cut - 1]
    return [
        [*lead, split[lo : lo + piece], *digits[cut:]]
        for lead in product(*[[d[k : k + 1] for k in range(len(d))] for d in digits[: cut - 1]])
        for lo in range(0, len(split), piece)
    ]


def _grid_values(terms, ring, tables):
    """f on the grid (S, |T_1|, ..., |T_n|): each term c * prod_i L_i^e_i broadcast.

    A table is (S, |T_i|), after a leading word axis in characteristic p
    (values are then (words, S, |T_1|, ..., |T_n|)).  Coordinate i's table
    is viewed with its digits on axis 1 + i of the grid, and its powers are
    built on that view by ``ring.power_step``, which reduces them in
    characteristic p.  The products of a term (``ring.mul``), which become
    grid-sized, and the sum over the terms are left unreduced there.
    """
    n = len(tables)
    lead = tables[0].shape[:-2]
    grid = (tables[0].shape[-2],) + tuple(table.shape[-1] for table in tables)
    views = [
        table.reshape(lead + grid[:1] + tuple(grid[1 + k] if k == i else 1 for k in range(n)))
        for i, table in enumerate(tables)
    ]
    powers = [[None, view] for view in views]
    acc = np.zeros(lead + grid, dtype=tables[0].dtype)
    for e, c in zip(terms, ring.coeffs):
        for i, k in enumerate(e):
            if k:
                pw = powers[i]
                while len(pw) <= k:
                    pw.append(ring.power_step(pw[-1], pw[1]))
                c = ring.mul(c, pw[k])
        acc += c
    return acc


class _Residues:
    """Characteristic 0: points and values as residues mod p^j."""

    def __init__(self, coeffs, n, p):
        self.p, self.integers = p, coeffs
        self.start = np.zeros((1, n), dtype=np.int64)

    def level(self, j):
        self.j, self.m = j, self.p**j
        self.wide = self.m - 1 > _INT64_SAFE
        self.coeffs = [c % self.m for c in self.integers]

    def mul(self, a, b):
        return a * b % self.m

    power_step = mul

    def lift(self, x, t):
        """L = x + p^(j-1) t for the S survivors' residues x and the digits t: (S, |t|)."""
        if self.wide:
            x, t = x.astype(object), t.astype(object)
        return x[:, None] + self.p ** (self.j - 1) * t[None, :]

    def zeros(self, value):
        return value % self.m == 0

    def rows(self, tables, hits):
        """The hit candidates (s, t_1, ..., t_n) as rows (N, n): coordinate i is L_i[s, t_i]."""
        s, *t = hits
        rows = np.empty((len(s), len(tables)), dtype=tables[0].dtype)
        for i, table in enumerate(tables):
            rows[:, i] = table[s, t[i]]
        return rows


class _Lanes:
    """Characteristic p: pi-adic digit rows packed into b-bit lanes of uint64 words.

    Points are stored as (N, n, words) uint64, the words past a level's
    left 0; tables and values carry the level's words on a leading axis.
    """

    def __init__(self, terms, coeffs, n, p, levels):
        digits = [[d % p for d in c[:levels]] for c in coeffs]
        bound = levels * (p - 1) ** 2
        terms_bound = 0
        for e, c in zip(terms, digits):
            r = sum(1 for k in e if k)
            terms_bound += sum(c) * (p - 1) ** r * (comb(levels + r - 2, r - 1) if r else 1)
        bits = max(bound, terms_bound).bit_length()
        per = levels if levels * bits <= 64 else (64 + bits) // (2 * bits)
        if per == 0:
            raise BudgetExceeded(f"level 1: digit lanes of {bits} bits exceed a 64-bit word")
        self.p, self.n, self.bits, self.per = p, n, bits, per
        self.words = -(-levels // per)
        self.start = np.zeros((1, n, self.words), dtype=np.uint64)
        packed = [[0] * self.words for _ in digits]
        for row, c in zip(packed, digits):
            for i, d in enumerate(c):
                row[i // per] |= d << (bits * (i % per))
        self.packed = np.array(packed, dtype=np.uint64).reshape(len(digits), self.words)
        self.lane_mask = np.uint64((1 << bits) - 1)
        # per lane of a word: its bit offset, and its field mask (its low bit for p = 2)
        self.offsets = [np.uint64(bits * at) for at in range(per)]
        field = 1 if p == 2 else (1 << bits) - 1
        self.fields = [field << (bits * at) for at in range(per)]
        self.low_mask = np.uint64((1 << (per * bits)) - 1)
        self.carry = np.uint64(per * bits)
        self.modulus = np.uint64(p)
        if p > 2:
            self.inverse = np.uint64(pow(p, -1, 1 << 64))
            self.limit = np.uint64(((1 << 64) - 1) // p)

    def level(self, j):
        self.j, w = j, -(-j // self.per)
        self.coeffs = list(self.packed[:, :w].reshape((len(self.packed), w) + (1,) * (1 + self.n)))
        self.below = self._spans(0, j)
        self.top = self._spans(j - 1, j)
        self.under = self._spans(0, j - 1)

    def mul(self, a, c):
        """Product of packed values, truncated to a's words (the leading axis)."""
        w = len(a)
        if w == 1:
            return a * c
        out = np.zeros(np.broadcast_shapes(a.shape, c.shape), dtype=np.uint64)
        for u in range(w):
            for v in range(w - u):
                prod = a[u] * c[v]
                # its lanes past the first k go to the next word (none for one-digit words)
                if u + v < w - 1 and self.per > 1:
                    out[u + v + 1] += prod >> self.carry
                    prod &= self.low_mask
                out[u + v] += prod
        return out

    def power_step(self, a, c):
        """a * c with the lanes below j reduced mod p and the later ones cleared."""
        a = self.mul(a, c)
        for u, lanes in self.below:
            if self.p == 2:  # mod 2 keeps each lane's low bit
                a[u] &= np.uint64(sum(self.fields[at] for at in lanes))
                continue
            word = a[u].copy()
            a[u] = (word & self.lane_mask) % self.modulus
            for at in lanes[1:]:
                shift = self.offsets[at]
                a[u] |= ((word >> shift) & self.lane_mask) % self.modulus << shift
        return a

    def lift(self, x, t):
        """L = x + pi^(j-1) t for the S survivors' words x (S, words): (level's words, S, |t|)."""
        word, at = divmod(self.j - 1, self.per)
        table = np.empty((word + 1, len(x), len(t)), dtype=np.uint64)
        table[...] = x[:, : word + 1].T[:, :, None]
        table[word] += t.astype(np.uint64) << np.uint64(self.bits * at)
        return table

    def zeros(self, value):
        """Where every lane below j is 0 mod p: lane j - 1 on the grid, the rest on its zeros."""
        good = self._vanish(value, self.top)
        if self.j > 1:
            hits = np.flatnonzero(good)
            low = self._vanish(value.reshape(len(value), -1)[:, hits], self.under)
            good.reshape(-1)[hits[~low]] = False
        return good

    def rows(self, tables, hits):
        """The hit candidates (s, t_1, ..., t_n) as rows (N, n, words): coordinate i is L_i[s, t_i].

        The words past the level's stay 0.
        """
        s, *t = hits
        rows = np.zeros((len(s), len(tables), self.words), dtype=np.uint64)
        for i, table in enumerate(tables):
            rows[:, i, : len(table)] = table[:, s, t[i]].T
        return rows

    def _vanish(self, a, spans):
        """Whether every lane of the spans is 0 mod p in a (boolean, shaped as a word of a)."""
        tests = []
        for u, lanes in spans:
            if self.p == 2:  # even lanes have their low bits 0
                tests.append(a[u] & np.uint64(sum(self.fields[at] for at in lanes)) == 0)
                continue
            # for odd p, v = lane * 2^s is 0 mod p iff v * p^-1 mod 2^64 <= (2^64 - 1) / p
            for at in lanes:
                tests.append((a[u] & np.uint64(self.fields[at])) * self.inverse <= self.limit)
        ok = tests[0]
        for test in tests[1:]:
            ok &= test
        return ok

    def _spans(self, lo, hi):
        """[(word, its lane positions)] for the lanes lo..hi-1, one word at a time."""
        return [
            (u, range(max(lo - u * self.per, 0), min(hi - u * self.per, self.per)))
            for u in range(lo // self.per, -(-hi // self.per))
        ]
