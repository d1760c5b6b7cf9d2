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
the recursive engine.

Points are stored as residues mod p^j (characteristic 0, shape (N, n)) or as
pi-adic digit rows (characteristic p, shape (N, n, j), in the narrowest
unsigned dtype that holds p - 1).  Callers pass plain Python data, so that
numpy is imported with this module only: one exponent tuple per term, and
per term a Python int (characteristic 0) or a list of pi-adic digits
(characteristic p).  The optional ``allowed`` residue sets restrict points
by their reduction (coordinate i reduces into allowed[i]); they are the
digit sets T_i of level 1 only, because every lift keeps its reduction.
"""

from __future__ import annotations

from math import isqrt
from typing import List

import numpy as np

from .errors import BudgetExceeded

# Candidates evaluated per numpy pass; bounds peak memory.
_SLICE = 1 << 18
# Largest m - 1 whose square fits in int64; larger moduli use Python ints.
_INT64_SAFE = isqrt(np.iinfo(np.int64).max)


def lift_counts(
    terms, coeffs, n: int, p: int, levels: int, positive_char: bool, allowed, budget: int
) -> List[int]:
    """N_0..N_levels (N_0 = 1), restricted to the allowed residues if given.

    Level j evaluates f on the grid of each slice's lift tables and keeps
    the candidates where it vanishes mod pi^j as the next survivors.
    Raises BudgetExceeded, before allocating for it, at a level whose
    N_(j-1) p^n lifting candidates exceed ``budget``; the survivors kept for
    the next level therefore never exceed budget / p^n rows.
    """
    size = p**n
    if levels < 1:
        return [1]
    if size > budget:
        raise BudgetExceeded(f"level 1: {p}^{n} lifting candidates exceed budget {budget}")
    if positive_char:
        coeffs = [(list(c) + [0] * levels)[:levels] for c in coeffs]
    every = np.arange(p, dtype=np.int64)
    first = [every] * n
    if allowed is not None:
        first = [np.array(sorted(r), dtype=np.int64) for r in allowed]
    store = np.min_scalar_type(p - 1) if positive_char else np.int64
    chunks = [np.zeros((1, n, 0) if positive_char else (1, n), dtype=store)]
    step = max(1, _SLICE // size)
    counts = [1]
    for j in range(1, levels + 1):
        digits = first if j == 1 else [every] * n
        m = p**j
        wide = not positive_char and m - 1 > _INT64_SAFE
        if positive_char:
            level_coeffs = [np.array(c[:j], dtype=np.int64) for c in coeffs]
            mul = lambda a, b: _mul_digits(a, b, p)  # noqa: E731
        else:
            level_coeffs = [c % m for c in coeffs]
            mul = lambda a, b: a * b % m  # noqa: E731
        found, survivors = 0, []
        for chunk in chunks:
            for lo in range(0, len(chunk), step):
                x = chunk[lo : lo + step]
                tables = [
                    _lift_table(x[:, i], t, j, p, positive_char, wide) for i, t in enumerate(digits)
                ]
                value = _grid_values(terms, level_coeffs, tables, mul)
                good = ~(value % p).any(axis=-1) if positive_char else value % m == 0
                found += int(np.count_nonzero(good))
                if j < levels:
                    if found * size > budget:
                        raise BudgetExceeded(
                            f"level {j + 1}: at least {found}*{p}^{n} lifting candidates"
                            f" exceed budget {budget}"
                        )
                    # survivor s lifted by digits t_i: coordinate i is L_i[s, t_i]
                    s, *t = np.nonzero(good)
                    rows = np.empty((len(s), n, j) if positive_char else (len(s), n),
                                    dtype=object if wide else store)
                    for i, table in enumerate(tables):
                        rows[:, i] = table[s, t[i]]
                    survivors.append(rows)
        counts.append(found)
        chunks = survivors
    return counts


def _lift_table(x, t, j, p, positive_char, wide):
    """L = x + pi^(j-1) t for the S survivors' coordinate x and the digits t: (S, |t|[, j])."""
    if positive_char:
        table = np.empty((len(x), len(t), j), dtype=np.int64)
        table[:, :, : j - 1] = x[:, None, :]
        table[:, :, j - 1] = t
        return table
    if wide:
        x, t = x.astype(object), t.astype(object)
    return x[:, None] + p ** (j - 1) * t[None, :]


def _grid_values(terms, coeffs, tables, mul):
    """f on the grid (S, |T_1|, ..., |T_n|[, j]): each term c * prod_i L_i^e_i broadcast.

    Coordinate i's table is viewed with its digits on axis 1 + i, and its
    powers are built on that view with the ring product ``mul``.
    """
    n = len(tables)
    grid = (len(tables[0]),) + tuple(table.shape[1] for table in tables)
    tail = tables[0].shape[2:]
    views = [
        table.reshape(grid[:1] + tuple(grid[1 + k] if k == i else 1 for k in range(n)) + tail)
        for i, table in enumerate(tables)
    ]
    powers = [[None, view] for view in views]
    acc = np.zeros(grid + tail, dtype=tables[0].dtype)
    for e, c in zip(terms, coeffs):
        for i, k in enumerate(e):
            if k:
                pw = powers[i]
                while len(pw) <= k:
                    pw.append(mul(pw[-1], pw[1]))
                c = mul(c, pw[k])
        acc += c
    return acc


def _mul_digits(a, b, p):
    """Product of pi-adic digit rows truncated to their length (broadcasting)."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    j = out.shape[-1]
    for i in range(j):
        out[..., i:] += a[..., i : i + 1] * b[..., : j - i]
    return out % p
