"""Congruence counting by Hensel lifting.

N_j is the number of x in (O/pi^j)^n with f(x) = 0 mod pi^j.  Every solution
mod pi^j reduces to a solution mod pi^(j-1), so the solutions at level j are
exactly those of the p^n lifts x + pi^(j-1) t (t in F_p^n) of the level-(j-1)
solutions that satisfy f = 0 mod pi^j.  Each candidate is evaluated in full,
so the count stays an exhaustive enumeration and shares no code with the
recursive engine.

Points are stored as residues mod p^j (characteristic 0, shape (N, n)) or as
pi-adic digit rows (characteristic p, shape (N, n, j), in the narrowest
unsigned dtype that holds p - 1).  Callers pass plain Python data, so that
numpy is imported with this module only: one exponent tuple per term, and
per term a Python int (characteristic 0) or a list of pi-adic digits
(characteristic p).  The optional ``allowed`` residue sets restrict points
by their reduction (coordinate i reduces into allowed[i]); they are applied
once, to the level-1 candidates, because every lift keeps its reduction.
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

    Raises BudgetExceeded, before allocating for it, at a level whose
    N_(j-1) p^n lifting candidates exceed ``budget``; the survivors kept for
    the next level therefore never exceed budget / p^n rows.
    """
    size = p**n
    if levels < 1:
        return [1]
    if size > budget:
        raise BudgetExceeded(f"level 1: {p}^{n} lifting candidates exceed budget {budget}")
    exps = np.array(terms, dtype=np.int64).reshape(len(terms), n)
    if positive_char:
        digits = np.zeros((len(terms), levels), dtype=np.int64)
        for row, payload in enumerate(coeffs):
            digits[row, : len(payload)] = payload[:levels]
        coeffs = digits
    grid = np.indices((p,) * n, dtype=np.int64).reshape(n, -1).T  # F_p^n, row-major
    first = grid
    if allowed is not None:
        keep = np.ones(len(grid), dtype=bool)
        for i, residues in enumerate(allowed):
            keep &= np.isin(grid[:, i], sorted(residues))
        first = grid[keep]
    store = np.min_scalar_type(p - 1) if positive_char else np.int64
    chunks = [np.zeros((1, n, 0) if positive_char else (1, n), dtype=store)]
    step = max(1, _SLICE // size)
    counts = [1]
    for j in range(1, levels + 1):
        lifts = first if j == 1 else grid
        m = p**j
        wide = not positive_char and m - 1 > _INT64_SAFE
        if wide:
            lifts = lifts.astype(object)
        found, survivors = 0, []
        for chunk in chunks:
            for lo in range(0, len(chunk), step):
                x = chunk[lo : lo + step]
                if positive_char:
                    # digit j-1 of every coordinate is the new digit t
                    cand = np.concatenate(
                        [np.repeat(x.astype(np.int64), len(lifts), axis=0),
                         np.tile(lifts, (len(x), 1))[:, :, None]],
                        axis=2,
                    )
                    acc = np.zeros((len(cand), j), dtype=np.int64)
                    value = _evaluate(exps, coeffs[:, :j], cand, lambda a, b: _mul_digits(a, b, p), acc)
                    good = ~(value % p).any(axis=1)
                else:
                    if wide:
                        x = x.astype(object)
                    cand = (x[:, None, :] + m // p * lifts[None, :, :]).reshape(-1, n)
                    acc = np.zeros(len(cand), dtype=cand.dtype)
                    value = _evaluate(exps, [c % m for c in coeffs], cand, lambda a, b: a * b % m, acc)
                    good = value % m == 0
                found += int(np.count_nonzero(good))
                if j < levels:
                    if found * size > budget:
                        raise BudgetExceeded(
                            f"level {j + 1}: at least {found}*{p}^{n} lifting candidates"
                            f" exceed budget {budget}"
                        )
                    survivors.append(cand[good].astype(store) if positive_char else cand[good])
        counts.append(found)
        chunks = survivors
    return counts


def _evaluate(exps, coeffs, x, mul, acc):
    """acc plus the sum of the terms c * prod_i x_i^e_i, with ``mul`` the ring product."""
    powers = [[None, x[:, i]] for i in range(x.shape[1])]
    for e, c in zip(exps, coeffs):
        for i, k in enumerate(e):
            if k:
                pw = powers[i]
                while len(pw) <= k:
                    pw.append(mul(pw[-1], pw[1]))
                c = mul(c, pw[k])
        acc = acc + c
    return acc


def _mul_digits(a, b, p):
    """Product of pi-adic digit rows truncated to their length (broadcasting)."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    j = out.shape[-1]
    for i in range(j):
        out[..., i:] += a[..., i : i + 1] * b[..., : j - i]
    return out % p
