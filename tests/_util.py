"""Pure-Python reference implementations used as independent oracles.

Nothing here touches the package's counting kernels or the recursive
engine; tests compare package output against these direct enumerations.
"""

import itertools
from fractions import Fraction

from igusa_zeta import LocalRingElement, MultiPoly, ResiduePoly


def brute_counts_char0(f, j_max):
    """N_0..N_jmax for integer-coefficient f by literal enumeration."""
    p = f.ring.p
    coeffs = {e: c.payload for e, c in f.terms.items()}
    out = [1]
    for j in range(1, j_max + 1):
        modulus = p**j
        count = 0
        for point in itertools.product(range(modulus), repeat=f.n):
            total = 0
            for e, c in coeffs.items():
                v = c
                for x, k in zip(point, e):
                    v = v * pow(x, k, modulus)
                total += v
            if total % modulus == 0:
                count += 1
        out.append(count)
    return out


def _pi_mul(a, b, p, j):
    out = [0] * j
    for i, da in enumerate(a):
        if da:
            for k, db in enumerate(b):
                if i + k < j:
                    out[i + k] = (out[i + k] + da * db) % p
    return tuple(out)


def brute_counts_charp(f, j_max):
    """N_0..N_jmax over (F_p[pi]/pi^j)^n by literal enumeration."""
    p = f.ring.p
    out = [1]
    for j in range(1, j_max + 1):
        elements = list(itertools.product(range(p), repeat=j))
        count = 0
        for point in itertools.product(elements, repeat=f.n):
            total = (0,) * j
            for e, c in f.terms.items():
                v = tuple(c.payload[:j]) + (0,) * max(0, j - len(c.payload))
                for x, k in zip(point, e):
                    for _ in range(k):
                        v = _pi_mul(v, x, p, j)
                total = tuple((a + b) % p for a, b in zip(total, v))
            if not any(total):
                count += 1
        out.append(count)
    return out


def brute_valuation_masses(f, level, member=None):
    """Measures of { v(f) = j } for j < level, restricted by a membership test.

    ``member`` takes an integer point of (Z/p^level)^n; valuations of both
    the coordinates (below level) and f are determined at this precision.
    """
    p, n = f.ring.p, f.n
    modulus = p**level
    coeffs = {e: c.payload for e, c in f.terms.items()}
    hist = [0] * (level + 1)
    total_points = 0
    for point in itertools.product(range(modulus), repeat=n):
        if member is not None and not member(point):
            continue
        total_points += 1
        value = 0
        for e, c in coeffs.items():
            v = c
            for x, k in zip(point, e):
                v = v * pow(x, k, modulus)
            value += v
        value %= modulus
        vv = 0
        while vv < level and value % p == 0:
            value //= p
            vv += 1
        hist[vv] += 1
    scale = Fraction(1, modulus**n)
    return [hist[j] * scale for j in range(level)]


def int_valuation(x, p, cap):
    if x == 0:
        return cap
    v = 0
    while x % p == 0 and v < cap:
        x //= p
        v += 1
    return v


def evaluate(f, point):
    """f at a point of the ring, one term at a time."""
    if len(point) != f.n:
        raise ValueError("point length mismatch")
    total = f.ring.zero()
    for e, c in f.terms.items():
        v = c
        for x, k in zip(point, e):
            if k:
                v = v * x**k
        total = total + v
    return total


def evaluate_residue(fbar, point):
    """The residue polynomial fbar at a point of F_p^n, as an int in [0, p)."""
    total = 0
    for e, c in fbar.terms.items():
        v = c
        for x, k in zip(point, e):
            if k:
                v = v * pow(x, k, fbar.p) % fbar.p
        total += v
    return total % fbar.p


def residue_partial(fbar, var):
    """The partial derivative of a ResiduePoly in coordinate var."""
    acc = {}
    for e, c in fbar.terms.items():
        if e[var]:
            exps = e[:var] + (e[var] - 1,) + e[var + 1 :]
            acc[exps] = acc.get(exps, 0) + c * e[var]
    return ResiduePoly(fbar.p, fbar.n, acc)


def residue_gradient(fbar):
    return [residue_partial(fbar, i) for i in range(fbar.n)]


def poly_product(f, g):
    """The product of two MultiPolys over the same ring."""
    acc = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
    return MultiPoly(f.ring, f.n, acc)


def poly_times_pi(f, k):
    """pi^k times a MultiPoly, coefficient by coefficient."""
    return MultiPoly(f.ring, f.n, {e: c.times_pi(k) for e, c in f.terms.items()})


def residue_product(f, g):
    """The product of two ResiduePolys over the same F_p."""
    acc = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return ResiduePoly(f.p, f.n, acc)


def from_digits(ring, digits):
    """The characteristic-p element with pi-adic digits (c0, c1, ...)."""
    digits = [d % ring.p for d in digits]
    while digits and not digits[-1]:
        digits.pop()
    return LocalRingElement(ring, tuple(digits))


def region_points(region):
    """The residue points of a ResidueRegion, in lexicographic order."""
    return itertools.product(*(region.residues(i) for i in range(region.n)))


def int_poly(ring, n, terms):
    """The polynomial with integer coefficients {exponents: c} over ring."""
    return MultiPoly(ring, n, {e: ring.from_int(c) for e, c in terms.items()})


def random_poly(ring, n, rng, max_terms=4, max_exp=3, max_coeff=6):
    """Small random polynomial, nonzero, possibly with pi-content."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            e = tuple(rng.randint(0, max_exp) for _ in range(n))
            c = rng.randint(-max_coeff, max_coeff)
            if c:
                terms[e] = terms.get(e, 0) + c
        poly = int_poly(ring, n, terms)
        if not poly.is_zero():
            return poly


def tail_stays_above(shifted, e, node):
    """The reuse replay: whether a tail, moved onto node as shifted, keeps f's tree under node.

    shifted is the tail after the node's substitution and before its content
    e is taken out.  The tail must keep content above e at the node, and
    tau = pi^(-e) shifted, substituted by each child's centre and scaling,
    must keep content above the child's e, and so on down the subtree.  The
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
