"""Exact coefficient rings for the two supported local fields.

The engine works over the ring of integers ``O_K`` of a local field ``K``
with prime residue field ``F_p``:

* characteristic 0: ``K = Q_p``, elements of ``O_K`` are represented by
  arbitrary-precision integers (the subring ``Z``) with the p-adic valuation;
* characteristic p: ``K = F_p((pi))``, elements are polynomials in the
  uniformizer ``pi`` over ``F_p``.  Inputs have finitely many terms and every
  engine operation (translation by lifted points, scaling by pi-powers,
  division by pi-powers) preserves polynomiality, so no truncation is needed.

Both representations are exact; nothing in this package is floating point.

Elements are immutable.  Each caches its pi-adic valuation in a slot that
the first valuation() fills.  When v is cached, times_pi(k) and
divide_by_uniformizer(k) give their results v + k and v - k, and the
division tests divisibility on v, so a coefficient that the engine only
shifts by powers of pi has its valuation computed once.  Every other
operation returns an element with a cold cache.  Equality and hashing read
only the ring and the payload, never the cache.
"""

from __future__ import annotations

import math
from typing import Tuple, Union

from .errors import InsufficientValuation

INFINITY = math.inf

DEFAULT_BUDGET = 10**8


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# Digit-tuple helpers for the characteristic-p representation.  A value is a
# trimmed tuple (c0, c1, ...) meaning sum c_k pi^k with c_k in [0, p).

def _trim(digits: Tuple[int, ...]) -> Tuple[int, ...]:
    k = len(digits)
    while k and digits[k - 1] == 0:
        k -= 1
    return digits[:k]


def _digit_add(a: Tuple[int, ...], b: Tuple[int, ...], p: int) -> Tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, d in enumerate(b):
        out[i] = (out[i] + d) % p
    return _trim(tuple(out))


def _digit_mul(a: Tuple[int, ...], b: Tuple[int, ...], p: int) -> Tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, da in enumerate(a):
        if da:
            for j, db in enumerate(b):
                out[i + j] += da * db
    return _trim(tuple(c % p for c in out))


def _deep_valuation(n: int, p: int) -> int:
    """v_p(n) for n != 0 in O(log v) big-integer divisions, not v.

    Strips p, p^2, p^4, ... while they divide, then halves back down.
    """
    if n % p:
        return 0
    q, e, v, powers = p, 1, 0, []
    while n % q == 0:
        n //= q
        v += e
        powers.append((q, e))
        q, e = q * q, 2 * e
    for q, e in reversed(powers):
        if n % q == 0:
            n //= q
            v += e
    return v


class LocalRing:
    """O_K for one of the two supported fields, fixed prime residue field F_p."""

    __slots__ = ("p", "positive_char")

    def __init__(self, p: int, positive_char: bool = False):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.positive_char = positive_char

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LocalRing)
            and self.p == other.p
            and self.positive_char == other.positive_char
        )

    def __hash__(self):
        return hash((self.p, self.positive_char))

    def __repr__(self):
        return f"LocalRing(p={self.p}, char={'p' if self.positive_char else 0})"

    def zero(self) -> "LocalRingElement":
        return LocalRingElement(self, () if self.positive_char else 0)

    def one(self) -> "LocalRingElement":
        return LocalRingElement(self, (1,) if self.positive_char else 1)

    def from_int(self, k: int) -> "LocalRingElement":
        """Image of the rational integer k in the ring."""
        if self.positive_char:
            return LocalRingElement(self, _trim((k % self.p,)))
        return LocalRingElement(self, k)

    def pi(self, k: int = 1) -> "LocalRingElement":
        """pi^k as a ring element (k >= 0)."""
        if k < 0:
            raise ValueError("negative uniformizer power")
        if self.positive_char:
            return LocalRingElement(self, (0,) * k + (1,))
        return LocalRingElement(self, self.p**k)


class LocalRingElement:
    """An element of O_K: an integer (char 0) or a polynomial in pi (char p)."""

    __slots__ = ("ring", "payload", "_valuation")

    def __init__(self, ring: LocalRing, payload: Union[int, Tuple[int, ...]]):
        self.ring = ring
        self.payload = payload
        self._valuation = None  # filled by the first valuation()

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.payload == 0 if not self.ring.positive_char else not self.payload

    def valuation(self) -> Union[int, float]:
        """Exact pi-adic order; INFINITY for zero.  Computed once, then cached."""
        v = self._valuation
        if v is None:
            if self.is_zero():
                v = INFINITY
            elif self.ring.positive_char:
                digits = self.payload
                v = 0
                while digits[v] == 0:
                    v += 1
            else:
                v = _deep_valuation(abs(self.payload), self.ring.p)
            self._valuation = v
        return v

    def reduce(self) -> int:
        """Image in the residue field F_p, as an integer in [0, p)."""
        if self.ring.positive_char:
            return self.payload[0] if self.payload else 0
        return self.payload % self.ring.p

    def divide_by_uniformizer(self, k: int) -> "LocalRingElement":
        """The exact quotient by pi^k (k >= 0); requires valuation >= k.

        A cached valuation v decides divisibility and gives the quotient v - k.
        """
        if k < 0:
            raise ValueError("negative uniformizer power")
        if k == 0 or self.is_zero():
            return self
        v = self._valuation
        if v is not None and v < k:
            raise InsufficientValuation(f"valuation < {k}")
        if self.ring.positive_char:
            if v is None and any(self.payload[:k]):
                raise InsufficientValuation(f"valuation < {k}")
            out = LocalRingElement(self.ring, self.payload[k:])
        else:
            q = self.ring.p**k
            if v is None and self.payload % q:
                raise InsufficientValuation(f"valuation < {k}")
            out = LocalRingElement(self.ring, self.payload // q)
        if v is not None:
            out._valuation = v - k
        return out

    def times_pi(self, k: int) -> "LocalRingElement":
        """pi^k times the element (k >= 0): p^k in char 0, k zero digits in char p.

        A cached valuation v gives the product v + k.
        """
        if k < 0:
            raise ValueError("negative uniformizer power")
        if k == 0 or self.is_zero():
            return self
        if self.ring.positive_char:
            out = LocalRingElement(self.ring, (0,) * k + self.payload)
        else:
            out = LocalRingElement(self.ring, self.payload * self.ring.p**k)
        if self._valuation is not None:
            out._valuation = self._valuation + k
        return out

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "LocalRingElement":
        if isinstance(other, LocalRingElement):
            if other.ring != self.ring:
                raise ValueError("mixed rings")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.ring.positive_char:
            return LocalRingElement(self.ring, _digit_add(self.payload, other.payload, self.ring.p))
        return LocalRingElement(self.ring, self.payload + other.payload)

    __radd__ = __add__

    def __neg__(self):
        if self.ring.positive_char:
            return LocalRingElement(self.ring, tuple((-d) % self.ring.p for d in self.payload))
        return LocalRingElement(self.ring, -self.payload)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.ring.positive_char:
            return LocalRingElement(self.ring, _digit_mul(self.payload, other.payload, self.ring.p))
        return LocalRingElement(self.ring, self.payload * other.payload)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.ring.from_int(other)
        return (
            isinstance(other, LocalRingElement)
            and self.ring == other.ring
            and self.payload == other.payload
        )

    def __hash__(self):
        return hash((self.ring, self.payload))

    def render(self) -> str:
        if not self.ring.positive_char:
            return str(self.payload)
        if self.is_zero():
            return "0"
        parts = []
        for k, d in enumerate(self.payload):
            if d == 0:
                continue
            if k == 0:
                parts.append(str(d))
            else:
                u = "u" if k == 1 else f"u^{k}"
                parts.append(u if d == 1 else f"{d}*{u}")
        return " + ".join(parts)

    def __repr__(self):
        return self.render()

    def to_json(self):
        """Integer in char 0, digit list in char p."""
        return list(self.payload) if self.ring.positive_char else self.payload
