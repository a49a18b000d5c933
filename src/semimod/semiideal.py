"""Finitely generated semiideals of the naturals.

A semiideal is the set of all sums of a finite list of positive generators
(plus 0).  Membership is decided by dynamic programming over indices scaled
by the period d = gcd of the generators; the table grows on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

from .core import SemimodError


class EmptyIdeal(SemimodError):
    pass


class PreconditionFailed(SemimodError):
    pass


class NotDivisible(SemimodError):
    pass


class Semiideal:
    """The semiideal generated by a list of positive integers."""

    def __init__(self, generators: Sequence[int]):
        gens = sorted({g for g in generators if g != 0})
        if any(g < 0 for g in generators):
            raise SemimodError("generators must be nonnegative")
        self.generators: tuple[int, ...] = tuple(gens)
        if gens:
            d = 0
            for g in gens:
                d = gcd(d, g)
            self._d = d
            self._scaled = tuple(g // d for g in gens)
        else:
            self._d = None
            self._scaled = ()
        # membership over scaled indices: _member[k] <=> k*d is a member
        self._member: list[bool] = [True]
        self._footing: Optional[int] = None

    def __repr__(self):
        return f"Semiideal{self.generators}"

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def _require_nonempty(self):
        if self.is_zero:
            raise EmptyIdeal("the zero semiideal has no period or footing")

    def ensure_computed_up_to(self, n: int) -> None:
        """Pre-extend the membership table to cover all queries <= n."""
        if self.is_zero:
            return
        top = n // self._d
        mem = self._member
        while len(mem) <= top:
            k = len(mem)
            mem.append(any(k >= g and mem[k - g] for g in self._scaled))

    def contains(self, n: int) -> bool:
        if n < 0:
            raise SemimodError("membership is defined for nonnegative integers")
        if n == 0:
            return True
        if self.is_zero or n % self._d != 0:
            return False
        self.ensure_computed_up_to(n)
        return self._member[n // self._d]

    def period(self) -> int:
        self._require_nonempty()
        return self._d

    def minimal_difference(self, window: int) -> int:
        """Brute-force smallest b - a over members 0 < a < b <= window."""
        self._require_nonempty()
        self.ensure_computed_up_to(window)
        members = [k * self._d for k in range(1, window // self._d + 1)
                   if self._member[k]]
        if len(members) < 2:
            raise PreconditionFailed("window holds fewer than two members")
        return min(b - a for a, b in zip(members, members[1:]))

    def footing(self) -> int:
        """Least member from which the semiideal is an arithmetic tail.

        Works in the period-1 rescaling: once e0 consecutive scaled members
        appear (e0 the smallest scaled generator), every later number is a
        member, so the scan terminates.
        """
        self._require_nonempty()
        if self._footing is not None:
            return self._footing
        e0 = self._scaled[0]
        run = 0
        k = 0
        while run < e0:
            k += 1
            self.ensure_computed_up_to(k * self._d)
            run = run + 1 if self._member[k] else 0
        start = k - e0 + 1
        while start > 1 and self._member[start - 1]:
            start -= 1
        self._footing = start * self._d
        return self._footing

    def perc(self) -> tuple[int, int]:
        """(footing, period) describing the periodic core."""
        return self.footing(), self.period()

    def minimal_generators(self) -> tuple[int, ...]:
        """The unique smallest generating system.

        Greedy: repeatedly adjoin the smallest member not generated so far,
        until all input generators are generated.
        """
        self._require_nonempty()
        d = self._d
        canon = [self.generators[0]]
        while True:
            sub = Semiideal(canon)
            if all(sub.contains(g) for g in self.generators):
                break
            nxt = None
            for n in range(d, self.generators[-1] + 1, d):
                if self.contains(n) and not sub.contains(n):
                    nxt = n
                    break
            if nxt is None:
                raise SemimodError("internal error: no member left to adjoin")
            canon.append(nxt)
        if len(canon) > canon[0] // d:
            raise SemimodError("internal error: more minimal generators than residues")
        return tuple(canon)

    def is_cyclic(self) -> bool:
        self._require_nonempty()
        return len(self.minimal_generators()) == 1

    def difference_witness_core(self, a: int, d: int, window: int = 50) -> int:
        """Start of a verified arithmetic progression of step d inside the ideal.

        Requires a and a + d to be members with a nonzero; returns
        c = d * a * (a + d) and checks c + n*d for n up to the window.
        """
        if a == 0 or not (self.contains(a) and self.contains(a + d)):
            raise PreconditionFailed(f"need nonzero members a={a} and a+d={a + d}")
        b = a + d
        c = d * a * b
        for n in range(window + 1):
            if not self.contains(c + n * d):
                raise SemimodError(f"verification failed at {c + n * d}")
        return c

    def to_json(self) -> dict:
        self._require_nonempty()
        return {
            "generators": list(self.generators),
            "period": self.period(),
            "footing": self.footing(),
            "minimal_generators": list(self.minimal_generators()),
            "cyclic": self.is_cyclic(),
        }


def period(M: Semiideal) -> int:
    return M.period()


def footing(M: Semiideal) -> int:
    return M.footing()


def perc(M: Semiideal) -> tuple[int, int]:
    return M.perc()


def contains(M: Semiideal, n: int) -> bool:
    return M.contains(n)


def minimal_generators(M: Semiideal) -> tuple[int, ...]:
    return M.minimal_generators()


def is_cyclic(M: Semiideal) -> bool:
    return M.is_cyclic()


def footing_two_generators(a: int, b: int) -> int:
    """Closed form d*(a/d - 1)*(b/d - 1) for the two-generator footing.

    When one generator divides the other the ideal is cyclic and the
    formula degenerates to 0; the footing of a cyclic ideal is d itself,
    so that value is returned instead.
    """
    if a <= 0 or b <= 0:
        raise SemimodError("generators must be positive")
    d = gcd(a, b)
    a2, b2 = a // d, b // d
    if a2 == 1 or b2 == 1:
        return d
    return d * (a2 - 1) * (b2 - 1)


def bezout_nonneg(a: int, b: int) -> Optional[tuple[int, int]]:
    """Nonnegative (r, s) with (a-1)(b-1) = r*a + s*b, or None if gcd > 1.

    Constructed from 1 = u*a - v*b with u > 0 and a > v >= 0 via
    r = u - 1, s = a - v - 1.
    """
    if a <= 0 or b <= 0:
        raise SemimodError("arguments must be positive")
    if gcd(a, b) != 1:
        return None
    if a == 1 or b == 1:
        return (0, 0)
    u = pow(a, -1, b)          # 0 < u < b since a, b > 1
    v = (u * a - 1) // b       # 0 <= v < a
    r, s = u - 1, a - v - 1
    if not (r >= 0 and s >= 0 and r * a + s * b == (a - 1) * (b - 1)):
        raise SemimodError(f"internal error: ({r}, {s}) does not solve the Bezout equation")
    return (r, s)


def bezout_nonneg_scaled(a: int, b: int, d: int) -> Optional[tuple[int, int]]:
    """Nonnegative (r, s) with d*(a/d - 1)*(b/d - 1) = r*a + s*b, or None."""
    if d <= 0:
        raise SemimodError("d must be positive")
    if a % d or b % d:
        raise NotDivisible(f"{d} must divide both {a} and {b}")
    if gcd(a, b) != d:
        return None
    return bezout_nonneg(a // d, b // d)


def bezout_exhaustive_search(a: int, b: int) -> Optional[tuple[int, int]]:
    """Independent bounded search for the same equation; test oracle."""
    target = (a - 1) * (b - 1)
    for r in range(target // a + 1):
        rest = target - r * a
        if rest % b == 0:
            return (r, rest // b)
    return None
