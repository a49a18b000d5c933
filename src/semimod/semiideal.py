"""Finitely generated semiideals of the naturals.

A semiideal is the set of all sums of a finite list of positive generators
(plus 0).  Every invariant is read off one table on residues.  Scale the
generators by their gcd d (the period) and let a be the smallest scaled
generator; the Apéry table Ap[r] is the least scaled member congruent to r
modulo a.  Then n*d is a member iff n >= Ap[n mod a], the footing is
max(max Ap - a + 1, 1)*d, and the minimal generators are the generators
that lower an entry of the table when adjoined in ascending order.  The
table is built once, on first use, by the round-robin shortest-path
algorithm of Böcker and Lipták (2007) in O(a*k) steps for k generators.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence

from .core import DEFAULT_BUDGET, BudgetExceeded, OutOfRange, SemimodError, _echo, _require_ints


class EmptyIdeal(SemimodError):
    pass


class NotDivisible(SemimodError):
    pass


class Semiideal:
    """The semiideal generated by a list of positive integers.

    Building the Apéry table of a residues for k generators may cost at most
    ``budget`` steps (a*k); beyond that the first query raises
    BudgetExceeded.
    """

    def __init__(self, generators: Sequence[int], budget: int = DEFAULT_BUDGET):
        try:
            items = iter(generators)
        except TypeError:
            raise OutOfRange(f"generators {_echo(generators)} are not an iterable "
                             "of integers") from None
        generators = tuple(items)
        _require_ints(*generators)
        if any(g < 0 for g in generators):
            raise SemimodError("generators must be nonnegative")
        self.generators: tuple[int, ...] = tuple(sorted({g for g in generators if g != 0}))
        self._d = gcd(*self.generators)
        self._scaled = tuple(g // self._d for g in self.generators) if self._d else ()
        self._budget = budget
        self._apery: Optional[list[int]] = None
        self._minimal: tuple[int, ...] = ()

    def __repr__(self):
        gens = ", ".join(map(_echo, self.generators))
        return f"Semiideal({gens}{',' if len(self.generators) == 1 else ''})"

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def _require_nonempty(self):
        if self.is_zero:
            raise EmptyIdeal("the zero semiideal has no period or footing")

    def _table(self) -> list[int]:
        """The Apéry table of the scaled generators, built on first use.

        Generators are adjoined in ascending order.  One that is at least
        the table entry of its residue is a sum of smaller ones, so it is
        not minimal and leaves the table unchanged.  Adjoining g relaxes
        every orbit of r -> r + g (mod a) once around, starting from the
        orbit's least entry.
        """
        if self._apery is not None:
            return self._apery
        self._require_nonempty()
        a, *rest = self._scaled
        if (steps := a * len(self._scaled)) > self._budget:
            raise BudgetExceeded("Apéry table steps", steps, self._budget)
        unreached = float("inf")
        ap = [0] + [unreached] * (a - 1)
        minimal = [a]
        for g in rest:
            if g >= ap[g % a]:
                continue
            minimal.append(g)
            c = gcd(a, g)
            for r in range(c):
                n = min(ap[r::c])           # the orbit of r is r + c*Z mod a
                if n == unreached:
                    continue
                for _ in range(a // c - 1):
                    n += g
                    q = n % a
                    if ap[q] < n:
                        n = ap[q]
                    else:
                        ap[q] = n
        if unreached in ap:
            raise SemimodError("internal error: a residue is unreached although the gcd is 1")
        self._apery = ap
        self._minimal = tuple(g * self._d for g in minimal)
        return ap

    def contains(self, n: int) -> bool:
        _require_ints(n)
        if n < 0:
            raise SemimodError("membership is defined for nonnegative integers")
        if n == 0:
            return True
        if self.is_zero or n % self._d != 0:
            return False
        k = n // self._d
        ap = self._table()
        return k >= ap[k % len(ap)]

    def period(self) -> int:
        self._require_nonempty()
        return self._d

    def footing(self) -> int:
        """Least member from which the semiideal is an arithmetic tail.

        In the scaled ideal every k >= max Ap - a + 1 is a member (its
        residue's least member is at most k), while max Ap - a is not.
        """
        ap = self._table()
        return max(max(ap) - len(ap) + 1, 1) * self._d

    def perc(self) -> tuple[int, int]:
        """(footing, period) describing the periodic core."""
        return self.footing(), self.period()

    def minimal_generators(self) -> tuple[int, ...]:
        """The unique smallest generating system: the generators that are
        not sums of smaller ones."""
        self._table()
        return self._minimal

    def is_cyclic(self) -> bool:
        return len(self.minimal_generators()) == 1

    def to_json(self) -> dict:
        minimal = self.minimal_generators()
        return {
            "generators": list(self.generators),
            "period": self.period(),
            "footing": self.footing(),
            "minimal_generators": list(minimal),
            "cyclic": len(minimal) == 1,
        }


def footing_two_generators(a: int, b: int) -> int:
    """Closed form d*(a/d - 1)*(b/d - 1) for the two-generator footing.

    When one generator divides the other the ideal is cyclic and the
    formula degenerates to 0; the footing of a cyclic ideal is d itself,
    so that value is returned instead.
    """
    _require_ints(a, b)
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
    _require_ints(a, b)
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
    _require_ints(a, b, d)
    if d <= 0:
        raise SemimodError("d must be positive")
    if a % d or b % d:
        raise NotDivisible(f"{_echo(d)} must divide both {_echo(a)} and {_echo(b)}")
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
