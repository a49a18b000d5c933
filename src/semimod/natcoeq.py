"""Congruences and coequalizers on the naturals.

Quotients of the naturals by a generated congruence are either the naturals
themselves or a cyclic monoid C(i, p) (`core.CyclicMonoid`, the type of
every monogenic monoid here): elements 0..i+p-1 where the tail from i on
wraps with period p.  For seed pairs (a_j, b_j) with a_j < b_j,
i is the least a_j and p the gcd of the differences, and the solver
certifies that candidate both ways:

  certificate A: the candidate projection sends every seed pair to equal
  values, so C(i, p) receives a coequalizing map (the quotient is at least
  this coarse bound from above);

  certificate B: an explicit chain of translated seed instances merging
  i with i+p, replayable step by step (the quotient is at least this
  coarse from below).  It is built directly: climb from i until every
  seed applies, walk a Bezout combination of the seed differences
  (extended Euclid), then repeat the climb downwards, shifted by p.

Since every translated seed instance has both members >= i and a
difference divisible by p, the two certificates pin the quotient exactly.

The quotient of the naturals by a semiideal K, Bourne's congruence
m ~ m' iff m + a = m' + b for some a, b in K, is one such quotient: that
of the pairs (0, c) and (0, c + d), for the footing c and the period d of
K.  Both c and c + d are members, so the Bourne congruence holds both
pairs and contains the congruence they generate.  Every member is a
multiple of d, so m + a = m' + b gives m = m' mod d: the Bourne congruence
lies inside congruence mod d.  And congruence mod d is the one the pairs
generate, for the certificates pin their quotient as C(0, d), with a
chain of at most two steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional, Sequence

from .core import (DEFAULT_BUDGET, BudgetExceeded, CyclicMonoid, OutOfRange, SemimodError,
                   _echo, _require_ints, _well_formed)
from . import semiideal as _semiideal


class BoundCapExceeded(BudgetExceeded):
    def __init__(self, candidate: CyclicMonoid, spent: int, cap: int):
        super().__init__("certificate B reach", spent, cap)
        self.candidate = candidate
        self.cap = cap


# one chain step: the endpoints u, v with {u, v} = {a + k, b + k}
ChainStep = tuple[int, int, tuple[int, int], int]


@dataclass(frozen=True)
class NatQuotient:
    pairs: tuple[tuple[int, int], ...]
    result: Optional[CyclicMonoid]        # None: the quotient is the naturals
    cert_b: tuple[ChainStep, ...] = ()
    bound_used: int = 0

    @property
    def is_symbolic_nat(self) -> bool:
        return self.result is None

    def verify_certificate_a(self) -> bool:
        if self.result is None:
            return all(a == b for a, b in self.pairs)
        c = self.result
        return _well_formed(c) and all(c.project(a) == c.project(b) for a, b in self.pairs)

    cert_a = property(verify_certificate_a)     # replayed on each read, never stored

    def verify_certificate_b(self) -> bool:
        """Replay the merge chain from i to i+p through translated seeds."""
        if self.result is None:
            return not self.cert_b
        c = self.result
        if not _well_formed(c):
            return False
        pairs = set(self.pairs)
        at = c.index
        for u, v, (a, b), k in self.cert_b:
            if (u != at or k < 0 or (a, b) not in pairs
                    or not (u - k == a and v - k == b or u - k == b and v - k == a)):
                return False
            at = v
        return at == c.index + c.period

    def verify(self) -> bool:
        return self.verify_certificate_a() and self.verify_certificate_b()

    def to_json(self) -> dict:
        if self.result is None:
            return {"result": "N0", "pairs": [list(p) for p in self.pairs]}
        return self._json_fields(self.result._rows())

    def _json_fields(self, table) -> dict:
        """The JSON fields of a C(i, p) answer, in order, with the given table."""
        return {
            "index": self.result.index,
            "period": self.result.period,
            "table": table,
            "certA": self.verify_certificate_a(),
            "certB": [[u, v, [a, b], k] for u, v, (a, b), k in self.cert_b],
        }


def _bezout(diffs: Sequence[int]) -> list[int]:
    """Coefficients c with sum(c[j] * diffs[j]) = gcd(diffs).

    Extended Euclid on all the differences at once: every value is reduced
    modulo the smallest nonzero one, carrying its coefficient vector, until
    one value, the gcd, is left.  The coefficients are of the order of
    max(diffs) / gcd; sum(|c|) is the number of steps in the walk.
    """
    n = len(diffs)
    vals = list(diffs)
    vecs = [[int(j == l) for l in range(n)] for j in range(n)]
    live = list(range(n))
    while len(live) > 1:
        m = min(live, key=vals.__getitem__)
        for j in live:
            if j != m:
                q = vals[j] // vals[m]
                vals[j] -= q * vals[m]
                vecs[j] = [x - q * y for x, y in zip(vecs[j], vecs[m])]
        live = [j for j in live if vals[j]]
    return vecs[live[0]]


def _certificate_b(seeds: Sequence[tuple[int, int]], i: int, p: int,
                   bound_cap: int) -> tuple[list[ChainStep], int]:
    """A chain of translated seeds from i to i + p, and the largest number it touches.

    The chain climbs from i, each time by the largest difference of a seed
    that applies, to a floor at or above every seed's smaller member, from
    where every seed applies in both directions.  A Bezout combination of
    the seed differences then walks from the floor to the floor + p: a down
    step whenever one stays at or above the floor, else an up step, each by
    the first seed in seed order with such steps left.  The climb, shifted
    by p and reversed, brings the walk down to i + p.
    """
    seeds = sorted(set(seeds))
    top = max(a for a, _ in seeds)
    if top + p > bound_cap:         # the walk ends at floor + p >= top + p
        raise BoundCapExceeded(CyclicMonoid(i, p), top + p, bound_cap)
    climb: list[ChainStep] = []
    at = i
    while at < top:
        a, b = max((s for s in seeds if s[0] <= at), key=lambda s: s[1] - s[0])
        climb.append((at, at + b - a, (a, b), at - a))
        at += b - a
    floor = peak = at
    walk: list[ChainStep] = []
    # [seed, difference, steps left] in seed order, by the sign of the seed's coefficient
    downs, ups = [], []
    for s, c in zip(seeds, _bezout([b - a for a, b in seeds])):
        if c:
            (ups if c > 0 else downs).append([s, s[1] - s[0], abs(c)])
    while downs or ups:
        for todo in downs:
            if at - todo[1] >= floor:
                side, to = downs, at - todo[1]
                walk.append((at, to, todo[0], to - todo[0][0]))
                break
        else:
            todo = ups[0]
            side, to = ups, at + todo[1]
            walk.append((at, to, todo[0], at - todo[0][0]))
            if to > peak:
                peak = to
        at = to
        todo[2] -= 1
        if not todo[2]:
            side.remove(todo)
    if peak > bound_cap:
        raise BoundCapExceeded(CyclicMonoid(i, p), peak, bound_cap)
    descent = [(v + p, u + p, s, k + p) for u, v, s, k in reversed(climb)]
    return climb + walk + descent, peak


def nat_congruence_quotient(pairs: Iterable[tuple[int, int]],
                            bound_cap: int = DEFAULT_BUDGET) -> NatQuotient:
    """Quotient of the naturals by the congruence generated by the pairs.

    The pairs may be any iterable; they are read once, and each must be a
    list or tuple of two integers >= 0 (else `OutOfRange`).  Certificate B
    touches no number above bound_cap, an integer >= 0 (else `OutOfRange`,
    checked first, `DEFAULT_BUDGET` by default); if it would, this raises
    `BoundCapExceeded` for the unverified candidate, phase "certificate B reach".
    """
    if type(bound_cap) is not int or bound_cap < 0:
        raise OutOfRange(f"bound cap {_echo(bound_cap)} is not an integer >= 0")
    all_pairs = []
    for pair in pairs:
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(type(v) is int and v >= 0 for v in pair)):
            raise OutOfRange(f"pair {_echo(pair)} is not two integers >= 0")
        all_pairs.append((min(pair), max(pair)))
    norm = [(a, b) for a, b in all_pairs if a != b]
    if not norm:
        return NatQuotient(tuple(all_pairs), None)

    i = min(a for a, b in norm)
    p = gcd(*(b - a for a, b in norm))
    chain, peak = _certificate_b(norm, i, p, bound_cap)
    q = NatQuotient(tuple(norm), CyclicMonoid(i, p), cert_b=tuple(chain), bound_used=peak)
    if not q.verify():
        raise SemimodError("internal error: certificate replay failed")
    return q


def coequalizer_nat(a: int, b: int, bound_cap: int = DEFAULT_BUDGET) -> NatQuotient:
    """Coequalizer of the multiplication maps a* and b* on the naturals.

    The single seed pair (a, b) generates the whole congruence: the pair
    (an, bn) follows from n translated copies chained together.
    """
    q = nat_congruence_quotient([(a, b)], bound_cap)
    # sanity: the projection coequalizes (an, bn) for small n as well
    c = q.result
    if c is not None and not all(c.project(a * n) == c.project(b * n) for n in range(11)):
        raise SemimodError("internal error: the projection does not coequalize a*n and b*n")
    return q


def naive_nat_classes(a: int, b: int, probe_limit: int = 20) -> list[list[int]]:
    """Census of the one-step relation m + an + bn' = m' + an' + bn.

    The relation reads m - m' = (a - b)(n' - n), so m and m' are related
    exactly when they agree modulo d = |a - b|, with the witness
    n' - n = (m - m') / (a - b).  Unlike the coequalizer, it is already an
    equivalence, and its classes on {0..probe_limit} are the residues mod d,
    sorted by smallest member.  Each argument is an int (else `OutOfRange`).
    """
    _require_ints(a, b, probe_limit)
    if a < 0 or b < 0:
        raise SemimodError("multipliers must be nonnegative")
    if a == b:
        raise SemimodError("the multipliers must differ")
    d = abs(a - b)
    return [list(range(r, probe_limit + 1, d)) for r in range(min(d, probe_limit + 1))]


def bourne_nat_quotient(generators: Sequence[int]) -> NatQuotient:
    """The quotient of the naturals by the semiideal K of the generators: Z/d.

    With c the footing and d the period of K, it is the `NatQuotient` of the
    pairs (0, c) and (0, c + d), whose certificates pin C(0, d).  That is the
    Bourne congruence (m ~ m' iff m + a = m' + b for some a, b in K): c and
    c + d are members, so the Bourne congruence holds both pairs, and every
    member is a multiple of d, so m ~ m' gives m = m' mod d.  A generator
    that is not an int raises `OutOfRange`, and the zero semiideal
    `EmptyIdeal`.
    """
    K = _semiideal.Semiideal(generators)
    c, d = K.perc()
    if not (K.contains(c) and K.contains(c + d)):
        raise SemimodError(f"internal error: {_echo(c)} or {_echo(c + d)} is not a member "
                           f"of {K}")
    return nat_congruence_quotient([(0, c), (0, c + d)], bound_cap=c + d)
