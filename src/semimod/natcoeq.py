"""Congruences and coequalizers on the natural numbers.

Quotients of the naturals by a generated congruence are either the naturals
themselves or a cyclic monoid C(i, p): elements 0..i+p-1 where the tail
from i on wraps with period p.  The solver guesses the candidate (i, p)
from the seed pairs and then certifies it both ways:

  certificate A: the candidate projection sends every seed pair to equal
  values, so C(i, p) receives a coequalizing map (the quotient is at least
  this coarse bound from above);

  certificate B: an explicit chain of translated seed instances merging
  i with i+p, replayable step by step (the quotient is at least this
  coarse from below).

Since every translated seed instance has both members >= i and a
difference divisible by p, the two certificates pin the quotient exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

from .core import FiniteCommMonoid, SemimodError, validate_monoid
from . import semiideal as _semiideal
from .semiideal import EmptyIdeal


class BoundCapExceeded(SemimodError):
    def __init__(self, candidate: "CyclicMonoid", cap: int):
        super().__init__(
            f"no certificate within saturation bound {cap}; "
            f"unverified candidate C({candidate.index},{candidate.period})")
        self.candidate = candidate
        self.cap = cap


@dataclass(frozen=True)
class CyclicMonoid:
    index: int
    period: int

    @property
    def size(self) -> int:
        return self.index + self.period

    def project(self, n: int) -> int:
        """Class of the natural number n."""
        if n < self.index:
            return n
        return self.index + (n - self.index) % self.period

    def to_monoid(self, labels: bool = True) -> FiniteCommMonoid:
        size = self.size
        table = [[self.project(a + b) for b in range(size)] for a in range(size)]
        labs = tuple(f"{k}̄" for k in range(size)) if labels else None
        return validate_monoid(table, labs)


# one chain step: the endpoints u, v with {u, v} = {a + k, b + k}
ChainStep = tuple[int, int, tuple[int, int], int]


@dataclass(frozen=True)
class NatQuotient:
    pairs: tuple[tuple[int, int], ...]
    result: Optional[CyclicMonoid]        # None: the quotient is the naturals
    cert_a: bool = False
    cert_b: tuple[ChainStep, ...] = ()
    bound_used: int = 0

    @property
    def is_symbolic_nat(self) -> bool:
        return self.result is None

    def verify_certificate_a(self) -> bool:
        if self.result is None:
            return all(a == b for a, b in self.pairs)
        c = self.result
        return all(c.project(a) == c.project(b) for a, b in self.pairs)

    def verify_certificate_b(self) -> bool:
        """Replay the merge chain from i to i+p through translated seeds."""
        if self.result is None:
            return not self.cert_b
        c = self.result
        if c.index == 0 and c.period == 0:
            return False
        at = c.index
        for u, v, (a, b), k in self.cert_b:
            if {u, v} != {a + k, b + k} or (a, b) not in self.pairs:
                return False
            if u != at:
                return False
            at = v
        return at == c.index + c.period

    def verify(self) -> bool:
        return self.verify_certificate_a() and self.verify_certificate_b()

    def to_json(self) -> dict:
        if self.result is None:
            return {"result": "N0", "pairs": [list(p) for p in self.pairs]}
        M = self.result.to_monoid(labels=False)
        return {
            "index": self.result.index,
            "period": self.result.period,
            "table": [list(row) for row in M.add],
            "certA": self.verify_certificate_a(),
            "certB": [[u, v, [a, b], k] for u, v, (a, b), k in self.cert_b],
        }


class _ProofForest:
    """Union-find that records, per merge, which seed instance caused it."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        # proof edges: node -> (other node, seed, shift)
        self.proof_parent: list[Optional[int]] = [None] * n
        self.proof_label: list[Optional[tuple[tuple[int, int], int]]] = [None] * n

    def find(self, x: int) -> int:
        p = self.parent
        r = x
        while p[r] != r:
            r = p[r]
        while p[x] != r:
            p[x], x = r, p[x]
        return r

    def _reroot(self, a: int) -> None:
        """Reverse the proof edges along the path from a to its tree root."""
        edges = []
        node = a
        while self.proof_parent[node] is not None:
            edges.append((node, self.proof_parent[node], self.proof_label[node]))
            node = self.proof_parent[node]
        for child, par, label in edges:
            self.proof_parent[par] = child
            self.proof_label[par] = label
        self.proof_parent[a] = None
        self.proof_label[a] = None

    def union(self, a: int, b: int, seed: tuple[int, int], shift: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self._reroot(a)
        self.proof_parent[a] = b
        self.proof_label[a] = (seed, shift)
        self.parent[ra] = rb
        return True

    def chain(self, x: int, y: int) -> list[ChainStep]:
        """Path x -> y in the proof forest, as replayable steps."""
        def path_to_root(v):
            out = [v]
            while self.proof_parent[v] is not None:
                v = self.proof_parent[v]
                out.append(v)
            return out
        px, py = path_to_root(x), path_to_root(y)
        if px[-1] != py[-1]:
            raise SemimodError("nodes are not connected")
        sx, sy = set(px), None
        # lowest common node
        common = next(v for v in py if v in sx)
        steps: list[ChainStep] = []
        v = x
        while v != common:
            w = self.proof_parent[v]
            seed, k = self.proof_label[v]
            steps.append((v, w, seed, k))
            v = w
        tail: list[ChainStep] = []
        v = y
        while v != common:
            w = self.proof_parent[v]
            seed, k = self.proof_label[v]
            tail.append((w, v, seed, k))
            v = w
        steps.extend(reversed(tail))
        return steps


def nat_congruence_quotient(pairs: Sequence[tuple[int, int]],
                            bound_cap: int = 10**6) -> NatQuotient:
    """Quotient of the naturals by the congruence generated by the pairs."""
    norm = []
    for a, b in pairs:
        if a < 0 or b < 0:
            raise SemimodError("pairs must be nonnegative")
        if a != b:
            norm.append((min(a, b), max(a, b)))
    all_pairs = tuple((min(a, b), max(a, b)) for a, b in pairs)
    if not norm:
        return NatQuotient(all_pairs, None)

    i = min(a for a, b in norm)
    p = 0
    for a, b in norm:
        p = gcd(p, b - a)
    candidate = CyclicMonoid(i, p)

    maxb = max(b for a, b in norm)
    if bound_cap < max(maxb, i + p):
        raise BoundCapExceeded(candidate, bound_cap)
    bound = 2 * (maxb + i + p)
    while True:
        bound = min(bound, bound_cap)
        forest = _ProofForest(bound + 1)
        for a, b in norm:
            for k in range(bound - b + 1):
                forest.union(a + k, b + k, (a, b), k)
        if forest.find(i) == forest.find(i + p):
            chain = forest.chain(i, i + p)
            q = NatQuotient(tuple(norm), candidate, cert_a=True,
                            cert_b=tuple(chain), bound_used=bound)
            if not q.verify():
                raise SemimodError("internal error: certificate replay failed")
            return q
        if bound >= bound_cap:
            raise BoundCapExceeded(candidate, bound_cap)
        bound *= 2


def coequalizer_nat(a: int, b: int, bound_cap: int = 10**6) -> NatQuotient:
    """Coequalizer of the multiplication maps a* and b* on the naturals.

    The single seed pair (a, b) generates the whole congruence: the pair
    (an, bn) follows from n translated copies chained together.
    """
    if a < 0 or b < 0:
        raise SemimodError("multipliers must be nonnegative")
    if a == b:
        return NatQuotient(((a, b),), None)
    lo, hi = min(a, b), max(a, b)
    q = nat_congruence_quotient([(lo, hi)], bound_cap)
    # sanity: the projection coequalizes (an, bn) for small n as well
    c = q.result
    if not all(c.project(a * n) == c.project(b * n) for n in range(11)):
        raise SemimodError("internal error: the projection does not coequalize a*n and b*n")
    return q


def naive_nat_classes(a: int, b: int, probe_limit: int = 20,
                      witness_bound: Optional[int] = None) -> list[list[int]]:
    """Census of the one-step relation m + an + bn' = m' + an' + bn.

    Decided by bounded witness search over n, n'; returns the classes of
    {0..probe_limit} sorted by smallest member.
    """
    if a == b:
        raise SemimodError("the multipliers must differ")
    W = witness_bound if witness_bound is not None else probe_limit + max(a, b) + 2
    parent = list(range(probe_limit + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in range(probe_limit + 1):
        for m2 in range(m + 1, probe_limit + 1):
            found = False
            for n in range(W):
                for n2 in range(W):
                    if m + a * n + b * n2 == m2 + a * n2 + b * n:
                        found = True
                        break
                if found:
                    break
            if found:
                ra, rb = find(m), find(m2)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

    buckets: dict[int, list[int]] = {}
    for m in range(probe_limit + 1):
        buckets.setdefault(find(m), []).append(m)
    return [buckets[r] for r in sorted(buckets)]


@dataclass(frozen=True)
class BourneNatQuotient:
    generators: tuple[int, ...]
    modulus: int
    quotient: CyclicMonoid                      # C(0, d), the group Z/d
    witnesses: tuple[tuple[int, tuple[int, int]], ...]
    # (n, (a, b)): members a, b of the ideal with n + a = b, certifying n ~ 0

    def verify(self) -> bool:
        M = _semiideal.Semiideal(self.generators)
        d = self.modulus
        if d != M.period():
            return False
        for n, (a, b) in self.witnesses:
            if n % d != 0 or n + a != b:
                return False
            if not (M.contains(a) and M.contains(b)):
                return False
        return True


def bourne_nat_quotient(generators: Sequence[int],
                        witness_multiples: int = 10) -> BourneNatQuotient:
    """The quotient of the naturals by a semiideal: the group Z/d.

    Certifies n ~ 0 for the first few positive multiples n of d by
    producing explicit members a, b of the ideal with n + a = b.
    """
    gens = tuple(sorted({g for g in generators if g != 0}))
    if not gens:
        raise EmptyIdeal("need at least one nonzero generator")
    M = _semiideal.Semiideal(gens)
    d = M.period()
    c = M.footing()
    witnesses = []
    for t in range(1, witness_multiples + 1):
        n = t * d
        # a = rd in the periodic core with n + rd in the core too
        a = c if c >= d else c  # the footing itself works: both in the core
        b = n + a
        if not (M.contains(a) and M.contains(b)):
            raise SemimodError(f"internal error: witness ({a}, {b}) is not in the ideal")
        witnesses.append((n, (a, b)))
    out = BourneNatQuotient(gens, d, CyclicMonoid(0, d), tuple(witnesses))
    if not out.verify():
        raise SemimodError("internal error: the Bourne quotient does not verify")
    return out
