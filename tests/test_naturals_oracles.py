"""The naturals layer against the brute-force algorithms it replaced.

``DPSemiideal`` decides membership by dynamic programming over the scaled
naturals and scans for the footing; ``forest_quotient`` saturates the seed
pairs over [0, bound] in a proof-recording union-find, doubling the bound
until i and i + p merge, and reads index and period off the classes.
Both cost time linear in the size of the numbers, so they serve only as
oracles for the residue-based ``Semiideal`` and ``nat_congruence_quotient``.
``certificate_b_by_generators`` is the Bezout walk choosing each step by a
scan over a dict of remaining coefficients, the reference for the walk in
``_certificate_b``.  ``replay_by_sets`` replays a chain
with a set of endpoints per step and a scan of the seed tuple, the
reference for ``NatQuotient.verify_certificate_b``.
"""

import random
from collections import Counter
from dataclasses import replace
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semimod.natcoeq import (
    BoundCapExceeded,
    CyclicMonoid,
    NatQuotient,
    _bezout,
    _certificate_b,
    nat_congruence_quotient,
)
from semimod.semiideal import Semiideal


class DPSemiideal:
    """Membership table over scaled indices, grown on demand."""

    def __init__(self, generators):
        self.generators = tuple(sorted({g for g in generators if g}))
        self.d = gcd(*self.generators)
        self.scaled = [g // self.d for g in self.generators]
        self.member = [True]

    def _grow(self, top):
        mem = self.member
        while len(mem) <= top:
            k = len(mem)
            mem.append(any(k >= g and mem[k - g] for g in self.scaled))

    def contains(self, n):
        if n == 0:
            return True
        if n % self.d:
            return False
        self._grow(n // self.d)
        return self.member[n // self.d]

    def footing(self):
        """Once e0 consecutive scaled members appear (e0 the smallest scaled
        generator), every later number is a member."""
        e0, run, k = self.scaled[0], 0, 0
        while run < e0:
            k += 1
            self._grow(k)
            run = run + 1 if self.member[k] else 0
        start = k - e0 + 1
        while start > 1 and self.member[start - 1]:
            start -= 1
        return start * self.d

    def minimal_generators(self):
        """Greedy: adjoin the smallest member not generated so far."""
        canon = [self.generators[0]]
        while True:
            sub = DPSemiideal(canon)
            if all(sub.contains(g) for g in self.generators):
                return tuple(canon)
            canon.append(next(n for n in range(self.d, self.generators[-1] + 1, self.d)
                              if self.contains(n) and not sub.contains(n)))


class ProofForest:
    """Union-find that records, per merge, which seed instance caused it."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.proof_parent = [None] * n
        self.proof_label = [None] * n

    def find(self, x):
        p = self.parent
        r = x
        while p[r] != r:
            r = p[r]
        while p[x] != r:
            p[x], x = r, p[x]
        return r

    def _reroot(self, a):
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

    def union(self, a, b, seed, shift):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        self._reroot(a)
        self.proof_parent[a] = b
        self.proof_label[a] = (seed, shift)
        self.parent[ra] = rb

    def chain(self, x, y):
        """Path x -> y in the proof forest, as replayable steps."""
        def path_to_root(v):
            out = [v]
            while self.proof_parent[v] is not None:
                v = self.proof_parent[v]
                out.append(v)
            return out
        sx = set(path_to_root(x))
        common = next(v for v in path_to_root(y) if v in sx)
        steps, tail = [], []
        v = x
        while v != common:
            w = self.proof_parent[v]
            seed, k = self.proof_label[v]
            steps.append((v, w, seed, k))
            v = w
        v = y
        while v != common:
            w = self.proof_parent[v]
            seed, k = self.proof_label[v]
            tail.append((w, v, seed, k))
            v = w
        return steps + tail[::-1]


def forest_quotient(pairs):
    """The quotient saturated over a doubling bound, or None for the naturals.

    Returns a NatQuotient whose index and period are read off the classes:
    the least number with a class-mate, and the least distance to one.
    """
    norm = [(min(a, b), max(a, b)) for a, b in pairs if a != b]
    if not norm:
        return None
    i = min(a for a, _ in norm)
    p = gcd(*(b - a for a, b in norm))
    bound = 2 * (max(b for _, b in norm) + i + p)
    while True:
        forest = ProofForest(bound + 1)
        for a, b in norm:
            for k in range(bound - b + 1):
                forest.union(a + k, b + k, (a, b), k)
        if forest.find(i) == forest.find(i + p):
            break
        bound *= 2
    roots = [forest.find(n) for n in range(bound + 1)]
    sizes = Counter(roots)
    index = next(n for n, r in enumerate(roots) if sizes[r] > 1)
    period = next(q for q in range(1, bound - index + 1) if roots[index + q] == roots[index])
    return NatQuotient(tuple(norm), CyclicMonoid(index, period),
                       cert_b=tuple(forest.chain(index, index + period)), bound_used=bound)


def certificate_b_by_generators(seeds, i, p, bound_cap):
    """Reference for `_certificate_b`: each walk step taken by the first
    remaining seed, in seed order, that steps down to at or above the floor,
    else by the first with steps up left."""
    seeds = sorted(set(seeds))
    top = max(a for a, _ in seeds)
    if top + p > bound_cap:
        raise BoundCapExceeded(CyclicMonoid(i, p), top + p, bound_cap)
    climb = []
    at = i
    while at < top:
        a, b = max((s for s in seeds if s[0] <= at), key=lambda s: s[1] - s[0])
        climb.append((at, at + b - a, (a, b), at - a))
        at += b - a
    floor = peak = at
    walk = []
    todo = {s: c for s, c in zip(seeds, _bezout([b - a for a, b in seeds])) if c}
    while todo:
        seed = next((s for s, c in todo.items() if c < 0 and at - (s[1] - s[0]) >= floor),
                    None) or next(s for s, c in todo.items() if c > 0)
        sign = 1 if todo[seed] > 0 else -1
        to = at + sign * (seed[1] - seed[0])
        walk.append((at, to, seed, min(at, to) - seed[0]))
        at, peak = to, max(peak, to)
        todo[seed] -= sign
        if not todo[seed]:
            del todo[seed]
    if peak > bound_cap:
        raise BoundCapExceeded(CyclicMonoid(i, p), peak, bound_cap)
    descent = [(v + p, u + p, s, k + p) for u, v, s, k in reversed(climb)]
    return climb + walk + descent, peak


def certificate_outcome(certify, seeds, i, p, bound_cap):
    try:
        return certify(seeds, i, p, bound_cap)
    except BoundCapExceeded as e:
        return type(e), str(e), e.candidate, e.phase, e.spent, e.limit, e.cap


def test_certificate_b_walk_matches_the_generator_scan():
    rng = random.Random(2024)
    long_walks = 0
    for _ in range(200):
        seeds = []
        for _ in range(rng.randint(1, 4)):
            b = rng.randint(1, 60000)
            seeds.append((rng.randrange(b), b))
        i, p = min(a for a, _ in seeds), gcd(*(b - a for a, b in seeds))
        chain, peak = certificate_b_by_generators(seeds, i, p, 10**6)
        long_walks += len(chain) > 500
        # below the climb's top + p, below the walk's peak, and at it
        top = max(a for a, _ in seeds)
        for cap in (top + p - 1, peak - 1, peak):
            assert (certificate_outcome(_certificate_b, seeds, i, p, cap)
                    == certificate_outcome(certificate_b_by_generators, seeds, i, p, cap))
    assert long_walks > 10


@st.composite
def generator_sets(draw):
    """1-4 generators, some with duplicates, a common factor, or a generator
    dividing another."""
    gens = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    factor = draw(st.integers(1, 6))
    gens = [g * factor for g in gens]
    if draw(st.booleans()):
        gens.append(gens[0])
    if draw(st.booleans()):
        gens.append(gens[-1] * draw(st.integers(2, 5)))
    return gens


class TestSemiidealAgainstDP:
    @given(generator_sets())
    @settings(max_examples=300, deadline=None)
    def test_invariants_match(self, gens):
        M, dp = Semiideal(gens), DPSemiideal(gens)
        assert M.footing() == dp.footing()
        assert M.minimal_generators() == dp.minimal_generators()
        assert M.is_cyclic() == (len(dp.minimal_generators()) == 1)
        top = dp.footing() + 2 * max(gens)
        assert [M.contains(n) for n in range(top)] == [dp.contains(n) for n in range(top)]

    @pytest.mark.parametrize("gens", [(7,), (4, 4), (6, 12), (6, 10, 15), (30, 42, 70, 105),
                                      (12, 13, 22, 31), (5, 8, 10, 16, 24)])
    def test_known_sets(self, gens):
        M, dp = Semiideal(gens), DPSemiideal(gens)
        assert (M.footing(), M.minimal_generators()) == (dp.footing(), dp.minimal_generators())
        assert all(M.contains(n) == dp.contains(n) for n in range(3 * dp.footing() + 10))


pair_lists = st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), min_size=1, max_size=4)


class TestQuotientAgainstProofForest:
    @given(pair_lists)
    @settings(max_examples=300, deadline=None)
    def test_index_and_period_match(self, pairs):
        q, oracle = nat_congruence_quotient(pairs), forest_quotient(pairs)
        if oracle is None:
            assert q.is_symbolic_nat and q.verify()
            return
        assert (q.result.index, q.result.period) == (oracle.result.index, oracle.result.period)
        assert oracle.verify()

    @given(pair_lists)
    @example([(8, 13), (18, 37), (16, 48)])     # the climb ends exactly at 18
    @settings(max_examples=300, deadline=None)
    def test_certificate_replays_within_bound_used(self, pairs):
        q = nat_congruence_quotient(pairs)
        assert q.verify()
        for u, v, (a, b), k in q.cert_b:
            assert k >= 0 and max(u, v) <= q.bound_used
        if q.cert_b:
            assert q.bound_used == max(max(u, v) for u, v, _, _ in q.cert_b)
            with pytest.raises(BoundCapExceeded):
                nat_congruence_quotient(pairs, bound_cap=q.bound_used - 1)
            assert nat_congruence_quotient(pairs, bound_cap=q.bound_used).cert_b == q.cert_b

    def test_no_longer_than_proof_forest_on_benchmark_like_pairs(self):
        # two or more seeds of magnitude ~10^3 with coprime differences
        cases = [[(310, 601), (297, 598)], [(198, 405), (201, 391), (190, 402)],
                 [(5, 1005), (7, 1010), (300, 2000)]]
        for pairs in cases:
            q, oracle = nat_congruence_quotient(pairs), forest_quotient(pairs)
            assert (q.result.index, q.result.period) == (oracle.result.index,
                                                         oracle.result.period)
            assert len(q.cert_b) <= len(oracle.cert_b)


def replay_by_sets(q):
    """Reference replay of certificate B, for a well-formed C(i, p)."""
    c = q.result
    at = c.index
    for u, v, (a, b), k in q.cert_b:
        if k < 0 or {u, v} != {a + k, b + k} or (a, b) not in q.pairs:
            return False
        if u != at:
            return False
        at = v
    return at == c.index + c.period


def forge(draw, chain):
    """The chain with one step forged, or cut short."""
    chain = list(chain)
    j = draw(st.integers(0, len(chain) - 1))
    u, v, (a, b), k = chain[j]
    kind = draw(st.sampled_from(["shift", "negative", "reversed", "unseeded", "short"]))
    if kind == "shift":
        d = draw(st.integers(-3, 3).filter(bool))
        chain[j] = (u + d, v, (a, b), k) if draw(st.booleans()) else (u, v + d, (a, b), k)
    elif kind == "negative":
        k2 = draw(st.integers(-5, -1))
        chain[j] = (a + k2, b + k2, (a, b), k2)
    elif kind == "reversed":
        chain[j] = (u, v, (b, a), k)
    elif kind == "unseeded":         # same endpoints from a pair that is no seed
        chain[j] = (u, v, (a + 1, b + 1), k - 1) if k else (u, v, (a - 1, b - 1), 1)
    else:
        del chain[j:]
    return tuple(chain)


class TestReplayAgainstSets:
    @given(pair_lists, st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_verdict_on_real_and_forged_chains(self, pairs, data):
        q = nat_congruence_quotient(pairs)
        if q.is_symbolic_nat:
            return
        assert q.verify_certificate_b() and replay_by_sets(q)
        forged = replace(q, cert_b=forge(data.draw, q.cert_b))
        assert forged.verify_certificate_b() == replay_by_sets(forged)
