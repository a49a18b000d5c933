import json
import random
import re
from math import gcd

import pytest

from semimod import core, natcoeq
from semimod.cli import main
from semimod.congruence import congruence_closure
from semimod.core import BudgetExceeded, OutOfRange, SemimodError
from semimod.natcoeq import (
    BoundCapExceeded,
    CyclicMonoid,
    NatQuotient,
    bourne_nat_quotient,
    coequalizer_nat,
    naive_nat_classes,
    nat_congruence_quotient,
)
from semimod.semiideal import EmptyIdeal, Semiideal

from test_validation import RelabellingUnionFind

C42_TABLE = [
    [0, 1, 2, 3, 4, 5],
    [1, 2, 3, 4, 5, 4],
    [2, 3, 4, 5, 4, 5],
    [3, 4, 5, 4, 5, 4],
    [4, 5, 4, 5, 4, 5],
    [5, 4, 5, 4, 5, 4],
]


class TestCyclicMonoid:
    def test_c42_table(self):
        M = CyclicMonoid(4, 2).to_monoid(labels=False)
        assert [list(r) for r in M.add] == C42_TABLE

    def test_pure_cycle_is_group(self):
        M = CyclicMonoid(0, 3).to_monoid(labels=False)
        assert [list(r) for r in M.add] == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]

    def test_table_matches_pairwise_projection(self):
        # the n^2 projections that the row slices replaced
        for i in range(21):
            for p in range(1, 21):
                c = CyclicMonoid(i, p)
                table = [[c.project(a + b) for b in range(c.size)] for a in range(c.size)]
                M = c.to_monoid()
                assert [list(r) for r in M.add] == table
                assert M.labels == tuple(f"{k}\u0304" for k in range(c.size))

    @pytest.mark.parametrize("sep", ["", ", "])
    def test_joined_rows_equal_the_per_cell_join(self, sep):
        # cells of unequal widths, the empty cell among them
        for i in range(41):
            for p in range(1, 41):
                c = CyclicMonoid(i, p)
                for cells in ([str(v) for v in range(c.size)],
                              ["x" * (v % 4) for v in range(c.size)]):
                    want = [sep.join(cells[v] for v in row) for row in c._rows()]
                    assert c.joined_rows(cells, sep) == want

    def test_joined_rows_of_a_malformed_cyclic_monoid_are_out_of_range(self):
        for c in (CyclicMonoid(1, 0), CyclicMonoid(-1, 2), CyclicMonoid(1.0, 2)):
            with pytest.raises(OutOfRange, match="needs integers"):
                c.joined_rows(["0", "1", "2"])

    def test_projection_is_additive(self):
        c = CyclicMonoid(3, 4)
        for a in range(30):
            for b in range(30):
                assert c.project(a + b) == c.project(c.project(a) + c.project(b))


class TestCoequalizerNat:
    def test_four_six_example(self):
        q = coequalizer_nat(4, 6)
        assert q.result == CyclicMonoid(4, 2)
        M = q.result.to_monoid(labels=False)
        assert [list(r) for r in M.add] == C42_TABLE
        assert M.add[5][5] == 4 and M.add[1][5] == 4

    def test_equal_maps(self):
        q = coequalizer_nat(3, 3)
        assert q.is_symbolic_nat
        assert q.verify()

    def test_zero_and_three(self):
        q = coequalizer_nat(0, 3)
        assert q.result == CyclicMonoid(0, 3)

    def test_certificates_replay(self):
        for a, b in [(4, 6), (0, 3), (2, 5), (3, 12), (1, 2)]:
            q = coequalizer_nat(a, b)
            assert q.verify_certificate_a()
            assert q.verify_certificate_b()

    def test_cert_a_is_its_replay(self):
        # on N0 answers cert_a was once a stored False beside a passing check
        for q in (nat_congruence_quotient([(3, 3)]), coequalizer_nat(5, 5), coequalizer_nat(4, 6)):
            assert q.cert_a is True
        assert NatQuotient(((1, 7),), CyclicMonoid(1, 4)).cert_a is False
        assert NatQuotient(((1, 7),), None).cert_a is False

    def test_tampered_certificate_rejected(self):
        q = coequalizer_nat(4, 6)
        bad = NatQuotient(q.pairs, CyclicMonoid(4, 4), q.cert_b, q.bound_used)
        assert not bad.verify_certificate_b()
        broken_chain = tuple((u + 1, v, s, k) for u, v, s, k in q.cert_b)
        bad2 = NatQuotient(q.pairs, q.result, broken_chain, q.bound_used)
        assert not bad2.verify_certificate_b()

    def test_negative_shift_rejected(self):
        # (4, 6) shifted by -4 would merge 0 and 2, which the congruence does not
        forged = NatQuotient(((4, 6),), CyclicMonoid(0, 2), ((0, 2, (4, 6), -4),))
        assert not forged.verify_certificate_b()

    @pytest.mark.parametrize("result", [CyclicMonoid(5, 0), CyclicMonoid(0, 0), CyclicMonoid(-1, 2),
                                        CyclicMonoid(1, -2), CyclicMonoid(True, 1),
                                        CyclicMonoid(1, 2.0), (1, 6)])
    def test_forged_result_fails_both_replays(self, result):
        # an empty chain would "merge" i with i + 0, and project would divide by 0
        assert not NatQuotient(((1, 2),), result).verify_certificate_b()
        assert not NatQuotient(((1, 7),), result).verify()
        assert not NatQuotient(((1, 7),), result).verify_certificate_a()

    @pytest.mark.parametrize("a, b", [(True, 3), (2.0, 4), (-1, 3)])
    def test_multipliers_are_integers_at_least_zero(self, a, b):
        # True once failed the certificate replay, 2.0 raised a bare TypeError
        with pytest.raises(OutOfRange, match=re.escape(f"pair {(a, b)!r} is not two integers")):
            coequalizer_nat(a, b)

    def test_large_single_pair_is_one_step(self):
        q = coequalizer_nat(12345, 1000003, bound_cap=2 * 10**6)
        assert q.result == CyclicMonoid(12345, 987658)
        assert q.cert_b == ((12345, 1000003, (12345, 1000003), 0),)
        assert q.bound_used == 1000003


class TestGeneratedQuotient:
    def test_single_trivial_pair(self):
        q = nat_congruence_quotient([(5, 5)])
        assert q.is_symbolic_nat

    def test_two_pairs(self):
        q = nat_congruence_quotient([(2, 5), (3, 7)])
        assert q.result == CyclicMonoid(2, 1)
        # {0, 1, 2} with 2 absorbing
        M = q.result.to_monoid(labels=False)
        assert M.add[2][2] == 2 and M.add[1][2] == 2

    def test_small_elements_are_singletons(self):
        q = nat_congruence_quotient([(4, 6)])
        c = q.result
        for n in range(c.index):
            assert c.project(n) == n

    def test_merged_pairs_differ_by_period(self):
        q = nat_congruence_quotient([(3, 9), (5, 11)])
        c = q.result
        for n in range(50):
            for m in range(50):
                if c.project(n) == c.project(m):
                    assert (n - m) % c.period == 0

    def test_bound_doubling_stability(self):
        for pairs in [[(4, 6)], [(2, 5), (3, 7)], [(5, 8)]]:
            q1 = nat_congruence_quotient(pairs)
            q2 = nat_congruence_quotient(pairs, bound_cap=4 * max(q1.bound_used, 64))
            assert q1.result == q2.result

    def test_bound_cap_raises(self):
        assert issubclass(BoundCapExceeded, BudgetExceeded)
        with pytest.raises(BoundCapExceeded):
            nat_congruence_quotient([(10, 30)], bound_cap=12)

    @pytest.mark.parametrize("cap", [-1, -10**6, True, 1.0, "12", None])
    def test_bound_cap_must_be_an_integer_at_least_zero(self, cap):
        # checked before the pairs: a bad pair list does not hide it
        for pairs in ([(10, 30)], [(3, 3)], [(-1, 2)]):
            with pytest.raises(OutOfRange, match="bound cap"):
                nat_congruence_quotient(pairs, bound_cap=cap)
        for a, b in ((10, 30), (3, 3)):
            with pytest.raises(OutOfRange, match="bound cap"):
                coequalizer_nat(a, b, bound_cap=cap)

    def test_bound_cap_zero(self):
        assert nat_congruence_quotient([(3, 3)], bound_cap=0).is_symbolic_nat
        with pytest.raises(BoundCapExceeded):
            nat_congruence_quotient([(0, 5)], bound_cap=0)

    @pytest.mark.parametrize("pair", [(False, 3), (1.5, 3), (1, 3, 4), 5, (-1, 2), [2, "3"]])
    def test_each_pair_is_two_integers_at_least_zero(self, pair):
        with pytest.raises(OutOfRange, match=re.escape(f"pair {pair!r} is not two integers >= 0")):
            nat_congruence_quotient([(2, 5), pair])

    def test_pairs_may_be_any_iterable(self):
        assert nat_congruence_quotient([[5, 2]]) == nat_congruence_quotient([(2, 5)])
        assert nat_congruence_quotient(p for p in [(2, 2), (5, 5)]).pairs == ((2, 2), (5, 5))
        q = nat_congruence_quotient([(30, 10), (4, 12)])
        assert nat_congruence_quotient(zip([30, 4], [10, 12])) == q
        assert nat_congruence_quotient(p for p in [(30, 10), (4, 12)]) == q

    def test_chain_climbs_then_walks_bezout(self):
        # i = 2 climbs by 3 to the floor 8 >= 7, walks 8 -> 11 -> 14 -> 9
        # by 2*3 - 5 = 1, then comes back down by 3 to i + p = 3
        q = nat_congruence_quotient([(2, 5), (7, 12)])
        assert q.result == CyclicMonoid(2, 1)
        assert [(u, v) for u, v, _, _ in q.cert_b] == \
            [(2, 5), (5, 8), (8, 11), (11, 14), (14, 9), (9, 6), (6, 3)]
        assert q.bound_used == 14 and q.verify()

    def test_agreement_with_finite_chain_congruence(self):
        # truncate the naturals to a large cyclic monoid and rerun there
        q = nat_congruence_quotient([(4, 6)])
        big = CyclicMonoid(40, 2).to_monoid(labels=False)
        C = congruence_closure(big, [(4, 6)])
        c = q.result
        for n in range(20):
            for m in range(20):
                assert C.same(n, m) == (c.project(n) == c.project(m))


def certificate_b_step_by_step(seeds, i, p, bound_cap):
    """`natcoeq._certificate_b` as it was: the walk chooses each step in turn,
    the first seed in seed order whose down step stays at or above the floor,
    else the first seed with up steps left."""
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
    downs, ups = [], []
    for s, c in zip(seeds, natcoeq._bezout([b - a for a, b in seeds])):
        if c:
            (ups if c > 0 else downs).append([s, s[1] - s[0], abs(c)])
    while downs or ups:
        for j, todo in enumerate(downs):
            if at - todo[1] >= floor:
                side, to = downs, at - todo[1]
                walk.append((at, to, todo[0], to - todo[0][0]))
                break
        else:
            j, todo = 0, ups[0]
            side, to = ups, at + todo[1]
            walk.append((at, to, todo[0], at - todo[0][0]))
            peak = max(peak, to)
        at = to
        todo[2] -= 1
        if not todo[2]:
            del side[j]
    if peak > bound_cap:
        raise BoundCapExceeded(CyclicMonoid(i, p), peak, bound_cap)
    descent = [(v + p, u + p, s, k + p) for u, v, s, k in reversed(climb)]
    return climb + walk + descent, peak


def replay_by_tuples(q):
    """`NatQuotient.verify_certificate_b` as it was: each step's endpoints
    compared as tuples with the translated seed, both ways round."""
    if q.result is None:
        return not q.cert_b
    c = q.result
    if not core._well_formed(c):
        return False
    pairs = set(q.pairs)
    at = c.index
    for u, v, (a, b), k in q.cert_b:
        if (u != at or k < 0 or (a, b) not in pairs
                or (u, v) != (a + k, b + k) and (u, v) != (b + k, a + k)):
            return False
        at = v
    return at == c.index + c.period


LONG_CHAIN = [(3065, 6043), (2988, 6161)]        # 2,904 steps


def seed_sets(seed, count, top):
    """count seeded sets of 1-5 pairs below top, each with the candidate
    (i, p) of `nat_congruence_quotient`; a set of equal pairs is skipped."""
    rng = random.Random(seed)
    for _ in range(count):
        pairs = [(rng.randrange(top), rng.randrange(top)) for _ in range(rng.randint(1, 5))]
        norm = [(min(s), max(s)) for s in pairs if s[0] != s[1]]
        if norm:
            yield norm, min(a for a, _ in norm), gcd(*(b - a for a, b in norm))


def outcome(build, seeds, i, p, cap):
    try:
        return build(seeds, i, p, cap)
    except BoundCapExceeded as refusal:
        return refusal.phase, refusal.spent, refusal.limit


def mutants(chain, pairs, at):
    """Each chain with one change at each index in at: u, v or k moved by 1,
    the endpoints swapped, the seed replaced by another pair or given as a
    list, the same endpoints from the seed moved up by 1 (as a tuple or a
    list), the step dropped or repeated."""
    others = sorted(set(pairs) | {(0, 1), (1, 3)})
    for j in at:
        u, v, s, k = chain[j]
        up = (s[0] + 1, s[1] + 1)
        for step in ((u + 1, v, s, k), (u - 1, v, s, k), (u, v + 1, s, k), (u, v - 1, s, k),
                     (u, v, s, k + 1), (u, v, s, k - 1), (v, u, s, k), (u, v, list(s), k),
                     (u, v, s[::-1], k), (u, v, up, k - 1), (u, v, list(up), k - 1),
                     *((u, v, t, k) for t in others if t != s)):
            yield chain[:j] + (step,) + chain[j + 1:]
        yield chain[:j] + chain[j + 1:]
        yield chain[:j + 1] + chain[j:]


class TestCertificateBOracles:
    def test_the_walk_equals_the_step_by_step_walk(self):
        two_seed = 0
        for seeds, i, p in [(LONG_CHAIN, 2988, 1), *seed_sets(35, 1000, 8000)]:
            want = certificate_b_step_by_step(seeds, i, p, 10**9)
            assert natcoeq._certificate_b(seeds, i, p, 10**9) == want
            peak = want[1]
            for cap in (peak - 1, peak):
                assert outcome(natcoeq._certificate_b, seeds, i, p, cap) == \
                    outcome(certificate_b_step_by_step, seeds, i, p, cap)
            assert outcome(natcoeq._certificate_b, seeds, i, p, peak - 1) == \
                ("certificate B reach", peak, peak - 1)
            coefficients = natcoeq._bezout([b - a for a, b in sorted(set(seeds))])
            two_seed += sum(c > 0 for c in coefficients) == sum(c < 0 for c in coefficients) == 1
        assert 200 < two_seed < 800         # 270 sets walk one seed up and one down

    def test_the_long_chain(self):
        q = nat_congruence_quotient(LONG_CHAIN)
        assert q.result == CyclicMonoid(2988, 1)
        assert len(q.cert_b) == 2904 and q.bound_used == 12310

    def test_the_replay_gives_the_replay_by_tuples_verdict_on_every_mutant(self):
        verdicts = set()
        cases = [(nat_congruence_quotient(LONG_CHAIN), (0, 1, 1452, 2902, 2903))]
        for seeds, i, p in seed_sets(36, 300, 60):
            q = nat_congruence_quotient(seeds)
            cases.append((q, range(len(q.cert_b))))
        for q, at in cases:
            assert q.verify_certificate_b() and replay_by_tuples(q)
            for chain in mutants(q.cert_b, q.pairs, at):
                forged = NatQuotient(q.pairs, q.result, chain)
                verdict = forged.verify_certificate_b()
                assert verdict == replay_by_tuples(forged), chain
                verdicts.add(verdict)
        assert verdicts == {True, False}
        # a seed translated below 0 is no step, though its endpoints fit
        forged = NatQuotient(((1, 3), (2, 4)), CyclicMonoid(1, 2), ((1, 3, (2, 4), -1),))
        assert not forged.verify_certificate_b() and not replay_by_tuples(forged)


def naive_classes_by_witness_search(a, b, probe_limit):
    """The census as it was decided by brute force: a union-find over
    {0..probe_limit}, merging m and m' when some n, n' < W witness
    m + an + bn' = m' + an' + bn."""
    W = probe_limit + max(a, b) + 2
    uf = RelabellingUnionFind(probe_limit + 1)
    for m in range(probe_limit + 1):
        for m2 in range(m + 1, probe_limit + 1):
            if any(m + a * n + b * n2 == m2 + a * n2 + b * n
                   for n in range(W) for n2 in range(W)):
                uf.union(m, m2)
    buckets = {}
    for m in range(probe_limit + 1):
        buckets.setdefault(uf.find(m), []).append(m)
    return [buckets[r] for r in sorted(buckets)]


class TestNaiveClasses:
    def test_four_six_example(self):
        classes = naive_nat_classes(4, 6, probe_limit=20)
        assert len(classes) == 2
        assert classes[0] == list(range(0, 21, 2))
        assert classes[1] == list(range(1, 21, 2))

    def test_consecutive_multipliers(self):
        classes = naive_nat_classes(5, 6, probe_limit=20)
        assert len(classes) == 1

    def test_reflexive(self):
        classes = naive_nat_classes(3, 7, probe_limit=10)
        assert sorted(x for c in classes for x in c) == list(range(11))

    def test_any_window_size(self):
        for limit in (8, 15, 30):
            assert len(naive_nat_classes(4, 6, probe_limit=limit)) == 2

    def test_inputs_the_witness_search_refused(self):
        # the witness search once exceeded its budget here
        singletons = [[m] for m in range(21)]
        assert naive_nat_classes(4, 60) == singletons
        assert naive_nat_classes(3, 2000) == singletons

    @pytest.mark.parametrize("limit", [0, 1, 5, 12, 20])
    def test_equals_the_witness_search(self, limit):
        for a in range(9):
            for b in range(9):
                if a != b:
                    assert naive_nat_classes(a, b, limit) == naive_classes_by_witness_search(
                        a, b, limit)

    def test_equal_multipliers_rejected(self):
        with pytest.raises(SemimodError, match="the multipliers must differ") as raised:
            naive_nat_classes(3, 3)
        assert not isinstance(raised.value, OutOfRange)

    def test_negative_multiplier_rejected(self):
        with pytest.raises(SemimodError):
            naive_nat_classes(-3, 5)

    @pytest.mark.parametrize("args", [(True, 2), (4, 6.0), (4, 6, 2.5)])
    def test_an_argument_that_is_not_an_int_is_out_of_range(self, args):
        # True once gave classes, 6.0 and 2.5 a bare TypeError
        with pytest.raises(OutOfRange, match="is not an integer"):
            naive_nat_classes(*args)


class TestBourneQuotient:
    def test_four_six(self):
        q = bourne_nat_quotient([4, 6])
        assert q.pairs == ((0, 4), (0, 6))
        assert q.result == CyclicMonoid(0, 2)
        assert q.verify()

    def test_single_generator(self):
        q = bourne_nat_quotient([5])
        assert q.result == CyclicMonoid(0, 5)
        assert len(q.cert_b) == 1

    def test_adjacent_generators_trivial(self):
        q = bourne_nat_quotient([2, 3])
        assert q.result == CyclicMonoid(0, 1)
        assert q.result.to_monoid().size == 1

    def test_empty_rejected(self):
        with pytest.raises(EmptyIdeal, match="^the zero semiideal has no period or footing$"):
            bourne_nat_quotient([])

    @pytest.mark.parametrize("args", [([True, 3],), ([4, 6.0],)])
    def test_an_argument_that_is_not_an_int_is_out_of_range(self, args):
        with pytest.raises(OutOfRange, match="is not an integer"):
            bourne_nat_quotient(*args)

    def test_a_witness_outside_the_ideal_is_caught(self, monkeypatch):
        # the footing and the footing + period are checked to be members
        contains = Semiideal.contains
        monkeypatch.setattr(Semiideal, "contains",
                            lambda self, n: n != self.footing() and contains(self, n))
        with pytest.raises(SemimodError, match="^internal error: 4 or 6 is not a member"):
            bourne_nat_quotient([4, 6])

    def test_the_internal_error_echoes_bounded_values(self, monkeypatch):
        # a value too long for repr() is echoed by its bit length
        big = 10**5000
        monkeypatch.setattr(Semiideal, "perc", lambda self: (big, 1))
        monkeypatch.setattr(Semiideal, "contains", lambda self, n: False)
        with pytest.raises(SemimodError) as raised:
            bourne_nat_quotient([big, big + 1])
        assert str(raised.value) == (
            "internal error: <int of 16610 bits> or <int of 16610 bits> is not a member "
            "of Semiideal(<int of 16610 bits>, <int of 16610 bits>)")

    def test_tampered_witnesses_rejected(self):
        q = bourne_nat_quotient([4, 6])
        for j, (u, v, s, k) in enumerate(q.cert_b):
            chain = q.cert_b[:j] + ((u, v, s, k + 1),) + q.cert_b[j + 1:]
            assert not NatQuotient(q.pairs, q.result, chain).verify()

    def test_is_the_quotient_by_the_footing_and_the_next_member(self):
        rng = random.Random(28)
        sets = 0
        while sets < 5000:
            gens = [rng.randrange(300) for _ in range(rng.randint(1, 5))]
            if not any(gens):
                continue
            sets += 1
            K = Semiideal(gens)
            c, d = K.footing(), gcd(*gens)
            q = bourne_nat_quotient(gens)
            assert q.pairs == ((0, c), (0, c + d))
            assert q.result == CyclicMonoid(0, d)
            assert len(q.cert_b) <= 2 and q.verify()

    def test_reach(self):
        assert bourne_nat_quotient([2, 10**6 + 1]).result == CyclicMonoid(0, 1)
        with pytest.raises(BudgetExceeded):
            bourne_nat_quotient([600000, 600001])


def json_by_validated_table(q):
    """`NatQuotient.to_json` as it was when it copied the rows of the validated C(i, p)."""
    if q.result is None:
        return {"result": "N0", "pairs": [list(p) for p in q.pairs]}
    return {
        "index": q.result.index,
        "period": q.result.period,
        "table": [list(row) for row in q.result.to_monoid(labels=False).add],
        "certA": q.verify_certificate_a(),
        "certB": [[u, v, [a, b], k] for u, v, (a, b), k in q.cert_b],
    }


class TestJson:
    def test_coeq_json_prints_the_validated_table(self, capsys):
        for b in range(1, 61):
            for a in range(b):
                assert main(["coeq", str(a), str(b), "--json"]) == 0
                want = json.dumps(json_by_validated_table(coequalizer_nat(a, b))) + "\n"
                assert capsys.readouterr().out == want

    def test_only_a_built_monoid_is_validated(self, monkeypatch, capsys):
        calls, validate = [], core.validate_monoid

        def counting(*args):
            calls.append(len(args[0]))
            return validate(*args)

        monkeypatch.setattr(core, "validate_monoid", counting)
        for a, b in ((4, 6), (0, 1), (7, 95), (3, 3)):
            nat_congruence_quotient([(a, b)]).to_json()
        assert calls == []
        assert main(["coeq", "7", "95", "--json"]) == 0 and calls == []
        assert main(["coeq", "7", "95"]) == 0 and calls == [95]
        with pytest.raises(OutOfRange, match="needs integers"):
            NatQuotient(((1, 7),), CyclicMonoid(1, 0)).to_json()
