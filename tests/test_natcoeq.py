import json
import random
import re
from math import gcd

import pytest

from semimod import core
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

    def test_tampered_certificate_rejected(self):
        q = coequalizer_nat(4, 6)
        bad = NatQuotient(q.pairs, CyclicMonoid(4, 4), q.cert_a, q.cert_b, q.bound_used)
        assert not bad.verify_certificate_b()
        broken_chain = tuple((u + 1, v, s, k) for u, v, s, k in q.cert_b)
        bad2 = NatQuotient(q.pairs, q.result, q.cert_a, broken_chain, q.bound_used)
        assert not bad2.verify_certificate_b()

    def test_negative_shift_rejected(self):
        # (4, 6) shifted by -4 would merge 0 and 2, which the congruence does not
        forged = NatQuotient(((4, 6),), CyclicMonoid(0, 2), True, ((0, 2, (4, 6), -4),))
        assert not forged.verify_certificate_b()

    @pytest.mark.parametrize("result", [CyclicMonoid(5, 0), CyclicMonoid(0, 0), CyclicMonoid(-1, 2),
                                        CyclicMonoid(1, -2), CyclicMonoid(True, 1),
                                        CyclicMonoid(1, 2.0), (1, 6)])
    def test_forged_result_fails_both_replays(self, result):
        # an empty chain would "merge" i with i + 0, and project would divide by 0
        assert not NatQuotient(((1, 2),), result, True, ()).verify_certificate_b()
        assert not NatQuotient(((1, 7),), result, True, ()).verify()
        assert not NatQuotient(((1, 7),), result, True, ()).verify_certificate_a()

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

    def test_tampered_witnesses_rejected(self):
        q = bourne_nat_quotient([4, 6])
        for j, (u, v, s, k) in enumerate(q.cert_b):
            chain = q.cert_b[:j] + ((u, v, s, k + 1),) + q.cert_b[j + 1:]
            assert not NatQuotient(q.pairs, q.result, True, chain).verify()

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
            NatQuotient(((1, 7),), CyclicMonoid(1, 0), True, ()).to_json()
