import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semimod.core import OutOfRange, SemimodError
from semimod.semiideal import (
    EmptyIdeal,
    NotDivisible,
    Semiideal,
    bezout_exhaustive_search,
    bezout_nonneg,
    bezout_nonneg_scaled,
    footing_two_generators,
)


class TestMembership:
    def test_zero_always_member(self):
        assert Semiideal([4, 6]).contains(0)
        assert Semiideal([]).contains(0)

    def test_two_not_in_46(self):
        assert not Semiideal([4, 6]).contains(2)

    def test_noncyclic_example(self):
        # {8 + 2n} u {0, 4} is generated by 4 and 10; 6 is not a member
        M = Semiideal([4, 10])
        assert not M.contains(6)
        assert M.contains(4) and M.contains(8) and M.contains(10) and M.contains(14)

    def test_zero_ideal(self):
        Z = Semiideal([])
        assert not Z.contains(3)
        with pytest.raises(EmptyIdeal):
            Z.period()

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=4), st.integers(0, 200))
    @settings(max_examples=200, deadline=None)
    def test_membership_is_closed_under_addition(self, gens, n):
        M = Semiideal(gens)
        if M.contains(n):
            for g in gens:
                assert M.contains(n + g)


class TestPeriod:
    def test_gcd_examples(self):
        assert Semiideal([4, 6]).period() == 2
        assert Semiideal([3, 5]).period() == 1

    def test_matches_minimal_difference(self):
        # the smallest gap between members 0 < a < b <= 200
        for gens in [(4, 6), (3, 5), (6, 10, 15), (9, 12), (5,)]:
            M = Semiideal(gens)
            members = [n for n in range(1, 201) if M.contains(n)]
            assert M.period() == min(b - a for a, b in zip(members, members[1:]))

    def test_minimal_difference_witness_divisible(self):
        # the smaller member of a minimal-difference pair is a period multiple
        for gens in [(4, 6), (6, 10, 15), (9, 12)]:
            M = Semiideal(gens)
            d = M.period()
            members = [n for n in range(1, 201) if M.contains(n)]
            a, b = next((a, b) for a, b in zip(members, members[1:]) if b - a == d)
            assert a % d == 0


class TestFooting:
    def test_35(self):
        assert Semiideal([3, 5]).footing() == 8

    def test_46(self):
        assert Semiideal([4, 6]).footing() == 4

    def test_cyclic(self):
        for d in (1, 2, 7):
            assert Semiideal([d]).footing() == d

    def test_boundary_gap(self):
        for gens in [(4, 6), (3, 5), (6, 10, 15), (8, 12, 18)]:
            M = Semiideal(gens)
            c, d = M.perc()
            for e in range(1, 2 * d):
                assert not M.contains(c - e)

    def test_tail_characterization(self):
        for gens in [(4, 6), (3, 5), (6, 10, 15)]:
            M = Semiideal(gens)
            c, d = M.perc()
            window = 10 * (c + d)
            tail = {n for n in range(c, window) if M.contains(n)}
            assert tail == {c + n * d for n in range((window - c) // d + 1)
                            if c + n * d < window}

    def test_period_divides_members(self):
        for gens in [(4, 6), (6, 10, 15), (10, 25)]:
            M = Semiideal(gens)
            d = M.period()
            for n in range(1, 300):
                if M.contains(n):
                    assert n % d == 0

    def test_perc_subset(self):
        M = Semiideal([4, 6])
        assert M.perc() == (4, 2)
        assert Semiideal([3, 5]).perc() == (8, 1)
        assert Semiideal([5]).perc() == (5, 5)
        c, d = M.perc()
        for n in range(60):
            assert M.contains(c + n * d)


class TestFootingFormula:
    def test_known_values(self):
        assert footing_two_generators(3, 5) == 8
        assert footing_two_generators(4, 6) == 4

    def test_degenerate_equal(self):
        assert footing_two_generators(7, 7) == 7

    def test_degenerate_divisible(self):
        # one generator divides the other: the ideal is cyclic, footing d
        assert footing_two_generators(2, 4) == 2
        assert footing_two_generators(30, 5) == 5

    def test_formula_vs_dp_full_range(self):
        for a in range(2, 61):
            for b in range(2, 61):
                if a != b:
                    assert footing_two_generators(a, b) == Semiideal([a, b]).footing()


class TestMinimalGenerators:
    def test_46(self):
        assert Semiideal([4, 6]).minimal_generators() == (4, 6)

    def test_noncyclic(self):
        assert Semiideal([4, 10]).minimal_generators() == (4, 10)

    def test_three_generators(self):
        assert Semiideal([6, 10, 15]).minimal_generators() == (6, 10, 15)

    def test_redundant_generators_dropped(self):
        assert Semiideal([4, 6, 10, 14, 22]).minimal_generators() == (4, 6)

    def test_cardinality_bound(self):
        for gens in [(4, 6), (6, 10, 15), (9, 12, 14), (12, 13, 22, 31)]:
            M = Semiideal(gens)
            X = M.minimal_generators()
            assert len(X) <= X[0] // M.period()

    def test_randomized_recovery(self):
        rng = random.Random(7)
        for _ in range(100):
            canon = sorted(rng.sample(range(5, 60), rng.randint(1, 4)))
            base = Semiideal(canon)
            X = base.minimal_generators()
            redundant = []
            while len(redundant) < rng.randint(0, 6):
                a, b = rng.choice(X), rng.choice(X)
                redundant.append(a + b * rng.randint(0, 2))
            M = Semiideal(list(X) + redundant)
            assert M.minimal_generators() == X
            assert set(X) <= set(X) | set(redundant)

    def test_is_cyclic(self):
        assert Semiideal([6]).is_cyclic()
        assert Semiideal([3, 6, 9]).is_cyclic()
        assert not Semiideal([4, 6]).is_cyclic()
        assert not Semiideal([4, 10]).is_cyclic()


class PreconditionFailed(SemimodError):
    pass


def difference_witness_core(M: Semiideal, a: int, d: int, window: int = 50) -> int:
    """Start of a verified arithmetic progression of step d inside the ideal.

    Requires a and a + d to be members with a nonzero; returns
    c = d * a * (a + d) and checks c + n*d for n up to the window.
    """
    if a == 0 or not (M.contains(a) and M.contains(a + d)):
        raise PreconditionFailed(f"need nonzero members a={a} and a+d={a + d}")
    c = d * a * (a + d)
    for n in range(window + 1):
        if not M.contains(c + n * d):
            raise SemimodError(f"verification failed at {c + n * d}")
    return c


class TestDifferenceWitness:
    def test_46(self):
        M = Semiideal([4, 6])
        assert difference_witness_core(M, 4, 2) == 48  # 2 * 4 * 6

    def test_35(self):
        M = Semiideal([3, 5])
        assert difference_witness_core(M, 3, 2) == 30

    def test_self_difference(self):
        M = Semiideal([5, 7])
        assert difference_witness_core(M, 5, 5) == 5 * 5 * 10

    def test_precondition(self):
        with pytest.raises(PreconditionFailed):
            difference_witness_core(Semiideal([4, 6]), 3, 2)


class TestBezout:
    def test_35(self):
        r, s = bezout_nonneg(3, 5)
        assert 3 * r + 5 * s == 8

    def test_46_none(self):
        assert bezout_nonneg(4, 6) is None
        assert bezout_exhaustive_search(4, 6) is None

    def test_unit_generator(self):
        assert bezout_nonneg(1, 9) == (0, 0)

    def test_solvable_iff_coprime(self):
        for a in range(2, 41):
            for b in range(2, 41):
                got = bezout_nonneg(a, b)
                assert (got is not None) == (gcd(a, b) == 1)
                assert (bezout_exhaustive_search(a, b) is not None) == (gcd(a, b) == 1)
                if got is not None:
                    r, s = got
                    assert r >= 0 and s >= 0
                    assert r * a + s * b == (a - 1) * (b - 1)

    def test_scaled(self):
        assert bezout_nonneg_scaled(4, 6, 2) is not None
        r, s = bezout_nonneg_scaled(4, 6, 2)
        assert 4 * r + 6 * s == 2 * 1 * 2
        r, s = bezout_nonneg_scaled(6, 9, 3)
        assert 6 * r + 9 * s == 6
        assert bezout_nonneg_scaled(4, 8, 2) is None

    def test_scaled_not_divisible(self):
        with pytest.raises(NotDivisible):
            bezout_nonneg_scaled(4, 7, 2)


class TestArgumentChecks:
    @pytest.mark.parametrize("call", [
        lambda: Semiideal([True, 3]),              # once footing 1
        lambda: Semiideal([1.5, 3]),               # once a bare TypeError
        lambda: Semiideal([3, "x"]),
        lambda: Semiideal([3, 5]).contains(2.5),
        lambda: footing_two_generators(4.0, 6),
        lambda: bezout_nonneg(True, 3),            # once (0, 0)
        lambda: bezout_nonneg_scaled(4, 6, 2.0),
    ])
    def test_an_argument_that_is_not_an_int_is_out_of_range(self, call):
        with pytest.raises(OutOfRange, match="is not an integer"):
            call()

    def test_repr_is_bounded(self):
        # repr() of the generators once refused ints of more than 4,300 digits
        assert repr(Semiideal([6, 4])) == "Semiideal(4, 6)"
        assert repr(Semiideal([5])) == "Semiideal(5,)"
        assert repr(Semiideal([10**5000, 10**5000 + 1])) == \
            "Semiideal(<int of 16610 bits>, <int of 16610 bits>)"
        assert repr(Semiideal([])) == "Semiideal()"
        assert repr(Semiideal(range(1, 9))) == "Semiideal(1, 2, 3, 4, 5, 6, 7, 8)"

    @pytest.mark.parametrize("call, message", [
        (lambda: Semiideal([-1, 3]), "generators must be nonnegative"),
        (lambda: Semiideal([3]).contains(-1), "membership is defined for nonnegative"),
        (lambda: footing_two_generators(0, 6), "generators must be positive"),
        (lambda: bezout_nonneg(3, -1), "arguments must be positive"),
        (lambda: bezout_nonneg_scaled(4, 6, 0), "d must be positive"),
    ])
    def test_negative_and_zero_values_keep_their_messages(self, call, message):
        with pytest.raises(SemimodError, match=message) as raised:
            call()
        assert not isinstance(raised.value, OutOfRange)

    def test_generators_may_be_any_iterable(self):
        assert Semiideal(iter([4, 6])).generators == (4, 6)

    def test_generators_that_are_not_an_iterable_are_out_of_range(self):
        # once a bare TypeError: 'int' object is not iterable
        with pytest.raises(OutOfRange, match="5 are not an iterable of integers"):
            Semiideal(5)
