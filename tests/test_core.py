import random
from itertools import product
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semimod import core, natcoeq
from semimod.core import (
    BudgetExceeded,
    CyclicMonoid,
    IdentityNotPreserved,
    MonoidHom,
    NatVec,
    NotAdditive,
    NotAssociative,
    NotCommutative,
    NotASubmonoid,
    NotIdentity,
    OutOfRange,
    SemimodError,
    _product,
    biproduct,
    cyclic_group,
    direct_summand_analysis,
    enumerate_homs,
    free_universal_map,
    hom_check,
    identity_hom,
    internal_direct_sum_check,
    iter_homs,
    monoid_from_json,
    monoid_to_json,
    saturating_monoid,
    small_monoid_corpus,
    sub_as_monoid,
    submonoid_generated,
    trivial_monoid,
    validate_monoid,
    zero_hom,
)
from semimod.congruence import bourne_congruence, chain_congruence, congruence_closure, kernel_pair
from semimod.semiideal import NotDivisible, Semiideal, bezout_nonneg_scaled
from semimod.tensor import induced_map, tensor_product, tensor_with_free

from test_validation import (all_submonoids, commutative_tables, family_table, relabel,
                             relabelled_monoids)

M4_TABLE = [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 3, 3], [3, 3, 3, 3]]  # {0,1A,1B,2B}
C42 = CyclicMonoid(4, 2).to_monoid()


class TestValidation:
    def test_trivial(self):
        assert validate_monoid([[0]]).size == 1

    def test_four_element_table(self):
        M = validate_monoid(M4_TABLE, ["0", "1A", "1B", "2B"])
        assert M.plus(1, 2) == 3  # 1A + 1B = 2B

    def test_not_commutative(self):
        t = [[0, 1, 2], [1, 0, 0], [2, 1, 0]]
        with pytest.raises(NotCommutative) as e:
            validate_monoid(t)
        assert e.value.witness == (1, 2)

    def test_not_identity(self):
        with pytest.raises(NotIdentity):
            validate_monoid([[0, 0], [0, 0]])

    def test_not_associative(self):
        t = [[0, 1, 2], [1, 0, 2], [2, 2, 1]]
        with pytest.raises(NotAssociative):
            validate_monoid(t)

    def test_labels_must_be_distinct(self):
        for labels in (["a", "a"], ("0", "0")):
            with pytest.raises(OutOfRange, match="^labels must be distinct$"):
                validate_monoid([[0, 1], [1, 0]], labels)
        assert validate_monoid([[0, 1], [1, 0]], ["a", "b"]).labels == ("a", "b")

    def test_out_of_range(self):
        class Small(int):
            pass

        class Index:
            def __index__(self):
                return 1

        # bytes() accepts True, Small(1), Index(), 3 and 255: the type test
        # and the bound n must still reject them
        for bad in (True, 1.0, Small(1), Index(), 3, 7, 255, 256, -1):
            with pytest.raises(OutOfRange) as e:
                validate_monoid([[0, 1, 2], [1, 2, 0], [2, 0, bad]])
            assert str(e.value) == f"entry {bad!r} is not an integer in [0, 3)"
        for n in (255, 256, 257):
            for bad in (n, -1):
                table = [list(r) for r in cyclic_group(n).add]
                table[n - 1][n - 1] = bad
                with pytest.raises(OutOfRange) as e:
                    validate_monoid(table)
                assert str(e.value) == f"entry {bad} is not an integer in [0, {n})"

    def test_out_of_range_beside_bytes_rows(self):
        # bytes rows skip the type test, not the bound n: a bytes entry in
        # [n, 256), and a bad entry in a list row among bytes rows, are named
        # as in the list form
        for n in (255, 256):
            rows = [bytes(r) for r in cyclic_group(n).add]
            bads = [(bad, [*rows[n - 1][:-1], bad]) for bad in (n, -1, True, 1.0)]
            if n < 256:
                bads.append((n, rows[n - 1][:-1] + bytes([n])))
            for bad, last in bads:
                for table in (rows[:-1] + [last], [list(r) for r in rows[:-1]] + [list(last)]):
                    with pytest.raises(OutOfRange) as e:
                        validate_monoid(table)
                    assert str(e.value) == f"entry {bad!r} is not an integer in [0, {n})"


class TestScalarAction:
    def test_zero_scalar(self):
        for M in (C42, cyclic_group(3)):
            for m in M.elements():
                assert M.scalar(0, m) == 0

    def test_saturating(self):
        N = saturating_monoid(3)
        assert N.scalar(5, 1) == 1  # 1 + 1 = 1

    def test_c42(self):
        assert C42.scalar(3, 2) == 4  # 2+2+2 = 6 ~ 4

    def test_semimodule_axioms(self):
        for M in small_monoid_corpus(3):
            for m in M.elements():
                for k in range(6):
                    for k2 in range(6):
                        assert M.scalar(k + k2, m) == M.plus(M.scalar(k, m), M.scalar(k2, m))
                        assert M.scalar(k * k2, m) == M.scalar(k, M.scalar(k2, m))


class TestOrbit:
    def test_one_type_for_cyclic_monoids(self):
        assert natcoeq.CyclicMonoid is core.CyclicMonoid and not hasattr(core, "Orbit")
        assert isinstance(C42.orbit(1), CyclicMonoid)

    def test_identity_orbit(self):
        assert C42.orbit(0) == CyclicMonoid(0, 1)

    def test_group_element(self):
        assert cyclic_group(3).orbit(1) == CyclicMonoid(0, 3)

    def test_saturating_element(self):
        assert saturating_monoid(3).orbit(1) == CyclicMonoid(1, 1)  # 1 + 1 = 1

    def test_minimality(self):
        for M in small_monoid_corpus(4):
            for m in M.elements():
                o = M.orbit(m)
                powers = [0]
                for _ in range(o.index + o.period):
                    powers.append(M.plus(powers[-1], m))
                assert powers[o.index + o.period] == powers[o.index]
                # no earlier repetition, counting from 0*m
                seen = powers[:o.index + o.period]
                assert len(set(seen)) == len(seen)


def orbit_tables(size, add):
    """Reference orbits: every element's multiples, walked one addition at a time.

    powers[m] = (0, m, 2m, ..., (i+p-1)m) and orbits[m] = C(i, p).
    """
    powers = []
    orbits = []
    for m in range(size):
        seq = [0]  # 0*m
        seen: dict[int, int] = {0: 0}
        cur = 0
        k = 0
        while True:
            k += 1
            cur = add[cur][m]
            if cur in seen:
                i = seen[cur]
                p = k - i
                break
            seen[cur] = k
            seq.append(cur)
        powers.append(tuple(seq))
        orbits.append(CyclicMonoid(i, p))
    return tuple(powers), tuple(orbits)


def orbit_from_one(M, m):
    """(i, p) of the first repeat (i+p)m = im of m, 2m, 3m, ..., counted from
    1*m: the convention of the former `Orbit`, where the identity had (1, 1)."""
    first, cur, k = {}, m, 1
    while cur not in first:
        first[cur] = k
        cur, k = M.add[cur][m], k + 1
    return first[cur], k - first[cur]


def table_scalar(powers, orbits, k, m):
    """k*m read from the reference tables, wrapping k into the orbit."""
    o = orbits[m]
    if k < o.index + o.period:
        return powers[m][k]
    return powers[m][o.index + (k - o.index) % o.period]


def _validated(table):
    try:
        return validate_monoid(table)
    except SemimodError:
        return None


def relabelled_family_monoid(family, n, seed):
    rest = list(range(1, n))
    random.Random(seed).shuffle(rest)
    return validate_monoid(relabel(family_table(family, n), [0, *rest]))


@settings(max_examples=200, deadline=None)
@given(st.one_of(commutative_tables().map(_validated).filter(lambda M: M is not None),
                 st.builds(relabelled_family_monoid, st.sampled_from(["Z", "Sat", "C"]),
                           st.integers(2, 40), st.integers(0, 2**32)),
                 st.sampled_from(small_monoid_corpus(4))))
@example(relabelled_family_monoid("C", 260, 5))     # C(86, 174): above the byte-row cutoff
def test_orbit_and_scalar_match_orbit_tables(M):
    powers, orbits = orbit_tables(M.size, M.add)
    for m in M.elements():
        o = orbits[m]
        assert M.orbit(m) == o
        for k in [*range(3 * (o.index + o.period) + 1), 10**18]:
            assert M.scalar(k, m) == table_scalar(powers, orbits, k, m)


def test_orbit_is_the_generated_submonoid():
    """orbit(m) is <m>: its size, its table up to k -> k*m, and the numbers
    counted from 1*m once a unit's index 0 reads as 1."""
    for M in [*relabelled_monoids(11), relabelled_family_monoid("C", 260, 5)]:
        for m in M.elements():
            o, members = M.orbit(m), submonoid_generated(M, [m])
            assert o.size == len(members)
            S, incl = sub_as_monoid(M, members)
            pos = {e: s for s, e in enumerate(incl.image)}
            multiples = [0]
            for _ in range(o.size - 1):
                multiples.append(M.add[multiples[-1]][m])
            iso = hom_check(o.to_monoid(labels=False), S, [pos[e] for e in multiples])
            assert iso.is_bijective()
            assert (max(o.index, 1), o.period) == orbit_from_one(M, m)


def test_cyclic_group_is_addition_mod_n():
    for n in range(1, 301):
        assert cyclic_group(n).add == tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    assert trivial_monoid() == cyclic_group(1)


class TestHoms:
    def test_identity_and_zero(self):
        M = cyclic_group(4)
        hom_check(M, M, range(4))
        hom_check(M, cyclic_group(2), [0, 0, 0, 0])

    def test_not_additive(self):
        with pytest.raises(NotAdditive):
            hom_check(cyclic_group(3), saturating_monoid(3), [0, 1, 1])

    def test_hom_respects_scalars(self):
        M, N = C42, cyclic_group(2)
        f = hom_check(M, N, [m % 2 for m in M.elements()])
        for m in M.elements():
            for k in range(8):
                assert f.image[M.scalar(k, m)] == N.scalar(k, f.image[m])

    def test_enumerate_counts(self):
        assert len(enumerate_homs(trivial_monoid(), cyclic_group(5))) == 1
        assert len(enumerate_homs(cyclic_group(2), cyclic_group(3))) == 1
        assert len(enumerate_homs(cyclic_group(2), cyclic_group(2))) == 2

    def test_hom_set_is_monoid(self):
        M, N = cyclic_group(2), saturating_monoid(3)
        homs = enumerate_homs(M, N)
        images = {h.image for h in homs}
        assert (0,) * M.size in images
        for h in homs:
            for h2 in homs:
                s = tuple(N.plus(h.image[m], h2.image[m]) for m in M.elements())
                assert s in images

    def test_lexicographic_order(self):
        homs = enumerate_homs(cyclic_group(2), cyclic_group(2))
        assert [h.image for h in homs] == sorted(h.image for h in homs)

    @pytest.mark.parametrize("image, message", [
        ([0, 1.0], "image value 1.0 is not an integer in [0, 2)"),
        ([0, "1"], "image value '1' is not an integer in [0, 2)"),
        ([0, None], "image value None is not an integer in [0, 2)"),
        ([0, True], "image value True is not an integer in [0, 2)"),
        ([0, 2], "image value 2 is not an integer in [0, 2)"),
        ([0, -1], "image value -1 is not an integer in [0, 2)"),
        (5, "image must be a sequence, not int"),
        ({0: 0, 1: 1}, "image must be a sequence, not dict"),
    ])
    def test_hom_check_refuses_malformed_images(self, image, message):
        Z2 = cyclic_group(2)
        with pytest.raises(OutOfRange) as e:
            hom_check(Z2, Z2, image)
        assert str(e.value) == message

    @pytest.mark.parametrize("image", [range(2), (0, 1), [0, 1]])
    def test_hom_check_accepts_sequences(self, image):
        Z2 = cyclic_group(2)
        assert hom_check(Z2, Z2, image).image == (0, 1)

    def test_not_additive_names_a_generator(self):
        # Z/4 is generated by 1, and 1 + 1 is the first sum the identity map
        # into Sat4 gets wrong
        with pytest.raises(NotAdditive) as e:
            hom_check(cyclic_group(4), saturating_monoid(4), [0, 1, 2, 3])
        assert e.value.witness == (1, 1)

    def test_cyclic_group_counts(self):
        for m in range(1, 13):
            for n in range(1, 13):
                assert len(enumerate_homs(cyclic_group(m), cyclic_group(n))) == gcd(m, n)

    def test_chain_counts(self):
        # homs Sat_m -> Sat_n are the monotone maps of 1..m-1 into 0..n-1
        for m in range(1, 7):
            for n in range(1, 7):
                homs = enumerate_homs(saturating_monoid(m), saturating_monoid(n))
                assert len(homs) == comb(m + n - 2, m - 1)

    def test_z24_into_z24_times_z4(self):
        Z24 = cyclic_group(24)
        assert len(enumerate_homs(Z24, biproduct(Z24, cyclic_group(4)).monoid)) == 96

    def test_budget_counts_generator_images(self):
        Z12 = cyclic_group(12)
        assert len(enumerate_homs(Z12, Z12, budget=12)) == 12
        with pytest.raises(BudgetExceeded, match="^hom images tried: 12 exceeds budget 11$") as e:
            enumerate_homs(Z12, Z12, budget=11)
        assert (e.value.phase, e.value.spent, e.value.limit) == ("hom images tried", 12, 11)


def enumerate_homs_oracle(M, N):
    """Image tables of all homs M -> N, lexicographically: the backtracking
    over every element that `enumerate_homs` replaced.  The image of k is
    tested against every sum of elements up to k."""
    n = M.size
    image = [0] * n
    out = []

    def consistent(k):
        for a in range(k + 1):
            s = M.add[a][k]
            if s <= k and image[s] != N.add[image[a]][image[k]]:
                return False
        for a in range(k):
            for b in range(a, k):
                if M.add[a][b] == k and image[k] != N.add[image[a]][image[b]]:
                    return False
        return True

    def rec(k):
        if k == n:
            out.append(tuple(image))
            return
        for v in range(N.size):
            image[k] = v
            if consistent(k):
                rec(k + 1)
        image[k] = 0

    rec(1) if n > 1 else out.append((0,))
    return out


def enumerate_homs_recursive(M, N, budget=core.DEFAULT_BUDGET, out=None):
    """The recursive backtracking that `iter_homs` replaced, with the number
    of generator images it tried: (homs, spent).  The homs go into `out`
    as they are found, so a caller sees those found before a BudgetExceeded."""
    P = M.presentation
    k = len(P.gens)
    last = [-1] * M.size
    define = [[] for _ in range(k)]
    check = [[] for _ in range(k)]
    for e, j, t in P.tree:
        last[t] = j
        define[j].append((e, t))
    for e, j, t in P.edges:
        check[max(last[e], j, last[t])].append((e, P.gens[j], t))
    nadd = N.add
    image = [0] * M.size
    out = [] if out is None else out
    spent = 0

    def rec(j):
        nonlocal spent
        if j == k:
            out.append(MonoidHom(M, N, tuple(image)))
            return
        for v in range(N.size):
            spent += 1
            if spent > budget:
                raise BudgetExceeded("hom images tried", spent, budget)
            for e, t in define[j]:
                image[t] = nadd[image[e]][v]
            for e, x, t in check[j]:
                if nadd[image[e]][image[x]] != image[t]:
                    break
            else:
                rec(j + 1)

    rec(0)
    return out, spent


def hom_stream_cases():
    """corpus(3) and eight monoids of order 4, one in every two of corpus(4)
    past corpus(3), in every pair."""
    small = small_monoid_corpus(3)
    four = [M for M in small_monoid_corpus(4) if M.size == 4][::2][:8]
    assert len(four) == 8
    return list(product(small + four, repeat=2))


def test_iter_homs_matches_the_recursive_backtracking():
    for M, N in hom_stream_cases():
        want, spent = enumerate_homs_recursive(M, N)
        assert list(iter_homs(M, N)) == enumerate_homs(M, N) == want
        # the same count: the budget that the recursion spends exactly is enough
        assert enumerate_homs(M, N, budget=spent) == want
        if not spent:                      # the trivial M has no generator to image
            continue
        with pytest.raises(BudgetExceeded,
                           match=f"^hom images tried: {spent} exceeds budget {spent - 1}$") as e:
            enumerate_homs(M, N, budget=spent - 1)
        assert (e.value.phase, e.value.spent, e.value.limit) == ("hom images tried", spent, spent - 1)


def test_edges_are_grouped_by_letter_once_and_only_for_hom_searches():
    M, N = validate_monoid(saturating_monoid(3).add), validate_monoid(cyclic_group(4).add)
    tensor_product(M, N)
    tensor_product(N, M)
    assert not {"by_letter"} & (vars(M.presentation).keys() | vars(N.presentation).keys())
    homs = list(iter_homs(M, N))
    groups = M.presentation.by_letter
    assert list(iter_homs(M, N)) == homs == enumerate_homs_recursive(M, N)[0]
    assert M.presentation.by_letter is groups


def test_iter_homs_raises_at_the_hom_the_budget_cuts_off():
    M = N = biproduct(cyclic_group(2), saturating_monoid(3)).monoid
    want, spent = enumerate_homs_recursive(M, N)
    assert (len(want), spent) == (12, 60)
    for budget in range(spent):
        got, before = [], []
        with pytest.raises(BudgetExceeded) as e:
            for h in iter_homs(M, N, budget):
                got.append(h)
        with pytest.raises(BudgetExceeded) as e_rec:
            enumerate_homs_recursive(M, N, budget, out=before)
        assert str(e.value) == str(e_rec.value)
        assert got == before


def hom_check_oracle(M, N, image):
    """The all-pairs verdict that `hom_check` replaced: None for a hom, else
    the class of the failure."""
    if image[0] != 0:
        return IdentityNotPreserved
    for a in range(M.size):
        for b in range(a, M.size):
            if image[M.add[a][b]] != N.add[image[a]][image[b]]:
                return NotAdditive
    return None


def hom_sources():
    return st.one_of(
        st.sampled_from(small_monoid_corpus(3)),
        commutative_tables().map(_validated).filter(lambda M: M is not None),
        st.builds(relabelled_family_monoid, st.sampled_from(["Z", "Sat", "C"]),
                  st.integers(2, 8), st.integers(0, 2**32)))


@settings(max_examples=200, deadline=None)
@given(hom_sources(), hom_sources(), st.integers(0, 2**32))
def test_homs_match_the_all_element_oracles(M, N, seed):
    P = M.presentation
    # tree and relation edges are every Cayley edge once, and letters never
    # decrease along a tree path
    assert sorted((e, j) for e, j, _ in P.tree + P.edges) == sorted(
        product(range(M.size), range(len(P.gens))))
    last = {0: -1}
    for e, j, t in P.tree:
        assert M.add[e][P.gens[j]] == t and last[e] <= j
        last[t] = j

    homs = [h.image for h in enumerate_homs(M, N)]
    assert homs == enumerate_homs_oracle(M, N)

    rng = random.Random(seed)
    images = [[rng.randrange(N.size) if m or rng.random() < 0.2 else 0 for m in range(M.size)]
              for _ in range(8)]
    for h in rng.sample(homs, min(len(homs), 8)):       # a hom with one cell perturbed
        image = list(h)
        image[rng.randrange(M.size)] = rng.randrange(N.size)
        images.append(image)
    for image in images + homs:
        want = hom_check_oracle(M, N, image)
        try:
            f = hom_check(M, N, image)
        except (IdentityNotPreserved, NotAdditive) as exc:
            assert type(exc) is want
            if want is NotAdditive:
                a, x = exc.witness
                assert x in M.gens and image[M.add[a][x]] != N.add[image[a]][image[x]]
        else:
            assert want is None and f.image == tuple(image)


class TestBiproduct:
    def test_cardinality(self):
        assert biproduct(cyclic_group(2), cyclic_group(3)).monoid.size == 6

    def test_trivial_factor(self):
        N = saturating_monoid(3)
        bp = biproduct(trivial_monoid(), N)
        assert bp.monoid.add == N.add

    def test_projection_section(self):
        bp = biproduct(cyclic_group(2), saturating_monoid(2))
        for j in range(2):
            comp = bp.projections[j].compose(bp.injections[j])
            assert comp.image == tuple(range(comp.source.size))

    def test_universal_properties_small(self):
        corpus = small_monoid_corpus(2)
        for M in corpus:
            for N in corpus:
                bp = biproduct(M, N)
                for X in corpus:
                    # product: maps into the factors pair uniquely
                    for f in enumerate_homs(X, M):
                        for g in enumerate_homs(X, N):
                            cands = [h for h in enumerate_homs(X, bp.monoid)
                                     if bp.projections[0].compose(h).image == f.image
                                     and bp.projections[1].compose(h).image == g.image]
                            assert len(cands) == 1
                    # coproduct: maps out of the factors copair uniquely
                    for f in enumerate_homs(M, X):
                        for g in enumerate_homs(N, X):
                            cands = [h for h in enumerate_homs(bp.monoid, X)
                                     if h.compose(bp.injections[0]).image == f.image
                                     and h.compose(bp.injections[1]).image == g.image]
                            assert len(cands) == 1


class TestSubmonoids:
    def test_generated_empty(self):
        assert submonoid_generated(cyclic_group(5), []) == (0,)

    def test_generated_saturating(self):
        assert submonoid_generated(saturating_monoid(3), [1]) == (0, 1)

    def test_generated_counterexample(self):
        M = validate_monoid(M4_TABLE)
        assert submonoid_generated(M, [1, 2]) == (0, 1, 2, 3)

    @pytest.mark.parametrize("n, subset", [(3, [-1]), (2, [True]), (3, [5])])
    def test_generated_refuses_members_outside_the_monoid(self, n, subset):
        # -1 would reach element 2 of Z/3 through negative indexing, True would
        # pass for 1 in Z/2, and 5 would raise a bare IndexError
        with pytest.raises(OutOfRange, match=f"entry {subset[0]!r} is not an integer in"):
            submonoid_generated(cyclic_group(n), subset)

    @pytest.mark.parametrize("n, subset", [(3, [0, -3]), (3, [0, 5]), (3, [0, True]),
                                           (2, [0, True]), (3, [0, 0]), (3, [0, "a"]),
                                           (3, [0, None]), (3, [0, [1]])])
    def test_members_outside_the_monoid_are_refused(self, n, subset):
        # -3 would reach element 0 of Z/3 through negative indexing, and
        # True would pass for 1 in Z/2; a repeated member would be counted
        # twice; "a" and None cannot be sorted with 0, and [1] cannot be hashed
        M = cyclic_group(n)
        assert not M.is_submonoid(subset)
        with pytest.raises(NotASubmonoid):
            sub_as_monoid(M, subset)
        with pytest.raises(NotASubmonoid):
            bourne_congruence(M, subset)
        with pytest.raises(NotASubmonoid):
            internal_direct_sum_check(M, [subset, list(M.elements())])
        with pytest.raises(NotASubmonoid):
            direct_summand_analysis(M, subset)

    @pytest.mark.parametrize("subset, message, witness", [
        ([0, 3], "entry 3 is not an integer in [0, 3)", None),
        ([0, True], "entry True is not an integer in [0, 3)", None),
        ([0, int("9" * 4000)], f"entry {'9' * 18}...{'9' * 19} is not an integer in [0, 3)",
         None),
        ([0, 1, 2, 1], "entry 1 is repeated", None),
        ([1, 2], "0 is not an entry", None),
        ([0, 1], "1 + 1 = 2 is not an entry", (1, 1)),
    ])
    def test_each_failure_of_a_submonoid_is_named(self, subset, message, witness):
        # one check behind every caller: the first failure, a long entry cut
        # short, and a sum outside the subset with its witness
        M = cyclic_group(3)
        calls = [lambda: sub_as_monoid(M, subset), lambda: bourne_congruence(M, subset),
                 lambda: internal_direct_sum_check(M, [list(M.elements()), subset]),
                 lambda: direct_summand_analysis(M, subset)]
        for call in calls:
            with pytest.raises(NotASubmonoid) as e:
                call()
            assert str(e.value) == message and e.value.witness == witness
        assert not M.is_submonoid(subset)

    def test_the_witness_is_the_least_sum_outside(self):
        M = validate_monoid(M4_TABLE)
        with pytest.raises(NotASubmonoid, match=r"^1 \+ 2 = 3 is not an entry$") as e:
            sub_as_monoid(M, (2, 1, 0))
        assert e.value.witness == (1, 2)
        assert sub_as_monoid(M, (3, 1, 0))[1].image == (0, 1, 3)


class TestDirectSums:
    def test_four_element_counterexample(self):
        M = validate_monoid(M4_TABLE)
        v = internal_direct_sum_check(M, [(0, 1), (0, 2, 3)])
        assert v.sum_is_all and v.independent
        assert not v.unique_decomposition
        # 1A + 1B = 0 + 2B
        assert set(v.witness) == {(0, 3), (1, 2)}
        assert not v.is_internal_direct_sum

    def test_z2_times_z3(self):
        bp = biproduct(cyclic_group(2), cyclic_group(3))
        f1 = tuple(h for h in bp.injections[0].image)
        f2 = tuple(h for h in bp.injections[1].image)
        v = internal_direct_sum_check(bp.monoid, [f1, f2])
        assert v.is_internal_direct_sum

    def test_whole_monoid(self):
        M = cyclic_group(3)
        assert internal_direct_sum_check(M, [tuple(M.elements())]).is_internal_direct_sum

    def test_direct_sum_matches_biproduct(self):
        # whenever the check succeeds, summation from the biproduct is a bijection
        bp = biproduct(cyclic_group(2), cyclic_group(3))
        M = bp.monoid
        for s1 in all_submonoids(M):
            for s2 in all_submonoids(M):
                v = internal_direct_sum_check(M, [s1, s2])
                if v.is_internal_direct_sum:
                    sums = {M.plus(a, b) for a in s1 for b in s2}
                    assert len(sums) == len(s1) * len(s2) == M.size


class TestDirectSummand:
    def test_three_element_counterexample(self):
        N = validate_monoid([[0, 1, 2], [1, 1, 2], [2, 2, 2]])
        a = direct_summand_analysis(N, (0, 1))
        assert a.complement is None
        assert a.retraction is not None and a.retraction.image == (0, 1, 1)
        assert a.idempotent is not None and a.idempotent.image == (0, 1, 1)

    def test_factor_of_biproduct(self):
        bp = biproduct(cyclic_group(2), cyclic_group(3))
        factor = tuple(sorted(bp.injections[0].image))
        a = direct_summand_analysis(bp.monoid, factor)
        assert a.complement is not None

    def test_zero_submonoid(self):
        N = saturating_monoid(3)
        a = direct_summand_analysis(N, (0,))
        assert a.complement == tuple(N.elements())

    @staticmethod
    def eager_analysis(N, M):
        """`direct_summand_analysis` as it was: a complement among all
        submonoids, and a retraction and an idempotent from two hom lists."""
        M = tuple(sorted(M))
        complement = next((S for S in all_submonoids(N)
                           if internal_direct_sum_check(N, [M, S]).is_internal_direct_sum), None)
        Msub, _ = sub_as_monoid(N, M)
        retraction = next((h for h in enumerate_homs(N, Msub)
                           if all(h.image[m] == i for i, m in enumerate(M))), None)
        idempotent = next((h for h in enumerate_homs(N, N) if set(h.image) == set(M)
                           and all(h.image[v] == v for v in h.image)), None)
        return core.SummandAnalysis(complement, retraction, idempotent)

    def test_same_analysis_as_over_lists_on_corpus3(self):
        # every submonoid of corpus(4) and of four small products
        Ns = small_monoid_corpus(4) + [
            _product([saturating_monoid(3), cyclic_group(2)]),
            _product([cyclic_group(2), cyclic_group(3)]),
            _product([saturating_monoid(3), saturating_monoid(3)]),
            _product([cyclic_group(2), cyclic_group(2), saturating_monoid(2)])]
        cases = 0
        for N in Ns:
            for M in all_submonoids(N):
                assert direct_summand_analysis(N, M) == self.eager_analysis(N, M)
                cases += 1
        assert cases == 272

    def test_the_least_complement_is_not_the_first(self):
        # Z/2 x Z/4 relabelled: of the two complements of M, the retraction
        # that comes first in the stream has kernel (0, 5), the later one (0, 2)
        N = validate_monoid(relabel(_product([cyclic_group(2), cyclic_group(4)]).add,
                                    [0, 4, 7, 3, 5, 6, 2, 1]))
        M = (0, 3, 4, 7)
        a = direct_summand_analysis(N, M)
        assert a.complement == (0, 2) and a == self.eager_analysis(N, M)
        assert internal_direct_sum_check(N, [M, (0, 5)]).is_internal_direct_sum
        assert a.retraction.image[5] == 0 and a.retraction.image[2] != 0

    @pytest.mark.parametrize("A, B", [
        (saturating_monoid(5), saturating_monoid(5)),
        (saturating_monoid(3), _product([saturating_monoid(3), saturating_monoid(3)])),
        (cyclic_group(6), saturating_monoid(6)),
        (saturating_monoid(6), cyclic_group(6)),
        (_product([cyclic_group(2), saturating_monoid(3)]),
         _product([cyclic_group(3), saturating_monoid(3)])),
        (saturating_monoid(2), _product([saturating_monoid(4), saturating_monoid(4)])),
        (saturating_monoid(4), saturating_monoid(6))],
        ids=["Sat5xSat5", "Sat3xSat3^2", "Z6xSat6", "Sat6xZ6", "(Z2xSat3)x(Z3xSat3)",
             "Sat2xSat4^2", "Sat4xSat6"])
    def test_factor_of_a_biproduct_past_the_subset_search(self, A, B):
        # 24 to 54 elements, 2^23 to 2^53 subsets; every complement of i1(A)
        # has |B| elements and i2(B) = {0, ..., |B| - 1} is one of them
        bp = biproduct(A, B)
        M = bp.injections[0].image
        a = direct_summand_analysis(bp.monoid, M)
        assert a.complement == tuple(range(B.size))
        assert a.retraction.compose(bp.injections[0]).image == tuple(range(A.size))
        e = a.idempotent
        assert e.compose(e) == e and set(e.image) == set(M)

    def test_sat4_squared_stops_at_the_first_idempotent(self):
        # the stream N -> M = {0, 1} spends 60 generator images in all, where the
        # whole list of the 160,000 endomorphisms needs a budget of 750,672
        S = saturating_monoid(4)
        N = biproduct(S, S).monoid
        M = submonoid_generated(N, [1])
        a = direct_summand_analysis(N, M, budget=60)
        assert a.complement is None
        assert a.retraction.image == a.idempotent.image == (0, 1, 1, 1) * 4
        with pytest.raises(BudgetExceeded):
            direct_summand_analysis(N, M, budget=59)
        with pytest.raises(BudgetExceeded):
            enumerate_homs(N, N, budget=200_000)

    def test_one_hom_search_from_n_to_m(self, monkeypatch):
        real, searches = core.iter_homs, []

        def spy(M, N, budget=core.DEFAULT_BUDGET):
            searches.append((M, N.size))
            return real(M, N, budget)

        monkeypatch.setattr(core, "iter_homs", spy)
        N = _product([saturating_monoid(3), cyclic_group(2)])
        for M in all_submonoids(N):
            searches.clear()
            direct_summand_analysis(N, M)
            # M = N needs no search: its only retraction is the identity
            assert searches == ([] if len(M) == N.size else [(N, len(M))])

    @staticmethod
    def stream_analysis(N, M):
        """The answer of the retraction stream, run to its end."""
        Msub, incl = sub_as_monoid(N, M)
        retractions = [r for r in iter_homs(N, Msub) if r.compose(incl) == identity_hom(Msub)]
        kernels = sorted({tuple(x for x, v in enumerate(r.image) if v == 0) for r in retractions})
        complement = next((S for S in kernels
                           if internal_direct_sum_check(N, [incl.image, S]).is_internal_direct_sum), None)
        first = retractions[0] if retractions else None
        return core.SummandAnalysis(complement, first, incl.compose(first) if first else None)

    def test_the_whole_monoid_is_answered_without_the_stream(self, monkeypatch):
        for N in small_monoid_corpus(4):
            M = tuple(N.elements())
            a = direct_summand_analysis(N, M)
            assert a == self.stream_analysis(N, M)
            assert a.complement == (0,) and a.idempotent == identity_hom(N)

        def stream(*args):
            raise AssertionError("the hom stream ran")

        # Sat4 x Sat4 has 160,000 endomorphisms, which the stream would read
        monkeypatch.setattr(core, "iter_homs", stream)
        S = saturating_monoid(4)
        N = biproduct(S, S).monoid
        a = direct_summand_analysis(N, reversed(range(N.size)), budget=0)
        assert a.complement == (0,) and a.retraction.image == tuple(range(16))

    def test_complement_search_honours_the_budget(self, monkeypatch):
        # Sat22 -> {0, 1} takes 462 generator images; a retraction's kernel
        # is checked only after the whole stream
        N = saturating_monoid(22)
        a = direct_summand_analysis(N, (0, 1), budget=462)
        assert a.complement is None and a.retraction.image == (0,) + (1,) * 21

        def closed(*args):
            raise AssertionError("a subset was closed")

        monkeypatch.setattr(core, "submonoid_generated", closed)
        with pytest.raises(BudgetExceeded):
            direct_summand_analysis(N, (0, 1), budget=461)


class TestFreeVectors:
    def test_empty_vector(self):
        g = free_universal_map(["x"], {"x": 1}, cyclic_group(3))
        assert g(NatVec.zero()) == 0

    def test_label_of_x_without_a_value(self):
        with pytest.raises(OutOfRange, match="f has no value at 'y'"):
            free_universal_map(["x", "y"], {"x": 1}, cyclic_group(3))

    def test_value_outside_m(self):
        for bad in (3, -1, "a", 1.0):
            with pytest.raises(OutOfRange, match=r"f\('x'\) out of range"):
                free_universal_map(["x"], {"x": bad}, cyclic_group(3))

    def test_label_outside_x(self):
        g = free_universal_map(["x"], {"x": 1, "z": 2}, cyclic_group(3))
        with pytest.raises(OutOfRange, match="unknown label 'z'"):
            g(NatVec.of({"z": 1}))

    def test_scalar_consistency(self):
        M = saturating_monoid(4)
        g = free_universal_map(["x"], {"x": 2}, M)
        assert g(NatVec.of({"x": 3})) == M.scalar(3, 2)

    def test_two_labels_c42(self):
        g = free_universal_map(["x", "y"], {"x": 1, "y": 2}, C42)
        assert g(NatVec.of({"x": 1, "y": 2})) == 5  # 1 + 2 + 2

    def test_additivity(self):
        M = C42
        g = free_universal_map(["x", "y"], {"x": 3, "y": 2}, M)
        u, v = NatVec.of({"x": 2}), NatVec.of({"x": 1, "y": 4})
        assert g(u + v) == M.plus(g(u), g(v))

    def test_labels_of_mixed_types(self):
        assert NatVec.of({1: 1, "a": 1}) == NatVec.of({"a": 1, 1: 1})
        u, v = NatVec.unit(1), NatVec.unit("a")
        assert u + v == v + u == NatVec.of({1: 1, "a": 1})
        g = free_universal_map([1, "a"], {1: 1, "a": 2}, C42)
        assert g(u + v) == g(v + u) == C42.plus(1, 2)

    def test_labels_of_one_type_that_do_not_compare(self):
        with pytest.raises(OutOfRange, match="labels of one type must be comparable"):
            NatVec.of({1j: 1, 2j: 1})
        with pytest.raises(OutOfRange):
            NatVec.unit(1j) + NatVec.unit(2j)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_free_universal_map_is_n_linear_and_natural(data):
    M = data.draw(st.sampled_from(small_monoid_corpus(3) + [C42]))
    X = ["x", "y", "z"]
    f = {x: data.draw(st.integers(0, M.size - 1)) for x in X}
    mult = data.draw(st.dictionaries(st.sampled_from(X), st.integers(0, 40)))
    k = data.draw(st.integers(0, 40))
    g, v = free_universal_map(X, f, M), NatVec.of(mult)
    assert [v.get(x) for x in X] == [mult.get(x, 0) for x in X]
    assert g(v.scale(k)) == M.scalar(k, g(v))
    assert [g(NatVec.unit(x)) for x in X] == [f[x] for x in X]
    # a hom h after g is the universal map of h o f
    h = data.draw(st.sampled_from(enumerate_homs(M, C42)))
    assert h(g(v)) == free_universal_map(X, {x: h(f[x]) for x in X}, C42)(v)


def test_echoes_of_a_callers_values_are_bounded():
    """Short values echo as repr does; long or deep ones stay under 100 characters."""
    class Index:
        def __index__(self):
            return 1

    for v in (True, -1, "a", None, [1], (1, 2, 3), 1.5, [2, "3"], Index()):
        assert core._echo(v) == repr(v)
    deep = []
    for _ in range(900):
        deep = [deep]
    wide = [[[[[[0] * 6] * 6] * 6] * 6] * 6] * 6   # six levels of six: reprlib keeps them all
    for v in (int("9" * 4000), "x" * 10**5, list(range(10**5)), deep, wide):
        assert len(core._echo(v)) <= 100
    assert len(core._REPR.repr(wide)) > 1000
    # past int()'s digit limit repr raises, so the echo is the bit length
    assert core._echo(10**5000) == "<int of 16610 bits>"
    assert core._echo((0, -10**5000)) == "(0, -<int of 16610 bits>)"


TOO_LONG = 10**5000                     # more digits than repr() prints


TOO_LONG_REFUSALS = {
    "validate_monoid": (lambda: validate_monoid([[0, 1], [1, TOO_LONG]]), OutOfRange),
    "hom_check": (lambda: hom_check(cyclic_group(2), cyclic_group(2), [0, TOO_LONG]),
                  OutOfRange),
    "congruence_closure": (lambda: congruence_closure(cyclic_group(3), [(0, TOO_LONG)]),
                           OutOfRange),
    "submonoid_generated": (lambda: submonoid_generated(cyclic_group(3), [TOO_LONG]),
                            OutOfRange),
    "sub_as_monoid": (lambda: sub_as_monoid(cyclic_group(3), [0, TOO_LONG]), NotASubmonoid),
    "bound_cap": (lambda: natcoeq.nat_congruence_quotient([(0, 1)], bound_cap=-TOO_LONG),
                  OutOfRange),
    "cyclic_group": (lambda: cyclic_group(-TOO_LONG), OutOfRange),
    "orbit": (lambda: cyclic_group(3).orbit(TOO_LONG), OutOfRange),
    "scalar": (lambda: cyclic_group(3).scalar(1, TOO_LONG), OutOfRange),
    "footing": (lambda: Semiideal([TOO_LONG, TOO_LONG + 1]).footing(), BudgetExceeded),
    "nat_congruence_quotient": (lambda: natcoeq.nat_congruence_quotient([(0, TOO_LONG)]),
                                natcoeq.BoundCapExceeded),
    "coequalizer_nat": (lambda: natcoeq.coequalizer_nat(0, TOO_LONG), natcoeq.BoundCapExceeded),
    "bezout_nonneg_scaled": (lambda: bezout_nonneg_scaled(TOO_LONG, 1, 3), NotDivisible),
}


@pytest.mark.parametrize("call, error", TOO_LONG_REFUSALS.values(), ids=TOO_LONG_REFUSALS.keys())
def test_a_refusal_of_an_int_too_long_to_print_is_its_own(call, error):
    """Each check raises its own exception with a short message, not the
    ValueError that printing the int whole would raise."""
    with pytest.raises(error) as e:
        call()
    assert type(e.value) is error and len(str(e.value)) <= 300


def test_json_round_trip():
    M = validate_monoid(M4_TABLE, ["0", "1A", "1B", "2B"])
    assert monoid_from_json(monoid_to_json(M)) == M


Z2, Z3, Z4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)


@pytest.mark.parametrize("call, error, message", [
    (lambda: chain_congruence(zero_hom(Z2, Z4), zero_hom(Z3, Z4)),
     SemimodError, "^mismatched sources$"),
    (lambda: chain_congruence(zero_hom(Z2, Z4), zero_hom(Z2, Z3)),
     SemimodError, "^mismatched targets$"),
    (lambda: induced_map(identity_hom(Z2), identity_hom(Z3),
                         tensor_product(Z3, Z3), tensor_product(Z2, Z3)),
     SemimodError, "^T must be the tensor of the sources$"),
    (lambda: induced_map(identity_hom(Z2), identity_hom(Z3),
                         tensor_product(Z2, Z3), tensor_product(Z3, Z3)),
     SemimodError, "^T2 must be the tensor of the targets$"),
    (lambda: kernel_pair(identity_hom(Z2)).pairing(identity_hom(Z2), zero_hom(Z2, Z2)),
     SemimodError, r"^the pair \(g, h\) does not land in the relation$"),
    (lambda: tensor_with_free(cyclic_group(11), range(3)),
     BudgetExceeded, "^free power cells: 1771561 exceeds budget 1000000$"),
    (lambda: Z3.orbit(3), OutOfRange, "^element 3 out of range$"),
    (lambda: Z3.orbit(-1), OutOfRange, "^element -1 out of range$"),
    (lambda: Z3.scalar(2, 3), OutOfRange, "^element 3 out of range$"),
    (lambda: Z3.scalar(-1, 1), OutOfRange, "^scalar must be nonnegative$"),
    # exact ints only: a float, a string or a bool is refused, not indexed or compared
    (lambda: Z3.orbit(1.0), OutOfRange, r"^1\.0 is not an integer$"),
    (lambda: Z3.orbit("a"), OutOfRange, "^'a' is not an integer$"),
    (lambda: Z3.orbit(True), OutOfRange, "^True is not an integer$"),
    (lambda: Z3.scalar(2, 1.0), OutOfRange, r"^1\.0 is not an integer$"),
    (lambda: Z3.scalar(1.5, 1), OutOfRange, r"^1\.5 is not an integer$"),
    (lambda: NatVec.of({"x": 1.5}), OutOfRange, r"^1\.5 is not an integer$"),
    (lambda: NatVec.of({"x": "a"}), OutOfRange, "^'a' is not an integer$"),
    (lambda: free_universal_map(["x"], {"x": 1}, Z3)(NatVec((("x", 1.5),))),
     OutOfRange, r"^1\.5 is not an integer$"),
    (lambda: hom_check(Z2, Z3, (0,)), OutOfRange, "^image table length mismatch$"),
])
def test_library_boundaries_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_cut_keeps_both_ends_of_a_long_text():
    text = "".join(map(str, range(100)))
    for width in (100, 150):
        head, tail = core._cut(text, width).split("...")
        assert len(head) + 3 + len(tail) == width
        assert text.startswith(head) and text.endswith(tail)
    assert core._cut(text, len(text)) == text
