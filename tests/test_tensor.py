from math import comb, gcd

import pytest

from semimod import tensor
from semimod.core import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    cyclic_group,
    enumerate_homs,
    hom_check,
    identity_hom,
    saturating_monoid,
    small_monoid_corpus,
    trivial_monoid,
    validate_monoid,
    zero_hom,
)
from semimod.natcoeq import CyclicMonoid
from semimod.tensor import (
    NotBalanced,
    PresentedCommMonoid,
    TensorProduct,
    balanced_check,
    associativity_iso,
    enumerate_balanced_maps,
    hom_adjunction_check,
    hom_monoid,
    induced_map,
    symmetry_iso,
    tensor_product,
    tensor_with_free,
    universal_factorization,
)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
SAT2 = saturating_monoid(2)


def all_pairs_presentation(M, N) -> PresentedCommMonoid:
    """Reference presentation: one generator m (x) n per pair of nonzero
    elements, and every biadditivity relation between them."""
    gens = tuple((m, n) for m in range(1, M.size) for n in range(1, N.size))
    rules = []
    for m, n in gens:
        om, on = M.orbit(m), N.orbit(n)
        if om.index + om.period <= on.index + on.period:
            rules.append((om.index, om.period))
        else:
            rules.append((on.index, on.period))
    pos = {g: i for i, g in enumerate(gens)}

    def elem(m, n):
        v = [0] * len(gens)
        if m and n:
            v[pos[m, n]] = 1
        return v

    relations = []
    for n in range(1, N.size):
        for m in range(1, M.size):
            for m2 in range(m, M.size):
                lhs = tuple(a + b for a, b in zip(elem(m, n), elem(m2, n)))
                relations.append((lhs, tuple(elem(M.add[m][m2], n))))
    for m in range(1, M.size):
        for n in range(1, N.size):
            for n2 in range(n, N.size):
                lhs = tuple(a + b for a, b in zip(elem(m, n), elem(m, n2)))
                relations.append((lhs, tuple(elem(m, N.add[n][n2]))))
    return PresentedCommMonoid(gens, tuple(rules), tuple(relations))


def all_pairs_tensor(M, N, budget=DEFAULT_BUDGET) -> TensorProduct:
    """The tensor saturated on the box of the all-pairs presentation."""
    pres = all_pairs_presentation(M, N)
    T, classes, reps, gen_class = tensor._saturate(pres, budget)
    bil = [[0] * N.size for _ in range(M.size)]
    for (m, n), c in zip(pres.generators, gen_class):
        bil[m][n] = c
    return TensorProduct(T, tuple(map(tuple, bil)), M, N, pres, classes, reps)


class TestTensorProduct:
    def test_trivial_factor(self):
        assert tensor_product(trivial_monoid(), Z3).monoid.size == 1
        assert tensor_product(Z3, trivial_monoid()).monoid.size == 1

    def test_z2_z3_trivial(self):
        assert tensor_product(Z2, Z3).monoid.size == 1

    def test_z2_z2_is_z2(self):
        T = tensor_product(Z2, Z2)
        assert T.monoid.size == 2
        assert T.pure(1, 1) != 0

    def test_bilinear_is_balanced(self):
        for M in (Z2, Z3, SAT2):
            for N in (Z2, Z3, SAT2):
                T = tensor_product(M, N)
                ok, witness = balanced_check(M, N, T.monoid, T.bilinear)
                assert ok, witness

    def test_generation_by_pure_tensors(self):
        # every element is a sum of pure tensors
        for M in (Z2, Z3, SAT2, saturating_monoid(3)):
            for N in (Z2, Z3, SAT2):
                T = tensor_product(M, N)
                reached = {0}
                frontier = {0}
                pures = {T.pure(m, n) for m in M.elements() for n in N.elements()}
                while frontier:
                    nxt = {T.monoid.plus(x, p) for x in frontier for p in pures}
                    frontier = nxt - reached
                    reached |= nxt
                assert reached == set(T.monoid.elements())

    def test_pure_map_not_injective(self):
        T = tensor_product(Z3, Z2)
        pairs = [(m, 0) for m in Z3.elements()]
        values = [T.pure(m, n) for m, n in pairs]
        assert len(set(values)) == 1  # all (m, 0) collapse to 0


class TestKnownAnswers:
    def test_cyclic_tensor_is_cyclic_of_gcd(self):
        # Z/m (x) Z/n ~ Z/gcd(m, n) by x (x) y -> xy mod gcd
        cases = ([(2, n) for n in range(1, 9)] + [(n, 2) for n in range(1, 9)]
                 + [(3, 3), (5, 5), (2, 60), (12, 18)])
        for m, n in cases:
            g = gcd(m, n)
            T = tensor_product(cyclic_group(m), cyclic_group(n))
            assert T.monoid.size == g
            image = {}
            for x in range(m):
                for y in range(n):
                    assert image.setdefault(T.pure(x, y), x * y % g) == x * y % g
            phi = hom_check(T.monoid, cyclic_group(g), [image[t] for t in range(g)])
            assert phi.is_bijective()

    def test_saturating_tensor_size_is_binomial(self):
        for m in range(1, 11):
            for n in range(1, 11):
                if (m - 1) * (n - 1) <= 9:
                    T = tensor_product(saturating_monoid(m), saturating_monoid(n))
                    assert T.monoid.size == comb(m + n - 2, m - 1), (m, n)

    def test_cyclic_monoid_tensor_size(self):
        # |C(i, p) (x) C(j, q)| = min(i, j) + gcd(p, q): N (x) N = N, and the
        # tensor is right exact in each variable
        params = [(i, p) for i in range(5) for p in range(1, 7)]
        cyc = {ip: CyclicMonoid(*ip).to_monoid(labels=False) for ip in params}
        for i, p in params:
            for j, q in params:
                T = tensor_product(cyc[i, p], cyc[j, q])
                assert T.monoid.size == min(i, j) + gcd(p, q), (i, p, j, q)

    def test_reps_are_lex_least_in_their_class(self):
        for M, N in [(Z2, cyclic_group(4)), (cyclic_group(4), Z2), (Z3, SAT2),
                     (saturating_monoid(3), saturating_monoid(3)), (Z3, Z3)]:
            T = tensor_product(M, N)
            least = {}
            for v, cls in zip(T.presentation.box_vectors(), T.classes):
                if cls not in least or v < least[cls]:
                    least[cls] = v
            assert tuple(least[i] for i in range(T.monoid.size)) == T.reps
            assert T.reps[0] == (0,) * len(T.reps[0])


class TestAllPairsOracle:
    def test_isomorphic_to_all_pairs_tensor_on_corpus(self):
        pool = small_monoid_corpus(3) + [cyclic_group(4), saturating_monoid(4)]
        for M in pool:
            for N in pool:
                old, new = all_pairs_tensor(M, N), tensor_product(M, N)
                g = universal_factorization(old, new.monoid, new.bilinear)
                assert g.is_bijective()
                assert universal_factorization(new, old.monoid, old.bilinear).is_bijective()

    def test_box_is_the_product_of_generating_sets(self):
        M, N = cyclic_group(4), saturating_monoid(4)
        T = tensor_product(M, N)
        assert T.presentation.generators == tuple((1, y) for y in (1, 2, 3))
        assert T.presentation.box_volume() == 2 ** 3
        assert all_pairs_tensor(M, N).presentation.box_volume() == 2 ** 9


class TestBudgets:
    def test_tensor_budget(self):
        with pytest.raises(BudgetExceeded, match="box volume 33554432"):   # 2^25
            tensor_product(saturating_monoid(6), saturating_monoid(6))

    def test_balanced_maps_budget(self, monkeypatch):
        monkeypatch.setattr(tensor, "DEFAULT_BUDGET", 81)   # 3^4 maps: exactly at the cap
        assert enumerate_balanced_maps(Z3, Z3, saturating_monoid(3))
        monkeypatch.setattr(tensor, "DEFAULT_BUDGET", 80)
        with pytest.raises(BudgetExceeded):
            enumerate_balanced_maps(Z3, Z3, saturating_monoid(3))
        monkeypatch.undo()
        with pytest.raises(BudgetExceeded):     # 5^16 maps: refused before the search
            enumerate_balanced_maps(cyclic_group(5), cyclic_group(5), cyclic_group(5))

    def test_adjunction_check_passes_its_budget(self, monkeypatch):
        seen = []

        def spy(M, N, budget=None):
            seen.append(budget)
            return enumerate_homs(M, N, budget)

        monkeypatch.setattr(tensor, "enumerate_homs", spy)
        assert hom_adjunction_check(Z2, Z2, SAT2, budget=1234)
        assert seen == [1234] * 3
        with pytest.raises(BudgetExceeded):
            hom_adjunction_check(trivial_monoid(), saturating_monoid(3), saturating_monoid(3),
                                 budget=2)


class TestBalancedCheck:
    def test_zero_map(self):
        f = [[0] * Z3.size for _ in Z2.elements()]
        assert balanced_check(Z2, Z3, Z2, f)[0]

    def test_perturbed_bilinear_detected(self):
        T = tensor_product(Z3, Z3)
        f = [list(r) for r in T.bilinear]
        f[1][1] = (f[1][1] + 1) % T.monoid.size
        ok, witness = balanced_check(Z3, Z3, T.monoid, f)
        assert not ok and witness is not None


class TestUniversalFactorization:
    def test_factor_bilinear_itself(self):
        T = tensor_product(Z2, Z2)
        g = universal_factorization(T, T.monoid, T.bilinear)
        assert g.image == tuple(T.monoid.elements())

    def test_factor_zero(self):
        T = tensor_product(Z2, Z2)
        f = [[0, 0], [0, 0]]
        g = universal_factorization(T, Z3, f)
        assert g.image == (0, 0)

    def test_rejects_unbalanced(self):
        T = tensor_product(Z2, Z2)
        with pytest.raises(NotBalanced):
            universal_factorization(T, Z2, [[0, 1], [0, 0]])

    def test_all_balanced_maps_factor_uniquely(self):
        corpus = small_monoid_corpus(3)
        for M in (Z2, SAT2):
            for N in (Z2, SAT2):
                T = tensor_product(M, N)
                for A in corpus:
                    for f in enumerate_balanced_maps(M, N, A):
                        g = universal_factorization(T, A, f)
                        for m in M.elements():
                            for n in N.elements():
                                assert g.image[T.pure(m, n)] == f[m][n]
                        # uniqueness: any hom agreeing on pure tensors equals g
                        same = [h for h in enumerate_homs(T.monoid, A)
                                if all(h.image[T.pure(m, n)] == f[m][n]
                                       for m in M.elements() for n in N.elements())]
                        assert [h.image for h in same] == [g.image]

    def test_universal_probe_picks_the_computed_tensor(self):
        # no proper quotient of the tensor admits all balanced maps:
        # for Z2 (x) Z3 only the one-element monoid works
        T = tensor_product(Z2, Z3)
        assert T.monoid.size == 1
        for A in small_monoid_corpus(3):
            for f in enumerate_balanced_maps(Z2, Z3, A):
                assert all(v == 0 for row in f for v in row)


class TestInducedMaps:
    def test_id_tensor_id(self):
        T = tensor_product(Z2, SAT2)
        g = induced_map(identity_hom(Z2), identity_hom(SAT2), T, T)
        assert g.image == tuple(T.monoid.elements())

    def test_zero_tensor_anything(self):
        T = tensor_product(Z2, Z2)
        g = induced_map(zero_hom(Z2, Z2), identity_hom(Z2), T, T)
        assert all(v == 0 for v in g.image)

    def test_swap_on_z2_z2(self):
        T = tensor_product(Z2, Z2)
        swap = hom_check(Z2, Z2, [0, 1])
        g = induced_map(swap, swap, T, T)
        assert g.image == tuple(T.monoid.elements())

    def test_functoriality_composition(self):
        M, N = cyclic_group(4), Z2
        T = tensor_product(M, N)
        T2 = tensor_product(Z2, Z2)
        f = hom_check(M, Z2, [0, 1, 0, 1])
        g = identity_hom(Z2)
        h = hom_check(N, Z2, [0, 1])
        lhs = induced_map(f, g.compose(h), T, T2)
        # interchange: f (x) g = (f (x) id) o (id (x) g)
        mid = tensor_product(M, Z2)
        step1 = induced_map(identity_hom(M), g.compose(h), T, mid)
        step2 = induced_map(f, identity_hom(Z2), mid, T2)
        assert step2.compose(step1).image == lhs.image


class TestTensorWithFree:
    def test_rank_one_is_right_unit(self):
        for M in (Z2, Z3, saturating_monoid(3)):
            P, pure = tensor_with_free(M, ["x"])
            assert P.add == M.add
            assert [pure(m, "x") for m in M.elements()] == list(M.elements())

    def test_rank_zero(self):
        P, _ = tensor_with_free(Z3, [])
        assert P.size == 1

    def test_z2_rank_two(self):
        P, pure = tensor_with_free(Z2, ["x", "y"])
        assert P.size == 4
        # unique representation: each element decomposes by coordinates once
        for e in range(P.size):
            decomps = [(a, b) for a in Z2.elements() for b in Z2.elements()
                       if P.plus(pure(a, "x"), pure(b, "y")) == e]
            assert len(decomps) == 1


class TestCoherence:
    def test_symmetry_involution(self):
        M = saturating_monoid(3)
        iso = symmetry_iso(M, M)
        assert iso.verify()
        tau = iso.forward
        assert tau.compose(tau).image == tuple(tau.source.elements())

    def test_symmetry_z2_z3(self):
        iso = symmetry_iso(Z2, Z3)
        assert iso.forward.source.size == 1 and iso.forward.target.size == 1

    def test_symmetry_naturality(self):
        M, N = cyclic_group(4), Z2
        T = tensor_product(M, N)
        S = tensor_product(N, M)
        tau = symmetry_iso(M, N).forward
        f = hom_check(M, Z2, [0, 1, 0, 1])
        g = identity_hom(Z2)
        T2 = tensor_product(Z2, Z2)
        S2 = tensor_product(Z2, Z2)
        tau2 = symmetry_iso(Z2, Z2).forward
        lhs = tau2.compose(induced_map(f, g, T, T2))
        rhs = induced_map(g, f, S, S2).compose(tau)
        assert lhs.image == rhs.image

    def test_associativity_trivial(self):
        iso = associativity_iso(trivial_monoid(), Z2, Z3)
        assert iso.forward.source.size == 1

    def test_associativity_z2_cube(self):
        iso = associativity_iso(Z2, Z2, Z2)
        assert iso.verify()
        assert iso.forward.source.size == 2

    def test_associativity_on_corpus(self):
        corpus = small_monoid_corpus(3)
        for M in corpus:
            for N in corpus:
                for P in corpus:
                    assert associativity_iso(M, N, P).verify()

    def test_triangle_on_rank_one_free(self):
        # (A (x) free_1) (x) B vs A (x) (free_1 (x) B): the unit laws collapse
        # both sides to A (x) B
        A, B = Z2, cyclic_group(4)
        left = tensor_product(tensor_with_free(A, ["x"])[0], B)
        right = tensor_product(A, tensor_with_free(B, ["x"])[0])
        base = tensor_product(A, B)
        assert left.monoid.size == base.monoid.size == right.monoid.size
        assert symmetry_iso(A, B).verify()


class TestAdjunction:
    def test_trivial_p(self):
        assert hom_adjunction_check(trivial_monoid(), Z2, Z3)

    def test_z2_cube(self):
        assert hom_adjunction_check(Z2, Z2, Z2)
        H, homs = hom_monoid(Z2, Z2)
        assert H.size == 2

    def test_hom_counts_equal(self):
        for P in (Z2, SAT2):
            for M in (Z2, Z3):
                for N in (Z2, saturating_monoid(3)):
                    T = tensor_product(P, M)
                    H, _ = hom_monoid(M, N)
                    assert len(enumerate_homs(T.monoid, N)) == len(enumerate_homs(P, H))

    def test_full_corpus(self):
        corpus = small_monoid_corpus(3)
        for P in corpus:
            for M in corpus:
                for N in corpus:
                    assert hom_adjunction_check(P, M, N)


class TestUniquenessUpToIso:
    def test_permuted_factor_gives_unique_iso(self):
        # relabel the nonzero elements of Z3 and compare tensors
        perm = hom_check(Z3, Z3, [0, 2, 1])  # negation is an automorphism
        M = saturating_monoid(3)
        T = tensor_product(Z3, M)
        T2 = tensor_product(Z3, M)
        g = induced_map(perm, identity_hom(M), T, T2)
        assert g.is_bijective()
        # unique structure iso commuting with the pure-tensor maps
        matching = [h for h in enumerate_homs(T.monoid, T2.monoid)
                    if all(h.image[T.pure(m, n)] == T2.pure(perm.image[m], n)
                           for m in Z3.elements() for n in M.elements())]
        assert len(matching) == 1
