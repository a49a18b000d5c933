import gc
import random
import weakref
from copy import copy
from dataclasses import dataclass, replace
from functools import cache
from itertools import count, product
from math import comb, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semimod import tensor
from semimod.congruence import congruence_closure, quotient
from semimod.core import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CyclicMonoid,
    FiniteCommMonoid,
    MonoidHom,
    OutOfRange,
    SemimodError,
    _memo,
    _product,
    biproduct,
    cyclic_group,
    enumerate_comm_monoid_tables,
    enumerate_homs,
    hom_check,
    identity_hom,
    saturating_monoid,
    small_monoid_corpus,
    trivial_monoid,
    validate_monoid,
    zero_hom,
)
from semimod.tensor import (
    IsoWitness,
    NotBalanced,
    TensorProduct,
    WellDefinednessFailure,
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
from test_validation import RelabellingUnionFind, equivalence_of_pairs, fresh, relabel, words

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
SAT2 = saturating_monoid(2)
SAT3 = saturating_monoid(3)


@dataclass(frozen=True)
class PresentedCommMonoid:
    """Generators with per-coordinate wrap rules plus relation pairs."""

    generators: tuple[tuple[int, int], ...]       # (x, y) generator pairs
    rules: tuple[tuple[int, int], ...]            # (index, period) per generator
    relations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def reduce(self, vec):
        out = []
        for v, (i, p) in zip(vec, self.rules):
            if v >= i + p:
                v = i + (v - i) % p
            out.append(v)
        return tuple(out)

    def box_volume(self) -> int:
        vol = 1
        for i, p in self.rules:
            vol *= i + p
        return vol


@dataclass(frozen=True)
class BoxTensor(TensorProduct):
    """A tensor saturated on a box; `presentation` is a PresentedCommMonoid."""

    classes: tuple[int, ...]                      # element index of each box vector, lex order
    reps: tuple[tuple[int, ...], ...]             # element index -> lex-least vector


def wrap_rules(M, N, pairs):
    """Each generator m (x) n wraps at the shorter orbit of m and n."""
    rules = []
    for m, n in pairs:
        # counted from 1*m, as the box is: a unit's orbit C(0, p) wraps at (1, p)
        om, on = ((max(o.index, 1), o.period) for o in (M.orbit(m), N.orbit(n)))
        # the smaller wrap bound gives the smaller sound box
        rules.append(om if sum(om) <= sum(on) else on)
    return tuple(rules)


def outer(u, v):
    """The word of u (x) v over X x Y: coordinate (x, y) is u[x] * v[y]."""
    return tuple(a * b for a in u for b in v)


def product_presentation(M, N) -> PresentedCommMonoid:
    """Reference presentation M (x) N = F(X x Y)/R over the presentations of
    M and N: R holds u (x) y = v (x) y for each relation u = v of M and each
    y in Y, and x (x) s = x (x) t for each relation s = t of N and each x in X
    (right exactness); the word of a generator is its unit vector."""
    (nf_m, rel_m), (nf_n, rel_n) = words(M.presentation), words(N.presentation)
    gens = tuple(product(M.gens, N.gens))
    xs = [nf_m[x] for x in M.gens]
    ys = [nf_n[y] for y in N.gens]
    relations = [(outer(u, y), outer(v, y)) for u, v in rel_m for y in ys]
    relations += [(outer(x, s), outer(x, t)) for s, t in rel_n for x in xs]
    # two commuting non-tree edges of a Cayley graph give one relation twice
    return PresentedCommMonoid(gens, wrap_rules(M, N, gens), tuple(dict.fromkeys(relations)))


def all_pairs_presentation(M, N) -> PresentedCommMonoid:
    """Reference presentation: one generator m (x) n per pair of nonzero
    elements, and every biadditivity relation between them."""
    gens = tuple((m, n) for m in range(1, M.size) for n in range(1, N.size))
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
    return PresentedCommMonoid(gens, wrap_rules(M, N, gens), tuple(relations))


def saturate(pres: PresentedCommMonoid, budget: int):
    """The monoid pres presents, by saturating its box.

    Returns the monoid, the class of each box vector in code order, the
    lex-least vector of each class, and the class of each generator.
    """
    k = len(pres.generators)
    vol = pres.box_volume()
    if vol > budget:
        raise BudgetExceeded("box volume", vol, budget)

    # A box vector is coded in mixed radix i+p, first coordinate most
    # significant, so code order is lexicographic order.  Adding generator j
    # steps its digit up by one, or wraps it from i+p-1 back to i.
    radix = [i + p for i, p in pres.rules]
    stride = [1] * k
    for j in range(k - 1, 0, -1):
        stride[j - 1] = stride[j] * radix[j]
    wrap = [(1 - p) * s for (_, p), s in zip(pres.rules, stride)]

    def encode(vec) -> int:
        return sum(v * s for v, s in zip(pres.reduce(vec), stride))

    def step(c: int, j: int) -> int:
        return c + (wrap[j] if c // stride[j] % radix[j] == radix[j] - 1 else stride[j])

    # RelabellingUnionFind finds the smallest code of a class, so the root
    # is the class's lex-least vector
    uf = RelabellingUnionFind(vol)
    work = [(encode(a), encode(b)) for a, b in pres.relations]
    while work:
        a, b = work.pop()
        if uf.union(a, b):
            work.extend((step(a, j), step(b, j)) for j in range(k))

    # classes in order of their roots: the zero vector's class comes first
    cls: list[int] = []
    roots: list[int] = []
    for c in range(vol):
        r = uf.find(c)
        if r == c:
            cls.append(len(roots))
            roots.append(c)
        else:
            cls.append(cls[r])
    reps = tuple(tuple(r // s % d for s, d in zip(stride, radix)) for r in roots)

    table = [[cls[encode([a + b for a, b in zip(u, v)])] for v in reps] for u in reps]
    # every radix is at least 2, so the unit vector of generator j has code stride[j]
    return validate_monoid(table), tuple(cls), reps, tuple(cls[s] for s in stride)


def saturated_tensor(M, N, pres, bilinear, budget) -> BoxTensor:
    """The box tensor of pres, with bilinear(T, gen_class) giving m (x) n."""
    T, classes, reps, gen_class = saturate(pres, budget)
    # a vector sums v (m (x) n) = m (x) vn over its generators
    terms = tuple(tuple((m, N.scalar(v, n)) for (m, n), v in zip(pres.generators, rep) if v)
                  for rep in reps)
    return BoxTensor(T, bilinear(T, gen_class), M, N, pres, terms, classes, reps)


def box_tensor(M, N, budget=DEFAULT_BUDGET) -> BoxTensor:
    """The tensor saturated on the box of the product presentation; m (x) n
    is the class of nf(m) (x) nf(n)."""
    nf_m, nf_n = words(M.presentation)[0], words(N.presentation)[0]
    ky = len(N.gens)

    def bilinear(T, gen_class):
        # m (x) n is the sum of nf(m)[x] nf(n)[y] (x (x) y), summed over y first
        right = [[T.sum(T.scalar(e, gen_class[i * ky + j]) for j, e in enumerate(nf_n[n]))
                  for n in N.elements()] for i in range(len(M.gens))]
        return tuple(tuple(T.sum(T.scalar(e, right[i][n]) for i, e in enumerate(nf_m[m]))
                           for n in N.elements()) for m in M.elements())

    return saturated_tensor(M, N, product_presentation(M, N), bilinear, budget)


def all_pairs_tensor(M, N, budget=DEFAULT_BUDGET) -> BoxTensor:
    """The tensor saturated on the box of the all-pairs presentation."""
    pres = all_pairs_presentation(M, N)

    def bilinear(T, gen_class):
        bil = [[0] * N.size for _ in range(M.size)]
        for (m, n), c in zip(pres.generators, gen_class):
            bil[m][n] = c
        return tuple(map(tuple, bil))

    return saturated_tensor(M, N, pres, bilinear, budget)


def box_vectors(T: BoxTensor):
    """Every vector of T's box, in lex order (the order of T.classes)."""
    return product(*(range(i + p) for i, p in T.presentation.rules))


def all_pairs_balanced_check(M, N, A, f):
    """Reference check: biadditivity against every element, zero laws, and
    the scalar-exchange law for a few multipliers."""
    for n in range(N.size):
        if f[0][n] != 0:
            return False, ("zero-left", n)
        for m in range(M.size):
            for m2 in range(M.size):
                if f[M.add[m][m2]][n] != A.add[f[m][n]][f[m2][n]]:
                    return False, ("add-left", m, m2, n)
    for m in range(M.size):
        if f[m][0] != 0:
            return False, ("zero-right", m)
        for n in range(N.size):
            for n2 in range(N.size):
                if f[m][N.add[n][n2]] != A.add[f[m][n]][f[m][n2]]:
                    return False, ("add-right", m, n, n2)
    for m in range(M.size):
        for n in range(N.size):
            for r in range(5):
                if f[M.scalar(r, m)][n] != f[m][N.scalar(r, n)]:
                    return False, ("exchange", r, m, n)
    return True, None


def box_universal_factorization(T, A, f):
    """Reference factorization: every box vector must evaluate to the value
    of its class's representative, and g must agree with f on pure tensors."""
    M, N = T.source_m, T.source_n
    ok, witness = all_pairs_balanced_check(M, N, A, f)
    if not ok:
        raise NotBalanced(witness)
    gens = T.presentation.generators

    def evaluate(vec):
        acc = 0
        for (m, n), mult in zip(gens, vec):
            acc = A.add[acc][A.scalar(mult, f[m][n])]
        return acc

    image = [evaluate(rep) for rep in T.reps]
    for v, cls in zip(box_vectors(T), T.classes):
        if evaluate(v) != image[cls]:
            raise WellDefinednessFailure(f"vector {v} evaluates off its class representative")
    g = MonoidHom(T.monoid, A, tuple(image))
    for m in range(M.size):
        for n in range(N.size):
            if g.image[T.bilinear[m][n]] != f[m][n]:
                raise WellDefinednessFailure(f"g((x)) != f at ({m},{n})")
    return g


@cache
def pool():
    """corpus(<=3), whose eight monoids come first, then Z/4 and Sat4."""
    return small_monoid_corpus(3) + [cyclic_group(4), saturating_monoid(4)]


@cache
def pool_tensor(i, j):
    return tensor_product(pool()[i], pool()[j])


@cache
def pool_box(i, j):
    """The box tensor of the pair, and its isomorphism onto the power tensor."""
    box, T = box_tensor(pool()[i], pool()[j]), pool_tensor(i, j)
    return box, universal_factorization(box, T.monoid, T.bilinear)


def power_tensor(M, N, budget=DEFAULT_BUDGET) -> TensorProduct:
    """Reference for `tensor_product`: the same coequalizer of the power A^k,
    on A^k's full table by `congruence_closure` and `quotient`."""
    swap = N.size ** len(M.gens) < M.size ** len(N.gens)
    A, B = (N, M) if swap else (M, N)
    PB = B.presentation
    k = len(PB.gens)
    cells = A.size ** (2 * k)
    if cells > budget:
        raise BudgetExceeded("power table cells", cells, budget)
    P = _product([A] * k)
    stride = [A.size ** (k - 1 - j) for j in range(k)]
    pure = [[0] * B.size for _ in range(A.size)]
    for a, row in enumerate(pure):
        for e, j, t in PB.tree:
            row[t] = P.add[row[e]][a * stride[j]]
    seeds = tuple((P.add[pure[x][e]][x * stride[j]], pure[x][t])
                  for x in A.gens for e, j, t in PB.edges)
    C = congruence_closure(P, seeds)
    T, nu = quotient(P, C)
    bil = [[nu.image[c] for c in row] for row in pure]
    coords = [[(r // s % A.size, y) for s, y in zip(stride, PB.gens)] for r in sorted(set(C.rep))]
    terms = tuple(tuple((b, a) if swap else (a, b) for a, b in cs if a) for cs in coords)
    return TensorProduct(T, tuple(map(tuple, zip(*bil) if swap else bil)), M, N,
                         tensor.PowerPresentation(A, k, seeds), terms)


@cache
def oracle_pool():
    """corpus(<=4) with Z/4, Sat4 and Z/6: 30 monoids, 900 pairs."""
    return small_monoid_corpus(4) + [cyclic_group(4), saturating_monoid(4), cyclic_group(6)]


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

    def test_bilinear_maps_pass_the_boundary_check(self):
        """tensor_product checks its own map by the balanced laws alone; every
        map it builds on corpus(3)^2 also passes the boundary's shape and range check."""
        corpus = small_monoid_corpus(3)
        for M in corpus:
            for N in corpus:
                T = tensor_product(M, N)
                assert balanced_check(M, N, T.monoid, T.bilinear) == (True, None)

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

    def test_saturating_tensors_beyond_the_box(self):
        # the product presentation's boxes are 2^22, 2^21 and 2^29
        for m, n in [(3, 12), (4, 8), (2, 30)]:
            for a, b in [(m, n), (n, m)]:
                T = tensor_product(saturating_monoid(a), saturating_monoid(b))
                assert T.monoid.size == comb(m + n - 2, m - 1), (a, b)

    def test_the_smaller_power_is_raised(self):
        # |Sat4|^7 > |Sat8|^3, so Sat8 is raised whichever side it is on;
        # on a tie the left factor is
        for M, N in [(saturating_monoid(4), saturating_monoid(8)),
                     (saturating_monoid(8), saturating_monoid(4))]:
            assert tensor_product(M, N).presentation.box_volume() == 8 ** 3
        T = tensor_product(Z2, cyclic_group(4))
        assert T.presentation.box_volume() == 2                 # Z/2, not Z/4
        assert T.presentation.seeds == ((0, 0),)      # 1.(4) ~ 1.(0): both are 0 in Z/2
        # a tie: Z/2 (x) V and V (x) Z/2 for V = Z/2 x Z/2 raise the left
        # factor, seeded by 1 x 5 and 2 x 1 generators x relation edges
        V = biproduct(Z2, Z2).monoid
        assert [len(tensor_product(*pair).presentation.seeds) for pair in [(Z2, V), (V, Z2)]] == [5, 2]

    def test_semilattice_tensors_past_the_power_table(self):
        # |Sat_m (x) Sat_n| = C(m+n-2, m-1), and (Sat3 x Sat3) (x) (Sat3 x Sat3)
        # = (Sat3 (x) Sat3)^4 = 6^4 as (x) distributes over x; the powers' full
        # tables have 6^10, 16^6, 7^12 and 9^8 cells, all over the default budget
        S3x3, S4x4 = biproduct(SAT3, SAT3).monoid, biproduct(saturating_monoid(4),
                                                             saturating_monoid(4)).monoid
        assert tensor_product(saturating_monoid(6), saturating_monoid(6)).monoid.size == 252
        assert tensor_product(S4x4, saturating_monoid(4)).monoid.size == 400
        assert tensor_product(saturating_monoid(7), saturating_monoid(7),
                              budget=10**7).monoid.size == 924
        assert tensor_product(S3x3, S3x3, budget=10**7).monoid.size == 1296

    def test_reps_are_lex_least_in_their_class(self):
        for M, N in [(Z2, cyclic_group(4)), (cyclic_group(4), Z2), (Z3, SAT2),
                     (saturating_monoid(3), saturating_monoid(3)), (Z3, Z3)]:
            T = box_tensor(M, N)
            least = {}
            for v, cls in zip(box_vectors(T), T.classes):
                if cls not in least or v < least[cls]:
                    least[cls] = v
            assert tuple(least[i] for i in range(T.monoid.size)) == T.reps
            assert T.reps[0] == (0,) * len(T.reps[0])

    def test_duplicate_relations_are_dropped(self):
        # two commuting non-tree Cayley edges of Sat_n give the same relation
        for m, n, count in [(4, 4, 27), (3, 6, 35), (5, 5, 64)]:
            M, N = saturating_monoid(m), saturating_monoid(n)
            relations = product_presentation(M, N).relations
            assert len(relations) == len(set(relations)) == count, (m, n)
            assert tensor_product(M, N).monoid.size == comb(m + n - 2, m - 1), (m, n)


class TestAllPairsOracle:
    def test_isomorphic_to_all_pairs_tensor_on_corpus(self):
        for i, M in enumerate(pool()):
            for j, N in enumerate(pool()):
                old, new = all_pairs_tensor(M, N), pool_tensor(i, j)
                g = universal_factorization(old, new.monoid, new.bilinear)
                assert g.is_bijective()
                assert universal_factorization(new, old.monoid, old.bilinear).is_bijective()

    def test_isomorphic_to_box_tensor_on_corpus4(self):
        corpus = small_monoid_corpus(4)
        for M in corpus:
            for N in corpus:
                box, new = box_tensor(M, N), tensor_product(M, N)
                assert universal_factorization(box, new.monoid, new.bilinear).is_bijective()
                assert universal_factorization(new, box.monoid, box.bilinear).is_bijective()

    def test_box_is_the_product_of_generating_sets(self):
        M, N = cyclic_group(4), saturating_monoid(4)
        T = box_tensor(M, N)
        assert T.presentation.generators == tuple((1, y) for y in (1, 2, 3))
        assert T.presentation.box_volume() == 2 ** 3
        assert all_pairs_tensor(M, N).presentation.box_volume() == 2 ** 9


class TestPowerTableOracle:
    def test_equal_to_the_power_table_tensor(self):
        """Same table, generating set, bilinear map, terms and seeds on all 900
        pairs, and on one-coordinate tensors of up to 60 elements."""
        pairs = [(M, N) for M in oracle_pool() for N in oracle_pool()] + [
            (cyclic_group(60), cyclic_group(60)), (cyclic_group(12), cyclic_group(18)),
            (SAT2, saturating_monoid(11))]
        for M, N in pairs:
            new, old = tensor_product(M, N), power_tensor(M, N)
            assert new == old, (M, N)
            assert new.monoid.gens == old.monoid.gens
        assert [tensor_product(M, N).monoid.size for M, N in pairs[-3:]] == [60, 6, 11]
        assert {tensor_product(M, N).presentation.k for M, N in pairs[-3:]} == {1}

    def test_generator_rows_are_the_power_rows(self):
        for A in oracle_pool():
            for k in range(4):
                if A.size ** k > 300:
                    continue
                P = _product([A] * k)
                stride = [A.size ** (k - 1 - j) for j in range(k)]
                rows = tensor._generator_rows(A, stride)
                assert list(map(list, rows)) == [
                    list(P.add[x * s]) for s in stride for x in A.gens], (A, k)

    def test_a_congruence_left_open_is_caught(self, monkeypatch):
        # a closure that merges the seeds but pushes no translates
        monkeypatch.setattr(tensor, "_closure",
                            lambda size, rows, pairs: equivalence_of_pairs(size, pairs))
        with pytest.raises(SemimodError, match="internal error: tensor congruence not closed"):
            tensor_product(SAT3, SAT3)


class TestBudgets:
    def test_tensor_budget(self):
        M, N = saturating_monoid(7), saturating_monoid(7)
        with pytest.raises(BudgetExceeded,  # 6*6*7^6
                           match="^tensor row cells: 4235364 exceeds budget 1000000$"):
            tensor_product(M, N)
        # the rows check reads only the generating sets: no presentation is built first
        assert "presentation" not in vars(M) and "presentation" not in vars(N)
        S3x3 = biproduct(SAT3, SAT3).monoid
        with pytest.raises(BudgetExceeded,  # 1296^2
                           match="^tensor table cells: 1679616 exceeds budget 1000000$"):
            tensor_product(S3x3, S3x3)

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


def closure_runs(monkeypatch):
    """A list that grows by one at each `_closure` run of `tensor_product`,
    over an empty intern table of its own, so that no tensor another test
    keeps alive (`pool_tensor`) shares a monoid with this one's."""
    runs, closure = [], tensor._closure
    monkeypatch.setattr(tensor, "_closure", lambda *args: runs.append(1) or closure(*args))
    monkeypatch.setattr(tensor, "_INTERNED", type(tensor._INTERNED)())
    return runs


class TestMemo:
    def test_a_second_call_returns_the_first_tensor(self):
        M, N = fresh(SAT3), fresh(Z3)
        T = tensor_product(M, N)
        assert tensor_product(M, N) is T and tensor_product(M, N, budget=10**7) is T
        assert tensor_product(N, M) is not T

    @pytest.mark.parametrize("M, N", [(Z2, SAT3), (SAT3, SAT3), (cyclic_group(4), Z2)])
    def test_equal_factors_get_their_own_tensor(self, M, N):
        M, N = fresh(M), fresh(N)
        T = tensor_product(M, N)
        for M2, N2 in ((fresh(M), N), (M, fresh(N)), (copy(M), N), (M, copy(N))):
            T2 = tensor_product(M2, N2)
            assert tensor_product(M, N) is T
            assert T2 is not T and T2.source_m is M2 and T2.source_n is N2
            assert tensor_product(M2, N2) is T2
            cold = tensor_product(fresh(M), fresh(N))
            assert (T2.monoid, T2.bilinear, T2.terms) == (cold.monoid, cold.bilinear, cold.terms)

    def test_equal_factors_with_other_generators_get_their_terms(self):
        # Z/4 generated by 3 instead of 1: the same table, other pure tensors
        M, N = fresh(cyclic_group(4)), fresh(cyclic_group(4))
        N3 = FiniteCommMonoid(N.size, N.add, gens=(3,))
        assert N3 == N and tensor_product(M, N).terms != tensor_product(M, N3).terms
        assert tensor_product(M, N3).terms == tensor_product(fresh(M), N3).terms

    @pytest.mark.parametrize("a, b, rows, table", [(5, 5, 5, 25), (6, 3, 3, 9), (3, 6, 3, 9)])
    def test_a_hit_spends_the_budget_of_a_build(self, a, b, rows, table):
        # Z/a (x) Z/b: rows cells of A^1 and table cells of T = Z/gcd(a, b)
        M, N = cyclic_group(a), cyclic_group(b)
        T = tensor_product(M, N)
        for cost, phase in ((rows, "tensor row cells"), (table, "tensor table cells")):
            with pytest.raises(SemimodError) as cold:
                tensor_product(cyclic_group(a), cyclic_group(b), cost - 1)
            with pytest.raises(SemimodError) as warm:
                tensor_product(M, N, cost - 1)
            assert type(warm.value) is type(cold.value) is BudgetExceeded
            assert str(warm.value) == str(cold.value) == f"{phase}: {cost} exceeds budget {cost - 1}"
        assert tensor_product(M, N, table) is T

    def test_the_memo_dies_with_its_left_factor(self):
        M, N = fresh(SAT3), fresh(SAT2)
        T = weakref.ref(tensor_product(M, N))
        del M
        gc.collect()
        assert T() is None

    def test_the_memo_keeps_its_right_factor_alive(self):
        # so no other object takes id(N) while the entry keyed by it lives
        M, N = fresh(SAT3), fresh(SAT2)
        tensor_product(M, N)
        N = weakref.ref(N)
        gc.collect()
        assert N() is not None
        del M
        gc.collect()
        assert N() is None

    def test_a_copy_keeps_its_tensor_in_its_own_memo(self):
        M, N = fresh(SAT3), fresh(Z2)
        T = tensor_product(M, N)
        M2 = copy(M)
        T2 = weakref.ref(tensor_product(M2, N))
        assert T2().source_m is M2 and _memo(M2) is not _memo(M)
        del M2
        gc.collect()
        assert T2() is None
        assert _memo(M) == {("tensor", id(N)): T}

    def test_equal_tensors_share_one_monoid_which_keeps_a_memo(self):
        A, B = tensor_product(fresh(SAT3), fresh(Z2)), tensor_product(fresh(SAT3), fresh(Z2))
        assert A is not B and A.monoid is B.monoid
        T = A.monoid
        assert hom_monoid(T, Z2)[0] is hom_monoid(T, Z2)[0]
        assert tensor_product(T, Z2) is tensor_product(T, Z2)
        assert tensor_product(Z2, T) is tensor_product(Z2, T)

    def test_outer_brackets_are_remembered_and_die_with_their_inputs(self, monkeypatch):
        real, built, runs = tensor.tensor_product, [], closure_runs(monkeypatch)

        def spy(M, N, budget=DEFAULT_BUDGET):
            T = real(M, N, budget)
            built.append(T)
            return T

        corpus = [fresh(M) for M in small_monoid_corpus(3)]
        monkeypatch.setattr(tensor, "tensor_product", spy)
        for first in (True, False):
            runs.clear()
            for M, N, P in product(corpus, repeat=3):
                assert associativity_iso(M, N, P).verify()
            assert bool(runs) is first
        # calls 1 and 3 of each triple are (M (x) N) (x) P and M (x) (N (x) P)
        half = len(built) // 2
        assert half == 4 * len(corpus) ** 3
        assert all(T is built[i + half] for i, T in enumerate(built[:half]))
        outer = [weakref.ref(T.monoid) for i, T in enumerate(built) if i % 4 in (1, 3)]
        del built, corpus, M, N, P
        gc.collect()
        assert not any(ref() for ref in outer)
        assert len(tensor._INTERNED) == 0

    def test_a_sweep_of_every_labelled_triple_builds_each_bracket_once(self, monkeypatch):
        # 12 labelled monoids of order <= 3: 144 inner tensors, and 192 distinct
        # inputs for each outer bracket among the 1,728 triples
        runs = closure_runs(monkeypatch)
        labelled = [M for n in (1, 2, 3) for M in enumerate_comm_monoid_tables(n)]
        for expected in (528, 0):
            runs.clear()
            for M, N, P in product(labelled, repeat=3):
                assert associativity_iso(M, N, P).verify()
            assert len(runs) == expected
        assert len(tensor._INTERNED) > 0
        del labelled, M, N, P
        gc.collect()
        assert len(tensor._INTERNED) == 0


def hom_outcome(M, N, budget=DEFAULT_BUDGET):
    """What `hom_monoid` gives, as comparable values: the table and the homs,
    or the exception's type and message."""
    try:
        H, homs = hom_monoid(M, N, budget)
    except SemimodError as e:
        return type(e), str(e)
    return H, homs


def hom_spend(M, N):
    """The least budget under which the search for Hom(M, N) finishes."""
    for budget in count():
        try:
            enumerate_homs(M, N, budget)
            return budget
        except BudgetExceeded:
            pass


class TestHomMemo:
    def test_a_hit_is_a_cold_call(self):
        corpus = small_monoid_corpus(4)
        for M, N in product(corpus, repeat=2):
            cold_H, cold = hom_monoid(fresh(M), fresh(N))
            M2, N2 = fresh(M), fresh(N)
            H, homs = hom_monoid(M2, N2)
            homs.clear()                    # the caller owns the list
            H2, homs2 = hom_monoid(M2, N2)
            assert H2 is H and H.add == cold_H.add and homs2 == cold
            assert all(h.source is M2 and h.target is N2 for h in homs2)
            homs2.append(None)
            assert hom_monoid(M2, N2)[1] == cold

    def test_a_hit_spends_the_budget_of_a_search(self):
        corpus = small_monoid_corpus(3)
        for M, N in product(corpus[1:], repeat=2):
            spend = hom_spend(M, N)
            M2, N2 = fresh(M), fresh(N)
            hom_monoid(M2, N2)
            for budget in (spend - 1, spend, spend - 1, DEFAULT_BUDGET, spend):
                warm = hom_outcome(M2, N2, budget)
                assert warm == hom_outcome(fresh(M), fresh(N), budget)
                assert (warm == (BudgetExceeded, f"hom images tried: {budget + 1} exceeds budget "
                                                 f"{budget}")) == (budget < spend)

    def test_the_least_budget_a_search_finished_under_is_remembered(self):
        M, N = fresh(SAT3), fresh(Z3)
        spend = hom_spend(M, N)
        H = hom_monoid(M, N)[0]
        H2 = hom_monoid(M, N, spend)[0]            # searched again, under less budget
        assert H2 is not H and H2.add == H.add
        assert hom_monoid(M, N, spend)[0] is H2 and hom_monoid(M, N)[0] is H2

    def test_equal_factors_get_their_own_homs(self):
        M, N = fresh(SAT3), fresh(Z3)
        H = hom_monoid(M, N)[0]
        for M2, N2 in ((fresh(M), N), (M, fresh(N)), (copy(M), N), (M, copy(N))):
            H2, homs = hom_monoid(M2, N2)
            assert hom_monoid(M, N)[0] is H and H2 is not H
            assert all(h.source is M2 and h.target is N2 for h in homs)

    def test_the_memo_dies_with_its_left_factor(self):
        M, N = fresh(SAT3), fresh(Z3)
        H = weakref.ref(hom_monoid(M, N)[0])
        del M
        gc.collect()
        assert H() is None

    def test_the_memo_keeps_its_right_factor_alive(self):
        M, N = fresh(SAT3), fresh(Z3)
        hom_monoid(M, N)
        N = weakref.ref(N)
        gc.collect()
        assert N() is not None
        del M
        gc.collect()
        assert N() is None

    def test_a_copy_writes_nothing_into_the_memo_of_its_original(self):
        M, N = fresh(SAT3), fresh(Z3)
        hom_monoid(M, N)
        before = dict(_memo(M))
        M2 = copy(M)
        H2 = weakref.ref(hom_monoid(M2, N)[0])
        assert _memo(M) == before and list(before) == [("homs", id(N))]
        del M2
        gc.collect()
        assert H2() is None


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

    def test_witness_names_a_generator_on_each_side(self):
        # only x = 2 (y = 2) sees that f(2, 1) (f(1, 2)) is not idempotent;
        # 1 + 2 = 2 is checked from both generators of Sat3
        assert SAT3.gens == (1, 2)
        assert balanced_check(SAT3, Z2, Z2, [[0, 0], [0, 0], [0, 1]]) == (
            False, ("add-left", 2, 2, 1))
        assert balanced_check(Z2, SAT3, Z2, [[0, 0, 0], [0, 0, 1]]) == (
            False, ("add-right", 1, 2, 2))

    def test_each_zero_law_is_needed(self):
        # biadditive against the generators, yet f(0, 1) = 1 or f(1, 0) = 1
        assert balanced_check(SAT2, SAT2, SAT2, [[0, 1], [0, 1]]) == (False, ("zero-left", 1))
        assert balanced_check(SAT2, SAT2, SAT2, [[0, 0], [1, 1]]) == (False, ("zero-right", 1))

    @pytest.mark.parametrize("f", [[[0, 0]], [[0, 0], [0]], [[0, 0], [0, 0], [0, 0]],
                                   [[0, 0], 0], (0, 0), None])
    def test_rejects_a_map_of_the_wrong_shape(self, f):
        with pytest.raises(OutOfRange, match="map is not a 2 x 2 table"):
            balanced_check(Z2, Z2, Z2, f)

    @pytest.mark.parametrize("v", [2, 5, -1, True, 1.0, "1"])
    def test_rejects_an_entry_outside_the_target(self, v):
        with pytest.raises(OutOfRange, match=r"entry .* is not an integer in \[0, 2\)"):
            balanced_check(Z2, Z2, Z2, [[0, 0], [0, v]])


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

    def test_rejects_an_entry_outside_the_target(self):
        with pytest.raises(OutOfRange, match=r"entry 5 is not an integer in \[0, 2\)"):
            universal_factorization(tensor_product(Z2, Z2), Z2, [[0, 0], [0, 5]])

    def test_rejects_a_representative_off_zero(self):
        T = tensor_product(Z2, Z2)
        bad = replace(T, terms=(T.terms[1],) + T.terms[1:])
        with pytest.raises(WellDefinednessFailure, match=r"g\(0\) = 1, not 0"):
            universal_factorization(bad, T.monoid, T.bilinear)

    def test_g_must_be_a_hom_out_of_the_tensor_table(self):
        # Sat2 (x) Sat3 is the chain 0 < 1 < 2.  In the other table 2 + 2 = 1
        # and only that sum differs, so only the last generator 2 sees that
        # the identity is not a hom out of it.
        T = tensor_product(SAT2, SAT3)
        assert T.monoid.add == ((0, 1, 2), (1, 1, 2), (2, 2, 2))
        swapped = validate_monoid([[0, 1, 2], [1, 1, 2], [2, 2, 1]])
        assert swapped.gens == (1, 2)
        with pytest.raises(WellDefinednessFailure, match=r"g\(2 \+ 2\)"):
            universal_factorization(replace(T, monoid=swapped), T.monoid, T.bilinear)

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


def factor(method, T, A, f):
    """The image of the factorization, or the class of what it raised."""
    try:
        return method(T, A, f).image
    except (NotBalanced, WellDefinednessFailure) as exc:
        return type(exc)


def violates(M, N, A, f, witness) -> bool:
    """Whether f breaks the law a witness of `balanced_check` names there."""
    law, *at = witness
    if law == "zero-left":
        return f[0][at[0]] != 0
    if law == "zero-right":
        return f[at[0]][0] != 0
    if law == "add-left":
        m, x, n = at
        return x in M.gens and f[M.add[m][x]][n] != A.add[f[m][n]][f[x][n]]
    m, n, y = at
    return law == "add-right" and y in N.gens and f[m][N.add[n][y]] != A.add[f[m][n]][f[m][y]]


def assert_checks_agree(i, j, A, f):
    M, N = pool()[i], pool()[j]
    (ok, witness), (old_ok, _) = balanced_check(M, N, A, f), all_pairs_balanced_check(M, N, A, f)
    assert ok == old_ok
    assert ok or violates(M, N, A, f, witness), witness
    box, iso = pool_box(i, j)
    new = factor(universal_factorization, pool_tensor(i, j), A, f)
    # carried over to the box tensor along the isomorphism
    if not isinstance(new, type):
        new = tuple(new[e] for e in iso.image)
    assert new == factor(box_universal_factorization, box, A, f)


pool_pair = st.tuples(st.integers(0, 9), st.integers(0, 9))
target = st.integers(0, 7)          # an index into corpus(<=3)


class TestCheckOracles:
    """The generator-based checks against the all-pairs balanced check and
    the box-vector factorization on the box tensor, on corpus(<=3) + {Z/4, Sat4}."""

    @settings(max_examples=300, deadline=None)
    @given(pool_pair, target, st.data())
    def test_random_maps_with_zero_row_and_column(self, pair, k, data):
        (i, j), A = pair, pool()[k]
        M, N = pool()[i], pool()[j]
        cell = st.integers(0, A.size - 1)
        f = [[0] * N.size] + [[0] + [data.draw(cell) for _ in range(1, N.size)]
                              for _ in range(1, M.size)]
        assert_checks_agree(i, j, A, f)

    @settings(max_examples=300, deadline=None)
    @given(pool_pair, st.data())
    def test_perturbed_tensor_maps(self, pair, data):
        T = pool_tensor(*pair)
        M, N, A = T.source_m, T.source_n, T.monoid
        f = [list(row) for row in T.bilinear]
        for _ in range(data.draw(st.integers(1, 2))):
            m, n = data.draw(st.integers(0, M.size - 1)), data.draw(st.integers(0, N.size - 1))
            f[m][n] = data.draw(st.integers(0, A.size - 1))
        assert_checks_agree(*pair, A, f)

    @settings(max_examples=60, deadline=None)
    @given(pool_pair, target)
    def test_every_enumerated_balanced_map(self, pair, k):
        (i, j), A = pair, pool()[k]
        M, N = pool()[i], pool()[j]
        cells = [(m, n) for m in range(1, M.size) for n in range(1, N.size)]
        assume(A.size ** len(cells) <= 729)
        space = []
        for values in product(range(A.size), repeat=len(cells)):
            f = [[0] * N.size for _ in range(M.size)]
            for (m, n), v in zip(cells, values):
                f[m][n] = v
            space.append(tuple(map(tuple, f)))
        maps = enumerate_balanced_maps(M, N, A)
        assert maps == [f for f in space if all_pairs_balanced_check(M, N, A, f)[0]]
        for f in maps:
            assert_checks_agree(i, j, A, f)


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
        P, pure = tensor_with_free(Z3, [])
        assert P.size == 1
        with pytest.raises(SemimodError, match="'x' is not in the label set"):
            pure(1, "x")

    def test_repeated_label_is_refused(self):
        with pytest.raises(SemimodError, match="label 'x' is repeated"):
            tensor_with_free(Z3, ["x", "y", "x"])

    def test_power_is_coded_first_coordinate_most_significant(self):
        P, pure = tensor_with_free(Z3, ["x", "y"])
        assert [pure(m, "x") for m in Z3.elements()] == [0, 3, 6]
        assert [pure(m, "y") for m in Z3.elements()] == [0, 1, 2]
        assert P.plus(5, 7) == 3 * ((1 + 2) % 3) + (2 + 1) % 3

    def test_z2_rank_two(self):
        P, pure = tensor_with_free(Z2, ["x", "y"])
        assert P.size == 4
        # unique representation: each element decomposes by coordinates once
        for e in range(P.size):
            decomps = [(a, b) for a in Z2.elements() for b in Z2.elements()
                       if P.plus(pure(a, "x"), pure(b, "y")) == e]
            assert len(decomps) == 1


def associativity_by_families(M, N, P, budget=DEFAULT_BUDGET):
    """Reference for `associativity_iso`: the forward map factored from the
    homs beta_p: m (x) n -> m (x) (n (x) p) out of M (x) N, one per p, and
    the backward map from gamma_m: n (x) p -> (m (x) n) (x) p, one per m,
    every map through the boundary check of `universal_factorization`."""
    TMN = tensor.tensor_product(M, N, budget)
    L = tensor.tensor_product(TMN.monoid, P, budget)
    TNP = tensor.tensor_product(N, P, budget)
    R = tensor.tensor_product(M, TNP.monoid, budget)
    beta = [universal_factorization(TMN, R.monoid, [[R.bilinear[m][TNP.bilinear[n][p]]
                                                     for n in range(N.size)] for m in range(M.size)])
            for p in range(P.size)]
    fwd = universal_factorization(L, R.monoid, [[beta[p].image[t] for p in range(P.size)]
                                                for t in range(TMN.monoid.size)])
    gamma = [universal_factorization(TNP, L.monoid, [[L.bilinear[TMN.bilinear[m][n]][p]
                                                      for p in range(P.size)] for n in range(N.size)])
             for m in range(M.size)]
    bwd = universal_factorization(R, L.monoid, [[gamma[m].image[u] for u in range(TNP.monoid.size)]
                                                for m in range(M.size)])
    iso = IsoWitness(fwd, bwd)
    if not iso.verify():
        raise SemimodError("associativity comparison maps are not mutually inverse")
    return iso


def twist_by_boundary(M, N, budget=DEFAULT_BUDGET):
    """Reference for `symmetry_iso`: both twists through `universal_factorization`."""
    T = tensor.tensor_product(M, N, budget)
    S = tensor.tensor_product(N, M, budget)
    tau = universal_factorization(
        T, S.monoid, [[S.bilinear[n][m] for n in range(N.size)] for m in range(M.size)])
    tau2 = universal_factorization(
        S, T.monoid, [[T.bilinear[m][n] for m in range(M.size)] for n in range(N.size)])
    iso = IsoWitness(tau, tau2)
    if not iso.verify():
        raise SemimodError("the twist maps are not mutually inverse")
    return iso


def images(check, *args):
    """The forward and backward images of an iso, or the fact that the check raised."""
    try:
        iso = check(*args)
    except SemimodError:
        return SemimodError
    return iso.forward.image, iso.backward.image


@cache
def relabelled_mixes():
    """Z/2 x Sat2, Z/3 x Sat2 and Z/2 x Z/3, each with its nonzero elements shuffled."""
    rng, out = random.Random(7), []
    for A, B in ((Z2, SAT2), (Z3, SAT2), (Z2, Z3)):
        table = biproduct(A, B).monoid.add
        rest = list(range(1, len(table)))
        rng.shuffle(rest)
        out.append(validate_monoid(relabel(table, [0, *rest])))
    return out


def swap_terms(T, rng):
    """T with the pure-tensor rows of two elements swapped, or None if no two differ."""
    rows = [(r, s) for r in range(T.monoid.size) for s in range(r) if T.terms[r] != T.terms[s]]
    if not rows:
        return None
    r, s = rng.choice(rows)
    terms = list(T.terms)
    terms[r], terms[s] = terms[s], terms[r]
    return replace(T, terms=tuple(terms))


def change_cell(T, rng):
    """T with one cell of its bilinear table changed, or None on a one-element tensor."""
    if T.monoid.size < 2:
        return None
    m, n = rng.randrange(T.source_m.size), rng.randrange(T.source_n.size)
    table = [list(row) for row in T.bilinear]
    table[m][n] = rng.choice([v for v in T.monoid.elements() if v != table[m][n]])
    return replace(T, bilinear=tuple(map(tuple, table)))


def with_corrupt_tensor(monkeypatch, k, corrupted, check, *args):
    """`images` of the check while its k-th `tensor_product` call returns `corrupted`."""
    real, calls = tensor.tensor_product, count()

    def patched(M, N, budget=DEFAULT_BUDGET):
        T = real(M, N, budget)
        return corrupted if next(calls) == k else T

    with monkeypatch.context() as mp:
        mp.setattr(tensor, "tensor_product", patched)
        return images(check, *args)


def corrupt_cases(args, builds, seed):
    """(k, corrupted tensor) for each tensor the check builds and each corruption."""
    rng = random.Random(seed)
    for k, (M, N) in enumerate(builds(*args)):
        for corrupt in (swap_terms, change_cell):
            T = corrupt(tensor_product(M, N), rng)
            if T is not None:
                yield k, T


def assoc_builds(M, N, P):
    MN, NP = tensor_product(M, N).monoid, tensor_product(N, P).monoid
    return (M, N), (MN, P), (N, P), (M, NP)


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
                    iso = associativity_iso(M, N, P)
                    assert iso.verify()
                    assert (iso.forward.image, iso.backward.image) == images(
                        associativity_by_families, M, N, P)

    def test_associativity_and_twist_match_the_oracles_on_relabelled_mixes(self):
        mixes = relabelled_mixes() + [Z2, Z3, SAT2]
        for M, N in product(mixes, repeat=2):
            assert images(symmetry_iso, M, N) == images(twist_by_boundary, M, N)
            for P in mixes:
                assert images(associativity_iso, M, N, P) == images(
                    associativity_by_families, M, N, P)

    def test_corrupt_inner_tensors_fail_where_the_oracles_fail(self, monkeypatch):
        """With one tensor's pure-tensor rows swapped or one bilinear cell
        changed, each check raises exactly when its oracle does, and
        otherwise returns the same maps."""
        corpus = small_monoid_corpus(3)
        raised = 0
        for seed, (M, N, P) in enumerate(product(corpus[1:5], repeat=3)):
            for k, T in corrupt_cases((M, N, P), assoc_builds, seed):
                new = with_corrupt_tensor(monkeypatch, k, T, associativity_iso, M, N, P)
                assert new == with_corrupt_tensor(monkeypatch, k, T,
                                                  associativity_by_families, M, N, P)
                raised += new is SemimodError
        for seed, (M, N) in enumerate(product(corpus + relabelled_mixes(), repeat=2)):
            for k, T in corrupt_cases((M, N), lambda M, N: ((M, N), (N, M)), seed):
                new = with_corrupt_tensor(monkeypatch, k, T, symmetry_iso, M, N)
                assert new == with_corrupt_tensor(monkeypatch, k, T, twist_by_boundary, M, N)
                raised += new is SemimodError
        assert raised > 100

    def test_triangle_on_rank_one_free(self):
        # (A (x) free_1) (x) B vs A (x) (free_1 (x) B): the unit laws collapse
        # both sides to A (x) B
        A, B = Z2, cyclic_group(4)
        left = tensor_product(tensor_with_free(A, ["x"])[0], B)
        right = tensor_product(A, tensor_with_free(B, ["x"])[0])
        base = tensor_product(A, B)
        assert left.monoid.size == base.monoid.size == right.monoid.size
        assert symmetry_iso(A, B).verify()


def adjunction_both_ways(P, M, N, budget=DEFAULT_BUDGET):
    """The adjunction check that transports every hom both ways: phi curries
    each f in Hom(P (x) M, N) into Hom(P, Hom(M, N)), and psi(phi(f)) = f for
    each f makes phi injective, so with equal counts it is onto."""
    T = tensor_product(P, M, budget)
    left = enumerate_homs(T.monoid, N, budget)
    H, homs_mn = hom_monoid(M, N, budget)
    right = enumerate_homs(P, H, budget)
    hom_index = {h.image: i for i, h in enumerate(homs_mn)}
    if len(left) != len(right):
        return False
    right_images = {h.image for h in right}
    for f in left:
        curried = [tuple(f.image[T.bilinear[p][m]] for m in M.elements()) for p in P.elements()]
        if any(c not in hom_index for c in curried):
            return False
        g = tuple(hom_index[c] for c in curried)
        if g not in right_images:
            return False
        if tensor._factor(T, N, [homs_mn[h].image for h in g]).image != f.image:
            return False
    return True


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

    def test_unequal_hom_counts_fail(self, monkeypatch):
        # the first enumeration is Hom(P (x) M, N); one hom fewer there.  Fresh
        # monoids, so that Hom(M, N) is not remembered from an earlier test
        calls = []

        def short(M, N, budget=None):
            calls.append(M)
            homs = enumerate_homs(M, N, budget)
            return homs[:-1] if len(calls) == 1 else homs

        monkeypatch.setattr(tensor, "enumerate_homs", short)
        assert not hom_adjunction_check(fresh(Z2), fresh(Z2), fresh(Z2))
        assert len(calls) == 3

    def test_a_round_trip_other_than_the_identity_fails(self, monkeypatch):
        # psi sends every curried map to the zero hom; Hom(Z2 (x) Z2, Z2) has two
        assert hom_adjunction_check(Z2, Z2, Z2)
        monkeypatch.setattr(tensor, "_factor", lambda T, A, f: zero_hom(T.monoid, A))
        assert not hom_adjunction_check(Z2, Z2, Z2)

    def test_full_corpus(self):
        corpus = small_monoid_corpus(3)
        for P in corpus:
            for M in corpus:
                for N in corpus:
                    assert hom_adjunction_check(P, M, N)

    def test_one_transport_gives_the_verdict_of_both(self):
        # corpus(3) cubed, and every labelled triple of order <= 3
        corpus = small_monoid_corpus(3)
        labelled = [M for n in (1, 2, 3) for M in enumerate_comm_monoid_tables(n)]
        assert len(labelled) ** 3 == 1728
        for monoids in (corpus, labelled):
            for P, M, N in product(monoids, repeat=3):
                assert hom_adjunction_check(P, M, N) == adjunction_both_ways(P, M, N)

    def test_transport_factors_as_at_the_boundary(self):
        """psi's tables, built from Hom(P, Hom(M, N)), factor by `_factor`
        to the same homs as through `universal_factorization`."""
        corpus = small_monoid_corpus(3)
        for P, M, N in product(corpus[1:5], repeat=3):
            T = tensor_product(P, M)
            H, homs_mn = hom_monoid(M, N)
            for g in enumerate_homs(P, H):
                table = [homs_mn[h].image for h in g.image]
                assert tensor._factor(T, N, table) == universal_factorization(T, N, table)


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
