import gc
import itertools
import random
import re
import tracemalloc
import weakref
from copy import copy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semimod import congruence
from semimod.congruence import (
    Congruence,
    HypothesisFails,
    NotACongruence,
    _class_label,
    _closure,
    bourne_congruence,
    chain_congruence,
    coequalizer_finite,
    congruence_closure,
    enumerate_congruences,
    factor_through,
    identity_congruence,
    kernel_congruence,
    kernel_pair,
    kernel_pair_of_congruence,
    naive_congruence,
    quotient,
    zero_class,
)
from semimod.core import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    MonoidHom,
    NotAdditive,
    OutOfRange,
    SemimodError,
    _memo,
    biproduct,
    cyclic_group,
    enumerate_comm_monoid_tables,
    enumerate_homs,
    hom_check,
    identity_hom,
    saturating_monoid,
    small_monoid_corpus,
    sub_as_monoid,
    trivial_monoid,
    validate_monoid,
    zero_hom,
)
from semimod.natcoeq import CyclicMonoid
from semimod.tensor import tensor_product

from test_validation import (RelabellingUnionFind, all_submonoids, commutative_tables,
                             equivalence_of_pairs, family_table, fresh, relabel)

C42 = CyclicMonoid(4, 2).to_monoid(labels=False)
# every labelled commutative monoid table of order <= 4
TABLES4 = [M for n in range(1, 5) for M in enumerate_comm_monoid_tables(n)]


def set_partitions(n, rep=()):
    """Every partition of range(n), as its smallest-member map."""
    if len(rep) == n:
        yield rep
        return
    for r in sorted(set(rep)) + [len(rep)]:
        yield from set_partitions(n, rep + (r,))


def closure_over_all_elements(M, pairs) -> tuple[int, ...]:
    """Reference closure: every merge pushes the translates by all n elements."""
    uf = RelabellingUnionFind(M.size)
    work = list(pairs)
    while work:
        a, b = work.pop()
        if uf.union(a, b):
            work.extend((M.add[a][w], M.add[b][w]) for w in M.elements())
    return tuple(uf.find(m) for m in M.elements())


def closure_over_all_translates(M, pairs) -> tuple[int, ...]:
    """Reference closure: every merge pushes every unequal translate by M.gens,
    the pair itself included."""
    uf = RelabellingUnionFind(M.size)
    rows = [M.add[x] for x in M.gens]
    work = list(pairs)
    while work:
        a, b = work.pop()
        if uf.union(a, b):
            work.extend((row[a], row[b]) for row in rows if row[a] != row[b])
    return tuple(map(uf.find, M.elements()))


def cubic_translation_closed(C) -> bool:
    """Reference check: a + w ~ b + w for all a ~ b and every element w."""
    M = C.carrier
    return all(C.same(M.add[a][w], M.add[b][w])
               for a in M.elements() for b in M.elements() if C.same(a, b)
               for w in M.elements())


def bourne_by_pairs(M, K) -> tuple[int, ...]:
    """Reference Bourne relation: union m, m' whenever m + a = m' + b for a, b in K."""
    uf = RelabellingUnionFind(M.size)
    for m in M.elements():
        for m2 in M.elements():
            if any(M.add[m][a] == M.add[m2][b] for a in K for b in K):
                uf.union(m, m2)
    return tuple(uf.find(m) for m in M.elements())


def all_pairs_contains(C, D) -> bool:
    """Reference containment: every pair related by D is related by C."""
    M = C.carrier
    return all(C.same(a, b) for a in M.elements() for b in M.elements() if D.same(a, b))


def all_pairs_separated(f, C):
    """Reference hypothesis of `factor_through`: the first pair a ~ b with
    f(a) != f(b), or None when f is constant on every class."""
    M = f.source
    for a in M.elements():
        for b in M.elements():
            if C.same(a, b) and f.image[a] != f.image[b]:
                return a, b
    return None


def relation_table(C):
    """Reference relation monoid of C, carved out of M x M: its pairs in order,
    their table, its generating set by validation, and the two projections."""
    bp = biproduct(C.carrier, C.carrier)
    members = tuple(bp.pair(a, b) for a in C.carrier.elements() for b in C.carrier.elements()
                    if C.same(a, b))
    pos = {x: i for i, x in enumerate(members)}
    table = tuple(tuple(pos[bp.monoid.add[a][b]] for b in members) for a in members)
    p1, p2 = zip(*map(bp.unpair, members))
    return members, table, validate_monoid(table).gens, p1, p2


def coequalizer_universal_probe(f, g, targets, budget=DEFAULT_BUDGET) -> bool:
    """Finite surrogate of the coequalizer property over the given targets.

    For every map h with h o f = h o g, a unique factorization through the
    computed quotient must exist.
    """
    Q, nu = coequalizer_finite(f, g)
    M = f.target
    for P in targets:
        for h in enumerate_homs(M, P, budget):
            if all(h.image[f.image[n]] == h.image[g.image[n]] for n in f.source.elements()):
                # factorization exists and is unique because nu is surjective
                cls: dict[int, int] = {}
                for m in M.elements():
                    q = nu.image[m]
                    if cls.setdefault(q, h.image[m]) != h.image[m]:
                        return False
    return True


def _is_monoid(table) -> bool:
    try:
        validate_monoid(table)
    except SemimodError:
        return False
    return True


@st.composite
def product_tables(draw):
    """Relabelled products of one or two of Z/n, Sat_n and C(i, p)."""
    table = [[0]]
    for _ in range(draw(st.integers(1, 2))):
        f = family_table(draw(st.sampled_from(["Z", "Sat", "C"])), draw(st.integers(2, 7)))
        k, n = len(f), len(table) * len(f)
        table = [[table[a // k][b // k] * k + f[a % k][b % k] for b in range(n)]
                 for a in range(n)]
    rest = draw(st.permutations(range(1, len(table))))
    return relabel(table, [0, *rest])


monoid_tables = st.one_of(commutative_tables().filter(_is_monoid), product_tables())
CORPUS4 = small_monoid_corpus(4)


@st.composite
def seeded_monoids(draw):
    """corpus(4), or Z/n, Sat_n, C(i, p) or Z/m x Z/n of at most 150 elements,
    relabelled by a permutation fixing 0."""
    family = draw(st.sampled_from(["corpus", "Z", "Sat", "C", "ZxZ"]))
    if family == "corpus":
        return draw(st.sampled_from(CORPUS4))
    if family == "ZxZ":
        m = draw(st.integers(1, 12))
        n = draw(st.integers(1, 150 // m))
        table = [[(a // n + b // n) % m * n + (a + b) % n for b in range(m * n)]
                 for a in range(m * n)]
    else:
        table = family_table(family, draw(st.integers(1, 150)))
    rest = draw(st.permutations(range(1, len(table))))
    return validate_monoid(relabel(table, [0, *rest]))


@st.composite
def seed_lists(draw, n):
    """0 to 3n seeds: fresh pairs, trivial pairs (a, a), and repeats of an
    earlier seed in the same or the other order."""
    seeds = []
    for _ in range(draw(st.integers(0, 3 * n))):
        kind = draw(st.sampled_from(["fresh", "trivial", "again", "swapped"][:4 if seeds else 2]))
        if kind == "fresh":
            seeds.append(draw(element_pairs(n)))
        elif kind == "trivial":
            a = draw(st.integers(0, n - 1))
            seeds.append((a, a))
        else:
            a, b = seeds[draw(st.integers(0, len(seeds) - 1))]
            seeds.append((a, b) if kind == "again" else (b, a))
    return seeds


def element_pairs(n):
    return st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))


class TestClosure:
    def test_empty_seeds(self):
        M = cyclic_group(4)
        C = congruence_closure(M, [])
        assert C.num_classes() == 4

    @pytest.mark.parametrize("pair", [(True, 2), (1, False), (0.0, 1), (1, 2, 3), (1,), (0, 4),
                                      (-1, 0), "ab", 3, None])
    def test_rejects_anything_but_a_pair_of_elements(self, pair):
        with pytest.raises(OutOfRange, match=re.escape(repr(pair))):
            congruence_closure(cyclic_group(4), [(0, 0), pair])

    def test_c42_tail_merge(self):
        C = congruence_closure(C42, [(4, 5)])
        assert C.num_classes() == 5
        assert C.same(4, 5)
        Q, nu = quotient(C42, C)
        assert Q.size == 5

    def test_contains_seeds(self):
        M = saturating_monoid(3)
        C = congruence_closure(M, [(1, 2)])
        assert C.same(1, 2)

    def test_idempotent_and_monotone(self):
        M = C42
        small = congruence_closure(M, [(2, 4)])
        big = congruence_closure(M, [(2, 4), (1, 3)])
        assert big.contains(small)
        again = congruence_closure(M, [(a, b) for a in M.elements()
                                       for b in M.elements() if small.same(a, b)])
        assert again.rep == small.rep

    def test_minimality_against_enumeration(self):
        for M in small_monoid_corpus(4):
            congs = enumerate_congruences(M)
            pairs = list(itertools.combinations(range(M.size), 2))
            for seeds in itertools.chain(
                    ([p] for p in pairs),
                    itertools.combinations(pairs, 2)):
                closed = congruence_closure(M, list(seeds))
                meet_rep = None
                for C in congs:
                    if all(C.same(a, b) for a, b in seeds):
                        if meet_rep is None:
                            meet_rep = list(C.rep)
                        else:
                            # intersect the two partitions
                            key = {}
                            new = []
                            for m in M.elements():
                                k = (meet_rep[m], C.rep[m])
                                key.setdefault(k, m)
                                new.append(key[k])
                            meet_rep = new
                assert tuple(meet_rep) == closed.rep

    def test_matches_both_oracles_on_every_small_seed(self):
        for M in small_monoid_corpus(4):
            pairs = list(itertools.product(range(M.size), repeat=2))
            for seeds in itertools.chain(([p] for p in pairs), itertools.combinations(pairs, 2)):
                rep = congruence_closure(M, seeds).rep
                assert rep == closure_over_all_elements(M, seeds)
                assert rep == closure_over_all_translates(M, seeds)

    @pytest.mark.parametrize("n", [2, 7, 30, 100])
    @pytest.mark.parametrize("family", ["Z", "Sat", "C"])
    def test_matches_both_oracles_on_relabelled_families(self, family, n):
        rng = random.Random(n)
        M = validate_monoid(relabel(family_table(family, n), [0] + rng.sample(range(1, n), n - 1)))
        for _ in range(12):
            seeds = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.choice([1, 2]))]
            rep = congruence_closure(M, seeds).rep
            assert rep == closure_over_all_elements(M, seeds)
            assert rep == closure_over_all_translates(M, seeds)

    def test_pairs_may_be_any_iterable(self):
        M = cyclic_group(6)
        for pairs in (zip([0], [3]), ((a, a + 3) for a in [0]), iter([[0, 3]])):
            C = congruence_closure(M, pairs)
            assert C.classes() == [[0, 3], [1, 4], [2, 5]]
            assert C == congruence_closure(M, [(0, 3)])
        with pytest.raises(OutOfRange, match=re.escape("(0, 6)")):
            congruence_closure(M, ((0, b) for b in (3, 6)))

    def test_closures_of_one_congruence_from_different_seeds_are_equal(self):
        M = cyclic_group(6)
        closures = [congruence_closure(M, seeds) for seeds in ([(0, 2)], [(2, 0)], [(0, 2), (0, 4)])]
        assert closures[0] == closures[1] == closures[2]
        assert len({hash(C) for C in closures}) == 1 and len(set(closures)) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_closure_over_all_elements(self, data):
        M = validate_monoid(data.draw(monoid_tables))
        seeds = data.draw(st.lists(element_pairs(M.size), min_size=1, max_size=3))
        assert congruence_closure(M, seeds).rep == closure_over_all_elements(M, seeds)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_many_seeds_match_both_oracles(self, data):
        # the seed pass drops a seed the relation already holds and translates
        # the others by every element once; both oracles translate every merge
        M = data.draw(seeded_monoids())
        seeds = data.draw(seed_lists(M.size))
        rep = congruence_closure(M, seeds).rep
        assert rep == closure_over_all_translates(M, seeds)
        assert rep == closure_over_all_elements(M, seeds)
        # K = M relates m + m' = m' + m: one class, read pair by pair on small M
        whole = bourne_congruence(M, list(M.elements())).rep
        assert whole == (0,) * M.size
        if M.size <= 30:
            assert whole == bourne_by_pairs(M, list(M.elements()))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(element_pairs(n), max_size=2 * n))))
    @example((3, [(0, 1)]))
    @example((3, [(2, 1), (1, 0)]))
    @example((3, [(1, 2), (0, 2)]))
    def test_with_no_rows_is_the_equivalence_the_pairs_generate(self, size_pairs):
        # the closure naive_congruence runs; its smallest-member read-off
        # needs each union to hang the larger root under the smaller
        size, pairs = size_pairs
        assert _closure(size, (), pairs) == equivalence_of_pairs(size, pairs)


class TestTranslationClosed:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_cubic_check_on_random_partitions(self, data):
        M = validate_monoid(data.draw(monoid_tables))
        n = M.size
        if data.draw(st.booleans()):
            # a congruence, with one element possibly moved to another class
            blocks = list(congruence_closure(
                M, data.draw(st.lists(element_pairs(n), max_size=2))).rep)
            a, b = data.draw(element_pairs(n))
            if data.draw(st.booleans()):
                blocks[a] = blocks[b]
        else:
            blocks = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        first = {}
        C = Congruence(M, tuple(first.setdefault(k, m) for m, k in enumerate(blocks)))
        assert C.is_translation_closed() == cubic_translation_closed(C)

    def test_matches_cubic_check_on_every_partition_of_small_tables(self):
        for M in small_monoid_corpus(4):
            for rep in set_partitions(M.size):
                C = Congruence(M, rep)
                assert C.is_translation_closed() == cubic_translation_closed(C)


def read_class_label(label):
    """The member labels of a class label, undoing the escapes of `_class_label`."""
    assert label[0] == "{" and label[-1] == "}"
    names, name, chars = [], "", iter(label[1:-1])
    for c in chars:
        if c == ",":
            names.append(name)
            name = ""
        else:
            assert c not in "{}"
            name += next(chars) if c == "\\" else c
    return names + [name]


class TestQuotient:
    def test_identity_congruence(self):
        M = C42
        Q, nu = quotient(M, identity_congruence(M))
        assert Q.add == M.add
        assert nu.image == tuple(M.elements())

    def test_total_congruence(self):
        M = cyclic_group(4)
        C = congruence_closure(M, [(0, 1)])
        Q, nu = quotient(M, C)
        assert Q.size == 1

    def test_zero_class_is_index_zero(self):
        C = congruence_closure(C42, [(0, 2)])
        Q, nu = quotient(C42, C)
        assert nu.image[0] == 0

    def test_rejects_every_non_congruence_of_small_tables(self):
        # the table is not validated, so the congruence is checked instead;
        # each witness (a, x) separates a from its representative under + x
        rejected = 0
        for M in TABLES4:
            for rep in set_partitions(M.size):
                C = Congruence(M, rep)
                if cubic_translation_closed(C):
                    quotient(M, C)
                    continue
                with pytest.raises(NotACongruence) as e:
                    quotient(M, C)
                a, x = e.value.witness
                assert x in M.gens and not C.same(M.add[a][x], M.add[rep[a]][x])
                rejected += 1
        assert rejected == 883

    def test_z2_with_a_zero_by_a_non_congruence(self):
        # {0, z} ~ and {1}: the classes do not add, though the table Z/2 they
        # would give is a monoid
        M = validate_monoid([[0, 1, 2], [1, 0, 2], [2, 2, 2]])
        with pytest.raises(NotACongruence) as e:
            quotient(M, Congruence(M, (0, 1, 0)))
        assert e.value.witness == (2, 1)

    @pytest.mark.parametrize("rep", [(0, 1), (0, 5, 2), (1, 1, 2), (0, 2, 2), (0, 0, 1),
                                     (0, 1, 2.0), (0, 1, True)])
    def test_rep_must_be_the_smallest_member_map(self, rep):
        # (0, 2, 2) is a congruence of Sat3, but 2 is not the smallest of {1, 2}
        with pytest.raises(OutOfRange):
            quotient(saturating_monoid(3), Congruence(saturating_monoid(3), rep))

    @settings(max_examples=300, deadline=None)
    @given(*[st.lists(st.text("ab,{}\\", max_size=3), min_size=1, max_size=3)] * 2)
    @example(["a,b"], ["a", "b"]).via("the labels of Sat4 modulo 1 ~ 2")
    def test_distinct_label_lists_give_distinct_class_labels(self, names, names2):
        assert (_class_label(names) == _class_label(names2)) == (names == names2)
        assert read_class_label(_class_label(names)) == names

    @given(st.lists(st.text(st.characters(exclude_characters="\\,{}")), min_size=1))
    def test_plain_labels_are_written_as_they_are(self, names):
        assert _class_label(names) == "{" + ",".join(names) + "}"


class TestKernelCongruence:
    def test_injective(self):
        M = cyclic_group(3)
        C = kernel_congruence(identity_hom(M))
        assert C.num_classes() == 3

    def test_zero_map(self):
        C = kernel_congruence(zero_hom(cyclic_group(3), cyclic_group(2)))
        assert C.num_classes() == 1

    def test_parity_map(self):
        f = hom_check(C42, cyclic_group(2), [m % 2 for m in range(6)])
        assert kernel_congruence(f).num_classes() == 2

    @pytest.mark.parametrize("target, image", [(cyclic_group(2), (0, 0, 1, 1)),
                                               (cyclic_group(4), (0, 2, 1, 3))])
    def test_a_map_that_is_not_a_hom_is_the_callers(self, target, image):
        # built directly, not through hom_check: f(1 + 1) != f(1) + f(1)
        f = MonoidHom(cyclic_group(4), target, image)
        with pytest.raises(NotAdditive) as direct:
            hom_check(f.source, f.target, f.image)
        for build in (kernel_congruence, kernel_pair):
            with pytest.raises(NotAdditive) as e:
                build(f)
            assert e.value.witness == direct.value.witness == (1, 1)


class TestFactorThrough:
    def test_identity_congruence(self):
        M = C42
        f = hom_check(M, cyclic_group(2), [m % 2 for m in range(6)])
        f2 = factor_through(f, identity_congruence(M))
        assert f2.image == f.image

    def test_kernel_gives_injective(self):
        f = hom_check(C42, cyclic_group(2), [m % 2 for m in range(6)])
        f2 = factor_through(f, kernel_congruence(f))
        assert f2.is_injective()

    def test_non_congruence_fails(self):
        # the zero map is constant on every class, so the partition is what fails
        M = validate_monoid([[0, 1, 2], [1, 0, 2], [2, 2, 2]])
        with pytest.raises(NotACongruence):
            factor_through(zero_hom(M, M), Congruence(M, (0, 1, 0)))

    def test_coarser_fails(self):
        M = cyclic_group(4)
        f = identity_hom(M)
        C = congruence_closure(M, [(0, 2)])
        with pytest.raises(HypothesisFails):
            factor_through(f, C)

    @pytest.mark.parametrize("rep", [(0, 5, 0, 1), (0, 1, 0, 1.0), (0, 1, 0, 1, 0)])
    def test_malformed_congruence_is_refused_before_it_is_read(self, rep):
        # an entry out of range, a float, and one entry too many: each is
        # refused as `quotient` refuses it, not by an IndexError or TypeError
        # from reading it, nor by HypothesisFails from comparing f along it
        M = cyclic_group(4)
        with pytest.raises(OutOfRange, match="is not the smallest-member map"):
            factor_through(identity_hom(M), Congruence(M, rep))

    def test_contains_and_factor_through_against_all_pairs_on_corpus4(self):
        # factor_through(nu_D, C) holds exactly when C lies inside D
        for M in small_monoid_corpus(4):
            congruences = enumerate_congruences(M)
            for D in congruences:
                nu = quotient(M, D)[1]
                for C in congruences:
                    assert C.contains(D) == all_pairs_contains(C, D)
                    separated = all_pairs_separated(nu, C)
                    assert (separated is None) == D.contains(C)
                    if separated is None:
                        assert factor_through(nu, C).compose(quotient(M, C)[1]).image == nu.image
                        continue
                    with pytest.raises(HypothesisFails) as e:
                        factor_through(nu, C)
                    a, b = e.value.witness
                    assert C.same(a, b) and nu.image[a] != nu.image[b]

    def test_homomorphism_theorem_over_all_homs(self):
        for M in small_monoid_corpus(3):
            for N in small_monoid_corpus(3):
                for f in enumerate_homs(M, N):
                    C = kernel_congruence(f)
                    Q, nu = quotient(M, C)
                    f2 = factor_through(f, C)
                    assert f2.compose(nu).image == f.image


class TestChainAndNaive:
    def test_equal_maps_give_identity(self):
        M = cyclic_group(4)
        f = identity_hom(M)
        assert chain_congruence(f, f).num_classes() == M.size

    def test_coequalizer_id_zero_on_z2(self):
        M = cyclic_group(2)
        Q, nu = coequalizer_finite(identity_hom(M), zero_hom(M, M))
        assert Q.size == 1

    def test_naive_on_saturating_merges_all(self):
        N = saturating_monoid(3)
        C = naive_congruence(identity_hom(N), identity_hom(N))
        assert C.num_classes() == 1  # 0 ~ 1 via n = n' = 1

    def test_naive_names_the_callers_map_that_is_not_a_hom(self):
        Z4, Z2 = cyclic_group(4), cyclic_group(2)
        f, zero = MonoidHom(Z4, Z2, (0, 0, 1, 1)), zero_hom(Z4, Z2)
        for pair in ((f, zero), (zero, f)):
            with pytest.raises(NotAdditive) as e:
                naive_congruence(*pair)
            assert e.value.witness == (1, 1)

    @pytest.mark.parametrize("sources, targets, message", [
        ((3, 2), (4, 4), "^mismatched sources$"),   # was a bare IndexError
        ((2, 3), (4, 4), "^mismatched sources$"),   # was the identity partition
        ((2, 2), (4, 3), "^mismatched targets$"),   # answered on Z/4
        ((2, 2), (3, 4), "^mismatched targets$"),   # answered on Z/3
    ])
    def test_naive_rejects_maps_that_are_not_parallel(self, sources, targets, message):
        f, g = (zero_hom(cyclic_group(m), cyclic_group(n)) for m, n in zip(sources, targets))
        with pytest.raises(SemimodError, match=message):
            naive_congruence(f, g)

    def test_naive_closes_its_relation_through_the_closure_with_no_rows(self, monkeypatch):
        calls = []

        def recording(size, rows, pairs):
            calls.append((size, rows))
            return _closure(size, rows, pairs)

        monkeypatch.setattr(congruence, "_closure", recording)
        N = saturating_monoid(3)
        assert naive_congruence(identity_hom(N), identity_hom(N)).num_classes() == 1
        assert calls == [(3, ())]

    def test_naive_matches_the_pairwise_union(self):
        # the reference unions m, m' for every witness n, n' on its own union-find
        for M in small_monoid_corpus(3):
            for N in small_monoid_corpus(2):
                for f in enumerate_homs(N, M):
                    for g in enumerate_homs(N, M):
                        uf = RelabellingUnionFind(M.size)
                        for m, m2, n, n2 in itertools.product(M.elements(), M.elements(),
                                                              N.elements(), N.elements()):
                            if (M.sum([m, f.image[n], g.image[n2]])
                                    == M.sum([m2, f.image[n2], g.image[n]])):
                                uf.union(m, m2)
                        assert naive_congruence(f, g).rep == tuple(map(uf.find, M.elements()))

    def test_naive_contains_seed_pairs(self):
        M, N = C42, cyclic_group(2)
        for f in enumerate_homs(N, M):
            for g in enumerate_homs(N, M):
                C = naive_congruence(f, g)
                for n in N.elements():
                    assert C.same(f.image[n], g.image[n])

    def test_chain_finer_than_naive_strictly_somewhere(self):
        strict = 0
        for M in small_monoid_corpus(3):
            for N in small_monoid_corpus(3):
                for f in enumerate_homs(N, M):
                    for g in enumerate_homs(N, M):
                        nc = naive_congruence(f, g)
                        cc = chain_congruence(f, g)
                        assert nc.contains(cc)
                        if not cc.contains(nc):
                            strict += 1
        assert strict > 0

    def test_universal_property_probe(self):
        corpus = small_monoid_corpus(3)
        for M in corpus:
            if M.size > 2:
                continue
            for N in corpus:
                if N.size > 2:
                    continue
                for f in enumerate_homs(N, M):
                    for g in enumerate_homs(N, M):
                        assert coequalizer_universal_probe(f, g, corpus)

    def test_chain_equals_kernel_intersection_surrogate(self):
        # the coequalizer congruence equals the meet of all kernel
        # congruences of coequalizing maps into small targets
        corpus = small_monoid_corpus(3)
        M = cyclic_group(4)
        N = cyclic_group(2)
        f = hom_check(N, M, [0, 2])
        g = zero_hom(N, M)
        cc = chain_congruence(f, g)
        meet = [[True] * M.size for _ in M.elements()]
        for P in corpus + [M]:
            for h in enumerate_homs(M, P):
                if all(h.image[f.image[n]] == h.image[g.image[n]] for n in N.elements()):
                    for a in M.elements():
                        for b in M.elements():
                            if h.image[a] != h.image[b]:
                                meet[a][b] = False
        for a in M.elements():
            for b in M.elements():
                assert meet[a][b] == cc.same(a, b)


class TestBourne:
    def test_trivial_submonoid(self):
        M = C42
        assert bourne_congruence(M, (0,)).num_classes() == M.size

    def test_whole_monoid(self):
        M = C42
        assert bourne_congruence(M, tuple(M.elements())).num_classes() == 1

    def test_closure_equals_the_pairwise_relation_on_every_table_of_order_4(self):
        pairs = 0
        for M in TABLES4:
            for K in all_submonoids(M):
                assert bourne_congruence(M, K).rep == bourne_by_pairs(M, K)
                pairs += 1
        assert pairs == 562

    def test_equals_chain_of_inclusion_and_zero(self):
        for M in small_monoid_corpus(4):
            for K in all_submonoids(M):
                S, incl = sub_as_monoid(M, K)
                assert (bourne_congruence(M, K).rep
                        == chain_congruence(incl, zero_hom(S, M)).rep)

    def test_smallest_congruence_killing_k(self):
        for M in small_monoid_corpus(4):
            congs = enumerate_congruences(M)
            for K in all_submonoids(M):
                B = bourne_congruence(M, K)
                for C in congs:
                    if all(C.same(k, 0) for k in K):
                        assert C.contains(B)

    def test_zero_class_contains_k_strictly_somewhere(self):
        strict = 0
        for M in small_monoid_corpus(4):
            for K in all_submonoids(M):
                z = set(zero_class(bourne_congruence(M, K)))
                assert set(K) <= z
                if set(K) < z:
                    strict += 1
        assert strict > 0

    def test_zero_class_is_submonoid_and_refines(self):
        M = C42
        C = congruence_closure(M, [(2, 4)])
        K = zero_class(C)
        assert M.is_submonoid(K)
        assert C.contains(bourne_congruence(M, K))


class TestKernelPair:
    def test_injective_gives_diagonal(self):
        M = cyclic_group(3)
        kp = kernel_pair(identity_hom(M))
        assert kp.rel.size == M.size

    def test_zero_gives_square(self):
        M = cyclic_group(3)
        kp = kernel_pair(zero_hom(M, M))
        assert kp.rel.size == M.size ** 2

    def test_projections_recover_pairs(self):
        f = hom_check(C42, cyclic_group(2), [m % 2 for m in range(6)])
        kp = kernel_pair(f)
        for i, bp_index in enumerate(kp.elements):
            a, b = divmod(bp_index, C42.size)
            assert kp.p1.image[i] == a and kp.p2.image[i] == b
            assert f.image[a] == f.image[b]

    def test_pairing_is_unique_fill_in(self):
        M = cyclic_group(2)
        f = identity_hom(M)
        g = identity_hom(M)
        C = kernel_congruence(identity_hom(M))
        kp = kernel_pair_of_congruence(C)
        h = kp.pairing(f, g)
        assert kp.p1.compose(h).image == f.image
        assert kp.p2.compose(h).image == g.image

    def test_roundtrip_with_coequalizer(self):
        # the coequalizer of the kernel pair of a quotient map is the quotient
        for M in small_monoid_corpus(3):
            for seed in itertools.combinations(range(M.size), 2):
                C = congruence_closure(M, [seed])
                Q, nu = quotient(M, C)
                kp = kernel_pair(nu)
                C2 = chain_congruence(kp.p1, kp.p2)
                assert C2.rep == C.rep

    def test_relation_monoid_matches_its_table_on_corpus4(self):
        rng = random.Random(4)
        congruences = [C for M in small_monoid_corpus(4) for C in enumerate_congruences(M)]
        for family in ("Z", "Sat", "C"):
            for n in (5, 12):
                M = validate_monoid(relabel(family_table(family, n),
                                            [0] + rng.sample(range(1, n), n - 1)))
                congruences += [identity_congruence(M), congruence_closure(M, [(1, n - 1)]),
                                congruence_closure(M, [(0, b) for b in M.elements()])]
        for C in congruences:
            kp = kernel_pair_of_congruence(C)
            assert (kp.elements, kp.rel.add, kp.rel.gens, kp.p1.image, kp.p2.image) \
                == relation_table(C)
            assert kp.rel.labels is None

    def test_builds_no_square_table(self):
        # M x M has 40^4 cells; the diagonal's own table has 40^2
        C = identity_congruence(cyclic_group(40))
        tracemalloc.start()
        try:
            kp = kernel_pair_of_congruence(C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kp.rel.size == 40 and peak < 2**20

    def test_checks_the_congruence_as_quotient_does(self):
        # the same error, message and witness as `quotient`, on every
        # partition of every table of order <= 4 and on malformed maps
        cases = [Congruence(M, rep) for M in TABLES4 for rep in set_partitions(M.size)]
        cases += [Congruence(saturating_monoid(3), rep)
                  for rep in [(0, 1), (0, 5, 2), (1, 1, 2), (0, 2, 2), (0, 0, 1),
                              (0, 1, 2.0), (0, 1, True)]]
        rejected = set()
        for C in cases:
            try:
                quotient(C.carrier, C)
            except (NotACongruence, OutOfRange) as e:
                with pytest.raises(type(e)) as e2:
                    kernel_pair_of_congruence(C)
                assert str(e2.value) == str(e)
                assert getattr(e2.value, "witness", None) == getattr(e, "witness", None)
                rejected.add(type(e))
            else:
                kernel_pair_of_congruence(C)
        assert rejected == {NotACongruence, OutOfRange}

    def test_congruence_embeds_in_chain_of_projections(self):
        M = saturating_monoid(3)
        C = congruence_closure(M, [(1, 2)])
        kp = kernel_pair_of_congruence(C)
        C2 = chain_congruence(kp.p1, kp.p2)
        for a in M.elements():
            for b in M.elements():
                if C.same(a, b):
                    assert C2.same(a, b)


def congruences_by_growth_strings(M):
    """Reference for `enumerate_congruences`: recurse over restricted growth
    strings, the set partitions, and keep the translation-closed ones."""
    out = []

    def rec(assign, nblocks):
        if len(assign) == M.size:
            first = {}
            C = Congruence(M, tuple(first.setdefault(b, m) for m, b in enumerate(assign)))
            if C.is_translation_closed():
                out.append(C)
            return
        for b in range(nblocks + 1):
            rec(assign + [b], max(nblocks, b + 1))

    rec([], 0)
    return out


BELL = (1, 1, 2, 5, 15)


class TestLatticeMemo:
    def test_a_hit_is_a_cold_call(self):
        for M in small_monoid_corpus(4):
            cold = enumerate_congruences(fresh(M))
            M2 = fresh(M)
            first = enumerate_congruences(M2)
            first.clear()                   # the caller owns the list
            second = enumerate_congruences(M2)
            assert second == cold and all(C.carrier is M2 for C in second)
            second.append(None)
            assert enumerate_congruences(M2) == cold

    def test_a_hit_spends_the_bell_budget(self):
        for M in small_monoid_corpus(4):
            M2 = fresh(M)
            enumerate_congruences(M2)
            budget = BELL[M.size] - 1
            with pytest.raises(BudgetExceeded) as cold:
                enumerate_congruences(fresh(M), budget)
            with pytest.raises(BudgetExceeded) as warm:
                enumerate_congruences(M2, budget)
            assert str(warm.value) == str(cold.value) == (
                f"congruence partitions: {BELL[M.size]} exceeds budget {budget}")
            assert (warm.value.phase, warm.value.spent, warm.value.limit) == (
                "congruence partitions", BELL[M.size], budget)
            assert enumerate_congruences(M2, budget + 1) == enumerate_congruences(fresh(M))

    def test_the_lattice_dies_with_its_monoid(self):
        M = fresh(saturating_monoid(3))
        C = weakref.ref(enumerate_congruences(M)[-1])
        del M
        gc.collect()
        assert C() is None

    def test_a_copy_writes_nothing_into_the_memo_of_its_original(self):
        M = fresh(saturating_monoid(3))
        lattice = enumerate_congruences(M)
        before = dict(_memo(M))
        M2 = copy(M)
        assert all(C.carrier is M2 for C in enumerate_congruences(M2))
        assert _memo(M) == before and list(before) == ["congruences"]
        assert enumerate_congruences(M) == lattice
        assert all(C.carrier is M for C in enumerate_congruences(M))

    def test_a_tensors_monoid_remembers_its_lattice(self):
        T = tensor_product(fresh(saturating_monoid(3)), fresh(cyclic_group(2))).monoid
        first = enumerate_congruences(T)
        hit = enumerate_congruences(T)
        assert hit == first == enumerate_congruences(fresh(T))
        assert all(a is b for a, b in zip(hit, first)) and hit is not first


class TestEnumerateCongruences:
    def test_same_list_in_the_same_order_as_the_growth_strings(self):
        for M in small_monoid_corpus(4) + [saturating_monoid(8), cyclic_group(9)]:
            assert enumerate_congruences(M) == congruences_by_growth_strings(M)

    def test_trivial(self):
        assert len(enumerate_congruences(trivial_monoid())) == 1

    def test_z2(self):
        assert len(enumerate_congruences(cyclic_group(2))) == 2

    def test_z4_matches_subgroups(self):
        assert len(enumerate_congruences(cyclic_group(4))) == 3

    def test_budget_is_the_bell_number(self):
        # Z/7 is simple; it has B(7) = 877 set partitions
        assert len(enumerate_congruences(cyclic_group(7))) == 2
        assert len(enumerate_congruences(cyclic_group(7), budget=877)) == 2
        with pytest.raises(BudgetExceeded, match="^congruence partitions: 877 exceeds budget 876$"):
            enumerate_congruences(cyclic_group(7), budget=876)
        # B(20) is not computed in full once a smaller Bell number, B(9), passes the budget
        with pytest.raises(BudgetExceeded,
                           match="^congruence partitions: 21147 exceeds budget 10000$"):
            enumerate_congruences(cyclic_group(20), budget=10**4)

    def test_all_outputs_are_congruences(self):
        for M in small_monoid_corpus(4):
            for C in enumerate_congruences(M):
                assert C.is_translation_closed()


def test_congruence_json():
    C = congruence_closure(C42, [(4, 5)])
    assert C.to_json() == {"classes": [[0], [1], [2], [3], [4, 5]]}
