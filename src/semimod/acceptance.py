"""The acceptance criteria: one check per criterion, each returning a bool.

`CRITERIA` maps each criterion's name to its check, in criterion order, so
the criterion numbered n is the n-th entry.  `SUITES` splits the criteria
into the suites that ``semimod verify`` runs; every criterion belongs to
exactly one suite.  ``tests/test_acceptance.py`` runs the same checks.
"""

from __future__ import annotations

import random
from math import gcd
from typing import Callable

from .congruence import congruence_closure, enumerate_congruences
from .core import (
    biproduct,
    cyclic_group,
    direct_summand_analysis,
    enumerate_comm_monoid_tables,
    enumerate_homs,
    internal_direct_sum_check,
    saturating_monoid,
    small_monoid_corpus,
    submonoid_generated,
    trivial_monoid,
    validate_monoid,
)
from .natcoeq import bourne_nat_quotient, coequalizer_nat, naive_nat_classes
from .semiideal import (
    Semiideal,
    bezout_exhaustive_search,
    bezout_nonneg,
    footing_two_generators,
)
from .tensor import (
    associativity_iso,
    balanced_check,
    enumerate_balanced_maps,
    hom_adjunction_check,
    symmetry_iso,
    tensor_product,
    universal_factorization,
)

# C(4, 2), the coequalizer of the multiplications by 4 and 6
EXPECTED_C42 = [
    [0, 1, 2, 3, 4, 5],
    [1, 2, 3, 4, 5, 4],
    [2, 3, 4, 5, 4, 5],
    [3, 4, 5, 4, 5, 4],
    [4, 5, 4, 5, 4, 5],
    [5, 4, 5, 4, 5, 4],
]


def coequalizer_table() -> bool:
    """coeq(4, 6) is C(4, 2) with the printed 6x6 table, and its certificates replay."""
    q = coequalizer_nat(4, 6)
    table = [list(r) for r in q.result.to_monoid(labels=False).add]
    return (q.result.index == 4 and q.result.period == 2 and table == EXPECTED_C42
            and table[5][5] == 4 and table[1][5] == 4 and q.verify())


def naive_vs_coequalizer_gap() -> bool:
    """The one-step relation of (4, 6) has 2 classes on every probe; the quotient has 6."""
    return (all(len(naive_nat_classes(4, 6, probe_limit=lim)) == 2 for lim in (8, 12, 20, 33))
            and coequalizer_nat(4, 6).result.size == 6)


def footing_formula_vs_dp() -> bool:
    """The two-generator footing formula agrees with the Apéry table on 2..60."""
    return all(footing_two_generators(a, b) == Semiideal([a, b]).footing()
               for a in range(2, 61) for b in range(2, 61) if a != b)


def bezout_characterization() -> bool:
    """r*a + s*b = (a-1)(b-1) has a solution in naturals iff gcd(a, b) = 1, on 2..40."""
    for a in range(2, 41):
        for b in range(2, 41):
            got = bezout_nonneg(a, b)
            if (got is not None) != (gcd(a, b) == 1):
                return False
            if (got is None) != (bezout_exhaustive_search(a, b) is None):
                return False
            if got is not None:
                r, s = got
                if r < 0 or s < 0 or r * a + s * b != (a - 1) * (b - 1):
                    return False
    return True


def minimal_generators_recovery() -> bool:
    """Adding redundant sums to a generating set leaves the minimal generators unchanged."""
    rng = random.Random(12345)
    for _ in range(200):
        canon = sorted(rng.sample(range(5, 60), rng.randint(1, 4)))
        X = Semiideal(canon).minimal_generators()
        extras = []
        for _ in range(rng.randint(0, 6)):
            a, b = rng.choice(X), rng.choice(X)
            extras.append(a + b * rng.randint(0, 2))
        inp = list(X) + extras
        M = Semiideal(inp)
        Y = M.minimal_generators()
        if Y != X or not set(Y) <= set(inp) or len(Y) > Y[0] // M.period():
            return False
    return True


def structure_constants() -> bool:
    """Above the footing c the members are exactly c + n*d, and c - e is no member."""
    for gens in [(3, 5), (4, 6), (4, 10), (6, 10, 15), (8, 12, 18), (7,), (9, 24)]:
        M = Semiideal(gens)
        c, d = M.perc()
        if any(M.contains(c - e) for e in range(1, 2 * d) if c - e > 0):
            return False
        window = 10 * (c + d)
        tail = {n for n in range(c, window) if M.contains(n)}
        if tail != set(range(c, window, d)):
            return False
    return True


def bourne_quotient() -> bool:
    """N/(4, 6) is Z/2 by a unique isomorphism, N/(2, 3) is trivial, and both verify."""
    q = bourne_nat_quotient([4, 6])
    Q = q.result.to_monoid(labels=False)
    isos = [h for h in enumerate_homs(Q, cyclic_group(2)) if h.is_bijective()]
    q2 = bourne_nat_quotient([2, 3])
    return (q.result.period == 2 and q.verify() and len(isos) == 1
            and q2.result.period == 1 and q2.result.to_monoid().size == 1 and q2.verify())


def direct_sum_counterexamples() -> bool:
    """Sum and independence without unique decomposition; summands without complements."""
    M4 = validate_monoid([[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 3, 3], [3, 3, 3, 3]],
                         ["0", "1A", "1B", "2B"])
    v = internal_direct_sum_check(M4, [(0, 1), (0, 2, 3)])
    if not (v.sum_is_all and v.independent and not v.unique_decomposition
            and v.witness is not None):
        return False
    sums = {M4.sum(combo) for combo in v.witness}
    if len(sums) != 1 or {tuple(sorted(c)) for c in v.witness} != {(0, 3), (1, 2)}:
        return False
    N3 = validate_monoid([[0, 1, 2], [1, 1, 2], [2, 2, 2]])
    for sub in [(0, 1), (0, 2)]:
        a = direct_summand_analysis(N3, sub)
        if a.complement is not None or a.retraction is None or a.idempotent is None:
            return False
    return True


def closure_minimality_oracle() -> bool:
    """On every table of size <= 4, the closure of up to two seed pairs is the least
    congruence containing them: the meet of all such congruences, each containing it."""
    tables = [M for n in range(1, 5) for M in enumerate_comm_monoid_tables(n)]
    if len(tables) < 50:
        return False
    for M in tables:
        n = M.size
        congs = enumerate_congruences(M)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        seeds_list = [[]] + [[p] for p in pairs]
        seeds_list += [[p, q] for i, p in enumerate(pairs) for q in pairs[i + 1:]]
        for seeds in seeds_list:
            C = congruence_closure(M, seeds)
            containing = [D for D in congs if all(D.same(a, b) for a, b in seeds)]
            if not all(D.contains(C) for D in containing):
                return False
            for x in range(n):
                for y in range(n):
                    if C.same(x, y) != all(D.same(x, y) for D in containing):
                        return False
    return True


def tensor_universal_property() -> bool:
    """Every balanced map into a size-<=3 monoid factors uniquely through the tensor."""
    pool = [trivial_monoid(), cyclic_group(2), cyclic_group(3), saturating_monoid(2)]
    targets = small_monoid_corpus(3)
    for M in pool:
        for N in pool:
            T = tensor_product(M, N)
            if not balanced_check(M, N, T.monoid, T.bilinear)[0]:
                return False
            cells = [(m, n) for m in M.elements() for n in N.elements()]
            pures = [T.pure(m, n) for m, n in cells]
            if submonoid_generated(T.monoid, pures) != tuple(T.monoid.elements()):
                return False
            for A in targets:
                for f in enumerate_balanced_maps(M, N, A):
                    g = universal_factorization(T, A, f)
                    if any(g.image[T.pure(m, n)] != f[m][n] for m, n in cells):
                        return False
                    same = [h for h in enumerate_homs(T.monoid, A)
                            if all(h.image[T.pure(m, n)] == f[m][n] for m, n in cells)]
                    if len(same) != 1:
                        return False
    if tensor_product(cyclic_group(2), cyclic_group(3)).monoid.size != 1:
        return False
    T22 = tensor_product(cyclic_group(2), cyclic_group(2))
    isos = [h for h in enumerate_homs(T22.monoid, cyclic_group(2)) if h.is_bijective()]
    return len(isos) == 1


def coherence() -> bool:
    """Symmetry, associativity and the tensor-hom adjunction on the size-<=3 corpus."""
    corpus = small_monoid_corpus(3)
    if not all(symmetry_iso(M, N).verify() for M in corpus for N in corpus):
        return False
    for M in corpus:
        for N in corpus:
            for P in corpus:
                if not associativity_iso(M, N, P).verify():
                    return False
                if not hom_adjunction_check(M, N, P):
                    return False
    return True


def semilattice_tensor_sizes() -> bool:
    """|L (x) N| = |Hom(N, L)| for products L, N of chains, past the power table's reach.

    For semilattices, L (x) N is the semilattice of bi-ideals, in bijection with
    Hom(N, L^op) (Graetzer-Wehrung 1999); a product of chains is self-dual, so
    L^op ~ L.  The count is by `enumerate_homs`, which shares no code with the
    tensor.  The last pair needs 1296^2 quotient cells, so it gets budget 10^7.
    """
    S3x3 = biproduct(saturating_monoid(3), saturating_monoid(3)).monoid
    S4x4 = biproduct(saturating_monoid(4), saturating_monoid(4)).monoid
    pairs = [(saturating_monoid(m), saturating_monoid(n)) for m in range(1, 6) for n in range(1, 6)]
    pairs += [(saturating_monoid(6), saturating_monoid(6)), (S4x4, saturating_monoid(4)),
              (S3x3, S3x3)]
    return all(tensor_product(L, N, budget=10**7).monoid.size == len(enumerate_homs(N, L))
               for L, N in pairs)


def certificate_replay() -> bool:
    """Both certificates of the naturals coequalizer replay on a spread of pairs."""
    for a, b in [(4, 6), (0, 3), (2, 5), (1, 2), (3, 12), (5, 5)]:
        q = coequalizer_nat(a, b)
        if not (q.verify_certificate_a() and q.verify_certificate_b()):
            return False
    return True


CRITERIA: dict[str, Callable[[], bool]] = {
    "coequalizer_table": coequalizer_table,
    "naive_vs_coequalizer_gap": naive_vs_coequalizer_gap,
    "footing_formula_vs_dp": footing_formula_vs_dp,
    "bezout_characterization": bezout_characterization,
    "minimal_generators_recovery": minimal_generators_recovery,
    "structure_constants": structure_constants,
    "bourne_quotient": bourne_quotient,
    "direct_sum_counterexamples": direct_sum_counterexamples,
    "closure_minimality_oracle": closure_minimality_oracle,
    "tensor_universal_property": tensor_universal_property,
    "coherence": coherence,
    "certificate_replay": certificate_replay,
    "semilattice_tensor_sizes": semilattice_tensor_sizes,
}

SUITES: dict[str, tuple[str, ...]] = {
    "reference-tables": ("coequalizer_table", "bourne_quotient",
                         "direct_sum_counterexamples", "certificate_replay"),
    "oracles": ("naive_vs_coequalizer_gap", "footing_formula_vs_dp",
                "bezout_characterization", "minimal_generators_recovery",
                "structure_constants", "closure_minimality_oracle"),
    "coherence": ("tensor_universal_property", "coherence", "semilattice_tensor_sizes"),
}
