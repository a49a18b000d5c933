"""Tables the library builds without `validate_monoid`, against it.

Products, powers, submonoids, hom monoids, Z/n, Sat_n and quotients by a
checked congruence are monoids by construction, so the library skips
re-validating them.  Here each one is validated anyway, and must come back
equal, with the same generating set (`gens` is not compared by ==).  C(i, p)
is still validated when built; its test is ready for the day it is built by
construction too.
"""

import pytest

from semimod.congruence import congruence_closure, enumerate_congruences, quotient
from semimod.core import (
    OutOfRange,
    _product,
    biproduct,
    cyclic_group,
    hom_check,
    saturating_monoid,
    small_monoid_corpus,
    sub_as_monoid,
    validate_monoid,
)
from semimod.natcoeq import CyclicMonoid
from semimod.tensor import hom_monoid, tensor_with_free

from test_validation import all_submonoids

CORPUS3 = small_monoid_corpus(3)
FACTORS = CORPUS3 + [cyclic_group(4), saturating_monoid(4),
                     CyclicMonoid(2, 3).to_monoid(labels=False)]


def assert_as_validated(X):
    V = validate_monoid([list(r) for r in X.add], X.labels)
    assert V == X
    assert V.gens == X.gens


def labelled(M):
    return validate_monoid(M.add, [f"m{a}" for a in M.elements()])


def assert_quotient_as_validated(M, C):
    Q, nu = quotient(M, C)
    assert_as_validated(Q)
    hom_check(M, Q, nu.image)
    assert nu.image == tuple(sorted(set(C.rep)).index(r) for r in C.rep)


def test_biproducts():
    for M in FACTORS:
        for N in FACTORS:
            assert_as_validated(biproduct(M, N).monoid)


def test_products_of_three_factors_are_iterated_biproducts():
    A, B, C = cyclic_group(2), saturating_monoid(3), CyclicMonoid(1, 2).to_monoid(labels=False)
    P = _product([A, B, C])
    assert_as_validated(P)
    assert P == biproduct(biproduct(A, B).monoid, C).monoid


def test_powers():
    for A in FACTORS:
        for k in range(4):
            assert_as_validated(tensor_with_free(A, range(k))[0])


def test_the_first_power_is_the_monoid_itself():
    A = cyclic_group(5)
    P, _ = tensor_with_free(A, ["x"])
    assert P.add is A.add and P.gens is A.gens


def test_submonoids():
    for M in small_monoid_corpus(4):
        for K in all_submonoids(M):
            assert_as_validated(sub_as_monoid(M, K)[0])


def test_hom_monoids():
    for M in CORPUS3:
        for N in CORPUS3:
            assert_as_validated(hom_monoid(M, N)[0])


def test_quotients_by_every_congruence_of_corpus4():
    for M in small_monoid_corpus(4):
        for X in (M, labelled(M)):
            for C in enumerate_congruences(X):
                assert_quotient_as_validated(X, C)


@pytest.mark.parametrize("M, pair", [
    (cyclic_group(112), (3, 59)),
    (saturating_monoid(100), (20, 80)),
    (biproduct(cyclic_group(10), cyclic_group(9)).monoid, (1, 12)),
])
def test_quotients_by_closures(M, pair):
    for X in (M, labelled(M)):
        assert_quotient_as_validated(X, congruence_closure(X, [pair]))


def test_cyclic_groups_and_saturating_monoids():
    for n in range(1, 41):
        assert_as_validated(cyclic_group(n))
        assert_as_validated(saturating_monoid(n))


def test_cyclic_monoids():
    # byte rows up to 256 elements, list rows above
    cases = [(size, i) for size in range(1, 41) for i in range(size)]
    cases += [(size, i) for size in (255, 256, 257, 300) for i in (0, 1, 40, size - 1)]
    for size, i in cases:
        for labels in (False, True):
            assert_as_validated(CyclicMonoid(i, size - i).to_monoid(labels=labels))


@pytest.mark.parametrize("build", [
    lambda: cyclic_group(0),
    lambda: saturating_monoid(-1),
    lambda: CyclicMonoid(0, 0).to_monoid(),
    lambda: CyclicMonoid(2, 0).to_monoid(),
    lambda: CyclicMonoid(-1, 3).to_monoid(),
    lambda: cyclic_group(2.5),
    lambda: cyclic_group(True),
    lambda: cyclic_group("3"),
    lambda: saturating_monoid(0),
    lambda: saturating_monoid(3.0),
    lambda: saturating_monoid(None),
    lambda: CyclicMonoid(1.5, 2).to_monoid(),
    lambda: CyclicMonoid(1, 2.0).to_monoid(),
    lambda: CyclicMonoid(False, 2).to_monoid(),
])
def test_empty_or_malformed_families_are_out_of_range(build):
    with pytest.raises(OutOfRange):
        build()
