"""Computable constructions for commutative monoids over the naturals:
validated addition tables, congruences and coequalizers, semiideal
structure theory, and tensor products."""

from .core import (
    CyclicMonoid,
    FiniteCommMonoid,
    MonoidHom,
    NatVec,
    SemimodError,
    biproduct,
    cyclic_group,
    direct_summand_analysis,
    enumerate_homs,
    free_universal_map,
    hom_check,
    internal_direct_sum_check,
    iter_homs,
    saturating_monoid,
    submonoid_generated,
    trivial_monoid,
    validate_monoid,
)
from .congruence import (
    Congruence,
    bourne_congruence,
    chain_congruence,
    coequalizer_finite,
    congruence_closure,
    enumerate_congruences,
    factor_through,
    kernel_congruence,
    kernel_pair,
    naive_congruence,
    quotient,
    zero_class,
)
from .natcoeq import (
    BoundCapExceeded,
    NatQuotient,
    bourne_nat_quotient,
    coequalizer_nat,
    naive_nat_classes,
    nat_congruence_quotient,
)
from .semiideal import (
    EmptyIdeal,
    Semiideal,
    bezout_nonneg,
    bezout_nonneg_scaled,
    footing_two_generators,
)
from .tensor import (
    TensorProduct,
    associativity_iso,
    balanced_check,
    hom_adjunction_check,
    induced_map,
    symmetry_iso,
    tensor_product,
    tensor_with_free,
    universal_factorization,
)
