"""Every budget refusal, one row per raise site.

Each site compares its cost with its limit before it builds what the cost
counts.  One past the limit it raises `BudgetExceeded` naming its phase,
with spent = the cost and limit = the budget, and its `tracemalloc` peak
stays under 1 MB although the refused build has at least 10^6 cells.  At
the limit the same input gets past the check: the call runs to its end, or,
where the rest is large, reaches the step that follows the check, replaced
by one that raises `Reached`.
"""

import argparse
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Optional

import pytest

from semimod import cli, congruence, tensor
from semimod.core import BudgetExceeded, biproduct, cyclic_group, enumerate_homs, saturating_monoid
from semimod.natcoeq import BoundCapExceeded, nat_congruence_quotient
from semimod.semiideal import Semiideal

BELL_12 = 4213597


class Reached(Exception):
    """Raised by the step that follows a check, once the check has passed."""


@dataclass
class Site:
    phase: str
    cost: int
    make: Callable[[], Callable]
    # the module attribute called right after the check, replaced at the limit
    after: Optional[tuple[object, str]] = None
    # a miss of the tensor builds the closure before its table check
    peak_checked: bool = True


# Each builder makes the inputs, outside the traced call, and returns the call
# at a given limit; it gets pytest's monkeypatch to set the limit where the site
# reads no budget argument.

def coeq_table():
    def call(limit, mp):
        mp.setenv("SEMIMOD_BUDGET", str(limit))
        return cli.cmd_coeq(argparse.Namespace(naive=False, a=0, b=1000, json=True))
    return call


def partitions():
    M = cyclic_group(12)
    return lambda limit, mp: congruence.enumerate_congruences(M, limit)


def homs():
    # x_1 idempotent takes all 200 images, and x_2 of order 3 tries 200 after each
    M, N = biproduct(cyclic_group(3), saturating_monoid(2)).monoid, saturating_monoid(200)
    return lambda limit, mp: enumerate_homs(M, N, limit)


def apery():
    return lambda limit, mp: Semiideal([500000, 500001], limit).footing()


def tensor_rows():
    M, N = saturating_monoid(7), saturating_monoid(7)
    return lambda limit, mp: tensor.tensor_product(M, N, limit)


def tensor_miss():
    S = biproduct(saturating_monoid(3), saturating_monoid(3)).monoid
    return lambda limit, mp: tensor.tensor_product(S, S, limit)


def tensor_hit():
    S = biproduct(saturating_monoid(3), saturating_monoid(3)).monoid
    tensor.tensor_product(S, S, budget=1296 ** 2)
    return lambda limit, mp: tensor.tensor_product(S, S, limit)


def balanced_maps():
    Z3, Z32 = cyclic_group(3), cyclic_group(32)
    def call(limit, mp):
        mp.setattr(tensor, "DEFAULT_BUDGET", limit)
        return tensor.enumerate_balanced_maps(Z3, Z3, Z32)
    return call


def free_power():
    Z10 = cyclic_group(10)
    def call(limit, mp):
        mp.setattr(tensor, "DEFAULT_BUDGET", limit)
        return tensor.tensor_with_free(Z10, range(3))
    return call


def certificate_b(pairs):
    return lambda: lambda limit, mp: nat_congruence_quotient(pairs, limit)


SITES = {
    "cli.cmd_coeq": Site("coeq table cells", 1000 ** 2, coeq_table),
    "congruence.enumerate_congruences": Site("congruence partitions", BELL_12, partitions,
                                             after=(congruence, "_memo")),
    # a search counts as it goes: its peak is the 200 homs found before the last image
    "core.iter_homs": Site("hom images tried", 200 * 201, homs),
    "semiideal.Semiideal._table": Site("Apéry table steps", 500000 * 2, apery),
    "tensor.tensor_product rows": Site("tensor row cells", 6 * 6 * 7 ** 6, tensor_rows,
                                       after=(tensor, "_memo")),
    "tensor.tensor_product table, miss": Site("tensor table cells", 1296 ** 2, tensor_miss,
                                              peak_checked=False),
    "tensor.tensor_product table, hit": Site("tensor table cells", 1296 ** 2, tensor_hit),
    "tensor.enumerate_balanced_maps": Site("balanced map candidates", 32 ** 4, balanced_maps,
                                           after=(tensor, "_balanced_failure")),
    "tensor.tensor_with_free": Site("free power cells", 10 ** 6, free_power,
                                    after=(tensor, "_product")),
    # certificate B: top + p = 10^6 before the walk; then top + p = 1 and the walk's peak
    "natcoeq._certificate_b top": Site("certificate B reach", 10 ** 6,
                                       certificate_b([(0, 10 ** 6)])),
    "natcoeq._certificate_b peak": Site("certificate B reach", 10 ** 6 + 1,
                                        certificate_b([(0, 10 ** 6), (0, 10 ** 6 + 1)])),
}


@pytest.mark.parametrize("name", SITES)
def test_each_site_refuses_one_past_its_limit_before_building(name, monkeypatch):
    site = SITES[name]
    call = site.make()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as e:
            call(site.cost - 1, monkeypatch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (e.value.phase, e.value.spent, e.value.limit) == (site.phase, site.cost, site.cost - 1)
    assert str(e.value) == f"{site.phase}: {site.cost} exceeds budget {site.cost - 1}"
    assert isinstance(e.value, BoundCapExceeded) == name.startswith("natcoeq")
    if site.peak_checked:       # each refused build but the search's has 10^6 cells or more
        assert peak < 2**20 and (site.cost >= 10 ** 6 or name == "core.iter_homs")
    if site.after is None:
        call(site.cost, monkeypatch)
    else:
        def reached(*args):
            raise Reached
        monkeypatch.setattr(*site.after, reached)
        with pytest.raises(Reached):
            call(site.cost, monkeypatch)

