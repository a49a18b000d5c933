"""Congruence relations on finite commutative monoids.

A congruence is an equivalence relation closed under translation by every
element, so the quotient carries a well-defined addition.  Translation by
a sum is a composite of translations by its terms, so an equivalence
closed under translation by a generating set X is already a congruence.
Every generated relation, Bourne's, the tensor's and `naive_congruence`'s
included, closes in `_closure`, the one union-find.  On a table the
congruence the seeds generate is the equivalence generated by their
translates (a + m, b + m), since a translate of a translate is a translate:
each seed not yet related merges its n translates, never translated again,
and a seed already related is dropped, so s seeds cost O(s + n min(s, n))
finds.  The tensor's power has no table, and its closure re-examines the
translates by its generators of two classes that merge.  The greedy
generating set X every monoid keeps (`FiniteCommMonoid.gens`) serves the
rest: one closure test compares each element with one member of its class
under each x in X, O(n |X|), and `quotient` runs it instead of validating
the table it builds; and the coequalizer of f, g seeds f(y) ~ g(y) for y
in the source's X only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product
from typing import Iterable, Optional, Sequence

from .core import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    FiniteCommMonoid,
    MonoidHom,
    OutOfRange,
    SemimodError,
    _built,
    _echo,
    _memo,
    _submonoid,
    hom_check,
)


class HypothesisFails(SemimodError):
    def __init__(self, m: int, m2: int):
        super().__init__(f"{m} ~ {m2} but the map separates them")
        self.witness = (m, m2)


class NotACongruence(SemimodError):
    def __init__(self, a: int, x: int):
        super().__init__(f"{a} + {x} is not related to rep[{a}] + {x}: not a congruence")
        self.witness = (a, x)


@dataclass(frozen=True)
class Congruence:
    carrier: FiniteCommMonoid
    # element -> smallest member of its class: rep[a] <= a and rep[rep[a]] == rep[a]
    rep: tuple[int, ...]

    def same(self, a: int, b: int) -> bool:
        return self.rep[a] == self.rep[b]

    def classes(self) -> list[list[int]]:
        buckets: dict[int, list[int]] = {}
        for m, r in enumerate(self.rep):
            buckets.setdefault(r, []).append(m)
        return [buckets[r] for r in sorted(buckets)]

    def num_classes(self) -> int:
        return len(set(self.rep))

    def is_translation_closed(self) -> bool:
        """a + x ~ b + x for all a ~ b and x in the carrier's gens."""
        M = self.carrier
        return _translation_failure([M.add[x] for x in M.gens], self.rep) is None

    def contains(self, other: "Congruence") -> bool:
        """Every class of `other` lies inside a class of self.

        Each a is compared with other.rep[a], a member of its class in
        `other`: if every a is self-related to it, so are any two members.
        """
        return all(self.rep[a] == self.rep[other.rep[a]] for a in self.carrier.elements())

    def to_json(self) -> dict:
        return {"classes": self.classes()}


def _translation_failure(rows: Sequence[Sequence[int]],
                        rep: Sequence[int]) -> Optional[tuple[int, int]]:
    """The first (a, j) with rows[j][a] not related to rows[j][rep[a]], or None.

    Each row is a translation a -> a + x by a generator x; if every a agrees
    with a member of its class under x, any two members agree.
    """
    for j, row in enumerate(rows):
        for a, r in enumerate(rep):
            if rep[row[a]] != rep[row[r]]:
                return a, j
    return None


def _closure(size: int, rows: Sequence[Sequence[int]],
             pairs: Iterable[tuple[int, int]],
             table: Optional[Sequence[Sequence[int]]] = None) -> tuple[int, ...]:
    """The smallest-member map of the least equivalence on range(size) that
    contains the pairs and is closed under each row (a translation by a
    generator), or under every translation of `table`; with neither, the
    equivalence the pairs generate.

    Its union-find is a parent list under two rules: a union hangs the
    larger root under the smaller, and find halves the path it walks, so
    each root is its class's smallest member and no parent exceeds its
    child.  In increasing order each parent then already maps to its root.

    The seeds are taken in order, each once the worklist is empty, when the
    relation built so far is closed: a seed it already relates adds nothing
    and is dropped.  With rows, every merge of a pair (a, b) pushes its
    translates (row[a], row[b]), except those that merge nothing: a pair of
    equal translates, and the pair itself (row[a] = a and row[b] = b), which
    most translates of a merge in Sat_n are.  With `table`, the addition
    table of a commutative monoid with identity 0, a seed (a, b) that merges
    pushes its n translates zip(table[a], table[b]) and no merge is
    translated again: a translate of a translate is a translate, so those
    translates generate the congruence.  Each seed that is not dropped
    merges two classes, so at most n - 1 are translated, and s seeds cost
    O(s + n min(s, n)) finds.
    """
    parent = list(range(size))
    for seed in pairs:
        work, spread = [seed], table
        while work:
            a, b = work.pop()
            ra, rb = a, b
            while parent[ra] != ra:
                parent[ra] = ra = parent[parent[ra]]
            while parent[rb] != rb:
                parent[rb] = rb = parent[parent[rb]]
            if ra != rb:
                if ra > rb:
                    ra, rb = rb, ra
                parent[rb] = ra
                if spread:
                    work.extend(zip(spread[a], spread[b]))
                    spread = None
                elif rows:
                    work.extend((row[a], row[b]) for row in rows
                                if row[a] != row[b] and (row[a] != a or row[b] != b))
    for a, p in enumerate(parent):
        parent[a] = parent[p]
    return tuple(parent)


def identity_congruence(M: FiniteCommMonoid) -> Congruence:
    return Congruence(M, tuple(M.elements()))


def congruence_closure(M: FiniteCommMonoid,
                       pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Smallest congruence containing the given pairs, by `_closure` over M's
    table: the congruence they generate is the equivalence generated by their
    translates (a + m, b + m), since a translate of a translate is one, so
    each seed not yet related merges its n translates, which are never
    translated again, in O(s + n min(s, n)) finds for s seeds.  Each class
    keeps its smallest member as representative.  The pairs may be any
    iterable; they are read once.
    """
    pairs = tuple(pairs)
    for p in pairs:
        if not (isinstance(p, (tuple, list)) and len(p) == 2
                and all(type(v) is int and 0 <= v < M.size for v in p)):
            raise OutOfRange(f"pair {_echo(p)} is not two integers in [0, {M.size})")
    return Congruence(M, _closure(M.size, (), pairs, M.add))


def _checked_rep(M: FiniteCommMonoid, C: Congruence) -> tuple[int, ...]:
    """C.rep, if it is a smallest-member map on M (else `OutOfRange`) closed
    under translation by M.gens (else `NotACongruence`)."""
    rep = C.rep
    if len(rep) != M.size or not all(type(r) is int and 0 <= r <= a and rep[r] == r
                                     for a, r in enumerate(rep)):
        raise OutOfRange(f"{_echo(rep)} is not the smallest-member map of a partition of {M.size}")
    if (bad := _translation_failure([M.add[x] for x in M.gens], rep)) is not None:
        a, j = bad
        raise NotACongruence(a, M.gens[j])
    return rep


def _numbering(rep: Sequence[int]) -> tuple[list[int], list[int]]:
    """The classes of a smallest-member map numbered in order of their least
    members: those members in increasing order, and each element's class."""
    reps = sorted(set(rep))
    index = {r: i for i, r in enumerate(reps)}
    return reps, list(map(index.__getitem__, rep))


def quotient(M: FiniteCommMonoid, C: Congruence) -> tuple[FiniteCommMonoid, MonoidHom]:
    """The quotient monoid and its projection; class of 0 is element 0.

    Once `_checked_rep` accepts C, the quotient is a monoid and nu a hom by
    construction, so the table is not validated.  A labelled M labels each
    class by `_class_label` of its members' labels.
    """
    reps, nu = _numbering(_checked_rep(M, C))
    table = [[nu[row[b]] for b in reps] for row in map(M.add.__getitem__, reps)]
    labels = None if M.labels is None else tuple(
        _class_label(map(M.label, c)) for c in C.classes())
    Q = _built(table, labels)
    return Q, MonoidHom(M, Q, tuple(nu))


_ESCAPES = str.maketrans({c: "\\" + c for c in "\\,{}"})


def _class_label(names: Iterable[str]) -> str:
    """"{a,b}" for a class of members labelled a and b, with a backslash put
    before each backslash, comma and brace inside a label.  So distinct
    label lists give distinct class labels, and labels free of those four
    characters are written as they are."""
    return "{" + ",".join(name.translate(_ESCAPES) for name in names) + "}"


def kernel_congruence(f: MonoidHom) -> Congruence:
    """Partition of the source by the fibers of f, once f passes `hom_check`."""
    hom_check(f.source, f.target, f.image)
    first: dict[int, int] = {}
    C = Congruence(f.source, tuple(first.setdefault(v, m) for m, v in enumerate(f.image)))
    if not C.is_translation_closed():
        raise SemimodError("internal error: the relation is not translation-closed")
    return C


def factor_through(f: MonoidHom, C: Congruence) -> MonoidHom:
    """The unique map on the quotient with f = f' o nu; fails loudly otherwise.

    Once `quotient` accepts C, f must agree on every a with its class's
    representative rep[a]; a failure names (rep[a], a).
    """
    Q, _ = quotient(f.source, C)
    for a, r in enumerate(C.rep):
        if f.image[a] != f.image[r]:
            raise HypothesisFails(r, a)
    reps, _ = _numbering(C.rep)
    return MonoidHom(Q, f.target, tuple(f.image[r] for r in reps))


def _require_parallel(f: MonoidHom, g: MonoidHom) -> None:
    """`SemimodError` unless f and g share their source and their target."""
    if f.source is not g.source and f.source != g.source:
        raise SemimodError("mismatched sources")
    if f.target is not g.target and f.target != g.target:
        raise SemimodError("mismatched targets")


def chain_congruence(f: MonoidHom, g: MonoidHom) -> Congruence:
    """Closure of the pairs f(n) ~ g(n); its quotient is the coequalizer.

    Seeding n in the source's gens is enough: f and g are additive, so
    f(n) ~ g(n) for every sum n of generators follows.
    """
    _require_parallel(f, g)
    seeds = [(f.image[n], g.image[n]) for n in f.source.gens]
    return congruence_closure(f.target, seeds)


def coequalizer_finite(f: MonoidHom, g: MonoidHom) -> tuple[FiniteCommMonoid, MonoidHom]:
    return quotient(f.target, chain_congruence(f, g))


def naive_congruence(f: MonoidHom, g: MonoidHom) -> Congruence:
    """m ~ m' iff m + f(n) + g(n') = m' + f(n') + g(n) for some n, n'.

    Computed by exhaustive enumeration over the finite source once f and g
    are parallel and pass `hom_check`: the related pairs close through
    `_closure` with no rows.  The relation is then a congruence, which is
    re-checked.
    """
    _require_parallel(f, g)
    for h in (f, g):
        hom_check(h.source, h.target, h.image)
    M = f.target
    N = f.source
    pairs = ((m, m2) for m, m2 in product(M.elements(), repeat=2)
             if any(M.sum([m, f.image[n], g.image[n2]]) == M.sum([m2, f.image[n2], g.image[n]])
                    for n, n2 in product(N.elements(), repeat=2)))
    C = Congruence(M, _closure(M.size, (), pairs))
    if not C.is_translation_closed():
        raise SemimodError("internal error: the relation is not translation-closed")
    return C


def bourne_congruence(M: FiniteCommMonoid, K: Sequence[int]) -> Congruence:
    """m ~ m' iff m + a = m' + b for some a, b in the submonoid K.

    It is the congruence the pairs k ~ 0 generate: any congruence with
    k ~ 0 on K relates m ~ m + a = m' + b ~ m'.
    """
    return congruence_closure(M, [(k, 0) for k in _submonoid(M, K)])


def zero_class(C: Congruence) -> tuple[int, ...]:
    return tuple(C.classes()[0])


@dataclass(frozen=True)
class KernelPair:
    rel: FiniteCommMonoid          # the related pairs (a, b) under componentwise +
    elements: tuple[int, ...]      # rel index -> a·|M| + b, increasing
    p1: MonoidHom
    p2: MonoidHom

    def pairing(self, g: MonoidHom, h: MonoidHom) -> MonoidHom:
        """The unique map x -> (g(x), h(x)) into the relation submonoid."""
        pos = {code: i for i, code in enumerate(self.elements)}
        codes = [g.image[x] * self.p1.target.size + h.image[x] for x in g.source.elements()]
        if not all(code in pos for code in codes):
            raise SemimodError("the pair (g, h) does not land in the relation")
        return MonoidHom(g.source, self.rel, tuple(map(pos.__getitem__, codes)))


def kernel_pair_of_congruence(C: Congruence) -> KernelPair:
    """R = {(a, b) : a ~ b} and its projections, from C's classes (checked as
    `quotient` checks them) with no M x M table: (a, b) is R's element
    start[a] + rank[b], so R's table is |R|² lookups, left unchecked."""
    M = C.carrier
    rep = _checked_rep(M, C)
    members = {c[0]: c for c in C.classes()}   # representative -> its class
    rank = [members[r].index(a) for a, r in enumerate(rep)]    # a's place in its class
    pairs = [(a, b) for a, r in enumerate(rep) for b in members[r]]
    # start[a]: the pairs whose first entry is below a
    start = list(accumulate((len(members[r]) for r in rep), initial=0))
    R = _built([start[ra[c]] + rank[rb[d]] for c, d in pairs]
               for ra, rb in ((M.add[a], M.add[b]) for a, b in pairs))
    p1, p2 = (MonoidHom(R, M, side) for side in zip(*pairs))
    return KernelPair(R, tuple(a * M.size + b for a, b in pairs), p1, p2)


def kernel_pair(f: MonoidHom) -> KernelPair:
    return kernel_pair_of_congruence(kernel_congruence(f))


def enumerate_congruences(M: FiniteCommMonoid, budget: int = DEFAULT_BUDGET) -> list[Congruence]:
    """All congruences of a small monoid, by filtering its B(n) set partitions,
    in lexicographic order of their smallest-member maps.

    The lattice is remembered on M (`core._memo`).  A later call checks
    B(n) against its budget as a first call does, then returns a new list of
    the same congruences.
    """
    n = M.size
    row = [1]                 # a row of the Bell triangle; row r ends in B(r) <= B(n)
    while len(row) < n and row[-1] <= budget:
        row = list(accumulate(row, initial=row[-1]))
    if row[-1] > budget:
        raise BudgetExceeded("congruence partitions", row[-1], budget)
    memo = _memo(M)
    if "congruences" in memo:
        return list(memo["congruences"])
    # smallest-member maps depth first, each prefix with its representatives:
    # element i joins a representative, in increasing order, or opens its own class
    rows = [M.add[x] for x in M.gens]
    out = []
    stack = [((0,), (0,))]
    while stack:
        rep, reps = stack.pop()
        i = len(rep)
        if i == n:
            if _translation_failure(rows, rep) is None:
                out.append(Congruence(M, rep))
            continue
        stack.append((rep + (i,), reps + (i,)))
        stack.extend((rep + (r,), reps) for r in reversed(reps))
    memo["congruences"] = tuple(out)
    return out
