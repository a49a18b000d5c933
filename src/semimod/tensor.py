"""Tensor products of finite commutative monoids.

The tensor is built from the paper's other two universal constructions.
M (x) F(Y) is the coproduct M^Y, and M (x) - preserves the coequalizer
F(R) => F(Y) -> N that presents N over its kept generating set Y
(`FiniteCommMonoid.gens`).  N's `core.Presentation` is its spanning tree
and relation edges: each relation edge e -> e + y is the relation
nf(e) + y = nf(e + y) between words, each nf spelled along the tree.  So
M (x) N is M^Y modulo the congruence generated by x.s ~ x.t for each
relation s = t of N and each x in M's generating set X (enough, since
a -> a.s is additive in a), where a.s is the vector (s_y a)_y.  Of M^Y and
N^X the smaller power is raised (M on a tie), and the bilinear table is
transposed back when N was.  The pure tensor a (x) b is the class of
(nf(b)_y a)_y, and each element is the sum of the pure tensors a_y (x) y
read off the coordinates of its least member.

The power A^k is never built.  It is coded in mixed radix |A|, first
coordinate most significant, as `core._product` codes it, and it is
generated by "x at coordinate j" for x in A's generating set and j < k; a
congruence closed under translation by those k |X_A| elements is closed
under all of A^k.  `congruence_closure` translates each seed once by all
of a table, which A^k does not have; so `congruence._closure` runs here on
those k |X_A| rows alone, each built from row x of A, and translates every
merge by them, and the same translation check that `quotient` runs is
applied to the result.  The rest is done in the quotient T: the generator
rows give T's translations, which build T's table by a walk of T's Cayley
graph from 0 (Froidure-Pin) and the pure tensors along B's spanning tree.
The budget counts the k |X_A| |A|^k row cells before building them (phase
"tensor row cells"), and the |T|^2 cells before building the table
("tensor table cells").

Both sides of the universal property are checked over generating sets.
A map f: M x N -> A is balanced when it satisfies the zero laws and is
additive in each variable against X and Y (a word over X reaches every m,
as in Light's test); the scalar-exchange law f(rm, n) = f(m, rn) follows
from biadditivity, as both sides equal r f(m, n).  The factorization g of a
balanced f sends each element to the sum of f over its pure tensors, and is
checked to be a hom out of the tensor, additive against its own generating
set, that agrees with f on pure tensors.

Only maps from callers (`universal_factorization`, `induced_map`) pass the
boundary check `balanced_check`.  The symmetry and associativity isos and
the adjunction transport give the maps they build to `_factor` alone: if
f = g o (x) with g a hom, f is balanced, since `tensor_product` checks that
(x) is.  Associativity is two comparison maps, one out of each bracketing.

`tensor_product` and `hom_monoid` remember what they return on their left
factor M, in M's own memo (`core._memo`), keyed by the identity of N, so a
sweep of coherence checks over n monoids builds its n^2 inner tensors
once, not 4 n^3 times, and a sweep of adjunction checks builds each
Hom(M, N) once.  The memo lives and dies with M and has no size limit; a
copy of M gets its own.  The key is N itself, not an equal monoid, since
equal monoids with other generating sets number T and its terms otherwise;
each entry holds N, so no other object can take N's id while the entry
lives.  `tensor_product` interns the monoids it builds by table, in a
weak-value dictionary: equal tensors share one monoid, with its generating
set, presentation and memo, while one lives.  So the memo finds the outer
brackets of an associativity sweep too; over the 1,728 triples of order at
most 3 each bracket has 192 distinct inputs.  A hit is a cold call's answer
at every budget.  A tensor hit spends the same budget as a build: the rows
check comes before the lookup and the quotient-table check is applied to
the remembered T.  The homs are remembered with the budget they were found
under, and hit only at a budget at least that large: the search spends the
same at every budget it finishes under, so one that finished under a
smaller budget finishes under this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional, Sequence
from weakref import WeakValueDictionary

from .congruence import _closure, _numbering, _translation_failure
from .core import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    FiniteCommMonoid,
    MonoidHom,
    OutOfRange,
    SemimodError,
    _additivity_failure,
    _built,
    _echo,
    _memo,
    _out_of_range,
    _product,
    enumerate_homs,
)

_INTERNED = WeakValueDictionary()     # table -> the monoid of a live tensor with that table


class NotBalanced(SemimodError):
    def __init__(self, witness):
        super().__init__(f"balanced-map axiom violated at {witness}")
        self.witness = witness


class WellDefinednessFailure(SemimodError):
    pass


@dataclass(frozen=True)
class PowerPresentation:
    """The power A^k a tensor is a quotient of, as its base A and exponent k
    (the table of A^k is never built), and the pairs that seed it."""

    base: FiniteCommMonoid
    k: int
    seeds: tuple[tuple[int, int], ...]

    def box_volume(self) -> int:
        """The number of elements the closure runs over: |A|^k."""
        return self.base.size ** self.k


@dataclass(frozen=True)
class TensorProduct:
    monoid: FiniteCommMonoid
    bilinear: tuple[tuple[int, ...], ...]         # (m, n) -> element of the quotient
    source_m: FiniteCommMonoid
    source_n: FiniteCommMonoid
    presentation: PowerPresentation
    terms: tuple[tuple[tuple[int, int], ...], ...]    # element -> pure tensors (m, n) summing to it

    def pure(self, m: int, n: int) -> int:
        return self.bilinear[m][n]


def _generator_rows(A: FiniteCommMonoid, stride: Sequence[int]) -> list[Sequence[int]]:
    """The rows of A^k at its generators "x at coordinate j", for j < k and x
    in A.gens in that order, over the radix code of `_product` (coordinate j
    has place value stride[j]).  Adding x changes only digit j, through row x
    of A: each block of n * stride[j] codes that agree above digit j is
    translated alike.  For k = 1 the rows are A's own."""
    n = A.size
    size = n * stride[0] if stride else 1
    rows = []
    for s in stride:
        for x in A.gens:
            block = A.add[x] if s == 1 else [v * s + l for v in A.add[x] for l in range(s)]
            rows.append(block if n * s == size else
                        [h + b for h in range(0, size, n * s) for b in block])
    return rows


def tensor_product(M: FiniteCommMonoid, N: FiniteCommMonoid,
                   budget: int = DEFAULT_BUDGET) -> TensorProduct:
    """M (x) N as the coequalizer M^Y / <x.s ~ x.t>, or N^X / <y.u ~ y.v>,
    over the generator rows of the power A^k, whose table is never built.

    Raises `BudgetExceeded`, phase "tensor row cells", before building the
    rows when their k |X_A| |A|^k cells exceed the budget, and "tensor table
    cells" before building the quotient table when its |T|^2 cells do.

    The result is remembered on M for this very N (by identity, since T's
    numbering depends on the generating sets).  A later call with the same
    two objects returns it after the same two budget checks; a miss runs
    every check of a first call, and interns T's monoid by its table.
    """
    swap = N.size ** len(M.gens) < M.size ** len(N.gens)
    A, B = (N, M) if swap else (M, N)
    n, k, g = A.size, len(B.gens), len(A.gens)
    cells = k * g * n ** k
    if cells > budget:
        raise BudgetExceeded("tensor row cells", cells, budget)
    # the tensors remembered on M, by the identity of N
    memo = _memo(M)
    if (hit := memo.get(("tensor", id(N)))) is not None:
        if (cells := hit.monoid.size ** 2) > budget:
            raise BudgetExceeded("tensor table cells", cells, budget)
        return hit
    PB = B.presentation
    stride = [n ** (k - 1 - j) for j in range(k)]
    rows = _generator_rows(A, stride)
    # x (x) b in A^k for the i-th generator x: x joins coordinate j along e -> e + y_j
    pure = [[0] * B.size for _ in range(g)]
    for i, px in enumerate(pure):
        for e, j, t in PB.tree:
            px[t] = rows[j * g + i][px[e]]
    # the relation edge e -> t = e + y_j says nf(e) + y_j = nf(t): seed
    # x (x) e + (x at coordinate j) ~ x (x) t, reading x's row at j
    seeds = tuple((rows[j * g + i][px[e]], px[t])
                  for i, px in enumerate(pure) for e, j, t in PB.edges)
    rep = _closure(n ** k, rows, seeds)
    if (bad := _translation_failure(rows, rep)) is not None:
        raise SemimodError(f"internal error: tensor congruence not closed at {bad}")
    reps, nu = _numbering(rep)
    if (cells := len(reps) ** 2) > budget:
        raise BudgetExceeded("tensor table cells", cells, budget)
    # T's translations by the generators; walk T's Cayley graph from 0, row
    # c + x being row c moved by x, since (c + x) + s = (c + s) + x
    moves = [[nu[row[r]] for r in reps] for row in rows]
    table = [tuple(range(len(reps)))] + [None] * (len(reps) - 1)
    order = [0]
    for c in order:                      # grows as the walk reaches new classes
        for move in moves:
            d = move[c]
            if table[d] is None:
                table[d] = tuple(map(move.__getitem__, table[c]))
                order.append(d)
    if (T := _INTERNED.get(table := tuple(table))) is None:
        T = _INTERNED[table] = _built(table)
    # a (x) t = a (x) e + (a at coordinate j) along the tree edge e -> t = e + y_j
    bil = [[0] * B.size for _ in range(n)]
    for a, row in enumerate(bil):
        for e, j, t in PB.tree:
            row[t] = table[row[e]][nu[a * stride[j]]]
    terms = tuple(tuple((b, a) if swap else (a, b) for a, b in
                        zip([r // s % n for s in stride], PB.gens) if a) for r in reps)
    out = TensorProduct(T, tuple(map(tuple, zip(*bil) if swap else bil)), M, N,
                        PowerPresentation(A, k, seeds), terms)
    witness = _balanced_failure(M, N, T, out.bilinear)
    if witness is not None:
        raise SemimodError(f"internal error: tensor table not balanced at {witness}")
    memo["tensor", id(N)] = out
    return out


def balanced_check(M: FiniteCommMonoid, N: FiniteCommMonoid,
                   A: FiniteCommMonoid,
                   f: Sequence[Sequence[int]]) -> tuple[bool, Optional[tuple]]:
    """The zero laws, and additivity in each variable against a generating set.

    f is balanced (biadditive) when f(0, n) = f(m, 0) = 0 and
    f(m + m', n) = f(m, n) + f(m', n), and likewise on the right.  It is
    enough to take m' in the generating set X of M (`M.gens`): induct on a
    word of m' over X, as in Light's test, with the zero law as the base
    case.  So the check costs O(|M||N|(|X| + |Y|)), and a left witness
    ("add-left", m, x, n) names a generator x (on the right,
    ("add-right", m, n, y)).  The exchange law f(r m, n) = f(m, r n) needs
    no check of its own: biadditivity gives r f(m, n) for both sides.
    Raises `OutOfRange` when f is not an |M| x |N| table of elements of A.
    """
    if (not isinstance(f, (list, tuple)) or len(f) != M.size
            or any(not isinstance(row, (list, tuple)) or len(row) != N.size for row in f)):
        raise OutOfRange(f"map is not a {M.size} x {N.size} table")
    cells = [v for row in f for v in row]
    if set(map(type, cells)) != {int} or min(cells) < 0 or max(cells) >= A.size:
        raise _out_of_range(f, A.size)
    witness = _balanced_failure(M, N, A, f)
    return witness is None, witness


def _balanced_failure(M: FiniteCommMonoid, N: FiniteCommMonoid, A: FiniteCommMonoid,
                      f: Sequence[Sequence[int]]) -> Optional[tuple]:
    """The first failing law of `balanced_check` on a map of elements of A, or None."""
    for n in range(N.size):
        if f[0][n] != 0:
            return "zero-left", n
    for m in range(M.size):
        if f[m][0] != 0:
            return "zero-right", m
    for x in M.gens:
        fx = f[x]
        for m, mx in enumerate(M.add[x]):
            fm, fmx = f[m], f[mx]
            for n in range(N.size):
                if fmx[n] != A.add[fm[n]][fx[n]]:
                    return "add-left", m, x, n
    for m, fm in enumerate(f):                  # row m is a map N -> A
        bad = _additivity_failure(N, A, fm)
        if bad is not None:
            return "add-right", m, *bad
    return None


def universal_factorization(T: TensorProduct, A: FiniteCommMonoid,
                            f: Sequence[Sequence[int]]) -> MonoidHom:
    """The unique hom g with g(m (x) n) = f(m, n), by `_factor` once f passes
    `balanced_check`; raises `OutOfRange` or `NotBalanced` if it does not."""
    ok, witness = balanced_check(T.source_m, T.source_n, A, f)
    if not ok:
        raise NotBalanced(witness)
    return _factor(T, A, f)


def _factor(T: TensorProduct, A: FiniteCommMonoid,
            f: Sequence[Sequence[int]]) -> MonoidHom:
    """`universal_factorization` after the boundary check, for maps the library builds.

    g sends each element to the sum of f over its pure tensors
    (`TensorProduct.terms`).  It is well defined when it is a hom out of
    T.monoid that agrees with f on pure tensors: g(0) = 0,
    g(a + x) = g(a) + g(x) for x in the generating set of T.monoid (enough,
    by induction on a word, as in Light's test), and g(m (x) n) = f(m, n).
    Pure tensors generate T.monoid, so no other hom agrees with f on them.
    """
    image = [A.sum(f[m][n] for m, n in terms) for terms in T.terms]
    if image[0] != 0:
        raise WellDefinednessFailure(f"g(0) = {image[0]}, not 0")
    bad = _additivity_failure(T.monoid, A, image)
    if bad is not None:
        raise WellDefinednessFailure("g({0} + {1}) != g({0}) + g({1})".format(*bad))
    g = MonoidHom(T.monoid, A, tuple(image))
    for m, row in enumerate(T.bilinear):
        for n, t in enumerate(row):
            if g.image[t] != f[m][n]:
                raise WellDefinednessFailure(f"g((x)) != f at ({m},{n})")
    return g


def enumerate_balanced_maps(M: FiniteCommMonoid, N: FiniteCommMonoid,
                            A: FiniteCommMonoid) -> list[tuple[tuple[int, ...], ...]]:
    """All balanced maps M x N -> A, by filtering the full function space."""
    cells = [(m, n) for m in range(1, M.size) for n in range(1, N.size)]
    if (maps := A.size ** len(cells)) > DEFAULT_BUDGET:
        raise BudgetExceeded("balanced map candidates", maps, DEFAULT_BUDGET)
    out = []
    for values in product(range(A.size), repeat=len(cells)):
        f = [[0] * N.size for _ in range(M.size)]
        for (m, n), v in zip(cells, values):
            f[m][n] = v
        if _balanced_failure(M, N, A, f) is None:
            out.append(tuple(tuple(row) for row in f))
    return out


def induced_map(f: MonoidHom, g: MonoidHom,
                T: TensorProduct, T2: TensorProduct) -> MonoidHom:
    """f (x) g: the unique hom sending m (x) n to f(m) (x) g(n)."""
    if T.source_m != f.source or T.source_n != g.source:
        raise SemimodError("T must be the tensor of the sources")
    if T2.source_m != f.target or T2.source_n != g.target:
        raise SemimodError("T2 must be the tensor of the targets")
    table = [[T2.bilinear[f.image[m]][g.image[n]] for n in range(T.source_n.size)]
             for m in range(T.source_m.size)]
    return universal_factorization(T, T2.monoid, table)


def tensor_with_free(M: FiniteCommMonoid, X: Sequence) -> tuple[FiniteCommMonoid, Callable]:
    """M tensored with the free module on X: the |X|-fold power of M.

    Returns the power monoid and the map (m, x) -> pure tensor element.
    Every element decomposes uniquely by coordinates.
    """
    X = list(X)
    stride = {x: M.size ** (len(X) - 1 - j) for j, x in enumerate(X)}
    if len(stride) < len(X):
        raise SemimodError(f"label {_echo(max(X, key=X.count))} is repeated")
    cells = M.size ** (2 * len(X))
    if cells > DEFAULT_BUDGET:
        raise BudgetExceeded("free power cells", cells, DEFAULT_BUDGET)
    P = _product([M] * len(X))

    def pure(m: int, x) -> int:
        if x not in stride:
            raise SemimodError(f"{_echo(x)} is not in the label set")
        return m * stride[x]

    return P, pure


@dataclass(frozen=True)
class IsoWitness:
    forward: MonoidHom
    backward: MonoidHom

    def verify(self) -> bool:
        f, b = self.forward, self.backward
        return (b.compose(f).image == tuple(f.source.elements())
                and f.compose(b).image == tuple(b.source.elements()))


def associativity_iso(M: FiniteCommMonoid, N: FiniteCommMonoid,
                      P: FiniteCommMonoid,
                      budget: int = DEFAULT_BUDGET) -> IsoWitness:
    """(M (x) N) (x) P ~ M (x) (N (x) P) by two comparison maps, each factored
    from sums over the pure tensors of its inner factor.  The forward map is
    checked on pure tensors; the round trips make the backward map its inverse."""
    TMN = tensor_product(M, N, budget)
    L = tensor_product(TMN.monoid, P, budget)
    TNP = tensor_product(N, P, budget)
    R = tensor_product(M, TNP.monoid, budget)

    fwd = _factor(L, R.monoid, [[R.monoid.sum(R.bilinear[m][TNP.bilinear[n][p]] for m, n in terms)
                                 for p in range(P.size)] for terms in TMN.terms])
    bwd = _factor(R, L.monoid, [[L.monoid.sum(L.bilinear[TMN.bilinear[m][n]][p] for n, p in terms)
                                 for terms in TNP.terms] for m in range(M.size)])
    for m, row in enumerate(TMN.bilinear):
        for n, t in enumerate(row):
            for p, u in enumerate(TNP.bilinear[n]):
                if fwd.image[L.bilinear[t][p]] != R.bilinear[m][u]:
                    raise SemimodError(f"(m (x) n) (x) p -> m (x) (n (x) p) fails at {(m, n, p)}")
    iso = IsoWitness(fwd, bwd)
    if not iso.verify():
        raise SemimodError("associativity comparison maps are not mutually inverse")
    return iso


def symmetry_iso(M: FiniteCommMonoid, N: FiniteCommMonoid,
                 budget: int = DEFAULT_BUDGET) -> IsoWitness:
    """The twist m (x) n -> n (x) m and its inverse."""
    T = tensor_product(M, N, budget)
    S = tensor_product(N, M, budget)
    tau = _factor(T, S.monoid, tuple(zip(*S.bilinear)))
    tau2 = _factor(S, T.monoid, tuple(zip(*T.bilinear)))
    iso = IsoWitness(tau, tau2)
    if not iso.verify():
        raise SemimodError("the twist maps are not mutually inverse")
    return iso


def hom_monoid(M: FiniteCommMonoid, N: FiniteCommMonoid,
               budget: int = DEFAULT_BUDGET) -> tuple[FiniteCommMonoid, list[MonoidHom]]:
    """Hom(M, N) under pointwise addition; element 0, the zero map, is the first hom.

    The monoid and the homs are remembered on M for this very N (by
    identity), with the budget they were found under.  A later call with the
    same two objects and at least that budget returns the same monoid and a
    new list of the same homs.  At a smaller budget it searches again, as a
    first call does, and remembers what it finds under that budget.
    """
    memo = _memo(M)
    if (hit := memo.get(("homs", id(N)))) is not None and budget >= hit[0]:
        return hit[2], list(hit[3])
    homs = enumerate_homs(M, N, budget)
    pos = {h.image: i for i, h in enumerate(homs)}
    table = [[pos[tuple(N.add[a][b] for a, b in zip(h.image, h2.image))] for h2 in homs]
             for h in homs]
    H = _built(table)
    memo["homs", id(N)] = budget, N, H, tuple(homs)
    return H, homs


def hom_adjunction_check(P: FiniteCommMonoid, M: FiniteCommMonoid,
                         N: FiniteCommMonoid,
                         budget: int = DEFAULT_BUDGET) -> bool:
    """Hom(P (x) M, N) and Hom(P, Hom(M, N)) are in natural bijection.

    Builds both hom sets by enumeration and transports Hom(P, Hom(M, N))
    one way, by psi(g) = the factorization of (p, m) -> g(p)(m).  psi(g)
    agrees with g on pure tensors (`_factor` checks it), so psi is
    injective; equal counts and equal image sets make it a bijection, whose
    inverse is currying.
    """
    T = tensor_product(P, M, budget)
    left = enumerate_homs(T.monoid, N, budget)
    H, homs_mn = hom_monoid(M, N, budget)
    right = enumerate_homs(P, H, budget)
    if len(left) != len(right):
        return False
    return ({_factor(T, N, [homs_mn[h].image for h in g.image]).image for g in right}
            == {f.image for f in left})
