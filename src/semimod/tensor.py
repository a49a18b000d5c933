"""Tensor products of finite commutative monoids.

The tensor of M and N is built as a finitely presented commutative monoid
over the kept generating sets X of M and Y of N (`FiniteCommMonoid.gens`):
M (x) N = F(X x Y)/R, with one generator x (x) y per pair, the relations of
M's presentation tensored with each y and those of N's with each x (right
exactness), and a per-generator reduction rule taken from the shorter of
the orbits of x and y.  Every exponent vector reduces into a finite box,
and the shared `congruence.UnionFind`, saturated over integer codes of the
box vectors, computes the generated congruence.  The pure tensor m (x) n is
the class of nf(m) (x) nf(n), whose coordinate (x, y) is nf(m)[x] * nf(n)[y]
for the normal forms of `core.Presentation`.

Both sides of the universal property are checked over generating sets.
A map f: M x N -> A is balanced when it satisfies the zero laws and is
additive in each variable against X and Y (a word over X reaches every m,
as in Light's test); the scalar-exchange law f(rm, n) = f(m, rn) follows
from biadditivity, as both sides equal r f(m, n).  The factorization g of a
balanced f is checked to be a hom out of the tensor, additive against its
own generating set, that agrees with f on pure tensors; since each
generator x (x) y is a pure tensor, that fixes g on every box vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional, Sequence

from .congruence import UnionFind
from .core import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    FiniteCommMonoid,
    MonoidHom,
    OutOfRange,
    SemimodError,
    _additivity_failure,
    _out_of_range,
    enumerate_homs,
    validate_monoid,
)


class NotBalanced(SemimodError):
    def __init__(self, witness):
        super().__init__(f"balanced-map axiom violated at {witness}")
        self.witness = witness


class WellDefinednessFailure(SemimodError):
    pass


@dataclass(frozen=True)
class PresentedCommMonoid:
    """Generators with per-coordinate wrap rules plus relation pairs."""

    generators: tuple[tuple[int, int], ...]       # (x, y) generator pairs
    rules: tuple[tuple[int, int], ...]            # (index, period) per generator
    relations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
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
class TensorProduct:
    monoid: FiniteCommMonoid
    bilinear: tuple[tuple[int, ...], ...]         # (m, n) -> element of the quotient
    source_m: FiniteCommMonoid
    source_n: FiniteCommMonoid
    presentation: PresentedCommMonoid
    classes: tuple[int, ...]                      # element index of each box vector, lex order
    reps: tuple[tuple[int, ...], ...]             # element index -> lex-least vector

    def pure(self, m: int, n: int) -> int:
        return self.bilinear[m][n]


def _outer(u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    """The word of u (x) v over X x Y: coordinate (x, y) is u[x] * v[y]."""
    return tuple(a * b for a in u for b in v)


def _presentation(M: FiniteCommMonoid, N: FiniteCommMonoid) -> PresentedCommMonoid:
    """M (x) N = F(X x Y)/R over the presentations of M and N.

    R holds u (x) y = v (x) y for each relation u = v of M and each y in Y,
    and x (x) s = x (x) t for each relation s = t of N and each x in X: the
    tensor is right exact in each variable, and the word of a generator is
    its unit vector.
    """
    PM, PN = M.presentation, N.presentation
    gens = tuple(product(PM.gens, PN.gens))
    rules = []
    for om, on in product([M.orbit(x) for x in PM.gens], [N.orbit(y) for y in PN.gens]):
        # the smaller wrap bound gives the smaller sound box
        if om.index + om.period <= on.index + on.period:
            rules.append((om.index, om.period))
        else:
            rules.append((on.index, on.period))
    xs = [PM.normal_forms[x] for x in PM.gens]
    ys = [PN.normal_forms[y] for y in PN.gens]
    relations = [(_outer(u, y), _outer(v, y)) for u, v in PM.relations for y in ys]
    relations += [(_outer(x, s), _outer(x, t)) for s, t in PN.relations for x in xs]
    # two commuting non-tree edges of a Cayley graph give one relation twice
    return PresentedCommMonoid(gens, tuple(rules), tuple(dict.fromkeys(relations)))


def tensor_product(M: FiniteCommMonoid, N: FiniteCommMonoid,
                   budget: int = DEFAULT_BUDGET) -> TensorProduct:
    """M (x) N on the generators X x Y; m (x) n is the class of nf(m) (x) nf(n)."""
    pres = _presentation(M, N)
    T, classes, reps, gen_class = _saturate(pres, budget)
    # m (x) n is the sum of nf(m)[x] nf(n)[y] (x (x) y), summed over y first
    nf_m, nf_n = M.presentation.normal_forms, N.presentation.normal_forms
    ky = len(N.gens)
    right = [[T.sum(T.scalar(e, gen_class[i * ky + j]) for j, e in enumerate(nf_n[n]))
              for n in N.elements()] for i in range(len(M.gens))]
    bil = tuple(tuple(T.sum(T.scalar(e, right[i][n]) for i, e in enumerate(nf_m[m]))
                      for n in N.elements()) for m in M.elements())
    out = TensorProduct(T, bil, M, N, pres, classes, reps)
    ok, witness = balanced_check(M, N, T, out.bilinear)
    if not ok:
        raise SemimodError(f"internal error: tensor table not balanced at {witness}")
    return out


def _saturate(pres: PresentedCommMonoid, budget: int):
    """The monoid pres presents, by saturating its box.

    Returns the monoid, the class of each box vector in code order, the
    lex-least vector of each class, and the class of each generator.
    """
    k = len(pres.generators)
    vol = pres.box_volume()
    if vol > budget:
        raise BudgetExceeded(f"box volume {vol} exceeds budget {budget}")

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

    # UnionFind keeps the smallest code of a class as its root, so the root
    # is the class's lex-least vector
    uf = UnionFind(vol)
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


def _check_map(M: FiniteCommMonoid, N: FiniteCommMonoid, A: FiniteCommMonoid,
               f: Sequence[Sequence[int]]) -> None:
    """Reject f unless it is an |M| x |N| table of ints in [0, |A|)."""
    if (not isinstance(f, (list, tuple)) or len(f) != M.size
            or any(not isinstance(row, (list, tuple)) or len(row) != N.size for row in f)):
        raise OutOfRange(f"map is not a {M.size} x {N.size} table")
    cells = [v for row in f for v in row]
    if set(map(type, cells)) != {int} or min(cells) < 0 or max(cells) >= A.size:
        raise _out_of_range(f, A.size)


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
    _check_map(M, N, A, f)
    for n in range(N.size):
        if f[0][n] != 0:
            return False, ("zero-left", n)
    for m in range(M.size):
        if f[m][0] != 0:
            return False, ("zero-right", m)
    for x in M.gens:
        fx = f[x]
        for m, mx in enumerate(M.add[x]):
            fm, fmx = f[m], f[mx]
            for n in range(N.size):
                if fmx[n] != A.add[fm[n]][fx[n]]:
                    return False, ("add-left", m, x, n)
    for y in N.gens:
        for m, fm in enumerate(f):
            fy = fm[y]
            for n, ny in enumerate(N.add[y]):
                if fm[ny] != A.add[fm[n]][fy]:
                    return False, ("add-right", m, n, y)
    return True, None


def universal_factorization(T: TensorProduct, A: FiniteCommMonoid,
                            f: Sequence[Sequence[int]]) -> MonoidHom:
    """The unique hom g with g(m (x) n) = f(m, n), for a balanced f.

    g sends each element to f evaluated on its representative vector.  It
    is well defined when it is a hom out of T.monoid that agrees with f on
    pure tensors: g(0) = 0, g(a + x) = g(a) + g(x) for x in the generating
    set of T.monoid (enough, by induction on a word, as in Light's test),
    and g(m (x) n) = f(m, n).  Each generator x (x) y of the presentation
    is the pure tensor T.bilinear[x][y], so such a g sends every vector v
    over the presentation's generators to f evaluated on v, which is what
    checking every vector of the box would establish.
    """
    M, N = T.source_m, T.source_n
    ok, witness = balanced_check(M, N, A, f)
    if not ok:
        raise NotBalanced(witness)

    gens = T.presentation.generators

    def evaluate(vec: tuple[int, ...]) -> int:
        acc = 0
        for (m, n), mult in zip(gens, vec):
            acc = A.add[acc][A.scalar(mult, f[m][n])]
        return acc

    image = [evaluate(rep) for rep in T.reps]
    if image[0] != 0:
        raise WellDefinednessFailure(f"g(0) = {image[0]}, not 0")
    bad = _additivity_failure(T.monoid, A, image)
    if bad is not None:
        raise WellDefinednessFailure("g({0} + {1}) != g({0}) + g({1})".format(*bad))
    g = MonoidHom(T.monoid, A, tuple(image))
    for m in range(M.size):
        for n in range(N.size):
            if g.image[T.bilinear[m][n]] != f[m][n]:
                raise WellDefinednessFailure(f"g((x)) != f at ({m},{n})")
    return g


def enumerate_balanced_maps(M: FiniteCommMonoid, N: FiniteCommMonoid,
                            A: FiniteCommMonoid) -> list[tuple[tuple[int, ...], ...]]:
    """All balanced maps M x N -> A, by filtering the full function space."""
    cells = [(m, n) for m in range(1, M.size) for n in range(1, N.size)]
    if A.size ** len(cells) > DEFAULT_BUDGET:
        raise BudgetExceeded(
            f"{A.size}^{len(cells)} candidate maps exceed budget {DEFAULT_BUDGET}")
    out = []
    for values in product(range(A.size), repeat=len(cells)):
        f = [[0] * N.size for _ in range(M.size)]
        for (m, n), v in zip(cells, values):
            f[m][n] = v
        if balanced_check(M, N, A, f)[0]:
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
    k = len(X)
    if k == 0:
        from .core import trivial_monoid
        T = trivial_monoid()
        return T, lambda m, x: (_ for _ in ()).throw(SemimodError("empty label set"))
    size = M.size ** k

    def pack(coords: Sequence[int]) -> int:
        acc = 0
        for c in coords:
            acc = acc * M.size + c
        return acc

    def unpack(e: int) -> tuple[int, ...]:
        out = []
        for _ in range(k):
            e, c = divmod(e, M.size)
            out.append(c)
        return tuple(reversed(out))

    table = [[pack([M.add[a][b] for a, b in zip(unpack(x), unpack(y))])
              for y in range(size)] for x in range(size)]
    P = validate_monoid(table)
    xpos = {x: i for i, x in enumerate(X)}

    def pure(m: int, x) -> int:
        coords = [0] * k
        coords[xpos[x]] = m
        return pack(coords)

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
    """(M (x) N) (x) P ~ M (x) (N (x) P) on pure tensors, both directions."""
    TMN = tensor_product(M, N, budget)
    L = tensor_product(TMN.monoid, P, budget)
    TNP = tensor_product(N, P, budget)
    R = tensor_product(M, TNP.monoid, budget)

    # forward: (t, p) -> beta_p(t) with beta_p(m (x) n) = m (x) (n (x) p)
    beta = []
    for p in range(P.size):
        f = [[R.bilinear[m][TNP.bilinear[n][p]] for n in range(N.size)]
             for m in range(M.size)]
        beta.append(universal_factorization(TMN, R.monoid, f))
    fwd_table = [[beta[p].image[t] for p in range(P.size)]
                 for t in range(TMN.monoid.size)]
    fwd = universal_factorization(L, R.monoid, fwd_table)

    gamma = []
    for m in range(M.size):
        f = [[L.bilinear[TMN.bilinear[m][n]][p] for p in range(P.size)]
             for n in range(N.size)]
        gamma.append(universal_factorization(TNP, L.monoid, f))
    bwd_table = [[gamma[m].image[u] for u in range(TNP.monoid.size)]
                 for m in range(M.size)]
    bwd = universal_factorization(R, L.monoid, bwd_table)

    iso = IsoWitness(fwd, bwd)
    if not iso.verify():
        raise SemimodError("associativity comparison maps are not mutually inverse")
    return iso


def symmetry_iso(M: FiniteCommMonoid, N: FiniteCommMonoid,
                 budget: int = DEFAULT_BUDGET) -> IsoWitness:
    """The twist m (x) n -> n (x) m and its inverse."""
    T = tensor_product(M, N, budget)
    S = tensor_product(N, M, budget)
    tau = universal_factorization(
        T, S.monoid, [[S.bilinear[n][m] for n in range(N.size)] for m in range(M.size)])
    tau2 = universal_factorization(
        S, T.monoid, [[T.bilinear[m][n] for m in range(M.size)] for n in range(N.size)])
    iso = IsoWitness(tau, tau2)
    if not iso.verify():
        raise SemimodError("the twist maps are not mutually inverse")
    return iso


def hom_monoid(M: FiniteCommMonoid, N: FiniteCommMonoid,
               budget: int = DEFAULT_BUDGET) -> tuple[FiniteCommMonoid, list[MonoidHom]]:
    """Hom(M, N) as a monoid under pointwise addition; element 0 is the zero map."""
    homs = enumerate_homs(M, N, budget)
    pos = {h.image: i for i, h in enumerate(homs)}
    table = [[pos[tuple(N.add[a][b] for a, b in zip(h.image, h2.image))] for h2 in homs]
             for h in homs]
    return validate_monoid(table), homs


def hom_adjunction_check(P: FiniteCommMonoid, M: FiniteCommMonoid,
                         N: FiniteCommMonoid,
                         budget: int = DEFAULT_BUDGET) -> bool:
    """Hom(P (x) M, N) and Hom(P, Hom(M, N)) are in natural bijection.

    Builds both hom sets by enumeration, transports each way, and checks
    the round trips.
    """
    T = tensor_product(P, M, budget)
    left = enumerate_homs(T.monoid, N, budget)
    H, homs_mn = hom_monoid(M, N, budget)
    right = enumerate_homs(P, H, budget)
    hom_index = {h.image: i for i, h in enumerate(homs_mn)}

    def phi(f: MonoidHom) -> MonoidHom:
        image = []
        for p in range(P.size):
            curried = tuple(f.image[T.bilinear[p][m]] for m in range(M.size))
            if curried not in hom_index:
                return None
            image.append(hom_index[curried])
        return MonoidHom(P, H, tuple(image))

    def psi(g: MonoidHom) -> MonoidHom:
        table = [[homs_mn[g.image[p]].image[m] for m in range(M.size)]
                 for p in range(P.size)]
        return universal_factorization(T, N, table)

    if len(left) != len(right):
        return False
    right_images = {h.image for h in right}
    seen = set()
    for f in left:
        g = phi(f)
        if g is None or g.image not in right_images:
            return False
        if psi(g).image != f.image:
            return False
        seen.add(g.image)
    return len(seen) == len(right)
