"""Finite commutative monoids given by addition tables.

Element 0 is always the identity.  A table from outside goes through
`validate_monoid`, which checks associativity by Light's test over a greedy
generating set X (O(n^2 |X|), not O(n^3)), by one kernel per
representation: `_light_bytes` on byte rows up to 256 elements, one
`bytes.translate` per x in X, and `_light_rows` above.  One additive
closure, `_close`, grows X's span and `submonoid_generated`'s, from a
bytearray of members up to 256 elements and from a set above.  Rows given as
`bytes` skip the per-entry type test, since their entries are ints by
construction; C(i, p) is validated from byte slices of its projections
that way (`CyclicMonoid.to_monoid`), and so is a file's table when its
JSON text can hold no bool (`load_monoid`).  A table derived from
validated monoids, checked integer arguments or a checked congruence (a
quotient) is a monoid by construction and is built by `_built` unchecked.
Every monoid keeps X as `gens`, and builds a `Presentation` over it on
first use: the spanning tree and the relation edges of a breadth-first walk
of its Cayley graph, from which each normal-form or relation word is one
walk away.  Congruences, tensor products and homs work over X instead of
over every element (a hom is its images of X).  A monoid doubles as a
module over the nonnegative integers via the repeated-addition action:
`scalar` computes k*m by doubling, and `orbit(m)` is the cyclic submonoid
<m> as a `CyclicMonoid` C(i, p), the one type for monogenic monoids, which
the naturals layer returns too; a monoid keeps no orbit or power tables.
Besides its table, labels and generating set it keeps only what is built
on first use: its `Presentation` (with the edges grouped by letter once
`iter_homs` asks), and one memo dict, `_memo`, where
`congruence.enumerate_congruences` remembers its congruence lattice and
`tensor.tensor_product` and `tensor.hom_monoid` remember their results
with it as left factor.  The memo lives and dies with the monoid, and
`copy.copy(M)` gets a fresh one of its own.  `tensor_product` interns the
monoids it builds, so tensors with equal tables share one monoid and its
memo while any of them lives.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, permutations, product
from operator import countOf, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

DEFAULT_BUDGET = 10**6


class SemimodError(Exception):
    pass


class OutOfRange(SemimodError):
    pass


class NotIdentity(SemimodError):
    def __init__(self, m: int):
        super().__init__(f"0 + {m} != {m}: element 0 is not an identity")
        self.witness = m


class NotCommutative(SemimodError):
    def __init__(self, m: int, m2: int):
        super().__init__(f"{m} + {m2} != {m2} + {m}")
        self.witness = (m, m2)


class NotAssociative(SemimodError):
    def __init__(self, m: int, m2: int, m3: int):
        super().__init__(f"({m} + {m2}) + {m3} != {m} + ({m2} + {m3})")
        self.witness = (m, m2, m3)


class IdentityNotPreserved(SemimodError):
    pass


class NotAdditive(SemimodError):
    def __init__(self, m: int, m2: int):
        super().__init__(f"f({m} + {m2}) != f({m}) + f({m2})")
        self.witness = (m, m2)


class NotASubmonoid(SemimodError):
    def __init__(self, message: str, witness: Optional[tuple[int, int]] = None):
        super().__init__(message)
        self.witness = witness


class BudgetExceeded(SemimodError):
    def __init__(self, phase: str, spent: int, limit: int):
        super().__init__(f"{phase}: {_echo(spent)} exceeds budget {_echo(limit)}")
        self.phase, self.spent, self.limit = phase, spent, limit


class _Repr(reprlib.Repr):
    def repr_int(self, x, level):      # repr() refuses past sys.get_int_max_str_digits()
        try:
            return super().repr_int(x, level)
        except ValueError:
            return f"{'-' if x < 0 else ''}<int of {x.bit_length()} bits>"


_REPR = _Repr()
_REPR.maxother = 100          # a default repr, <module.Class object at 0x...>, stays whole


def _cut(text: str, width: int = 100) -> str:
    """text, or its two ends joined by '...' in `width` characters if it is longer."""
    head = (width - 3) // 2
    return text if len(text) <= width else f"{text[:head]}...{text[head + 3 - width:]}"


def _echo(value) -> str:
    """repr(value) for a message, cut short by `reprlib` (long ints, strings and
    deep or long containers), and by `_cut` to 100 characters; an int too long
    to print is its bit length."""
    return _cut(_REPR.repr(value))


def _require_ints(*values) -> None:
    """`OutOfRange` for the first value that is not an exact int (a bool is not)."""
    for v in values:
        if type(v) is not int:
            raise OutOfRange(f"{_echo(v)} is not an integer")


@dataclass(frozen=True)
class CyclicMonoid:
    """C(i, p) = <x | (i+p)x = ix>, elements 0..i+p-1 (k for kx): a quotient of
    the naturals, and <m> in any monoid (`FiniteCommMonoid.orbit`), counted
    from 0*m, so a unit of order p gives C(0, p), the group Z/p."""

    index: int
    period: int

    @property
    def size(self) -> int:
        return self.index + self.period

    def project(self, n: int) -> int:
        """Class of the natural number n."""
        if n < self.index:
            return n
        return self.index + (n - self.index) % self.period

    def _projections(self) -> list[int]:
        """The projections of 0..2(i + p) - 2, whose slice seq[a:a + size] is row a."""
        i, p = self.index, self.period
        if not _well_formed(self):
            raise OutOfRange(f"C({_echo(i)},{_echo(p)}) needs integers i >= 0, p >= 1")
        return [*range(i), *(i + t % p for t in range(i + 2 * p - 1))]

    def _rows(self) -> list[list[int]]:
        """The rows of the table: row a is seq[a:a + size] of the projections."""
        seq, size = self._projections(), self.size
        return [seq[a:a + size] for a in range(size)]

    def joined_rows(self, cells: Sequence[str], sep: str = "") -> list[str]:
        """sep.join(cells[v] for v in row a) for every row a of the table.

        The 2(i + p) - 1 projections are joined once, and row a is the slice
        from the start of cell a to the end of cell a + size - 1, found by
        cumulative offsets, so the cells may differ in width.
        """
        size, gap = self.size, len(sep)
        seq = list(map(cells.__getitem__, self._projections()))
        starts = [0, *accumulate(len(c) + gap for c in seq)]
        whole = sep.join(seq)
        return [whole[starts[a]:starts[a + size] - gap] for a in range(size)]

    def to_monoid(self, labels: bool = True) -> FiniteCommMonoid:
        """The validated table, row a the slice seq[a:a + size], bytes up to 256 elements."""
        seq, size = self._projections(), self.size
        seq = bytes(seq) if size <= 256 else seq
        labs = tuple(f"{k}̄" for k in range(size)) if labels else None
        return validate_monoid([seq[a:a + size] for a in range(size)], labs)


def _well_formed(c) -> bool:
    """Whether c is C(i, p) with integers i >= 0 and p >= 1."""
    return (isinstance(c, CyclicMonoid) and type(c.index) is int and type(c.period) is int
            and c.index >= 0 and c.period >= 1)


@dataclass(frozen=True)
class Presentation:
    """A presentation of a finite commutative monoid over a generating set X.

    A breadth-first walk of the Cayley graph from 0 (edges e -> e + x, x in
    X, in the order of X) keeps, as element triples (e, j, t), t = e + x_j,
    each t's first edge in `tree` and every other edge in `edges`.  The tree
    is the normal forms: the normal form of t is the word over X spelled
    along its tree path from 0, and each relation edge is the relation
    nf(e) + x_j = nf(t) (Froidure-Pin 1997), one walk away.  The relations
    generate every relation between words: any word reduces to a normal
    form along tree edges and relations, one letter at a time.  Letters
    never decrease along a tree path: if e = p + x_i and j < i, the walk
    visits p + x_j before e, and reaches e + x_j from there.
    """

    gens: tuple[int, ...]
    tree: tuple[tuple[int, int, int], ...]
    edges: tuple[tuple[int, int, int], ...]

    @cached_property
    def by_letter(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...],
                                 tuple[tuple[tuple[int, int, int], ...], ...]]:
        """The edges grouped for `iter_homs`, built on its first use: for each
        letter j, the tree edges (e, t) of letter j, and the relation edges
        (e, x, t) whose three ends have images once x_j has one."""
        last = [-1] * (len(self.tree) + 1)   # element -> letter of its tree edge
        define = [[] for _ in self.gens]
        check = [[] for _ in self.gens]
        for e, j, t in self.tree:
            last[t] = j
            define[j].append((e, t))
        for e, j, t in self.edges:
            check[max(last[e], j, last[t])].append((e, self.gens[j], t))
        return tuple(map(tuple, define)), tuple(map(tuple, check))


def _present(add: Sequence[Sequence[int]], gens: Sequence[int]) -> Presentation:
    seen = [False] * len(add)
    seen[0] = True
    tree, edges = [], []
    order = [0]
    for e in order:                      # grows as the walk reaches new elements
        row = add[e]
        for j, x in enumerate(gens):
            t = row[x]
            if seen[t]:
                edges.append((e, j, t))
            else:
                seen[t] = True
                order.append(t)
                tree.append((e, j, t))
    return Presentation(tuple(gens), tuple(tree), tuple(edges))


@dataclass(frozen=True)
class FiniteCommMonoid:
    size: int
    add: tuple[tuple[int, ...], ...]
    labels: Optional[tuple[str, ...]] = None
    # the greedy generating set X (`validate_monoid` runs Light's test over it)
    gens: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if not self.gens and self.size > 1:
            object.__setattr__(self, "gens", tuple(_generating_set(self.add)))

    @cached_property
    def presentation(self) -> Presentation:
        """The presentation over gens, built on first use."""
        return _present(self.add, self.gens)

    def plus(self, a: int, b: int) -> int:
        return self.add[a][b]

    def sum(self, elems: Iterable[int]) -> int:
        acc = 0
        for e in elems:
            acc = self.add[acc][e]
        return acc

    def elements(self) -> range:
        return range(self.size)

    def label(self, m: int) -> str:
        if self.labels is not None:
            return self.labels[m]
        return str(m)

    def orbit(self, m: int) -> CyclicMonoid:
        """<m> as C(i, p), by walking 0, m, 2m, ... along row m to the first repeat."""
        _require_ints(m)
        if not 0 <= m < self.size:
            raise OutOfRange(f"element {_echo(m)} out of range")
        row = self.add[m]
        first = {}                 # k*m -> k
        cur, k = 0, 0
        while cur not in first:
            first[cur] = k
            cur, k = row[cur], k + 1
        return CyclicMonoid(first[cur], k - first[cur])

    def scalar(self, k: int, m: int) -> int:
        """k*m = m + ... + m (k times), by doubling: O(log k) table reads."""
        _require_ints(k, m)
        if not 0 <= m < self.size:
            raise OutOfRange(f"element {_echo(m)} out of range")
        if k < 0:
            raise OutOfRange("scalar must be nonnegative")
        add, acc = self.add, 0
        while k:
            if k & 1:
                acc = add[acc][m]
            m, k = add[m][m], k >> 1
        return acc

    def is_submonoid(self, subset: Iterable[int]) -> bool:
        try:
            return bool(_submonoid(self, subset))
        except NotASubmonoid:
            return False


def _generating_set(rows: Sequence[Sequence[int]]) -> list[int]:
    """Greedy generating set of a commutative table with identity 0.

    Walks the elements in ascending order and keeps each one that the
    closure of the kept ones (under +, with 0) does not yet contain, growing
    that closure by `_close` from the new generator.  The closure of the
    kept ones does not depend on the order of the worklist, so neither does
    X.  Up to 256 elements the members are a bytearray, above that a set.
    """
    members = bytearray(1) if len(rows) <= 256 else {0}
    gens = []
    for e in range(1, len(rows)):
        if e not in members:
            gens.append(e)
            _close(rows, members, [e])
    return gens


def _close(rows: Sequence[Sequence[int]], members: bytearray | set[int], work: list[int]):
    """Add `work`, distinct elements outside `members`, to `members`, a subset
    closed under + with 0, and close the result under + in place; returns it.

    A popped element is added to every member present then, and a later
    member meets it when that member is popped: each pair of new members is
    summed at most twice, and no pair of old ones.  It stops once every
    element is a member.  A bytearray (n <= 256) translated through the
    popped row, padded to 256 bytes, gives the sums, less the members the
    new ones, and adds nothing when there are none (a bytes row is not
    copied); a set maps the row over itself.
    """
    n = len(rows)
    if type(members) is bytearray:
        members.extend(work)
        while work and len(members) < n:
            row = bytes(rows[work.pop()]).ljust(256, b"\0")
            if fresh := members.translate(row).translate(None, members):
                fresh = set(fresh)
                members.extend(fresh)
                work.extend(fresh)
    else:
        members.update(work)
        while work and len(members) < n:
            row = rows[work.pop()]
            fresh = set(map(row.__getitem__, members)) - members
            members |= fresh
            work.extend(fresh)
    return members


def _out_of_range(rows, n) -> OutOfRange:
    v = next(v for v in chain.from_iterable(rows) if type(v) is not int or not 0 <= v < n)
    return OutOfRange(f"entry {_echo(v)} is not an integer in [0, {n})")


def _light_rows(rows: Sequence[Sequence[int]], gens: Iterable[int]) -> None:
    """Light's test over gens, one row of a + (x + b) per (x, a) by itemgetter."""
    n = len(rows)
    for x in gens:
        x_plus = itemgetter(*rows[x])              # row -> its entries at x + b
        for a, a_x in enumerate(rows[x]):
            lhs, rhs = rows[a_x], x_plus(rows[a])  # (a + x) + b, a + (x + b)
            if lhs != rhs:
                raise NotAssociative(a, x, next(b for b in range(n) if lhs[b] != rhs[b]))


def _light_bytes(rb: Sequence[bytes], whole: bytes, gens: Iterable[int]) -> None:
    """Light's test over gens on the byte rows of a commutative table (n <= 256).

    Each side is an n*n-byte blob in the order a*n + b.  Per x, the rows
    x + a joined give (x + a) + b, and the whole table `whole` translated
    through row x padded to 256 bytes gives x + (a + b): one translate.
    An x with (x + a) + b = x + (a + b) for all a, b also has
    (a + x) + b = a + (x + b) on a commutative table: (a + x) + b =
    (x + a) + b = x + (a + b) = x + (b + a) = (x + b) + a = a + (x + b).
    So only an x that differs builds the blob of a + (x + b), row x
    translated through each row a padded, and the first byte where that
    differs from the left blob names the witness of `_light_rows`.
    """
    n = len(rb)
    tabs = None                  # rows padded to 256, built at the first x that differs
    for x in gens:
        row_x = rb[x]
        lhs = b"".join(map(rb.__getitem__, row_x))
        if lhs == whole.translate(row_x.ljust(256, b"\0")):
            continue
        tabs = tabs or [r.ljust(256, b"\0") for r in rb]
        rhs = b"".join(map(row_x.translate, tabs))
        if lhs != rhs:
            a = next(a for a in range(n) if lhs[a * n:a * n + n] != rhs[a * n:a * n + n])
            b = next(b for b in range(n) if lhs[a * n + b] != rhs[a * n + b])
            raise NotAssociative(a, x, b)


def validate_monoid(table: Sequence[Sequence[int]],
                    labels: Optional[Sequence[str]] = None) -> FiniteCommMonoid:
    """Check the monoid axioms and return the validated monoid.

    Raises the first violated axiom with a witnessing tuple.  Associativity
    is Light's test (Clifford-Preston 1961, section 1.2): the elements x
    with (a + x) + b = a + (x + b) for all a, b form a submonoid, so it is
    enough to check x in a generating set X, at O(n^2 |X|) instead of
    O(n^3).  For n <= 256 the rows are byte strings, and `_light_bytes`
    compares (x + a) + b with x + (a + b) for all a, b at once, the whole
    table translated through row x, one `bytes.translate` per x.  On a
    commutative table an x that passes also passes Light's test, so only
    an x that fails compares (a + x) + b with a + (x + b), in one more
    blob, and names the witness.  Larger tables gather the whole row of
    a + (x + b) over b by one itemgetter call per (x, a) and compare it
    with the row of a + x (`_light_rows`).  Both kernels report the first
    x that fails Light's test, then the first (a, b) in the order a, then
    b, so the witness does not depend on n.  The returned monoid
    keeps X as its `gens`.

    Labels, if given, are n distinct strings, so that no two rows of a
    rendered table read alike.  Before Light's test come the entries, the
    identity and commutativity.
    A row is a list or tuple of ints, or `bytes`.  Every entry of a list or
    tuple row must be an `int` by an exact type test, which stays a
    per-entry pass because `bytes()` also accepts bools and any object
    with `__index__`.  A `bytes` row holds exact ints in [0, 256) by
    construction, so it skips the type test and, for n <= 256, is used as
    it is instead of copied by `bytes()`; every other check still reads
    it, and the monoid's `add` is int tuples whatever the rows were.  A
    table answers the same, monoid or exception, whichever of its rows
    are bytes.  For n <= 256 the byte rows are joined once: an
    entry is out of range when deleting the bytes 0..n-1 leaves anything
    (`bytes.translate`), and the table is commutative when it equals its
    byte transpose, column j being every n-th byte from j.  Only a failed
    comparison runs the row-by-column scan that names the witness, so the
    exceptions are those of the scan at every n.
    """
    if not isinstance(table, (list, tuple)):
        raise OutOfRange(f"table is a {type(table).__name__}, not a list of rows")
    n = len(table)
    if n == 0:
        raise OutOfRange("empty table")
    if labels is not None and (not isinstance(labels, (list, tuple)) or len(labels) != n
                               or not all(isinstance(l, str) for l in labels)):
        raise OutOfRange(f"labels must be a list of {n} strings")
    if labels is not None and len(set(labels)) != n:
        raise OutOfRange("labels must be distinct")
    for i, row in enumerate(table):
        if not isinstance(row, (list, tuple, bytes)):
            raise OutOfRange(f"row {i} is a {type(row).__name__}, not a list")
        if len(row) != n:
            raise OutOfRange("table is not square")
    rows = tuple(map(tuple, table))
    # the type test comes first: bools and integral floats compare as ints,
    # bytes() accepts them and any __index__ object, and other values may
    # not compare with ints at all; a bytes row holds exact ints already
    typed = [r for r, row in zip(rows, table) if type(row) is not bytes]
    if countOf(map(type, chain.from_iterable(typed)), int) != n * len(typed):
        raise _out_of_range(rows, n)
    if n <= 256:
        try:
            rb = [row if type(row) is bytes else bytes(r) for r, row in zip(rows, table)]
        except ValueError:                 # an entry outside [0, 256)
            raise _out_of_range(rows, n) from None
        whole = b"".join(rb)
        if whole.translate(None, bytes(range(n))):     # an entry in [n, 256)
            raise _out_of_range(rows, n)
    elif min(map(min, rows)) < 0 or max(map(max, rows)) >= n:
        raise _out_of_range(rows, n)
    if rows[0] != tuple(range(n)):
        raise NotIdentity(next(m for m in range(n) if rows[0][m] != m))
    # column j of the byte table is whole[j::n]; the scan finds the witness
    if n > 256 or b"".join([whole[j::n] for j in range(n)]) != whole:
        for m, col in enumerate(zip(*rows)):
            if rows[m] != col:
                # the first asymmetric row differs first right of the diagonal
                raise NotCommutative(m, next(m2 for m2 in range(m + 1, n)
                                             if rows[m][m2] != col[m2]))
    if n <= 256:
        gens = _generating_set(rb)
        _light_bytes(rb, whole, gens)
    else:
        gens = _generating_set(rows)
        _light_rows(rows, gens)
    return FiniteCommMonoid(n, rows, tuple(labels) if labels is not None else None, tuple(gens))


def _built(rows: Iterable[Sequence[int]], labels=None) -> FiniteCommMonoid:
    """A table derived from validated monoids and checked arguments or congruences, unchecked."""
    rows = tuple(map(tuple, rows))
    return FiniteCommMonoid(len(rows), rows, labels)


def _memo(M: FiniteCommMonoid) -> dict:
    """M's own memo dict, made on first use.

    The instance dict holds the memo beside the id of its owner, so a copy
    of M, whose instance dict is a copy of M's, finds another id and gets a
    fresh memo instead of writing into M's.
    """
    owner, memo = vars(M).get("_memo", (None, None))
    if owner != id(M):
        memo = {}
        vars(M)["_memo"] = id(M), memo
    return memo


def _product(factors: Sequence[FiniteCommMonoid]) -> FiniteCommMonoid:
    """Mixed radix, first factor most significant; one factor is itself, unlabelled."""
    if len(factors) == 1:
        return FiniteCommMonoid(factors[0].size, factors[0].add, gens=factors[0].gens)
    table = [[0]]
    for A in factors:
        table = [[s * A.size + t for s in ra for t in rb] for ra in table for rb in A.add]
    return _built(table)


@dataclass(frozen=True)
class MonoidHom:
    source: FiniteCommMonoid
    target: FiniteCommMonoid
    image: tuple[int, ...]

    def __call__(self, m: int) -> int:
        return self.image[m]

    def compose(self, other: "MonoidHom") -> "MonoidHom":
        """self after other."""
        return MonoidHom(other.source, self.target,
                         tuple(self.image[other.image[m]] for m in other.source.elements()))

    def is_injective(self) -> bool:
        return len(set(self.image)) == self.source.size

    def is_surjective(self) -> bool:
        return len(set(self.image)) == self.target.size

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()


def _additivity_failure(M: FiniteCommMonoid, N: FiniteCommMonoid,
                        image: Sequence[int]) -> Optional[tuple[int, int]]:
    """The first (a, x), x in M.gens, with f(a + x) != f(a) + f(x), or None; if
    f(0) = 0, None means f is additive (induct on a word, as in Light's test)."""
    for x in M.gens:
        fx = image[x]
        for a, ax in enumerate(M.add[x]):
            if image[ax] != N.add[image[a]][fx]:
                return a, x
    return None


def hom_check(M: FiniteCommMonoid, N: FiniteCommMonoid,
              image: Sequence[int]) -> MonoidHom:
    """The hom M -> N with this image table: |M| ints in [0, |N|), f(0) = 0, and
    additive against M.gens, O(n|X|); `NotAdditive` names the failing (a, x)."""
    if not isinstance(image, Sequence):
        raise OutOfRange(f"image must be a sequence, not {type(image).__name__}")
    if len(image) != M.size:
        raise OutOfRange("image table length mismatch")
    for v in image:
        if type(v) is not int or not 0 <= v < N.size:
            raise OutOfRange(f"image value {_echo(v)} is not an integer in [0, {N.size})")
    if image[0] != 0:
        raise IdentityNotPreserved("f(0) != 0")
    bad = _additivity_failure(M, N, image)
    if bad is not None:
        raise NotAdditive(*bad)
    return MonoidHom(M, N, tuple(image))


def identity_hom(M: FiniteCommMonoid) -> MonoidHom:
    return MonoidHom(M, M, tuple(range(M.size)))


def zero_hom(M: FiniteCommMonoid, N: FiniteCommMonoid) -> MonoidHom:
    return MonoidHom(M, N, (0,) * M.size)


def iter_homs(M: FiniteCommMonoid, N: FiniteCommMonoid,
              budget: int = DEFAULT_BUDGET) -> Iterator[MonoidHom]:
    """All homomorphisms M -> N, one at a time, lexicographically ordered by image table.

    Backtracks over the images of X = M.gens in order, in one loop over the
    letter j whose image is tried next.  Once x_j has one, each element
    whose normal form ends in letter j gets its image along its tree edge,
    and each relation edge with all three ends now imaged is checked (the
    edges are grouped by letter once per presentation, `by_letter`).  That
    covers every Cayley edge, enough as in `hom_check`.  Greedy X makes
    each other element a sum of generators below it, so the order is
    lexicographic.  The budget counts generator images tried; a search that
    stops early spends only what it tried.
    """
    define, check = M.presentation.by_letter
    k = len(define)
    nadd = N.add
    image = [0] * M.size
    if not k:
        yield MonoidHom(M, N, tuple(image))
        return
    tried = [-1] * k                     # j -> image of x_j being tried
    spent = j = 0
    while j >= 0:
        v = tried[j] + 1
        if v == N.size:                  # every image of x_j tried: back to x_(j-1)
            tried[j] = -1
            j -= 1
            continue
        tried[j] = v
        spent += 1
        if spent > budget:
            raise BudgetExceeded("hom images tried", spent, budget)
        for e, t in define[j]:
            image[t] = nadd[image[e]][v]
        for e, x, t in check[j]:
            if nadd[image[e]][image[x]] != image[t]:
                break
        else:
            if j + 1 < k:
                j += 1
            else:
                yield MonoidHom(M, N, tuple(image))


def enumerate_homs(M: FiniteCommMonoid, N: FiniteCommMonoid,
                   budget: int = DEFAULT_BUDGET) -> list[MonoidHom]:
    """All homomorphisms M -> N as a list, in the order of `iter_homs`."""
    return list(iter_homs(M, N, budget))


@dataclass(frozen=True)
class Biproduct:
    monoid: FiniteCommMonoid
    injections: tuple[MonoidHom, MonoidHom]
    projections: tuple[MonoidHom, MonoidHom]
    pair: Callable[[int, int], int]
    unpair: Callable[[int], tuple[int, int]]


def biproduct(M: FiniteCommMonoid, N: FiniteCommMonoid) -> Biproduct:
    """M x N with componentwise addition; injections and projections."""
    nN = N.size

    def pair(a: int, b: int) -> int:
        return a * nN + b

    def unpair(x: int) -> tuple[int, int]:
        return divmod(x, nN)

    P = _product([M, N])
    i1 = MonoidHom(M, P, tuple(pair(a, 0) for a in M.elements()))
    i2 = MonoidHom(N, P, tuple(pair(0, b) for b in N.elements()))
    p1 = MonoidHom(P, M, tuple(unpair(x)[0] for x in P.elements()))
    p2 = MonoidHom(P, N, tuple(unpair(x)[1] for x in P.elements()))
    return Biproduct(P, (i1, i2), (p1, p2), pair, unpair)


def submonoid_generated(M: FiniteCommMonoid, subset: Iterable[int]) -> tuple[int, ...]:
    """Closure of subset plus {0} under the addition table, by `_close` from
    {0}; each member must be an int in [0, |M|) (else `OutOfRange`)."""
    subset = list(subset)
    if not all(type(m) is int and 0 <= m < M.size for m in subset):
        raise _out_of_range([subset], M.size)
    members = bytearray(1) if M.size <= 256 else {0}
    return tuple(sorted(_close(M.add, members, list(set(subset) - {0}))))


def _submonoid(M: FiniteCommMonoid, subset: Iterable[int]) -> tuple[int, ...]:
    """subset as a sorted tuple if it is a submonoid of M, else `NotASubmonoid`
    for its first failure: an entry that is not an int in [0, |M|), a
    repeated entry, no 0, or a sum a + b outside it (the witness (a, b), a
    then b least)."""
    subset = list(subset)
    if not all(type(m) is int and 0 <= m < M.size for m in subset):
        raise NotASubmonoid(*_out_of_range([subset], M.size).args)
    if len(seen := set(subset)) < len(subset):
        m = next(m for i, m in enumerate(subset) if m in subset[:i])
        raise NotASubmonoid(f"entry {m} is repeated")
    if 0 not in seen:
        raise NotASubmonoid("0 is not an entry")
    members = sorted(seen)
    pick = itemgetter(0, *members)         # row a at 0 is a, a member; always a tuple
    if not all(map(seen.issuperset, map(pick, map(M.add.__getitem__, members)))):
        a, b = next((a, b) for a in members for b in members if M.add[a][b] not in seen)
        raise NotASubmonoid(f"{a} + {b} = {M.add[a][b]} is not an entry", (a, b))
    return tuple(members)


def sub_as_monoid(M: FiniteCommMonoid, subset: Sequence[int]) -> tuple[FiniteCommMonoid, MonoidHom]:
    """Present a submonoid as a monoid in its own right, with its inclusion."""
    subset = _submonoid(M, subset)
    pos = {m: i for i, m in enumerate(subset)}
    S = _built([[pos[M.add[a][b]] for b in subset] for a in subset],
               tuple(M.label(m) for m in subset) if M.labels else None)
    return S, MonoidHom(S, M, subset)


@dataclass(frozen=True)
class DirectSumVerdict:
    sum_is_all: bool                      # (a) the subsets sum to M
    independent: bool                     # (b) pairwise-zero meet and 0-sum forces 0
    unique_decomposition: bool            # (c) the coproduct criterion
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

    @property
    def is_internal_direct_sum(self) -> bool:
        return self.sum_is_all and self.unique_decomposition


def internal_direct_sum_check(M: FiniteCommMonoid,
                              subsets: Sequence[Sequence[int]]) -> DirectSumVerdict:
    """Test whether M is the internal direct sum of the given submonoids.

    The verdict separates the necessary conditions (sum and independence)
    from the decisive one: uniqueness of decompositions.
    """
    subs = [_submonoid(M, s) for s in subsets]

    decomps: dict[int, list[tuple[int, ...]]] = {m: [] for m in M.elements()}
    for combo in product(*subs):
        decomps[M.sum(combo)].append(combo)

    sum_is_all = all(decomps[m] for m in M.elements())

    # each subset meets the submonoid the others generate in 0 alone, and 0
    # has only the zero decomposition
    independent = decomps[0] == [(0,) * len(subs)] and all(
        set(s) & set(submonoid_generated(M, chain(*subs[:i], *subs[i + 1:]))) == {0}
        for i, s in enumerate(subs))

    witness = next(((d[0], d[1]) for d in decomps.values() if len(d) > 1), None)
    return DirectSumVerdict(sum_is_all, independent, witness is None, witness)


@dataclass(frozen=True)
class SummandAnalysis:
    complement: Optional[tuple[int, ...]]
    retraction: Optional[MonoidHom]
    idempotent: Optional[MonoidHom]


def direct_summand_analysis(N: FiniteCommMonoid, M: Sequence[int],
                            budget: int = DEFAULT_BUDGET) -> SummandAnalysis:
    """Search for a complement, a retraction, and an idempotent with image M.

    All three come from one stream of the homs r: N -> M, kept when r|M = id
    (the retractions); the budget counts its generator images.  The
    retraction is the first.  The idempotents with image M are the incl o r,
    in the same order since incl is increasing, so the idempotent is
    incl o (the first).  If N = M (+) S internally, m + s |-> m is a
    retraction with kernel S, so every complement is a kernel r^-1(0): the
    complement is the least kernel, in tuple order, that passes
    `internal_direct_sum_check`, and finding it takes the whole stream.  A
    retraction need not have a complement (`direct_sum_counterexamples`).
    With M = N the only retraction is the identity, with kernel (0,), and
    N = N (+) {0}: that is the stream's answer, returned without it.
    """
    Msub, incl = sub_as_monoid(N, M)
    if incl.image == tuple(range(N.size)):
        r = MonoidHom(N, Msub, incl.image)
        return SummandAnalysis((0,), r, incl.compose(r))
    identity = identity_hom(Msub)
    first, kernels = None, set()
    for r in iter_homs(N, Msub, budget):
        if r.compose(incl) == identity:
            first = first or r
            kernels.add(tuple(x for x, v in enumerate(r.image) if v == 0))
    complement = next((S for S in sorted(kernels)
                       if internal_direct_sum_check(N, [incl.image, S]).is_internal_direct_sum), None)
    return SummandAnalysis(complement, first, incl.compose(first) if first else None)


@dataclass(frozen=True)
class NatVec:
    """Finitely supported map from generator labels to positive multiplicities.

    The coordinates are ordered by the label's type name, then by label, so
    labels of different types never compare and equal vectors have equal
    coordinates.
    """

    coords: tuple[tuple[object, int], ...]

    @staticmethod
    def of(mapping: Mapping) -> "NatVec":
        _require_ints(*mapping.values())
        try:
            items = tuple(sorted(((x, k) for x, k in mapping.items() if k != 0),
                                 key=lambda xk: (type(xk[0]).__name__, xk[0])))
        except TypeError:
            raise OutOfRange("labels of one type must be comparable") from None
        for _, k in items:
            if k < 0:
                raise OutOfRange("multiplicities must be nonnegative")
        return NatVec(items)

    @staticmethod
    def unit(x) -> "NatVec":
        return NatVec(((x, 1),))

    @staticmethod
    def zero() -> "NatVec":
        return NatVec(())

    def __add__(self, other: "NatVec") -> "NatVec":
        acc = dict(self.coords)
        for x, k in other.coords:
            acc[x] = acc.get(x, 0) + k
        return NatVec.of(acc)

    def scale(self, k: int) -> "NatVec":
        return NatVec.of({x: k * v for x, v in self.coords})

    def get(self, x) -> int:
        return dict(self.coords).get(x, 0)


def free_universal_map(X: Sequence, f: Mapping, M: FiniteCommMonoid) -> Callable[[NatVec], int]:
    """The unique additive map from free vectors over X into M extending f."""
    for x in X:
        if x not in f:
            raise OutOfRange(f"f has no value at {_echo(x)}")
        if type(f[x]) is not int or not 0 <= f[x] < M.size:
            raise OutOfRange(f"f({_echo(x)}) out of range")
    fx = {x: f[x] for x in X}              # f restricted to X

    def g(vec: NatVec) -> int:
        acc = 0
        for x, k in vec.coords:
            if x not in fx:
                raise OutOfRange(f"unknown label {_echo(x)}")
            acc = M.add[acc][M.scalar(k, fx[x])]
        return acc

    return g


# --- small-monoid corpus (oracle support) ---------------------------------

def enumerate_comm_monoid_tables(n: int) -> list[FiniteCommMonoid]:
    """All commutative monoid tables of size n with identity 0 (labeled), the
    fillings of the cells (a, b), 1 <= a <= b < n, in lexicographic order."""
    cells = [(a, b) for a in range(1, n) for b in range(a, n)]
    out = []
    table = [[max(a, b) if min(a, b) == 0 else 0 for b in range(n)] for a in range(n)]
    for values in product(range(n), repeat=len(cells)):
        for (a, b), v in zip(cells, values):
            table[a][b] = table[b][a] = v
        try:
            out.append(validate_monoid(table))       # which copies the rows it keeps
        except SemimodError:
            pass
    return out


def _canonical_form(M: FiniteCommMonoid) -> tuple:
    """The least table of M relabelled by a p that fixes 0, p[a] renamed a."""
    return min(tuple(tuple(p.index(M.add[x][y]) for y in p) for x in p)
               for p in map((0,).__add__, permutations(range(1, M.size))))


def small_monoid_corpus(max_size: int) -> list[FiniteCommMonoid]:
    """One representative per isomorphism class, sizes 1..max_size."""
    reps = {}
    for n in range(1, max_size + 1):
        for M in enumerate_comm_monoid_tables(n):
            reps.setdefault(_canonical_form(M), M)
    return list(reps.values())


# --- JSON interchange ------------------------------------------------------

def monoid_to_json(M: FiniteCommMonoid) -> dict:
    d = {"size": M.size, "add": [list(row) for row in M.add]}
    if M.labels is not None:
        d["labels"] = list(M.labels)
    return d


def monoid_from_json(data: dict) -> FiniteCommMonoid:
    if not isinstance(data, dict):
        raise OutOfRange('expected an object {"size": n, "add": [[...], ...]}')
    M = validate_monoid(data.get("add"), data.get("labels"))
    size = data.get("size")
    if type(size) is not int or size != M.size:
        raise OutOfRange("declared size does not match the table")
    return M


def load_monoid(path: str) -> FiniteCommMonoid:
    """The monoid of a JSON file, or the error, as `monoid_from_json` gives it.

    A file that cannot be opened, read or decoded (bad encoding or syntax,
    nesting past the recursion limit, an int longer than
    `sys.get_int_max_str_digits()`) raises one `SemimodError` naming it by
    `_echo`.  A text with no letter t or f holds no JSON true or false (the
    keys size, add and labels have neither letter), so `bytes()` takes
    exactly the ints in [0, 256) of its lists.  Then an `add` of at most 256
    lists goes to `validate_monoid` as byte rows, which skip the per-entry
    type test, unless `bytes()` refuses a row.
    """
    try:
        with open(path) as fh:
            text = fh.read()
        data = json.loads(text)
    except OSError as e:
        raise SemimodError(f"{_echo(path)}: {e.strerror}") from None
    except (RecursionError, ValueError) as e:       # UnicodeDecodeError, JSONDecodeError too
        raise SemimodError(f"{_echo(path)}: cannot decode: {e}") from None
    if "t" not in text and "f" not in text and type(data) is dict:
        data["add"] = _as_byte_rows(data.get("add"))
    del text                      # so that validation does not keep it alive
    return monoid_from_json(data)


def _as_byte_rows(add):
    """add as byte rows if it is at most 256 lists that `bytes()` takes, else add."""
    if type(add) is list and len(add) <= 256 and all(type(r) is list for r in add):
        try:
            return list(map(bytes, add))
        except (TypeError, ValueError):
            pass
    return add


# --- handy standard tables -------------------------------------------------

def trivial_monoid() -> FiniteCommMonoid:
    return cyclic_group(1)


def cyclic_group(n: int) -> FiniteCommMonoid:
    """Z/n, the cyclic monoid C(0, n)."""
    if type(n) is not int or n < 1:
        raise OutOfRange(f"Z/n needs an integer n >= 1, not {_echo(n)}")
    return _built(CyclicMonoid(0, n)._rows())


def saturating_monoid(n: int) -> FiniteCommMonoid:
    """{0, 1, ..., n-1} under a + b = max(a, b); every element is idempotent."""
    if type(n) is not int or n < 1:
        raise OutOfRange(f"Sat_n needs an integer n >= 1, not {_echo(n)}")
    return _built([[max(a, b) for b in range(n)] for a in range(n)])
