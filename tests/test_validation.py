"""validate_monoid (Light's test) against the cubic scan over all triples, and
the table helpers and subset oracle the other test files import."""

import random
from dataclasses import fields
from itertools import chain, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semimod import core
from semimod.core import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    NotAssociative,
    NotCommutative,
    NotIdentity,
    OutOfRange,
    SemimodError,
    _canonical_form,
    _close,
    _generating_set,
    _light_bytes,
    _light_rows,
    _out_of_range,
    cyclic_group,
    enumerate_comm_monoid_tables,
    saturating_monoid,
    small_monoid_corpus,
    submonoid_generated,
    validate_monoid,
)
from semimod.natcoeq import CyclicMonoid
from semimod.tensor import tensor_product


def cubic_monoid_oracle(table) -> bool:
    """The monoid axioms checked cell by cell, associativity over all n^3 triples."""
    n = len(table)
    if any(table[0][m] != m for m in range(n)):
        return False
    if any(table[a][b] != table[b][a] for a in range(n) for b in range(n)):
        return False
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def check_against_oracle(table):
    expected = cubic_monoid_oracle(table)
    try:
        validate_monoid(table)
    except NotAssociative as e:
        a, x, b = e.witness
        assert table[table[a][x]][b] != table[a][table[x][b]]
        assert not expected
        return False
    except SemimodError:
        assert not expected
        return False
    assert expected
    return True


@st.composite
def commutative_tables(draw):
    n = draw(st.integers(1, 6))
    table = [[max(a, b) if min(a, b) == 0 else 0 for b in range(n)] for a in range(n)]
    for a in range(1, n):
        for b in range(a, n):
            table[a][b] = table[b][a] = draw(st.integers(0, n - 1))
    return table


def relabel(table, perm):
    """The table with element e renamed perm[e]; perm fixes 0."""
    n = len(table)
    inv = [0] * n
    for e, v in enumerate(perm):
        inv[v] = e
    return [[perm[table[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]


def fresh(M):
    """An equal monoid with the same generating set, sharing nothing with M."""
    return validate_monoid([list(row) for row in M.add])


def family_table(family, n):
    if family == "Z":
        return [list(r) for r in cyclic_group(n).add]
    if family == "Sat":
        return [list(r) for r in saturating_monoid(n).add]
    i = n // 3
    return [list(r) for r in CyclicMonoid(i, n - i).to_monoid(labels=False).add]


def all_submonoids(M, budget=DEFAULT_BUDGET):
    """All submonoids of a small monoid, by closing every subset; the oracle
    for the summand search, which reads complements off retractions.

    Raises `BudgetExceeded` before closing any subset when the 2^(n-1)
    subsets of the nonzero elements exceed the budget.
    """
    found = set()
    nonzero = [m for m in M.elements() if m != 0]
    if 1 << len(nonzero) > budget:
        raise BudgetExceeded("submonoid subsets", 1 << len(nonzero), budget)
    for mask in range(1 << len(nonzero)):
        gens = [nonzero[i] for i in range(len(nonzero)) if mask >> i & 1]
        found.add(core.submonoid_generated(M, gens))
    return sorted(found)


class RelabellingUnionFind:
    """The union-find of the reference closures, sharing no code with
    `congruence._closure`: each element carries its class's label, and each
    label its members and their least.  A union relabels the smaller class,
    so each element is relabelled O(log n) times, and find(x) is the
    smallest member of x's class."""

    def __init__(self, n):
        self.label = list(range(n))
        self.members = [[x] for x in range(n)]
        self.least = list(range(n))

    def find(self, x):
        return self.least[self.label[x]]

    def union(self, a, b) -> bool:
        """Merge the classes of a and b; False if they were one class."""
        keep, gone = self.label[a], self.label[b]
        if keep == gone:
            return False
        if len(self.members[keep]) < len(self.members[gone]):
            keep, gone = gone, keep
        for x in self.members[gone]:
            self.label[x] = keep
        self.members[keep] += self.members[gone]
        self.members[gone] = []
        self.least[keep] = min(self.least[keep], self.least[gone])
        return True


def equivalence_of_pairs(size, pairs):
    """The smallest-member map of the equivalence the pairs generate, untranslated."""
    uf = RelabellingUnionFind(size)
    for a, b in pairs:
        uf.union(a, b)
    return tuple(map(uf.find, range(size)))


@st.composite
def corrupted_family_tables(draw):
    family = draw(st.sampled_from(["Z", "Sat", "C"]))
    n = draw(st.integers(2, 12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rest = list(range(1, n))
    rng.shuffle(rest)
    table = relabel(family_table(family, n), [0] + rest)
    for _ in range(draw(st.integers(1, 3))):
        a, b = rng.randrange(n), rng.randrange(n)
        v = rng.randrange(n)
        table[a][b] = v
        if rng.random() < 0.8:     # mostly keep the table commutative
            table[b][a] = v
    return table


@settings(max_examples=400, deadline=None)
@given(commutative_tables())
def test_random_commutative_tables_match_cubic_oracle(table):
    check_against_oracle(table)


@settings(max_examples=400, deadline=None)
@given(corrupted_family_tables())
def test_corrupted_family_tables_match_cubic_oracle(table):
    check_against_oracle(table)


def test_every_small_commutative_table_matches_cubic_oracle():
    for n in range(1, 5):
        cells = [(a, b) for a in range(1, n) for b in range(a, n)]
        accepted = 0
        for code in range(n ** len(cells)):
            table = [[max(a, b) if min(a, b) == 0 else 0 for b in range(n)] for a in range(n)]
            for a, b in cells:
                table[a][b] = table[b][a] = code % n
                code //= n
            accepted += check_against_oracle(table)
        assert accepted == len(enumerate_comm_monoid_tables(n)) > 0


def recursive_tables(n):
    """The labelled corpus by recursion over one shared table, each cell
    (a, b), 1 <= a <= b < n, taking the values 0..n-1 in turn, the first cell
    outermost; the oracle of `enumerate_comm_monoid_tables`."""
    cells = [(a, b) for a in range(1, n) for b in range(a, n)]
    out = []
    table = [[0] * n for _ in range(n)]
    for m in range(n):
        table[0][m] = table[m][0] = m

    def rec(idx):
        if idx == len(cells):
            try:
                out.append(validate_monoid([row[:] for row in table]))
            except SemimodError:
                pass
            return
        a, b = cells[idx]
        for v in range(n):
            table[a][b] = table[b][a] = v
            rec(idx + 1)
        table[a][b] = table[b][a] = 0

    rec(0)
    return out


def canonical_form_by_loop(M):
    """The least relabelled table over the permutations p fixing 0, by a
    running minimum, each table built through the inverse of p."""
    best = None
    for perm in permutations(range(1, M.size)):
        p = (0,) + perm
        inv = [0] * M.size
        for i, v in enumerate(p):
            inv[v] = i
        t = tuple(tuple(inv[M.add[p[a]][p[b]]] for b in range(M.size)) for a in range(M.size))
        if best is None or t < best:
            best = t
    return best


def corpus_by_seen_sets(max_size):
    """The first table of each canonical form, by one seen-set per size."""
    reps = []
    for n in range(1, max_size + 1):
        seen = set()
        for M in recursive_tables(n):
            c = canonical_form_by_loop(M)
            if c not in seen:
                seen.add(c)
                reps.append(M)
    return reps


def as_tables(monoids):
    """The tables, generating sets and labels, which monoid equality does not all compare."""
    return [(M.add, M.gens, M.labels) for M in monoids]


def test_corpus_matches_the_recursive_and_loop_oracles():
    labelled = []
    for n in range(5):
        tables = enumerate_comm_monoid_tables(n)
        assert as_tables(tables) == as_tables(recursive_tables(n))
        labelled += tables
    assert len(labelled) == 1 + 2 + 9 + 94
    assert [_canonical_form(M) for M in labelled] == list(map(canonical_form_by_loop, labelled))
    for k in range(5):
        assert as_tables(small_monoid_corpus(k)) == as_tables(corpus_by_seen_sets(k))


def relabelled_monoids(seed):
    """corpus(4), and Z/n, Sat_n and C(n // 3, n - n // 3) for n in (2, 5, 12, 30),
    each relabelled by a random permutation fixing 0."""
    rng = random.Random(seed)
    monoids = list(small_monoid_corpus(4))
    for family in ("Z", "Sat", "C"):
        for n in (2, 5, 12, 30):
            rest = list(range(1, n))
            rng.shuffle(rest)
            monoids.append(validate_monoid(relabel(family_table(family, n), [0] + rest)))
    return monoids


def test_generating_set_generates_the_whole_table():
    for M in relabelled_monoids(7):
        gens = _generating_set(M.add)
        assert 0 not in gens
        assert submonoid_generated(M, gens) == tuple(M.elements())


def closure_by_rounds(table, start):
    """The closure of start plus {0} under +, by whole rounds of all pairwise
    sums until a round adds nothing: the oracle for `core._close`."""
    closed = {0, *start}
    while not (sums := {table[a][b] for a in closed for b in closed}) <= closed:
        closed |= sums
    return sorted(closed)


def close_from(members, rows, start, more):
    """`_close` from the members of {0}, a bytearray or a set, over the new
    elements of start, then over those of more."""
    for new in (start, more):
        _close(rows, members, list(set(new).difference(members)))
    return sorted(members)


@settings(max_examples=300, deadline=None)
@given(commutative_tables(), st.data())
def test_close_from_bytes_and_from_a_set_is_the_closure_by_rounds(table, data):
    """Closed under every pairwise sum, by any commutative table with
    identity 0 (associative or not), from a closed set plus new elements."""
    n = len(table)
    start = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
    more = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
    rows = tuple(map(tuple, table))
    expected = closure_by_rounds(rows, start + more)
    for r in (rows, list(map(bytes, rows))):
        assert close_from(bytearray(1), r, start, more) == expected
        assert close_from({0}, r, start, more) == expected
    M = core._built(rows)
    assert list(submonoid_generated(M, start)) == closure_by_rounds(rows, start)
    distinct = len(set(start)) == len(start)
    assert M.is_submonoid(start) == (distinct and 0 in start and all(
        rows[a][b] in start for a in start for b in start))


@pytest.mark.parametrize("family", ["Z", "Sat"])
def test_close_from_a_set_past_256_elements(family):
    table = family_table(family, 300)
    rows = tuple(map(tuple, table))
    M = validate_monoid(table)
    rng = random.Random(300)
    for start, more in [([1], []), ([], [2]), ([150], [100]), ([299], [1])] + [
            (rng.sample(range(300), 3), rng.sample(range(300), 2)) for _ in range(5)]:
        expected = closure_by_rounds(rows, start + more)
        assert close_from({0}, rows, start, more) == expected
        assert list(submonoid_generated(M, start + more)) == expected
        assert M.is_submonoid(expected) and M.is_submonoid(expected[::-1])
        assert M.is_submonoid(expected[:-1]) == (expected[:-1] == closure_by_rounds(
            rows, expected[:-1]))


def words(P):
    """The words of a presentation, one walk away: each element's normal form
    spelled along the tree, and the relation nf(e) + x_j = nf(t) of each
    relation edge (e, j, t)."""
    def plus(w, j):
        return w[:j] + (w[j] + 1,) + w[j + 1:]

    nf = [None] * (len(P.tree) + 1)
    nf[0] = (0,) * len(P.gens)
    for e, j, t in P.tree:
        nf[t] = plus(nf[e], j)
    return tuple(nf), tuple((plus(nf[e], j), nf[t]) for e, j, t in P.edges)


def present_with_words(add, gens):
    """The breadth-first walk building the words as it goes: (normal forms,
    relations, tree, edges), an oracle for `core._present` and `words`."""
    nf = [None] * len(add)
    nf[0] = (0,) * len(gens)
    relations, tree, edges = [], [], []
    order = [0]
    for e in order:
        w = nf[e]
        for j, x in enumerate(gens):
            t = add[e][x]
            wx = w[:j] + (w[j] + 1,) + w[j + 1:]
            if nf[t] is None:
                nf[t] = wx
                order.append(t)
                tree.append((e, j, t))
            else:
                relations.append((wx, nf[t]))
                edges.append((e, j, t))
    return tuple(nf), tuple(relations), tuple(tree), tuple(edges)


def test_presentation_over_the_kept_generating_set():
    for M in relabelled_monoids(11):
        assert M.gens == tuple(_generating_set(M.add))
        P = M.presentation
        assert P.gens == M.gens and M.presentation is P
        normal_forms, relations = words(P)

        def value(word):
            return M.sum(M.scalar(k, x) for x, k in zip(P.gens, word))

        assert [value(w) for w in normal_forms] == list(M.elements())
        assert [normal_forms[x] for x in P.gens] == [
            tuple(int(i == j) for i in range(len(P.gens))) for j in range(len(P.gens))]
        # one relation per Cayley edge outside the spanning tree of normal forms
        assert len(relations) == M.size * len(P.gens) - (M.size - 1)
        assert all(value(u) == value(v) for u, v in relations)
    assert words(cyclic_group(12).presentation)[1] == (((12,), (0,)),)
    assert words(CyclicMonoid(3, 4).to_monoid().presentation)[1] == (((7,), (3,)),)


def test_presentation_is_the_tree_and_edges_of_the_word_building_walk():
    assert [f.name for f in fields(core.Presentation)] == ["gens", "tree", "edges"]
    sat5 = saturating_monoid(5)
    for M in relabelled_monoids(13) + [tensor_product(sat5, sat5).monoid]:
        P = M.presentation
        normal_forms, relations, tree, edges = present_with_words(M.add, M.gens)
        assert (P.tree, P.edges) == (tree, edges)
        assert words(P) == (normal_forms, relations)


def test_generating_set_sizes_of_known_families():
    assert _generating_set(cyclic_group(40).add) == [1]
    assert _generating_set(CyclicMonoid(7, 5).to_monoid().add) == [1]
    assert _generating_set(saturating_monoid(9).add) == list(range(1, 9))
    z2_z3 = [[((a // 3 + b // 3) % 2) * 3 + (a % 3 + b % 3) % 3 for b in range(6)]
             for a in range(6)]
    assert _generating_set(z2_z3) == [1, 3]


def light_outcome(kernel, *args):
    """None if the kernel passes, else its exception's class, witness and message."""
    try:
        kernel(*args)
    except NotAssociative as e:
        return type(e), e.witness, str(e)
    return None


def light_bytes_outcome(rows, gens):
    rb = list(map(bytes, rows))
    return light_outcome(_light_bytes, rb, b"".join(rb), gens)


def has_two_sided_identity(table):
    return all(table[0][m] == m and table[m][0] == m for m in range(len(table)))


def is_commutative(table):
    return all(table[a][b] == table[b][a] for a in range(len(table)) for b in range(a))


@settings(max_examples=400, deadline=None)
@given(st.one_of(commutative_tables(), corrupted_family_tables()).filter(is_commutative))
def test_byte_kernel_matches_row_gather_loop(table):
    """On commutative tables, the precondition of `_light_bytes`."""
    rows = tuple(map(tuple, table))
    gens = _generating_set(rows)
    expected = light_outcome(_light_rows, rows, gens)
    assert light_bytes_outcome(rows, gens) == expected
    # (x + a) + b != a + (x + b) at the first failing x, and at the first
    # failing (a, b) in the order a, then b
    if expected is not None:
        a, x, b = expected[1]
        assert rows[rows[x][a]][b] != rows[a][rows[x][b]]
        assert all(rows[rows[x2][a2]][b2] == rows[a2][rows[x2][b2]]
                   for x2 in gens[:gens.index(x)] for a2 in range(len(rows))
                   for b2 in range(len(rows)))
        assert all(rows[rows[x][a2]][b2] == rows[a2][rows[x][b2]]
                   for a2 in range(a + 1) for b2 in range(b if a2 == a else len(rows)))


@pytest.mark.parametrize("n", [255, 256, 257])
@pytest.mark.parametrize("family", ["Z", "Sat"])
def test_both_sides_of_the_byte_row_cutoff(family, n):
    """n <= 256 runs on byte rows, n > 256 on itemgetter rows."""
    table = family_table(family, n)
    assert validate_monoid(table).add == tuple(map(tuple, table))
    d = n // 2
    table[d][d] = 1        # still commutative; (d + d) + 2 = 1 + 2 != d + (d + 2) in both
    with pytest.raises(NotAssociative) as e:
        validate_monoid(table)
    a, x, b = e.value.witness
    assert table[table[a][x]][b] != table[a][table[x][b]]


def prelude_by_scans(table):
    """Reference for the checks before Light's test: the type pass, the range
    by the largest byte, identity, and commutativity by a row-by-column scan."""
    n = len(table)
    rows = tuple(map(tuple, table))
    if set(map(type, chain.from_iterable(rows))) != {int}:
        raise _out_of_range(rows, n)
    if n <= 256:
        try:
            rb = list(map(bytes, rows))
        except ValueError:
            rb = None
        if rb is None or max(map(max, rb)) >= n:
            raise _out_of_range(rows, n)
    elif min(map(min, rows)) < 0 or max(map(max, rows)) >= n:
        raise _out_of_range(rows, n)
    if rows[0] != tuple(range(n)):
        raise NotIdentity(next(m for m in range(n) if rows[0][m] != m))
    for m, col in enumerate(zip(*rows)):
        if rows[m] != col:
            raise NotCommutative(m, next(m2 for m2 in range(m + 1, n) if rows[m][m2] != col[m2]))


def outcome(check, table):
    """None if the check passes, else its exception's class, witness and message."""
    try:
        check(table)
    except SemimodError as e:
        return type(e), getattr(e, "witness", None), str(e)
    return None


def corrupted_copies(table, rng):
    """The table with one cell set to -1, n, True, 2.0 or "1", one cell made
    asymmetric, or a broken identity row, at a few positions each."""
    n = len(table)
    cells = [(0, 0), (n - 1, n - 1), (n // 2, n - 1)] + [
        (rng.randrange(n), rng.randrange(n)) for _ in range(3)]
    for v in (-1, n, True, 2.0, "1"):
        for a, b in cells:
            copy = [list(r) for r in table]
            copy[a][b] = v
            yield copy
    for _ in range(4 if n > 1 else 0):
        a, b = rng.sample(range(n), 2)
        copy = [list(r) for r in table]
        copy[a][b] = (copy[a][b] + 1 + rng.randrange(n - 1)) % n
        yield copy
        copy = [list(r) for r in table]
        copy[0][b] = a                   # a != b: the identity row is broken
        yield copy


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 255, 256, 257])
def test_prelude_matches_the_scans_on_corrupted_tables(n):
    rng = random.Random(n)
    tables = [family_table(family, n) for family in ("Z", "Sat", "C")]
    if n <= 6:
        tables += [relabel(t, [0] + rng.sample(range(1, n), n - 1)) for t in tables]
    seen = set()
    for table in tables:
        assert outcome(prelude_by_scans, table) is None
        assert outcome(validate_monoid, table) is None
        for copy in corrupted_copies(table, rng):
            expected = outcome(prelude_by_scans, copy)
            got = outcome(validate_monoid, copy)
            if expected is None:     # the corruption kept the table commutative with identity
                assert got is None or got[0] is NotAssociative
            else:
                assert got == expected
                seen.add(got[0])
    assert seen == ({OutOfRange, NotIdentity, NotCommutative} if n > 1 else {OutOfRange})


def left_translates_associate(rb, whole, gens):
    """Whether (x + a) + b = x + (a + b) for every x in gens and all a, b
    (n <= 256), one translate per x: the decision `_light_bytes` makes
    first.  For a table with identity 0 and a generating set gens, this
    holds exactly when the table is associative, commutative or not: the x
    that pass contain 0 and are closed under +,
    ((x + y) + a) + b = x + ((y + a) + b) = x + (y + (a + b)) = (x + y) + (a + b)."""
    return all(b"".join(map(rb.__getitem__, rb[x])) == whole.translate(rb[x].ljust(256, b"\0"))
               for x in gens)


def test_a_generator_failing_only_on_the_left_is_passed_over():
    """x = 1 has (1 + 2) + 2 = 0 != 1 = 1 + (2 + 2) but passes Light's test,
    so the witness names x = 2, as `_light_rows` does."""
    table = [[0, 1, 2], [1, 0, 2], [2, 2, 0]]
    rows = tuple(map(tuple, table))
    rb = list(map(bytes, rows))
    assert _generating_set(rows) == [1, 2]
    assert not left_translates_associate(rb, b"".join(rb), [1])
    assert light_outcome(_light_rows, rows, [1]) is None
    expected = (NotAssociative, (1, 2, 2), "(1 + 2) + 2 != 1 + (2 + 2)")
    assert light_outcome(_light_rows, rows, [1, 2]) == expected
    assert light_bytes_outcome(rows, [1, 2]) == expected
    assert outcome(validate_monoid, table) == expected


def greedy_gens(rows, members):
    """Greedy X grown by `_close` from the start `members`: bytearray(1) on a
    table of at most 256 elements, or {0} on any table."""
    gens = []
    for e in range(1, len(rows)):
        if e not in members:
            gens.append(e)
            _close(rows, members, [e])
    return gens


def check_left_translation_decision(table):
    """The one-translate-per-x decision over the set-based greedy X against
    associativity over all triples.  On a commutative table it must also
    agree with `_light_rows` (which compares (x + a) + b with a + (x + b),
    so decides nothing without commutativity), the byte-based X must be the
    same, and `_light_bytes` and `validate_monoid` must raise the witness
    of `_light_rows`."""
    n = len(table)
    rows = tuple(map(tuple, table))
    rb = list(map(bytes, rows))
    gens = greedy_gens(rows, {0})
    verdict = left_translates_associate(rb, b"".join(rb), gens)
    if n <= 30:
        assert verdict == all(rows[rows[a][b]][c] == rows[a][rows[b][c]]
                              for a in range(n) for b in range(n) for c in range(n))
    if is_commutative(table):
        expected = light_outcome(_light_rows, rows, gens)
        assert verdict == (expected is None)
        assert greedy_gens(rb, bytearray(1)) == gens
        assert light_bytes_outcome(rows, gens) == expected
        assert outcome(validate_monoid, table) == expected
    return verdict


@settings(max_examples=400, deadline=None)
@given(st.one_of(commutative_tables(), corrupted_family_tables()).filter(has_two_sided_identity))
def test_left_translation_decision_matches_light_rows(table):
    check_left_translation_decision(table)


def test_left_translation_decision_on_every_small_table():
    for n in range(1, 5):
        cells = [(a, b) for a in range(1, n) for b in range(a, n)]
        accepted = 0
        for code in range(n ** len(cells)):
            table = [[max(a, b) if min(a, b) == 0 else 0 for b in range(n)] for a in range(n)]
            for a, b in cells:
                table[a][b] = table[b][a] = code % n
                code //= n
            accepted += check_left_translation_decision(table)
        assert accepted == len(enumerate_comm_monoid_tables(n))


def product_table(n):
    """Z/m x Z/k with m * k = n, the pair (a, b) stored at a*k + b."""
    m = {100: 4, 150: 10, 255: 15, 256: 16}[n]
    k = n // m
    return [[((x // k + y // k) % m) * k + (x % k + y % k) % k for y in range(n)]
            for x in range(n)]


@pytest.mark.parametrize("n", [100, 150, 255, 256, 257])
@pytest.mark.parametrize("family", ["Z", "Sat", "C", "ZxZ"])
def test_left_translation_decision_on_relabelled_families(family, n):
    """Relabelled families, intact and with one diagonal cell changed (still
    commutative with identity 0); n = 257 compares the generating sets only."""
    if family == "ZxZ" and n == 257:
        return
    rng = random.Random(n)
    table = product_table(n) if family == "ZxZ" else family_table(family, n)
    table = relabel(table, [0] + rng.sample(range(1, n), n - 1))
    d = rng.randrange(1, n)
    corrupt = [list(r) for r in table]
    corrupt[d][d] = rng.choice([v for v in range(n) if v != table[d][d]])
    for t in (table, corrupt):
        rows = tuple(map(tuple, t))
        gens = greedy_gens(rows, {0})
        assert _generating_set(t) == gens
        if n <= 256:
            assert check_left_translation_decision(t) == (t is table)
        else:
            expected = light_outcome(_light_rows, rows, gens)
            assert outcome(validate_monoid, t) == expected and (expected is None) == (t is table)
        if t is table:
            assert validate_monoid(t).gens == tuple(gens)


def test_all_submonoids_budget_boundary(monkeypatch):
    M = saturating_monoid(4)               # 2^3 subsets of the nonzero elements
    assert all_submonoids(M, budget=8) == all_submonoids(M)

    def closed(*args):
        raise AssertionError("a subset was closed")

    monkeypatch.setattr(core, "submonoid_generated", closed)
    with pytest.raises(BudgetExceeded):
        all_submonoids(M, budget=7)
