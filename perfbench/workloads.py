"""Seeded requests and known answers for the semimod benchmark.

Nothing here imports semimod: every expected answer comes from a closed
form or a direct construction in this file, so the code under test never
grades itself.

A request is plain data.  CLI requests carry an argv whose file arguments
name entries of ``files`` (JSON text the client writes before sending);
library requests carry a ``call`` tuple that run.py dispatches.  The same
seed yields the same request list byte for byte, and no request repeats
within a stream.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import asdict, dataclass, field, replace
from itertools import combinations, product
from math import comb, gcd
from typing import Iterator, Optional

WORKLOADS = ("naturals", "tables", "oracles")


@dataclass(frozen=True)
class Request:
    kind: str
    size: int                      # input size, for the size -> time rows
    argv: tuple = ()               # CLI argv; file arguments are keys of files
    files: tuple = ()              # ((name, json text), ...)
    call: tuple = ()               # library call: (name, *plain arguments)
    expect: object = None          # known answer, in the shape check() reads
    exit_code: int = 0
    slot: int = 0                  # position in the workload's cycle
    key: tuple = field(default=(), compare=False)   # the problem; never sent twice

    def to_json(self) -> str:
        d = asdict(self)
        d.pop("key")
        return json.dumps(d, sort_keys=True)


# --- monoid tables ----------------------------------------------------------

def cyclic_group(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def saturating(n):
    return [[max(a, b) for b in range(n)] for a in range(n)]


def project(i, p, x):
    """Class of the natural number x in C(i, p)."""
    return x if x < i else i + (x - i) % p


def cyclic_monoid(i, p):
    return [[project(i, p, a + b) for b in range(i + p)] for a in range(i + p)]


def group_product(m, n):
    """Z/m x Z/n with (a, b) stored at a*n + b."""
    return [[((x // n + y // n) % m) * n + (x % n + y % n) % n
             for y in range(m * n)] for x in range(m * n)]


def relabel(table, perm):
    """The isomorphic table in which element x is called perm[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        row = table[a]
        for b in range(n):
            out[perm[a]][perm[b]] = perm[row[b]]
    return out


def random_perm(rng, n):
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


def monoid_json(table):
    return json.dumps({"size": len(table), "add": table}, separators=(",", ":"))


def is_monoid(table):
    """Brute-force identity, commutativity and associativity check."""
    n = len(table)
    if any(table[0][m] != m for m in range(n)):
        return False
    if any(table[a][b] != table[b][a] for a in range(n) for b in range(n)):
        return False
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def labeled_monoids(n):
    """All commutative monoid tables on {0..n-1} with identity 0."""
    cells = [(a, b) for a in range(1, n) for b in range(a, n)]
    out = []
    for values in product(range(n), repeat=len(cells)):
        t = [[max(a, b) if min(a, b) == 0 else 0 for b in range(n)] for a in range(n)]
        for (a, b), v in zip(cells, values):
            t[a][b] = t[b][a] = v
        if is_monoid(t):
            out.append(t)
    return out


def breaks_associativity(table, a, v):
    """Whether setting the diagonal cell (a, a) of a monoid table to v breaks it.

    Only triples that read the changed cell can fail, so it suffices to test
    (a, a, z), (x, a, a), and (x, y, a) or (a, y, z) where a sum lands on a.
    """
    n = len(table)
    t = [row[:] for row in table]
    t[a][a] = v

    def bad(x, y, z):
        return t[t[x][y]][z] != t[x][t[y][z]]

    if any(bad(a, a, z) or bad(z, a, a) for z in range(n)):
        return True
    for x in range(n):
        for y in range(n):
            if t[x][y] == a and (bad(x, y, a) or bad(a, x, y)):
                return True
    return False


# --- closed forms -----------------------------------------------------------

def nat_quotient(pairs):
    """(index, period) of the naturals modulo the congruence the pairs generate.

    The index is the smallest member of a nontrivial pair and the period the
    gcd of the differences; None when every pair is trivial.
    """
    norm = [(min(a, b), max(a, b)) for a, b in pairs if a != b]
    if not norm:
        return None
    p = 0
    for a, b in norm:
        p = gcd(p, b - a)
    return min(a for a, _ in norm), p


def footing_two(a, b):
    """Footing of the semiideal <a, b>: Sylvester's (a'-1)(b'-1)d, or d if cyclic."""
    d = gcd(a, b)
    a2, b2 = a // d, b // d
    if a2 == 1 or b2 == 1:
        return d
    return d * (a2 - 1) * (b2 - 1)


def footing_arith(a, d, k, f):
    """Footing of <f*a, f*(a+d), ..., f*(a+kd)>, gcd(a, d) = 1, 1 <= k < a.

    Roberts (1956): the Frobenius number of a, a+d, ..., a+kd is
    (floor((a-2)/k) + 1) a + (d-1)(a-1) - 1; the footing is one more, scaled.
    """
    g = ((a - 2) // k + 1) * a + (d - 1) * (a - 1) - 1
    return (g + 1) * f


def semiideal_answer(gens, footing, minimal):
    d = 0
    for g in gens:
        d = gcd(d, g)
    return {
        "generators": sorted(set(gens)),
        "period": d,
        "footing": footing,
        "minimal_generators": list(minimal),
        "cyclic": len(minimal) == 1,
        "quotient": f"Z/{d}",
    }


def quotient_answer(table, classes):
    """The CLI quotient JSON for a table and a known partition of it."""
    classes = sorted(sorted(c) for c in classes)
    where = {x: i for i, c in enumerate(classes) for x in c}
    reps = [c[0] for c in classes]
    q = [[where[table[r][s]] for s in reps] for r in reps]
    return {"classes": classes, "quotient": {"size": len(q), "add": q}}


def replay_chain(pairs, i, p, steps):
    """Independent replay of certificate B: translated seeds from i to i + p."""
    allowed = {(min(a, b), max(a, b)) for a, b in pairs}
    at = i
    for step in steps:
        u, v, (a, b), k = step
        if (a, b) not in allowed or k < 0 or {u, v} != {a + k, b + k} or u != at:
            return False
        at = v
    return p > 0 and at == i + p


# --- naturals ---------------------------------------------------------------

# One cycle of the closed loop: (kind, size, shape).  The seed picks
# distinct inputs of about that size and shape, so every seed sends the same
# mix of costs.  Sizes are spread so that the median and the 90th
# percentile each fall among several requests of similar cost.
#   semiideal2    size a: generators f*a, f*b with b ~ 1.5 a, gcd(a, b) = 1
#   semiideal-ap  size a, shape k: f*a, f*(a+d), ..., f*(a+kd), small d
#   coeq-*        size b: coeq a b for some a < b (cost ~ b^3 in validation)
#   natq          size b, shape: number of seed pairs of magnitude ~ b
NATURALS_CYCLE = (
    ("coeq-json", 30, 0), ("semiideal2", 105, 0), ("coeq-json", 95, 0),
    ("natq", 6000, 2), ("semiideal-ap", 80, 4), ("coeq-text", 62, 0),
    ("coeq-text", 95, 0), ("semiideal2", 40, 0), ("semiideal-ap", 200, 3),
    ("natq", 15000, 1), ("coeq-text", 45, 0), ("coeq-json", 64, 0),
    ("natq", 60000, 1), ("semiideal-ap", 120, 3), ("semiideal-ap", 240, 4),
    ("coeq-json", 95, 0), ("semiideal2", 60, 0), ("natq", 4000, 4),
    ("coeq-text", 95, 0), ("semiideal2", 110, 0),
)


def _jitter(rng, target, frac):
    return max(2, round(target * (1 + rng.uniform(-frac, frac))))


def _naturals_request(rng, kind, size, shape, spread):
    if kind == "semiideal2":
        a = _jitter(rng, size, spread)
        b = round(1.5 * a)
        while gcd(a, b) != 1:
            b += 1
        f = rng.randrange(1, 1000 // b + 2)
        gens = [f * a, f * b]
        ans = semiideal_answer(gens, footing_two(f * a, f * b), tuple(gens))
        rng.shuffle(gens)
        return Request("semiideal", max(gens), argv=("semiideal", *map(str, gens), "--json"),
                       expect=ans, key=("semiideal", tuple(sorted(gens))))
    if kind == "semiideal-ap":
        a, k = _jitter(rng, size, spread), shape
        d = rng.randrange(1, 7)
        while gcd(a, d) != 1:
            d += 1
        f = rng.randrange(1, 1000 // (a + k * d) + 2)
        gens = [f * (a + j * d) for j in range(k + 1)]
        ans = semiideal_answer(gens, footing_arith(a, d, k, f), tuple(gens))
        rng.shuffle(gens)
        return Request("semiideal", max(gens), argv=("semiideal", *map(str, gens), "--json"),
                       expect=ans, key=("semiideal", tuple(sorted(gens))))
    if kind in ("coeq-json", "coeq-text"):
        b = _jitter(rng, size, spread / 2)
        a = rng.randrange(0, b)
        args = [str(a), str(b)] if rng.random() < 0.5 else [str(b), str(a)]
        flags = ["--json"] if kind == "coeq-json" else (["--ascii"] if rng.random() < 0.5 else [])
        return Request("coeq", b, argv=("coeq", *args, *flags), expect=[a, b - a],
                       key=("coeq", a, b))
    if kind == "natq":
        # one pair: the proof forest spans 4b; more pairs: about 3b each
        pairs = [(_jitter(rng, size // 2, spread), _jitter(rng, size, spread))
                 for _ in range(shape)]
        if shape == 1:
            pairs = [(rng.randrange(0, pairs[0][1]), pairs[0][1])]
        return Request("natq", max(b for _, b in pairs), call=("natq", pairs),
                       expect=list(nat_quotient(pairs)), key=("natq", tuple(sorted(pairs))))
    raise ValueError(kind)


# --- tables -----------------------------------------------------------------

# One cycle: (kind, size, shape).  Table sizes are jittered by the seed;
# the family (and for corrupt copies, which cell is changed) is fixed per
# slot, so every seed sends the same mix of costs.  Validation is cubic in
# the size, so the sizes are spread to put several requests of similar cost
# around the median and around the 90th percentile.
TABLES_CYCLE = (
    ("check", 24, "Z"), ("tensor", 0, "small"), ("quotient", 112, "Z"),
    ("corrupt", 40, ("Sat", "identity")), ("check", 62, "C"), ("tensor", 0, "coherence"),
    ("quotient", 62, "Sat"), ("check", 112, "ZxZ"), ("corrupt", 48, ("Sat", "diagonal")),
    ("tensor", 0, "small"), ("quotient", 58, "C"), ("check", 150, "Sat"),
    ("tensor", 0, "large"), ("corrupt", 100, ("Z", "off-diagonal")), ("quotient", 90, "ZxZ"),
    ("check", 90, "Z"), ("tensor", 0, "medium"), ("quotient", 100, "Sat"),
    ("corrupt", 150, ("C", "diagonal")), ("check", 108, "C"),
)

# Tensor inputs by cost class, with closed-form sizes Z/m (x) Z/n = Z/gcd(m, n)
# and |Sat_m (x) Sat_n| = C(m+n-2, m-1).  Coherence (symmetry of M, N and
# associativity of M, M, N) runs on small pairs only.
TENSOR_POOLS = {
    "small": [("Z", 2, n) for n in range(2, 6)] + [("Z", n, 2) for n in range(3, 6)]
    + [("Sat", m, n) for m in range(2, 8) for n in range(2, 8) if (m - 1) * (n - 1) <= 6],
    "medium": [("Z", 2, 6), ("Z", 2, 7), ("Z", 7, 2), ("Sat", 2, 9), ("Sat", 9, 2),
               ("Sat", 3, 5), ("Sat", 5, 3)],
    "large": [("Z", 2, 8), ("Z", 8, 2), ("Sat", 2, 11), ("Sat", 11, 2), ("Sat", 3, 6),
              ("Sat", 6, 3)],
    "coherence": [("Z", 2, n) for n in range(2, 6)]
    + [("Sat", 2, n) for n in range(2, 7)] + [("Sat", 3, 2)],
}


def _family_table(rng, family, n):
    """A member of the family with about n elements, and its description."""
    if family == "Z":
        return cyclic_group(n), ("Z", n)
    if family == "Sat":
        return saturating(n), ("Sat", n)
    if family == "C":
        i = rng.randrange(1, n)
        return cyclic_monoid(i, n - i), ("C", i, n - i)
    m = rng.randrange(2, 7)
    k = max(2, round(n / m))
    return group_product(m, k), ("ZxZ", m, k)


def _quotient_classes(desc, x, y):
    """Classes of the congruence generated by (x, y) on a family member."""
    kind = desc[0]
    if kind == "Z":
        n = desc[1]
        g = gcd(n, y - x)
        return [list(range(r, n, g)) for r in range(g)]
    if kind == "Sat":
        n = desc[1]
        lo, hi = min(x, y), max(x, y)
        return [[e] for e in range(lo)] + [list(range(lo, hi + 1))] + \
            [[e] for e in range(hi + 1, n)]
    if kind == "C":
        i, p = desc[1], desc[2]
        i2, p2 = nat_quotient([(i, i + p), (x, y)])
        buckets = {}
        for e in range(i + p):
            buckets.setdefault(project(i2, p2, e), []).append(e)
        return list(buckets.values())
    m, n = desc[1], desc[2]
    du, dv = (y // n - x // n) % m, (y % n - x % n) % n
    sub = {((t * du) % m, (t * dv) % n) for t in range(m * n)}
    seen, classes = set(), []
    for e in range(m * n):
        if e not in seen:
            c = sorted(((e // n + u) % m) * n + (e % n + v) % n for u, v in sub)
            seen.update(c)
            classes.append(c)
    return classes


def _tables_request(rng, kind, size, shape, spread):
    if kind == "tensor":
        fam, m, n = rng.choice(TENSOR_POOLS[shape])
        build = cyclic_group if fam == "Z" else saturating
        pm, pn = random_perm(rng, m), random_perm(rng, n)
        tm, tn = relabel(build(m), pm), relabel(build(n), pn)
        flags = ("--check-coherence",) if shape == "coherence" else ()
        size = gcd(m, n) if fam == "Z" else comb(m + n - 2, m - 1)
        expect = {"family": fam, "size": size, "perm_m": pm, "perm_n": pn,
                  "coherence": bool(flags)}
        return Request("tensor", m * n, argv=("tensor", "m.json", "n.json", "--json", *flags),
                       files=(("m.json", monoid_json(tm)), ("n.json", monoid_json(tn))),
                       expect=expect, key=("tensor", fam, tuple(pm), tuple(pn)))
    family, how = shape if kind == "corrupt" else (shape, None)
    table, desc = _family_table(rng, family, _jitter(rng, size, spread))
    n = len(table)
    perm = random_perm(rng, n)
    t = relabel(table, perm)
    if kind == "check":
        return Request("monoid-check", n, argv=("monoid-check", "m.json"),
                       files=(("m.json", monoid_json(t)),),
                       expect=f"valid commutative monoid with {n} elements\n",
                       key=("check", desc, tuple(perm)))
    if kind == "corrupt":
        if how == "identity":        # 0 + a != a
            a, b = 0, rng.randrange(1, n)
        elif how == "off-diagonal":  # a + b != b + a
            a, b = rng.sample(range(1, n), 2)
        else:                        # found only by the associativity scan
            a = b = rng.randrange(1, n)
        values = [v for v in range(n) if v != t[a][b]]
        rng.shuffle(values)
        if a == b:
            values = [v for v in values[:8] if breaks_associativity(t, a, v)]
            if not values:   # no cheap breaking value here: corrupt off the diagonal
                b = 1 + a % (n - 1)
                values = [v for v in range(n) if v != t[a][b]]
        v = values[0]
        t[a][b] = v
        return Request("monoid-check", n, argv=("monoid-check", "m.json"),
                       files=(("m.json", monoid_json(t)),), expect="", exit_code=1,
                       key=("corrupt", desc, tuple(perm), a, b, v))
    # quotient by one pair of distinct elements; on Sat_n the pair spans at
    # least half the chain, so the quotient table stays small
    if family == "Sat":
        x = rng.randrange(n // 2)
        y = rng.randrange(x + n // 2, n)
    else:
        x, y = sorted(rng.sample(range(n), 2))
    classes = [[perm[e] for e in c] for c in _quotient_classes(desc, x, y)]
    pair = [perm[x], perm[y]]
    rng.shuffle(pair)
    return Request("quotient", n, argv=("quotient", "m.json", *map(str, pair), "--json"),
                   files=(("m.json", monoid_json(t)),), expect=quotient_answer(t, classes),
                   key=("quotient", desc, tuple(perm), x, y))


# --- oracles ----------------------------------------------------------------

def oracle_tables():
    """Input tables of the oracles workload: every labeled monoid of size <= 4."""
    return [t for n in range(1, 5) for t in labeled_monoids(n)]


def least_congruence(table, seeds):
    """Partition generated by the seeds, by translating to a fixed point."""
    n = len(table)
    cls = list(range(n))
    todo = list(seeds)
    while todo:
        a, b = todo.pop()
        ca, cb = cls[a], cls[b]
        if ca == cb:
            continue
        lo, hi = min(ca, cb), max(ca, cb)
        cls = [lo if c == hi else c for c in cls]
        todo.extend((table[a][w], table[b][w]) for w in range(n))
    buckets = {}
    for e, c in enumerate(cls):
        buckets.setdefault(c, []).append(e)
    return sorted(buckets.values())


def oracle_checks(tables):
    """The oracle universe, one list per check family.

    Tensor checks (symmetry, associativity, adjunction) run over the labeled
    tables of size <= 3, congruence checks over size <= 4 with one or two
    seed pairs, and the footing check over generators 2..40.
    """
    small = [i for i, t in enumerate(tables) if len(t) <= 3]
    fam = {
        "sym": [("sym", i, j) for i in small for j in small],
        "assoc": [("assoc", i, j, k) for i in small for j in small for k in small],
        "adj": [("adj", i, j, k) for i in small for j in small for k in small],
        "closure": [],
        "footing": [("footing", a, b) for a in range(2, 41) for b in range(2, 41) if a != b],
    }
    for i, t in enumerate(tables):
        pairs = list(combinations(range(len(t)), 2))
        for r in (1, 2):
            for seeds in combinations(pairs, r):
                fam["closure"].append(("closure", i, [list(p) for p in seeds]))
    return fam


def _oracle_request(tables, check):
    name = check[0]
    if name == "closure":
        _, i, seeds = check
        expect = [least_congruence(tables[i], [tuple(s) for s in seeds]), True]
        size = len(tables[i])
    elif name == "footing":
        _, a, b = check
        f = footing_two(a, b)
        expect, size = [f, f], max(a, b)
    else:
        expect, size = True, sum(len(tables[i]) for i in check[1:])
    return Request(name, size, call=check, expect=expect, key=tuple(map(str, check)))


# --- streams ----------------------------------------------------------------

def requests(workload: str, seed: int, tables=None) -> Iterator[Request]:
    """The request stream of a workload: deterministic in the seed, no repeats.

    The naturals and tables streams cycle their slot lists without end.  The
    oracles stream is a seeded order of a finite universe of distinct checks
    in which every family keeps its share, and it ends when the universe is
    spent.
    """
    rng = random.Random(f"semimod-bench/{workload}/{seed}")
    if workload == "oracles":
        tables = oracle_tables() if tables is None else tables
        keyed = []
        for f, (name, checks) in enumerate(sorted(oracle_checks(tables).items())):
            rng.shuffle(checks)
            keyed += [((j + 0.5) / len(checks), f, c) for j, c in enumerate(checks)]
        for _, _, check in sorted(keyed, key=lambda x: x[:2]):
            yield _oracle_request(tables, check)
        return
    cycle, make = {"naturals": (NATURALS_CYCLE, _naturals_request),
                   "tables": (TABLES_CYCLE, _tables_request)}[workload]
    seen = set()
    while True:
        for pos, slot in enumerate(cycle):
            # Widen the jitter if the slot keeps drawing inputs already sent,
            # and skip it for this cycle if its inputs are used up.
            spread = 0.03
            for tries in range(1, 201):
                req = make(rng, *slot, spread)
                if req.key not in seen:
                    seen.add(req.key)
                    yield replace(req, slot=pos)
                    break
                if tries % 20 == 0:
                    spread *= 1.5


# --- answer checks ----------------------------------------------------------

_COEQ_HEAD = re.compile(r"coequalizer: C\(index=(\d+), period=(\d+)\), (\d+) classes")
_CERT_B = re.compile(r"certificate B \((\d+) chain steps\) verified: True")


def _coeq_text_table(lines):
    """Parse render_table output back into a table of class numbers."""
    def num(label):
        return int(label.lstrip("c").replace("\u0304", ""))
    header = lines[0].split()
    if header[:2] != ["+", "|"]:
        raise ValueError("bad header")
    cols = [num(x) for x in header[2:]]
    if set(lines[1]) != {"-"}:
        raise ValueError("bad rule")
    table = {}
    for line in lines[2:]:
        parts = line.split()
        if parts[1] != "|":
            raise ValueError("bad row")
        table[num(parts[0])] = dict(zip(cols, (num(x) for x in parts[2:])))
    size = len(cols)
    return [[table[a][b] for b in range(size)] for a in range(size)]


def _check_coeq(req, out):
    i, p = req.expect
    size = i + p
    want = [[project(i, p, a + b) for b in range(size)] for a in range(size)]
    if "--json" in req.argv:
        data = json.loads(out)
        if (data["index"], data["period"]) != (i, p):
            return "wrong (index, period)"
        if data["table"] != want:
            return "table differs from the projection formula"
        if data["certA"] is not True:
            return "certificate A not verified"
        ab = [int(x) for x in req.argv[1:3]]
        steps = [(u, v, tuple(s), k) for u, v, s, k in data["certB"]]
        if not replay_chain([(min(ab), max(ab))], i, p, steps):
            return "certificate B does not replay"
        return None
    lines = out.rstrip("\n").split("\n")
    m = _COEQ_HEAD.fullmatch(lines[0])
    if not m or tuple(map(int, m.groups())) != (i, p, size):
        return "wrong header"
    if _coeq_text_table(lines[1:-2]) != want:
        return "table differs from the projection formula"
    if lines[-2] != "certificate A verified: True" or not _CERT_B.fullmatch(lines[-1]):
        return "certificates not verified"
    return None


def _check_tensor(req, out):
    e = req.expect
    data = json.loads(out)
    table, bil = data["table"], data["bilinear"]
    size = e["size"]
    if data["size"] != size or len(table) != size:
        return f"tensor has {data['size']} elements, expected {size}"
    if e["coherence"] and not (data.get("symmetry") is True and data.get("associativity") is True):
        return "coherence isomorphisms not verified"
    pm, pn = e["perm_m"], e["perm_n"]
    m, n = len(pm), len(pn)
    if e["family"] == "Z":
        # T = Z/g generated by 1 (x) 1, with x (x) y = xy mod g times it
        gen = bil[pm[1]][pn[1]]
        mult = [0]
        for _ in range(size - 1):
            mult.append(table[mult[-1]][gen])
        if sorted(mult) != list(range(size)) or table[mult[-1]][gen] != 0:
            return "tensor is not cyclic of the expected order"
        for k in range(size):
            for l in range(size):
                if table[mult[k]][mult[l]] != mult[(k + l) % size]:
                    return "tensor table is not Z/g"
        for x in range(m):
            for y in range(n):
                if bil[pm[x]][pn[y]] != mult[(x * y) % size]:
                    return "pure tensors differ from xy mod g"
        return None
    # Sat_m (x) Sat_n: a semilattice, and the pure-tensor map is biadditive
    for x in range(size):
        if table[x][x] != x or table[0][x] != x:
            return "tensor of saturating monoids is not a semilattice"
        for y in range(size):
            if table[x][y] != table[y][x]:
                return "tensor table is not commutative"
    for x, x2, y in product(range(m), range(m), range(n)):
        if bil[pm[max(x, x2)]][pn[y]] != table[bil[pm[x]][pn[y]]][bil[pm[x2]][pn[y]]]:
            return "pure tensors are not additive on the left"
    for x, y, y2 in product(range(m), range(n), range(n)):
        if bil[pm[x]][pn[max(y, y2)]] != table[bil[pm[x]][pn[y]]][bil[pm[x]][pn[y2]]]:
            return "pure tensors are not additive on the right"
    if any(bil[0][y] or bil[x][0] for x in range(m) for y in range(n)):
        return "pure tensors with 0 are not 0"
    return None


def check_cli(req: Request, code: int, out: str, err: str) -> Optional[str]:
    """None when a CLI answer matches the known answer, else the reason."""
    if code != req.exit_code:
        return f"exit code {code}, expected {req.exit_code}: {err.strip()[:200]}"
    try:
        if req.kind == "monoid-check":
            if out != req.expect:
                return f"unexpected output {out[:80]!r}"
            if code == 1 and not err.startswith("invalid: "):
                return "rejection without a witness message"
            return None
        if req.kind == "semiideal":
            return None if json.loads(out) == req.expect else "semiideal invariants differ"
        if req.kind == "coeq":
            return _check_coeq(req, out)
        if req.kind == "quotient":
            return None if json.loads(out) == req.expect else "quotient differs"
        if req.kind == "tensor":
            return _check_tensor(req, out)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return f"unreadable output: {e!r}"
    raise ValueError(req.kind)


def check_natq(req: Request, index, period, cert_a, cert_b) -> Optional[str]:
    """None when a library quotient matches the closed form and replays."""
    i, p = req.expect
    if (index, period) != (i, p):
        return f"C({index},{period}), expected C({i},{p})"
    if cert_a is not True:
        return "certificate A not verified"
    if not replay_chain(req.call[1], i, p, cert_b):
        return "certificate B does not replay"
    return None
