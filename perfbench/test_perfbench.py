"""Self-tests of the benchmark: closed forms, request streams, failure accounting.

    python3 -m pytest perfbench -q

The closed forms in workloads.py are checked against small brute forces
written here, none of which uses semimod.
"""

import json
import shutil
import subprocess
import sys
from itertools import islice
from math import comb, gcd

import pytest

import run
import workloads as W

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# --- brute forces -------------------------------------------------------------

def brute_semiideal(gens):
    """(footing, minimal generators) by a membership table over the naturals."""
    d = 0
    for g in gens:
        d = gcd(d, g)
    scaled = sorted({g // d for g in gens})
    limit = scaled[0] * scaled[-1] + scaled[-1] + 2
    member = [True] + [False] * limit
    for k in range(1, limit + 1):
        member[k] = any(k >= g and member[k - g] for g in scaled)
    conductor = limit
    while conductor > 0 and member[conductor - 1]:
        conductor -= 1
    minimal = [k * d for k in range(1, scaled[-1] + 1) if member[k]
               and not any(member[x] and member[k - x] for x in range(1, k))]
    return max(conductor, 1) * d, minimal


def brute_nat_quotient(pairs):
    """(index, period) from the classes of 0..L under translated pairs."""
    top = 4 * max(max(p) for p in pairs) + 4
    parent = list(range(top + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        for k in range(top - max(a, b) + 1):
            parent[find(a + k)] = find(b + k)
    i = next(n for n in range(top) if any(find(n) == find(m) for m in range(n + 1, top)))
    p = next(q for q in range(1, top - i) if find(i) == find(i + q))
    return i, p


def brute_tensor_size(A, B):
    """|A (x) B|: exponent vectors over pure tensors modulo biadditivity."""
    def orbit(T, x):       # (index, period) of x, 2x, 3x, ...
        seen, cur, k = {}, 0, 0
        while True:
            k += 1
            cur = T[cur][x]
            if cur in seen:
                return seen[cur], k - seen[cur]
            seen[cur] = k

    gens = [(x, y) for x in range(1, len(A)) for y in range(1, len(B))]
    pos = {g: i for i, g in enumerate(gens)}
    rules = [orbit(A, x) for x, _ in gens]

    def reduce(v):
        return tuple(e if e < i + p else i + (e - i) % p for e, (i, p) in zip(v, rules))

    def unit(x, y):
        v = [0] * len(gens)
        if x and y:
            v[pos[(x, y)]] += 1
        return v

    rels = [(unit(x, y), unit(x2, y), unit(A[x][x2], y))
            for y in range(1, len(B)) for x in range(1, len(A)) for x2 in range(len(A))]
    rels += [(unit(x, y), unit(x, y2), unit(x, B[y][y2]))
             for x in range(1, len(A)) for y in range(1, len(B)) for y2 in range(len(B))]
    box = [()]
    for i, p in rules:
        box = [v + (e,) for v in box for e in range(i + p)]
    parent = {v: v for v in box}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for v in box:
        for u, w, s in rels:
            lhs = reduce([a + b + c for a, b, c in zip(v, u, w)])
            rhs = reduce([a + b for a, b in zip(v, s)])
            parent[find(lhs)] = find(rhs)
    return len({find(v) for v in box})


# --- closed forms -------------------------------------------------------------

def test_footing_two_generators_is_sylvester():
    for a in range(1, 31):
        for b in range(1, 31):
            assert W.footing_two(a, b) == brute_semiideal([a, b])[0], (a, b)


def test_footing_of_arithmetic_sequences_is_roberts():
    for a in range(2, 26):
        for k in range(1, min(a, 7)):
            for d in range(1, 9):
                if gcd(a, d) != 1:
                    continue
                for f in (1, 3):
                    gens = [f * (a + j * d) for j in range(k + 1)]
                    footing, minimal = brute_semiideal(gens)
                    assert W.footing_arith(a, d, k, f) == footing, (a, d, k, f)
                    assert minimal == gens


def test_nat_quotient_index_and_period():
    for pairs in ([(4, 6)], [(0, 5)], [(3, 10), (5, 9)], [(7, 7), (2, 14), (6, 9)],
                  [(12, 30), (20, 28), (9, 33)], [(1, 2)]):
        assert W.nat_quotient(pairs) == brute_nat_quotient(pairs), pairs
    assert W.nat_quotient([(3, 3)]) is None


def test_quotient_classes_match_the_least_congruence():
    for desc, table in ((("Z", 12), W.cyclic_group(12)), (("Sat", 7), W.saturating(7)),
                        (("C", 3, 4), W.cyclic_monoid(3, 4)), (("ZxZ", 2, 6), W.group_product(2, 6)),
                        (("ZxZ", 3, 4), W.group_product(3, 4))):
        n = len(table)
        assert W.is_monoid(table)
        for x in range(n):
            for y in range(x + 1, n):
                want = W.least_congruence(table, [(x, y)])
                assert sorted(W._quotient_classes(desc, x, y)) == want, (desc, x, y)


def test_tensor_sizes_match_brute_force():
    for m, n in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)):
        assert brute_tensor_size(W.cyclic_group(m), W.cyclic_group(n)) == gcd(m, n)
    for m in range(2, 5):
        for n in range(2, 5):
            assert brute_tensor_size(W.saturating(m), W.saturating(n)) == comb(m + n - 2, m - 1)


def test_diagonal_corruption_check_matches_brute_force():
    for table in (W.saturating(5), W.cyclic_monoid(2, 3), W.cyclic_group(5),
                  W.group_product(2, 3)):
        n = len(table)
        for a in range(1, n):
            for v in range(n):
                t = [row[:] for row in table]
                t[a][a] = v
                assert W.breaks_associativity(table, a, v) == (not W.is_monoid(t)), (a, v)


def test_labeled_monoid_counts():
    assert [len(W.labeled_monoids(n)) for n in range(1, 5)] == [1, 2, 9, 94]


# --- answer checks ------------------------------------------------------------

def test_coeq_answer_check_rejects_a_wrong_cell_or_chain():
    req = next(r for r in W.requests("naturals", 7) if "--json" in r.argv)
    a, b = sorted(int(x) for x in req.argv[1:3])
    table = [[W.project(a, b - a, x + y) for y in range(b)] for x in range(b)]
    answer = {"index": a, "period": b - a, "table": table, "certA": True,
              "certB": [[a, b, [a, b], 0]]}
    assert W.check_cli(req, 0, json.dumps(answer), "") is None
    table[1][2] = (table[1][2] + 1) % b
    assert W.check_cli(req, 0, json.dumps(answer), "") is not None
    table[1][2] = (table[1][2] - 1) % b
    answer["certB"] = [[a, b, [a, b], 1]]
    assert W.check_cli(req, 0, json.dumps(answer), "") is not None
    assert W.check_cli(req, 1, "", "error") is not None


# --- request streams ----------------------------------------------------------

@pytest.mark.parametrize("workload,count", [("naturals", 200), ("tables", 120), ("oracles", None)])
def test_streams_are_deterministic_and_never_repeat(workload, count):
    first = [r.to_json() for r in islice(W.requests(workload, 5), count)]
    again = [r.to_json() for r in islice(W.requests(workload, 5), count)]
    other = [r.to_json() for r in islice(W.requests(workload, 6), count)]
    assert first == again
    assert first != other
    sent = [json.dumps([r.argv, r.files, r.call]) for r in islice(W.requests(workload, 5), count)]
    assert len(set(sent)) == len(sent)


# --- the run as a whole -------------------------------------------------------

def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().split("\n")[-1])


def test_untraced_and_traced_runs_report_their_metrics(capsys):
    semimod = run.import_semimod()
    original = semimod.core.validate_monoid
    assert run.main(["--workload", "naturals", "--seed", "3", "--seconds", "3"]) == 0
    result = last_json(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 20
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert run.main(["--workload", "naturals", "--seed", "3", "--seconds", "1",
                     "--trace", "1"]) == 0
    result = last_json(capsys)
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["core.validate_monoid.cells"]["value"] > 0
    assert semimod.core.validate_monoid is original


def test_wrong_answers_count_as_failed_and_fail_the_run(capsys, monkeypatch):
    semimod = run.import_semimod()
    footing = semimod.semiideal.Semiideal.footing
    monkeypatch.setattr(semimod.semiideal.Semiideal, "footing", lambda self: footing(self) + 1)
    monkeypatch.setattr(run, "setup_seconds", lambda workload, seed: 0.1)   # keep the run short
    assert run.main(["--workload", "oracles", "--seed", "1", "--seconds", "1"]) == 1
    result = last_json(capsys)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    ok = result["metrics"]["ok_frac"]["value"]
    assert ok == pytest.approx(1 - result["failed"] / result["attempted"])


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "traces", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "naturals",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
