import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semimod
from semimod import acceptance, semiideal
from semimod.cli import main, render_table
from semimod.congruence import enumerate_congruences, quotient
from semimod.core import monoid_to_json, small_monoid_corpus, validate_monoid
from semimod.natcoeq import CyclicMonoid, coequalizer_nat


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeq_renders_known_table(capsys):
    code, out, _ = run(capsys, "coeq", "4", "6")
    assert code == 0
    assert "C(index=4, period=2)" in out
    assert "certificate A verified: True" in out


def test_coeq_json(capsys):
    code, out, _ = run(capsys, "coeq", "4", "6", "--json")
    data = json.loads(out)
    assert data["index"] == 4 and data["period"] == 2
    assert data["table"][5][5] == 4 and data["table"][1][5] == 4
    assert data["certA"] is True and data["certB"]


def test_coeq_json_for_equal_multipliers_is_the_library_json(capsys):
    code, out, _ = run(capsys, "coeq", "3", "3", "--json")
    assert code == 0
    assert out == json.dumps(coequalizer_nat(3, 3).to_json()) + "\n"


def test_coeq_naive(capsys):
    code, out, _ = run(capsys, "coeq", "4", "6", "--naive", "--json")
    assert code == 0
    assert len(json.loads(out)["naive_classes"]) == 2


def test_coeq_bound_cap_exit_2(capsys, monkeypatch):
    # SEMIMOD_BUDGET also caps the largest number the merge chain touches
    monkeypatch.setenv("SEMIMOD_BUDGET", "12")
    code, out, err = run(capsys, "coeq", "10", "30")
    assert (code, out, err) == (2, "", "budget exceeded: certificate B reach: 30 exceeds budget 12\n")


def test_coeq_negative_bound_cap_exit_1(capsys, monkeypatch):
    monkeypatch.setenv("SEMIMOD_BUDGET", "-1")
    for a in ("5", "0"):            # also when the multipliers are equal
        code, out, err = run(capsys, "coeq", "0", a)
        assert (code, out, err) == (1, "", "error: budget -1 is negative\n")
    monkeypatch.setenv("SEMIMOD_BUDGET", "0")
    code, out, err = run(capsys, "coeq", "0", "5")
    assert (code, out, err) == (2, "", "budget exceeded: certificate B reach: 5 exceeds budget 0\n")


def test_coeq_takes_no_bound_cap_option(capsys):
    with pytest.raises(SystemExit) as e:
        main(["coeq", "4", "6", "--bound-cap", "12"])
    assert e.value.code == 1
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments: --bound-cap 12" in out.err


def test_internal_key_errors_are_not_reported_as_input_errors(monkeypatch):
    def broken(self):
        raise KeyError("internal")
    monkeypatch.setattr(semiideal.Semiideal, "to_json", broken)
    with pytest.raises(KeyError):
        main(["semiideal", "3", "5"])


def test_coeq_naive_text(capsys):
    code, out, err = run(capsys, "coeq", "4", "6", "--naive")
    assert (code, err) == (0, "")
    assert out == ("one-step relation census on 0..20: 2 classes\n"
                   "  [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20]\n"
                   "  [1, 3, 5, 7, 9, 11, 13, 15, 17, 19]\n")


def test_coeq_naive_answers_what_the_witness_budget_refused(capsys):
    # both once exited 2: the witness search exceeded the default budget
    code, out, err = run(capsys, "coeq", "4", "60", "--naive", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"naive_classes": [[m] for m in range(21)]}
    code, out, err = run(capsys, "coeq", "3", "2000", "--naive")
    assert (code, err) == (0, "")
    assert out == ("one-step relation census on 0..20: 21 classes\n"
                   + "".join(f"  [{m}]\n" for m in range(21)))


def test_main_keeps_no_state_between_calls(capsys):
    code, out, _ = run(capsys, "semiideal", "3", "5", "--json")
    assert code == 0 and json.loads(out)["footing"] == 8
    code, out, _ = run(capsys, "semiideal", "3", "5")
    assert code == 0 and out.startswith("generators         [3, 5]")


def test_semiideal(capsys):
    code, out, _ = run(capsys, "semiideal", "3", "5", "--json")
    data = json.loads(out)
    assert data["period"] == 1 and data["footing"] == 8
    assert data["minimal_generators"] == [3, 5]
    assert data["cyclic"] is False


def test_semiideal_empty_is_error(capsys):
    code, _, err = run(capsys, "semiideal", "0")
    assert code == 1


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_semiideal_empty_names_the_zero_ideal(capsys, flags):
    code, out, err = run(capsys, "semiideal", "0", "0", *flags)
    assert (code, out) == (1, "")
    assert err == "error: the zero semiideal has no period or footing\n"


def test_monoid_check_valid(tmp_path, capsys):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(monoid_to_json(validate_monoid([[0, 1], [1, 0]]))))
    code, out, _ = run(capsys, "monoid-check", str(p))
    assert code == 0


def test_monoid_check_invalid_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"size": 3, "add": [[0, 1, 2], [1, 0, 2], [2, 2, 1]]}))
    code, _, err = run(capsys, "monoid-check", str(p))
    assert code == 1
    assert "invalid" in err


@pytest.mark.parametrize("command", ["monoid-check", "quotient", "tensor"])
def test_duplicate_labels_exit_1(tmp_path, capsys, command):
    # a quotient would print {a} for both rows, and its table would be ambiguous
    p = tmp_path / "dup.json"
    p.write_text(json.dumps({"size": 2, "add": [[0, 1], [1, 0]], "labels": ["a", "a"]}))
    argv = {"monoid-check": [str(p)], "quotient": [str(p)], "tensor": [str(p), str(p)]}[command]
    code, out, err = run(capsys, command, *argv)
    assert (code, out) == (1, "")
    assert err.strip().endswith("labels must be distinct")


def test_quotient_command(tmp_path, capsys):
    from semimod.natcoeq import CyclicMonoid
    p = tmp_path / "c42.json"
    p.write_text(json.dumps(monoid_to_json(CyclicMonoid(4, 2).to_monoid(labels=False))))
    code, out, _ = run(capsys, "quotient", str(p), "4", "5", "--json")
    data = json.loads(out)
    assert len(data["classes"]) == 5


def test_quotient_class_labels_stay_distinct(tmp_path, capsys):
    # Sat4 labelled 0, a, b, "a,b" modulo 1 ~ 2: the classes of {a, b} and
    # of {"a,b"} must not both read {a,b}, or the output is no monoid file
    p, q = tmp_path / "sat4.json", tmp_path / "q.json"
    p.write_text(json.dumps({"size": 4, "add": [[max(a, b) for b in range(4)] for a in range(4)],
                             "labels": ["0", "a", "b", "a,b"]}))
    code, out, _ = run(capsys, "quotient", str(p), "1", "2", "--json")
    Q = json.loads(out)["quotient"]
    assert code == 0 and Q["labels"] == ["{0}", "{a,b}", "{a\\,b}"]
    q.write_text(json.dumps(Q))
    assert run(capsys, "monoid-check", str(q))[0] == 0


def test_tensor_command(tmp_path, capsys):
    p2 = tmp_path / "z2.json"
    p3 = tmp_path / "z3.json"
    from semimod.core import cyclic_group
    p2.write_text(json.dumps(monoid_to_json(cyclic_group(2))))
    p3.write_text(json.dumps(monoid_to_json(cyclic_group(3))))
    code, out, _ = run(capsys, "tensor", str(p2), str(p3), "--json")
    data = json.loads(out)
    assert data["size"] == 1
    code, out, _ = run(capsys, "tensor", str(p2), str(p2), "--json", "--check-coherence")
    data = json.loads(out)
    assert data["size"] == 2 and data["symmetry"] and data["associativity"]


Z2_TENSOR_Z2_TEXT = """\
tensor product has 2 elements
  + | c0 c1
-----------
 c0 | c0 c1
 c1 | c1 c0
pure tensors (m,n) -> class:
  [0, 0]
  [0, 1]
"""


def test_tensor_text(tmp_path, capsys):
    from semimod.core import cyclic_group
    p = tmp_path / "z2.json"
    p.write_text(json.dumps(monoid_to_json(cyclic_group(2))))
    assert run(capsys, "tensor", str(p), str(p)) == (0, Z2_TENSOR_Z2_TEXT, "")
    assert run(capsys, "tensor", str(p), str(p), "--check-coherence") == (
        0, Z2_TENSOR_Z2_TEXT + "symmetry iso verified: True\n"
                               "associativity iso verified: True\n", "")


def test_tensor_past_the_power_table(tmp_path, capsys):
    # the power Sat6^5 has a 6^10-cell table, over the default budget;
    # its 5 * 5 * 6^5 generator-row cells and 252^2 quotient cells are not
    from semimod.core import saturating_monoid
    p = tmp_path / "sat6.json"
    p.write_text(json.dumps(monoid_to_json(saturating_monoid(6))))
    code, out, _ = run(capsys, "tensor", str(p), str(p), "--json")
    assert code == 0 and json.loads(out)["size"] == 252


def test_tensor_budget_exit_2(tmp_path, capsys):
    from semimod.core import cyclic_group
    p = tmp_path / "z4.json"
    p.write_text(json.dumps(monoid_to_json(cyclic_group(4))))
    code, _, err = run(capsys, "tensor", str(p), str(p), "--budget", "2")
    assert code == 2


def render_table_by_cells(M, ascii_labels=False):
    """Reference rendering: each label padded once, and written cell by cell."""
    if ascii_labels or M.labels is None:
        labels = [f"c{m}" if ascii_labels else str(m) for m in M.elements()]
    else:
        labels = list(M.labels)
    width = max(len(l) for l in labels) + 1
    padded = [l.rjust(width) for l in labels]
    lines = ["+".rjust(width) + " |" + "".join(padded)]
    lines.append("-" * len(lines[0]))
    for a in M.elements():
        row = padded[a] + " |"
        row += "".join([padded[v] for v in M.add[a]])
        lines.append(row)
    return "\n".join(lines)


def render_cases():
    """corpus(3) plain and labelled, the labelled quotients of those and of C(2, 4),
    and C(i, p) up to 120 elements: every split of i + p <= 40, three of each larger size."""
    labelled = [validate_monoid(M.add, [f"m{a}" for a in M.elements()])
                for M in small_monoid_corpus(3) + [CyclicMonoid(2, 4).to_monoid()]]
    yield from small_monoid_corpus(3)
    for L in labelled:
        yield L
        for C in enumerate_congruences(L):
            yield quotient(L, C)[0]
    for size in range(1, 121):
        for i in range(size) if size <= 40 else sorted({0, size // 3, size - 1}):
            yield CyclicMonoid(i, size - i).to_monoid()


def test_render_table_matches_the_cell_by_cell_rendering():
    cases = 0
    for M in render_cases():
        for ascii_labels in (False, True):
            assert render_table(M, ascii_labels) == render_table_by_cells(M, ascii_labels)
        cases += 1
    assert cases > 1000


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 119).flatmap(lambda i: st.tuples(st.just(i), st.integers(1, 120 - i))),
       st.booleans())
def test_render_table_matches_on_cyclic_monoids_up_to_120(ip, ascii_labels):
    """Any C(i, p) with i + p <= 120; rendering every one of those 7,260 tables
    by cells takes about 10 s, so the grid is sampled past `render_cases`."""
    M = CyclicMonoid(*ip).to_monoid()
    assert render_table(M, ascii_labels) == render_table_by_cells(M, ascii_labels)


def test_coeq_text_renders_the_table(capsys):
    for argv in (("coeq", "7", "95"), ("coeq", "95", "7", "--ascii"), ("coeq", "0", "1")):
        code, out, _ = run(capsys, *argv)
        c = CyclicMonoid(7, 88) if argv[1] != "0" else CyclicMonoid(0, 1)
        want = render_table_by_cells(c.to_monoid(), ascii_labels="--ascii" in argv)
        assert code == 0 and out.splitlines()[1:-2] == want.splitlines()


def coeq_text_by_cells(q, M, ascii_labels):
    """`coeq` text output for q, with M, the monoid of q's C(i, p), rendered cell by cell."""
    c = q.result
    return (f"coequalizer: C(index={c.index}, period={c.period}), {c.size} classes\n"
            f"{render_table_by_cells(M, ascii_labels)}\n"
            f"certificate A verified: {q.verify_certificate_a()}\n"
            f"certificate B ({len(q.cert_b)} chain steps) verified: {q.verify_certificate_b()}\n")


@pytest.mark.parametrize("a", range(121))
def test_coeq_prints_the_library_json_and_the_cell_by_cell_table(capsys, a):
    """`coeq a b` and `coeq b a` for every b in a..120, in text, --ascii and
    --json; both orders give the same quotient, so each oracle runs once."""
    for b in range(a, 121):
        q = coequalizer_nat(a, b)
        want = {("--json",): json.dumps(q.to_json()) + "\n"}
        if q.is_symbolic_nat:
            want[()] = want[("--ascii",)] = "coequalizer: N0 (identity)\n"
        else:
            M = q.result.to_monoid()
            want[()] = coeq_text_by_cells(q, M, False)
            want[("--ascii",)] = coeq_text_by_cells(q, M, True)
        for argv in {(str(a), str(b)), (str(b), str(a))}:
            for flags, out in want.items():
                assert run(capsys, "coeq", *argv, *flags) == (0, out, "")


def test_json_round_trip_through_cli(tmp_path, capsys):
    code, out, _ = run(capsys, "coeq", "4", "6", "--json")
    table = json.loads(out)["table"]
    p = tmp_path / "q.json"
    p.write_text(json.dumps({"size": len(table), "add": table}))
    code, out, _ = run(capsys, "monoid-check", str(p))
    assert code == 0


def test_determinism(capsys):
    runs = {run(capsys, "coeq", "4", "6", "--json")[1] for _ in range(3)}
    assert len(runs) == 1


def stub_criteria(monkeypatch, failing=()):
    """Replace the registry's checks by stubs that record their calls."""
    ran = []

    def stub(name):
        return lambda: ran.append(name) or name not in failing

    monkeypatch.setattr(acceptance, "CRITERIA",
                        {name: stub(name) for name in acceptance.CRITERIA})
    return ran


# the checks themselves run in tests/test_acceptance.py; these tests cover
# how verify runs them
@pytest.mark.parametrize("suite", ["reference-tables", "oracles", "coherence"])
def test_verify_suites(capsys, monkeypatch, suite):
    numbers = {name: i for i, name in enumerate(acceptance.CRITERIA, 1)}
    ran = stub_criteria(monkeypatch)
    code, out, _ = run(capsys, "verify", suite)
    assert code == 0
    assert "all checks passed" in out
    assert ran == list(acceptance.SUITES[suite])
    for name in ran:
        assert f"[ok] criterion {numbers[name]:02d} {name}" in out


def test_verify_reports_a_failing_criterion(capsys, monkeypatch):
    name = acceptance.SUITES["oracles"][1]
    number = list(acceptance.CRITERIA).index(name) + 1
    ran = stub_criteria(monkeypatch, failing={name})
    code, out, err = run(capsys, "verify", "oracles")
    assert code == 1
    assert ran == list(acceptance.SUITES["oracles"])
    assert f"[FAIL] criterion {number:02d} {name}" in out
    assert "1 check(s) failed" in err and "all checks passed" not in out


@pytest.mark.parametrize("data", [
    {"size": 4, "add": "0110"},
    {"size": 2, "add": 7},
    {"size": 2, "add": [[0, 1], 5]},
    {"size": 2, "add": [[0, 1], [1, "0"]]},
    {"size": 2, "add": [[0, 1], [1, 0.0]]},
    {"size": 2, "add": [[0, 1], [1, False]]},
    {"size": 2, "add": [[0, 1], [1, 0]], "labels": [0, 1]},
    {"size": 3, "add": [[0, 1], [1, 0]]},
    {"add": [[0, 1], [1, 0]]},
    [[0, 1], [1, 0]],
])
@pytest.mark.parametrize("command", ["monoid-check", "quotient", "tensor"])
def test_malformed_table_exits_1(tmp_path, capsys, command, data):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(data))
    argv = {"monoid-check": [str(p)], "quotient": [str(p), "0", "1"],
            "tensor": [str(p), str(p)]}[command]
    code, _, err = run(capsys, command, *argv)
    assert code == 1
    assert err.strip()
    if command == "monoid-check":
        assert err.startswith("invalid: ")


# past the interpreter's limits: json.loads raises RecursionError on deep
# nesting and a plain ValueError on an integer of too many digits
LIMIT_TEXTS = {
    "deep": "[" * 5000,
    "long-int": '{"size": 2, "add": [[0, 1], [1, ' + "9" * 5000 + "]]}",
}


@pytest.mark.parametrize("text", LIMIT_TEXTS.values(), ids=LIMIT_TEXTS.keys())
@pytest.mark.parametrize("command", ["monoid-check", "quotient", "tensor"])
def test_file_past_the_decoders_limits_exits_1(tmp_path, capsys, command, text):
    p = tmp_path / "m.json"
    p.write_text(text)
    argv = {"monoid-check": [str(p)], "quotient": [str(p), "0", "1"],
            "tensor": [str(p), str(p)]}[command]
    code, out, err = run(capsys, command, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "cannot decode" in err and "Traceback" not in err


# values that decode, so that validation echoes them: an entry of 4,000 digits
# (under int()'s limit) and an entry nested 900 deep (under the recursion limit)
LONG_VALUE_TEXTS = {
    "4000-digits": '{"size": 2, "add": [[0, 1], [1, ' + "9" * 4000 + "]]}",
    "900-deep": '{"size": 2, "add": [[0, 1], [1, ' + "[" * 900 + "]" * 900 + "]]}",
}


def long_value_argvs(tmp_path):
    """monoid-check, quotient and tensor on each long-value file, and quotient
    of Z/3 by a pair with a 4,000-digit entry."""
    z3 = tmp_path / "z3.json"
    z3.write_text(json.dumps(monoid_to_json(validate_monoid([[0, 1, 2], [1, 2, 0], [2, 0, 1]]))))
    argvs = [["quotient", str(z3), "0", "9" * 4000]]
    for name, text in LONG_VALUE_TEXTS.items():
        p = tmp_path / f"{name}.json"
        p.write_text(text)
        argvs += [["monoid-check", str(p)], ["quotient", str(p), "0", "1"],
                  ["tensor", str(p), str(p)]]
    return argvs


def test_long_values_are_echoed_short(tmp_path, capsys):
    for argv in long_value_argvs(tmp_path):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "Traceback" not in err, argv[0]
        assert err.count("\n") == 1 and len(err.encode()) < 300, (argv[0], len(err))
        assert "is not" in err and ("99..." in err or "[[[[..." in err), err


def test_long_values_are_echoed_short_through_the_module(tmp_path):
    src = str(Path(semimod.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    argvs = long_value_argvs(tmp_path)
    for argv in (argvs[0], argvs[1], argvs[4]):   # quotient by a long pair, monoid-check of each
        done = subprocess.run([sys.executable, "-m", "semimod.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 1 and done.stdout == "", argv[0]
        assert "Traceback" not in done.stderr and len(done.stderr.encode()) < 300, done.stderr


def too_long_argvs(tmp_path):
    """Each argv with its exit code: integer arguments past int()'s digit limit
    (exit 1, refused by the parser), a negative budget of 4,000 digits (exit
    1), and naturals of 4,000 digits over the default budget (exit 2)."""
    z3 = tmp_path / "z3.json"
    z3.write_text(json.dumps(monoid_to_json(validate_monoid([[0, 1, 2], [1, 2, 0], [2, 0, 1]]))))
    d5, d4 = "9" * 5000, "9" * 4000
    return [(["coeq", d5, "3"], 1), (["semiideal", d5], 1), (["quotient", str(z3), "0", d5], 1),
            (["tensor", "x.json", "y.json", "--budget", d5], 1),
            (["tensor", str(z3), str(z3), "--budget", "-" + d4], 1),
            (["coeq", "0", d4], 2), (["semiideal", d4[:-1] + "8", d4], 2)]


def test_too_long_integer_arguments_are_echoed_short(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SEMIMOD_BUDGET", raising=False)
    for argv, expected in too_long_argvs(tmp_path):
        try:
            code, out, err = run(capsys, *argv)
        except SystemExit as e:
            code, err = e.code, capsys.readouterr().err
        assert code == expected and "Traceback" not in err, argv[0]
        assert 0 < len(err.encode()) <= 300, (argv[0], len(err.encode()))


def test_too_long_integer_arguments_are_echoed_short_through_the_module(tmp_path):
    src = str(Path(semimod.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    env.pop("SEMIMOD_BUDGET", None)
    for argv, expected in too_long_argvs(tmp_path):
        done = subprocess.run([sys.executable, "-m", "semimod.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == expected and done.stdout == "", argv[0]
        assert "Traceback" not in done.stderr, argv[0]
        assert 0 < len(done.stderr.encode()) <= 300, (argv[0], len(done.stderr.encode()))


def refusal_argvs(tmp_path):
    """Each argv with a phrase of its one-line refusal: a file of invalid JSON
    (after a good file under tensor, so the message must name the bad one), a
    5,000-character file name, suite, command, trailing argument and option."""
    good, bad = tmp_path / "z3.json", tmp_path / "bad.json"
    good.write_text(json.dumps(monoid_to_json(validate_monoid([[0, 1, 2], [1, 2, 0], [2, 0, 1]]))))
    bad.write_text("[")
    token = "x" * 5000
    return [(["monoid-check", str(bad)], "cannot decode"),
            (["quotient", str(bad), "0", "1"], "cannot decode"),
            (["tensor", str(good), str(bad)], "cannot decode"),
            (["monoid-check", token], "File name too long"),
            (["quotient", token, "0", "1"], "File name too long"),
            (["tensor", token, token], "File name too long"),
            (["verify", token], "invalid choice"),
            ([token, "1"], "invalid choice"),
            (["coeq", "1", "2", token], "unrecognized arguments"),
            (["semiideal", "3", "--" + token], "unrecognized arguments")]


def assert_one_short_refusal(argv, phrase, code, err):
    """Exit 1 and one line of at most 300 bytes after any usage line, no traceback."""
    assert code == 1 and "Traceback" not in err, argv[0][:20]
    assert len(err.encode()) <= 300, (argv[0][:20], len(err.encode()))
    *usage, line = err.splitlines()
    assert len(usage) <= 1 and all(u.startswith("usage: ") for u in usage), err
    assert phrase in line, err
    if argv[-1].endswith("bad.json"):
        assert "bad.json" in line and "z3.json" not in line, err


def test_refusals_are_one_short_line(tmp_path, capsys):
    for argv, phrase in refusal_argvs(tmp_path):
        try:
            code, out, err = run(capsys, *argv)
        except SystemExit as e:
            code, out, err = e.code, *capsys.readouterr()
        assert out == ""
        assert_one_short_refusal(argv, phrase, code, err)


def test_refusals_are_one_short_line_through_the_module(tmp_path):
    src = str(Path(semimod.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    for argv, phrase in refusal_argvs(tmp_path):
        done = subprocess.run([sys.executable, "-m", "semimod.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.stdout == ""
        assert_one_short_refusal(argv, phrase, done.returncode, done.stderr)


def test_undecodable_file_exits_1(tmp_path, capsys):
    p = tmp_path / "m.json"
    p.write_bytes(b"\xff\xfe{")
    code, _, err = run(capsys, "monoid-check", str(p))
    assert code == 1 and err.strip()


def test_quotient_odd_pair_list_exits_1(tmp_path, capsys):
    p = tmp_path / "z2.json"
    p.write_text(json.dumps(monoid_to_json(validate_monoid([[0, 1], [1, 0]]))))
    code, _, err = run(capsys, "quotient", str(p), "0", "1", "1")
    assert code == 1
    assert "pairs" in err


def test_tensor_budget_zero_exits_2(tmp_path, capsys):
    p = tmp_path / "z2.json"
    p.write_text(json.dumps(monoid_to_json(validate_monoid([[0, 1], [1, 0]]))))
    code, _, _ = run(capsys, "tensor", str(p), str(p), "--budget", "0")
    assert code == 2


def test_tensor_negative_budget_exits_1(tmp_path, capsys, monkeypatch):
    p = tmp_path / "z2.json"
    p.write_text(json.dumps(monoid_to_json(validate_monoid([[0, 1], [1, 0]]))))
    code, _, err = run(capsys, "tensor", str(p), str(p), "--budget", "-1")
    assert code == 1 and "negative" in err
    monkeypatch.setenv("SEMIMOD_BUDGET", "lots")
    code, _, err = run(capsys, "tensor", str(p), str(p))
    assert code == 1 and "SEMIMOD_BUDGET" in err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as e:
        main(["coeq", "x"])
    assert e.value.code == 1
    assert "usage: semimod coeq" in capsys.readouterr().err


@pytest.mark.parametrize("argv, limit", [
    (("semiideal", "100003", "100019"), "100"),
    (("semiideal", "4", "6"), "3"),
    (("coeq", "0", "100000"), "100"),
    (("coeq", "4", "6", "--json"), "35"),
])
def test_naturals_budget_exit_2(capsys, monkeypatch, argv, limit):
    monkeypatch.setenv("SEMIMOD_BUDGET", limit)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "budget" in err


def test_naturals_within_budget(capsys, monkeypatch):
    monkeypatch.setenv("SEMIMOD_BUDGET", "36")
    assert run(capsys, "coeq", "4", "6", "--json")[0] == 0
    monkeypatch.setenv("SEMIMOD_BUDGET", "4")
    code, out, _ = run(capsys, "semiideal", "4", "6", "--json")
    assert code == 0 and json.loads(out)["footing"] == 4
