"""Fuzz tests of the input boundary: the JSON loader, `validate_monoid`'s
rows and the CLI argv.

Whatever arrives, the loader returns a validated monoid or raises a
SemimodError, a table answers the same whether its rows are lists or bytes,
and `main` exits 0, 1 or 2, printing a message on stderr whenever it exits
nonzero; no other exception escapes.  A file loads as its parsed JSON
does, and `main` prints and exits as a full parse of every argv does.
"""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semimod import core
from semimod.cli import build_parser, main
from semimod.core import (
    BudgetExceeded,
    CyclicMonoid,
    FiniteCommMonoid,
    SemimodError,
    _product,
    cyclic_group,
    load_monoid,
    monoid_from_json,
    monoid_to_json,
    saturating_monoid,
    small_monoid_corpus,
    trivial_monoid,
    validate_monoid,
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=4),
    max_leaves=20)

# objects shaped like a monoid file, with any part of them possibly wrong
cells = st.integers(-1, 3) | json_values
monoid_like = st.fixed_dictionaries(
    {"add": st.lists(st.lists(cells, max_size=4), max_size=4) | json_values},
    optional={"size": st.integers(-1, 4) | json_values,
              "labels": st.lists(st.text(max_size=2) | json_values, max_size=4) | json_values})

any_json = json_values | monoid_like


@settings(max_examples=400, deadline=None)
@given(any_json)
@example({"size": 1, "add": [[[]]]})        # an unhashable entry
def test_loader_accepts_or_rejects(data):
    try:
        M = monoid_from_json(data)
    except SemimodError:
        return
    assert isinstance(M, FiniteCommMonoid)
    assert monoid_to_json(M)["add"] == data["add"]


# monoids of order <= 6 whose tables the corruptions below start from
MONOIDS = small_monoid_corpus(3) + [
    *(CyclicMonoid(i, n - i).to_monoid(labels=False) for n in range(4, 7) for i in range(n)),
    *(saturating_monoid(n) for n in range(4, 7)),
    _product([cyclic_group(2), cyclic_group(2)]), _product([cyclic_group(2), saturating_monoid(3)])]


@st.composite
def corrupted_tables(draw):
    """A monoid's table as lists of ints, with up to three cells rewritten to
    values in [0, 256): anywhere, in the identity's row or column, off the
    diagonal on one side only, or on the diagonal."""
    M = draw(st.sampled_from(MONOIDS))
    n = M.size
    table = [list(r) for r in M.add]
    kind = draw(st.sampled_from(["cells", "identity", "commutativity", "diagonal"]))
    where = {"cells": st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             "identity": st.integers(0, n - 1).flatmap(
                 lambda m: st.sampled_from([(0, m), (m, 0)])),
             "commutativity": st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                 lambda c: c[0] != c[1]),
             "diagonal": st.integers(0, n - 1).map(lambda a: (a, a))}[kind]
    for a, b in draw(st.lists(where, max_size=3)):
        table[a][b] = draw(st.integers(0, n - 1) | st.integers(n, 255))
    labels = draw(st.none() | st.just([f"m{a}" for a in range(n)]))
    return table, labels


def outcome(build, *args):
    """build(*args)'s monoid as (add, gens, labels), or its error's class and message."""
    try:
        M = build(*args)
    except SemimodError as e:
        return type(e), str(e)
    return M.add, M.gens, M.labels


@settings(max_examples=400, deadline=None)
@given(corrupted_tables(), st.data())
def test_bytes_rows_validate_as_lists(case, data):
    table, labels = case
    as_bytes = data.draw(st.lists(st.booleans(), min_size=len(table), max_size=len(table)))
    expected = outcome(validate_monoid, table, labels)
    assert outcome(validate_monoid, list(map(bytes, table)), labels) == expected
    mixed = [bytes(r) if b else r for r, b in zip(table, as_bytes)]
    assert outcome(validate_monoid, mixed, labels) == expected
    if not isinstance(expected[0], type):
        assert all(type(r) is tuple and all(type(v) is int for v in r) for r in expected[0])


def run_main(argv, entry=main):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = entry(argv)
        except SystemExit as e:     # argparse: usage errors and --help
            code = e.code
    return code, out.getvalue(), err.getvalue()


def check_exit(argv):
    code, _, err = run_main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code:
        assert err.strip(), argv


@pytest.fixture(scope="module")
def files():
    """Paths to valid, invalid and missing monoid files, and a directory."""
    with tempfile.TemporaryDirectory() as d:
        contents = {
            "trivial": monoid_to_json(trivial_monoid()),
            "z2": monoid_to_json(cyclic_group(2)),
            "z3": monoid_to_json(cyclic_group(3)),
            "sat3": monoid_to_json(saturating_monoid(3)),
            "not_assoc": {"size": 3, "add": [[0, 1, 2], [1, 0, 2], [2, 2, 1]]},
            "list": [[0, 1], [1, 0]],
        }
        paths = []
        for name, data in contents.items():
            path = os.path.join(d, name + ".json")
            with open(path, "w") as fh:
                json.dump(data, fh)
            paths.append(path)
        yield paths + [os.path.join(d, "missing.json"), d]


@settings(max_examples=200, deadline=None)
@given(data=any_json)
def test_cli_file_commands_on_any_json(data):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        check_exit(["monoid-check", path])
        check_exit(["quotient", path, "0", "1"])
        check_exit(["tensor", path, path])


# argv from the operating system never holds a NUL character
tokens = (st.integers(-3, 40).map(str)
          | st.sampled_from(["0", "1000", "999983", "1000003", "-1000", str(10**12), str(10**30),
                             "--json", "--naive", "--ascii", "--bound-cap", "--budget",
                             "--check-coherence", "-h", "--", "x", "", "1.5"])
          | st.text(st.characters(blacklist_characters="\x00"), max_size=6))


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["semiideal", "coeq", "quotient", "tensor", "monoid-check"]),
       args=st.lists(tokens | st.integers(0, 7), max_size=6))
@example(command="coeq", args=["0", "--", "--"])    # argparse leaves b = []
def test_cli_random_argv(files, command, args):
    check_exit([command] + [files[a] if isinstance(a, int) else a for a in args])


# --- a file loads as its parsed JSON does -----------------------------------

# tables of 255, 256 and 257 rows, on both sides of the byte-row limit
BIG = [cyclic_group(255), cyclic_group(256), CyclicMonoid(2, 254).to_monoid(labels=False),
       cyclic_group(257), CyclicMonoid(3, 254).to_monoid(labels=False)]


@st.composite
def monoid_texts(draw):
    """JSON text of a monoid file with up to three cells, a row, the labels or
    the size rewritten: to bools, floats (NaN among them), null, strings,
    entries in [n, 256), at least 256 or negative; or any JSON at all."""
    if draw(st.integers(0, 9)) == 0:
        return json.dumps(draw(any_json))
    M = draw(st.sampled_from(MONOIDS + BIG))
    n = M.size
    table = [list(r) for r in M.add]
    cell = (st.integers(0, n - 1) | st.integers(n, max(n, 255)) | st.integers(256, 300)
            | st.integers(-3, -1) | st.booleans() | st.floats() | st.none() | st.text(max_size=2))
    for _ in range(draw(st.integers(0, 3))):
        table[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(cell)
    if draw(st.integers(0, 9)) == 0:
        table[draw(st.integers(0, n - 1))] = draw(json_values)
    data = {"size": draw(st.just(n) | st.integers(-1, 300) | st.booleans()), "add": table}
    prefix = draw(st.sampled_from([None, "m", "t", "f"]))
    if prefix is not None:
        data["labels"] = [f"{prefix}{a}" for a in range(n)]
    return json.dumps(data)


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return str(tmp_path_factory.mktemp("load") / "m.json")


@settings(max_examples=150, deadline=None)
@given(text=monoid_texts())
@example(text='{"size": 2, "add": [[0, 1], [1, true]]}')
@example(text='{"size": 2, "add": [[0, 1], [1, NaN]]}')
@example(text='{"size": 2, "add": [[0, 1], [1, 1.0]]}')
@example(text='{"size": 2, "add": [[0, 1], [1, 2]]}')
@example(text='{"size": 2, "add": [[0, 1], [1, 256]]}')
@example(text='{"size": 2, "add": [[0, 1], [1, -1]]}')
@example(text='{"size": 3, "add": [[0, 1], [1, 0], 3]}')
def test_load_monoid_reads_a_file_as_its_parsed_json(scratch_file, text):
    with open(scratch_file, "w") as fh:
        fh.write(text)
    assert outcome(load_monoid, scratch_file) == outcome(monoid_from_json, json.loads(text))


@pytest.mark.parametrize("data, row_type", [
    (monoid_to_json(cyclic_group(5)), bytes),
    (monoid_to_json(cyclic_group(256)), bytes),
    ({"size": 3, "add": [[0, 1, 2], [1, 0, 2], [2, 2, 3]]}, bytes),   # an entry in [n, 256)
    ({"size": 2, "add": [[0, 1], [1, True]]}, list),
    ({"size": 2, "add": [[0, 1], [1, 0]], "labels": ["a", "t"]}, list),
    ({"size": 2, "add": [[0, 1], [1, 0]], "labels": ["a", "f"]}, list),
    ({"size": 2, "add": [[0, 1], [1, 0.0]]}, list),
    ({"size": 2, "add": [[0, 1], [1, 256]]}, list),
    (monoid_to_json(cyclic_group(257)), list),
])
def test_load_monoid_gives_byte_rows_only_to_bool_free_files(tmp_path, monkeypatch,
                                                            data, row_type):
    received = []

    def recording(table, labels=None):
        received.append({type(r) for r in table})
        return validate_monoid(table, labels)

    monkeypatch.setattr(core, "validate_monoid", recording)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    try:
        load_monoid(str(path))
    except SemimodError:
        pass
    assert received == [{row_type}]


# --- main answers as a full parse of every argv does ------------------------

def main_by_full_parse(argv=None) -> int:
    """`main` with every argv read by the full parser, the oracle of its dispatch."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 2
    except (SemimodError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["semiideal", "coeq", "quotient", "tensor", "monoid-check",
                                "coeqq", "-h", "--help", "--"]) | tokens,
       args=st.lists(tokens | st.integers(0, 7), max_size=6))
@example(command="coeq", args=["0", "--", "--"])
@example(command="coeq", args=["1", "2", "extra"])
@example(command="coeq", args=["1", "2", "--json", "--", "3"])
def test_main_answers_as_the_full_parser(files, command, args):
    argv = [command] + [files[a] if isinstance(a, int) else a for a in args]
    assert run_main(argv) == run_main(argv, main_by_full_parse), argv


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["coeq", "--help"], ["coeq", "--", "5", "3"],
    ["coeq", "1", "--js", "2"], ["coeqq", "1", "2"], ["coeq", "2", "3", "--json", "4"],
    ["semiideal"], ["verify", "nothing"], ["verify", "--help"],
])
def test_main_answers_as_the_full_parser_on_known_argv(argv):
    assert run_main(argv) == run_main(argv, main_by_full_parse)


@pytest.mark.parametrize("argv", [[], ["-h"], ["coeq", "2", "3", "--json"], ["coeqq", "1"],
                                  ["semiideal", "4", "6", "x"]])
def test_main_reads_sys_argv_by_default(monkeypatch, argv):
    monkeypatch.setattr(sys, "argv", ["semimod", *argv])
    assert run_main(None) == run_main(None, main_by_full_parse) == run_main(argv)
