"""Fuzz tests of the input boundary: the JSON loader, `validate_monoid`'s
rows and the CLI argv.

Whatever arrives, the loader returns a validated monoid or raises a
SemimodError, a table answers the same whether its rows are lists or bytes,
and `main` exits 0, 1 or 2, printing a message on stderr whenever it exits
nonzero; no other exception escapes.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semimod.cli import main
from semimod.core import (
    CyclicMonoid,
    FiniteCommMonoid,
    SemimodError,
    _product,
    cyclic_group,
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


def validation_outcome(table, labels):
    try:
        M = validate_monoid(table, labels)
    except SemimodError as e:
        return type(e), str(e)
    return M.add, M.gens, M.labels


@settings(max_examples=400, deadline=None)
@given(corrupted_tables(), st.data())
def test_bytes_rows_validate_as_lists(case, data):
    table, labels = case
    as_bytes = data.draw(st.lists(st.booleans(), min_size=len(table), max_size=len(table)))
    outcome = validation_outcome(table, labels)
    assert validation_outcome(list(map(bytes, table)), labels) == outcome
    mixed = [bytes(r) if b else r for r, b in zip(table, as_bytes)]
    assert validation_outcome(mixed, labels) == outcome
    if not isinstance(outcome[0], type):
        assert all(type(r) is tuple and all(type(v) is int for v in r) for r in outcome[0])


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
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
