"""Fuzz tests of the input boundary: the JSON loader and the CLI argv.

Whatever arrives, the loader returns a validated monoid or raises a
SemimodError, and `main` exits 0, 1 or 2, printing a message on stderr
whenever it exits nonzero; no other exception escapes.
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
    FiniteCommMonoid,
    SemimodError,
    cyclic_group,
    monoid_from_json,
    monoid_to_json,
    saturating_monoid,
    trivial_monoid,
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
