"""Command-line interface.

Commands: semiideal, coeq, quotient, tensor, monoid-check, verify.
Exit codes: 0 success, 1 input/validation error, 2 budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import Callable, Optional

from . import acceptance, natcoeq, semiideal, tensor
from . import congruence as cg
from .core import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    FiniteCommMonoid,
    SemimodError,
    _echo,
    load_monoid,
    monoid_to_json,
)


def _budget(args) -> int:
    budget = getattr(args, "budget", None)
    if budget is None:
        env = os.environ.get("SEMIMOD_BUDGET")
        if not env:
            return DEFAULT_BUDGET
        try:
            budget = int(env)
        except ValueError:
            raise SemimodError(f"SEMIMOD_BUDGET={_echo(env)} is not an integer") from None
    if budget < 0:
        raise SemimodError(f"budget {_echo(budget)} is negative")
    return budget


def render_table(M: FiniteCommMonoid, ascii_labels: bool = False,
                 join_rows: Optional[Callable[[list[str]], list[str]]] = None) -> str:
    """The addition table as text, every label right-aligned in one column width.

    join_rows(cells), given the padded label of each element, returns row
    a's cells joined for every row a of M's table; by default each row is
    joined cell by cell.
    """
    if ascii_labels or M.labels is None:
        labels = [f"c{m}" if ascii_labels else str(m) for m in M.elements()]
    else:
        labels = list(M.labels)
    width = max(len(l) for l in labels) + 1
    cell = [l.rjust(width) for l in labels]
    if join_rows is None:
        bodies = ["".join(map(cell.__getitem__, row)) for row in M.add]
    else:
        bodies = join_rows(cell)
    head = "+".rjust(width) + " |" + "".join(cell)
    # one join over the pieces, so no row is copied into a line of its own
    parts = [head, "\n", "-" * len(head)]
    for c, body in zip(cell, bodies):
        parts += "\n", c, " |", body
    return "".join(parts)


def cmd_semiideal(args) -> int:
    M = semiideal.Semiideal(args.generators, budget=_budget(args))
    info = M.to_json()
    info["quotient"] = f"Z/{M.period()}"
    if args.json:
        print(json.dumps(info))
    else:
        print(f"generators         {list(M.generators)}")
        print(f"period             {info['period']}")
        print(f"footing            {info['footing']}")
        print(f"periodic core      {{{info['footing']} + n*{info['period']}}} u {{0}}")
        print(f"minimal generators {info['minimal_generators']}")
        print(f"cyclic             {info['cyclic']}")
        print(f"quotient           Z/{info['period']}")
    return 0


def cmd_coeq(args) -> int:
    if args.naive:
        classes = natcoeq.naive_nat_classes(args.a, args.b, probe_limit=20)
        if args.json:
            print(json.dumps({"naive_classes": classes}))
        else:
            print(f"one-step relation census on 0..20: {len(classes)} classes")
            for c in classes:
                print(" ", c)
        return 0
    budget = _budget(args)
    q = natcoeq.coequalizer_nat(args.a, args.b, bound_cap=budget)
    if q.is_symbolic_nat:
        print(json.dumps(q.to_json()) if args.json else "coequalizer: N0 (identity)")
        return 0
    if (cells := q.result.size ** 2) > budget:
        raise BudgetExceeded("coeq table cells", cells, budget)
    c = q.result
    if args.json:
        # the bytes of json.dumps(q.to_json()): one encoding with a null table,
        # whose first '"table": null' (after two ints) takes the joined rows
        head, tail = json.dumps(q._json_fields(None)).split('"table": null', 1)
        rows = "], [".join(c.joined_rows(list(map(str, range(c.size))), ", "))
        print(f'{head}"table": [[{rows}]]{tail}')
    else:
        print(f"coequalizer: C(index={c.index}, period={c.period}), {c.size} classes")
        print(render_table(c.to_monoid(), args.ascii, c.joined_rows))
        print(f"certificate A verified: {q.verify_certificate_a()}")
        print(f"certificate B ({len(q.cert_b)} chain steps) verified: "
              f"{q.verify_certificate_b()}")
    return 0


def cmd_quotient(args) -> int:
    if len(args.pairs) % 2:
        raise SemimodError(f"pairs come as a flat list a1 b1 a2 b2 ..., "
                           f"got {len(args.pairs)} numbers")
    M = load_monoid(args.monoid)
    pairs = [(args.pairs[i], args.pairs[i + 1]) for i in range(0, len(args.pairs), 2)]
    C = cg.congruence_closure(M, pairs)
    Q, nu = cg.quotient(M, C)
    if args.json:
        print(json.dumps({"classes": C.classes(), "quotient": monoid_to_json(Q)}))
    else:
        print(f"{C.num_classes()} classes: {C.classes()}")
        print(render_table(Q, ascii_labels=args.ascii))
    return 0


def cmd_tensor(args) -> int:
    M = load_monoid(args.monoid_m)
    N = load_monoid(args.monoid_n)
    T = tensor.tensor_product(M, N, budget=_budget(args))
    out = {
        "size": T.monoid.size,
        "table": [list(r) for r in T.monoid.add],
        "bilinear": [list(r) for r in T.bilinear],
    }
    if args.check_coherence:
        out["symmetry"] = tensor.symmetry_iso(M, N, budget=_budget(args)).verify()
        out["associativity"] = tensor.associativity_iso(M, M, N, budget=_budget(args)).verify()
    if args.json:
        print(json.dumps(out))
    else:
        print(f"tensor product has {T.monoid.size} elements")
        print(render_table(T.monoid, ascii_labels=True))
        print("pure tensors (m,n) -> class:")
        for m in M.elements():
            print(" ", list(T.bilinear[m]))
        if args.check_coherence:
            print(f"symmetry iso verified: {out['symmetry']}")
            print(f"associativity iso verified: {out['associativity']}")
    return 0


def cmd_monoid_check(args) -> int:
    try:
        M = load_monoid(args.file)
    except SemimodError as e:
        print(f"invalid: {e}", file=sys.stderr)
        return 1
    print(f"valid commutative monoid with {M.size} elements")
    return 0


def cmd_verify(args) -> int:
    failures = 0
    print(f"suite {args.suite}:")
    for name in acceptance.SUITES[args.suite]:
        ok = acceptance.CRITERIA[name]()
        number = list(acceptance.CRITERIA).index(name) + 1
        print(f"  [{'ok' if ok else 'FAIL'}] criterion {number:02d} {name}")
        failures += not ok
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def _int(text: str) -> int:
    """int(text), or argparse's refusal with the text cut short by `_echo`."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_echo(text)}") from None


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, since exit code 2 means budget exhausted."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def _get_values(self, action, arg_strings):
        # argparse drops a '--' from every argument's strings, which would
        # leave a positional given as a second '--' with [] for its value
        if action.nargs is None and arg_strings == ["--"]:
            self.error(f"argument {action.dest}: invalid value '--'")
        return super()._get_values(action, arg_strings)


@cache
def build_parser() -> _Parser:
    """The parser, built once per process; parsing leaves it unchanged.

    Its `commands` maps each command name to that command's own parser.
    """
    p = _Parser(prog="semimod")
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = {}

    def command(name, func, help):
        s = p.commands[name] = sub.add_parser(name, help=help)
        s.set_defaults(func=func)
        return s

    s = command("semiideal", cmd_semiideal, "period, footing, and canonical generators")
    s.add_argument("generators", type=_int, nargs="+")
    s.add_argument("--json", action="store_true")

    s = command("coeq", cmd_coeq, "coequalizer of two multiplication maps on N0")
    s.add_argument("a", type=_int)
    s.add_argument("b", type=_int)
    s.add_argument("--naive", action="store_true",
                   help="census of the one-step relation instead")
    s.add_argument("--json", action="store_true")
    s.add_argument("--ascii", action="store_true", help="plain cN labels")

    s = command("quotient", cmd_quotient, "quotient of a monoid file by generated pairs")
    s.add_argument("monoid")
    s.add_argument("pairs", type=_int, nargs="*", help="flat list a1 b1 a2 b2 ...")
    s.add_argument("--json", action="store_true")
    s.add_argument("--ascii", action="store_true")

    s = command("tensor", cmd_tensor, "tensor product of two monoid files")
    s.add_argument("monoid_m")
    s.add_argument("monoid_n")
    s.add_argument("--check-coherence", action="store_true")
    s.add_argument("--budget", type=_int, default=None)
    s.add_argument("--json", action="store_true")

    s = command("monoid-check", cmd_monoid_check, "validate a monoid JSON file")
    s.add_argument("file")

    s = command("verify", cmd_verify, "run an acceptance suite")
    s.add_argument("suite", choices=list(acceptance.SUITES))

    return p


def main(argv=None) -> int:
    """Run one command line (by default sys.argv[1:]); its exit code.

    When argv[0] names a command, only that command's parser reads argv[1:]
    (one argparse pass); any other argv goes to the full parser.  Arguments
    left over are refused by the full parser, so both routes print and exit
    alike.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 2
    except (SemimodError, OSError, json.JSONDecodeError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
