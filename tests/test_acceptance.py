"""Acceptance suite: one test and one printed pass/fail line per criterion.

The checks live in `semimod.acceptance`, which ``semimod verify`` runs too;
this module makes one test ``test_criterion_NN_<name>`` of each.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import sys

from semimod.acceptance import CRITERIA, SUITES


def _criterion_test(number, name, check):
    def test():
        ok = check()
        print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'}",
              file=sys.stderr, flush=True)
        assert ok, f"criterion {number} failed"

    test.__name__ = test.__qualname__ = f"test_criterion_{number:02d}_{name}"
    test.__doc__ = check.__doc__
    return test


for _number, (_name, _check) in enumerate(CRITERIA.items(), 1):
    _test = _criterion_test(_number, _name, _check)
    globals()[_test.__name__] = _test


def test_suites_partition_the_criteria():
    names = [name for suite in SUITES.values() for name in suite]
    assert len(CRITERIA) == 13
    assert sorted(names) == sorted(CRITERIA)
