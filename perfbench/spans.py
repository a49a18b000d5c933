"""Spans around semimod's layer entry points, recorded from outside the package.

``Tracer.install()`` replaces each traced function by a wrapper under every
name it is bound to in the loaded ``semimod`` modules (for example
``core.validate_monoid`` is also ``natcoeq.validate_monoid`` and
``tensor.validate_monoid``), and traced methods on their classes.
``uninstall()`` puts the originals back, so untraced requests run the
unmodified program.  Spans and counters stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from math import gcd
from time import perf_counter

# span name -> the (module, attribute path) it wraps
TRACED = {
    "cli": [("semimod.cli", "main")],
    "core.validate_monoid": [("semimod.core", "validate_monoid")],
    "core.load_monoid": [("semimod.core", "load_monoid")],
    "core.enumerate_homs": [("semimod.core", "enumerate_homs")],
    "congruence.congruence_closure": [("semimod.congruence", "congruence_closure")],
    "congruence.quotient": [("semimod.congruence", "quotient")],
    "congruence.enumerate_congruences": [("semimod.congruence", "enumerate_congruences")],
    "natcoeq.nat_congruence_quotient": [("semimod.natcoeq", "nat_congruence_quotient")],
    "natcoeq.to_monoid": [("semimod.natcoeq", "CyclicMonoid.to_monoid")],
    "natcoeq.verify": [("semimod.natcoeq", "NatQuotient.verify"),
                       ("semimod.natcoeq", "NatQuotient.verify_certificate_a"),
                       ("semimod.natcoeq", "NatQuotient.verify_certificate_b")],
    "semiideal.footing": [("semimod.semiideal", "Semiideal.footing")],
    "semiideal.minimal_generators": [("semimod.semiideal", "Semiideal.minimal_generators")],
    "tensor.tensor_product": [("semimod.tensor", "tensor_product")],
    "tensor.balanced_check": [("semimod.tensor", "balanced_check")],
    "tensor.universal_factorization": [("semimod.tensor", "universal_factorization")],
}

# Counters read from arguments and returned objects, by span name.  They
# run after the call; out is None when it raised.
def _count_validate(c, args, out):
    c["core.validate_monoid.cells"] += len(args[0]) ** 2


def _count_natq(c, args, out):
    if out is None:
        return
    c["natcoeq.bound_used"] += out.bound_used
    c["natcoeq.chain_steps"] += len(out.cert_b)


def _count_footing(c, args, out):
    if out is None:
        return
    d = 0
    for g in args[0].generators:
        d = gcd(d, g)
    c["semiideal.scan_len"] += out // d


def _count_tensor(c, args, out):
    if out is None:
        return
    c["tensor.box_volume"] += out.presentation.box_volume()
    c["tensor.classes"] += out.monoid.size


COUNTERS = {
    "core.validate_monoid": _count_validate,
    "natcoeq.nat_congruence_quotient": _count_natq,
    "semiideal.footing": _count_footing,
    "tensor.tensor_product": _count_tensor,
}

ROOT = "request"


class Tracer:
    def __init__(self):
        # (name, start, end, parent span index or -1, request id)
        self.spans: list[tuple] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._request = -1
        self._saved: list[tuple] = []

    # --- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "semimod" or name.startswith("semimod."))]
        for name, targets in TRACED.items():
            for modname, path in targets:
                owner = sys.modules[modname]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapper = self._wrap(name, original)
                if outer:      # a method: patch it on its class
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, alias, original))
                            setattr(mod, alias, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            out = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._request)
                counts[name + ".calls"] += 1
                if counter is not None:
                    counter(counts, args, out)

        return traced

    # --- requests ---------------------------------------------------------

    def run(self, request_id: int, fn):
        """Call fn() inside a root span for the request; returns its result."""
        self._request = request_id
        return self._wrap(ROOT, fn)()

    def self_times(self):
        """Per span: its duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[0], s[4], s[2] - s[1] - c) for s, c in zip(self.spans, child)]

