#!/usr/bin/env python3
"""Closed-loop benchmark of semimod, with a traced run for per-layer times.

    python3 perfbench/run.py --workload naturals --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload naturals --seed 1 --seconds 6 --trace 1

One client in one process sends the next request only after the previous
one returns.  CLI requests call ``semimod.cli.main(argv)`` in-process with
stdout and stderr captured; library requests call the public function.
Every answer is compared with a known answer from workloads.py, which does
not use semimod.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the process exits 1 when any
request failed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict, deque
from pathlib import Path
from time import perf_counter

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
TRACES = HERE / "traces"
SETUP_SAMPLES = 11

# End-to-end times are scaled to a reference speed: the speed at which
# kernel() takes REFERENCE_S.  On a shared machine the CPU speed drifts by
# 15-30% from second to second; timing kernel() before every request and
# dividing by it removes that drift, which wall-clock times keep.
KERNEL_TABLE = [[(7 * a + 3 * b) % 17 for b in range(17)] for a in range(17)]
REFERENCE_S = 0.4e-3


def kernel() -> float:
    """Seconds taken by a fixed pure-Python table scan, like semimod's loops."""
    t = KERNEL_TABLE
    hits = 0
    start = perf_counter()
    for a in range(17):
        ra = t[a]
        for b in range(17):
            rab = t[ra[b]]
            for c in range(17):
                hits += rab[c] == ra[t[b][c]]
    return perf_counter() - start


class Speed:
    """The machine's recent speed relative to the reference speed."""

    def __init__(self):
        self.recent = deque(maxlen=9)

    def sample(self) -> None:
        self.recent.append(kernel())

    def scale(self) -> float:
        """Factor that turns a time measured now into reference-speed time."""
        return REFERENCE_S / statistics.median(self.recent)


def import_semimod():
    """Import semimod from this checkout's src/, never from anywhere else."""
    if not (SRC / "semimod" / "__init__.py").is_file():
        raise SystemExit(f"error: no semimod sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import semimod.cli
    if Path(semimod.__file__).resolve().parent != SRC / "semimod":
        raise SystemExit(f"error: imported semimod from {semimod.__file__}")
    return semimod


class Runner:
    """Sends requests of one workload to semimod and checks the answers."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        import_semimod()
        from semimod import cli, congruence, core, natcoeq, semiideal, tensor
        self.cli, self.congruence, self.natcoeq = cli, congruence, natcoeq
        self.semiideal, self.tensor = semiideal, tensor
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.out_bytes = 0          # stdout of the last CLI request
        tables, self.monoids = None, []
        if workload == "oracles":
            tables = workloads.oracle_tables()
            self.monoids = [core.validate_monoid(t) for t in tables]
        self.stream = workloads.requests(workload, seed, tables)
        self.pending = next(self.stream, None)   # inputs of the first request

    def until(self, seconds):
        """Requests until `seconds` have passed and a cycle of the workload
        is complete, so that every run sends whole cycles (capped at twice
        the time)."""
        start = perf_counter()
        last = -1
        while self.pending is not None:
            req, self.pending = self.pending, None
            elapsed = perf_counter() - start
            if elapsed >= 2 * seconds or (elapsed >= seconds and req.slot <= last):
                return
            last = req.slot
            yield req
            self.pending = next(self.stream, None)

    def send(self, req, tracer=None, rid=-1):
        """Run one request; returns (seconds, raw answer).  Only the call is timed,
        inside a root span when a tracer is given."""
        if req.argv:
            self.write_files(req)
            names = dict(req.files)
            argv = [str(self.workdir / a) if a in names else a for a in req.argv]
            fn = functools.partial(self.main, argv)
        else:
            fn = functools.partial(self.call, req.call)
        if tracer is not None:
            fn = functools.partial(tracer.run, rid, fn)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            raw = fn()
            end = perf_counter()
        text = out.getvalue()
        self.out_bytes = len(text.encode())
        if req.argv:
            raw = (raw, text, err.getvalue())
        return end - start, raw

    def write_files(self, req):
        for name, text in req.files:
            (self.workdir / name).write_text(text)

    def main(self, argv):
        """The CLI entry point; its exit code."""
        try:
            return self.cli.main(argv)
        except SystemExit as e:
            return e.code

    def call(self, call):
        name, *args = call
        m = self.monoids
        if name == "natq":
            return self.natcoeq.nat_congruence_quotient(args[0])
        if name == "sym":
            return self.tensor.symmetry_iso(m[args[0]], m[args[1]]).verify()
        if name == "assoc":
            return self.tensor.associativity_iso(*(m[i] for i in args)).verify()
        if name == "adj":
            return self.tensor.hom_adjunction_check(*(m[i] for i in args))
        if name == "closure":
            M, seeds = m[args[0]], [tuple(s) for s in args[1]]
            closed = self.congruence.congruence_closure(M, seeds)
            minimal = all(C.contains(closed)
                          for C in self.congruence.enumerate_congruences(M)
                          if all(C.same(a, b) for a, b in seeds))
            return [closed.classes(), minimal]
        if name == "footing":
            a, b = args
            return [self.semiideal.footing_two_generators(a, b),
                    self.semiideal.Semiideal([a, b]).footing()]
        raise ValueError(name)

    def check(self, req, raw):
        """None if the answer is right, else why not."""
        if req.argv:
            return workloads.check_cli(req, *raw)
        if req.kind == "natq":
            c = raw.result
            return workloads.check_natq(req, c.index if c else None, c.period if c else None,
                                        raw.cert_a, raw.cert_b)
        return None if raw == req.expect else f"answer {raw!r}, expected {req.expect!r}"

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def attempt(runner, req, tracer=None, rid=-1):
    """(seconds, failure reason or None); an exception is a failure."""
    try:
        seconds, raw = runner.send(req, tracer, rid)
    except Exception as e:  # the request failed; the loop goes on
        return 0.0, f"raised {type(e).__name__}: {e}"
    try:
        return seconds, runner.check(req, raw)
    except Exception as e:
        return seconds, f"unreadable answer: {type(e).__name__}: {e}"


def measure(runner, seconds, setup_sample):
    """The closed loop with tracing off.  Returns the reference-speed latencies
    of passed requests, the failures, the median reference-speed set-up time,
    and the wall-clock latencies and median set-up time.  Set-up samples are spread
    over the run."""
    speed = Speed()
    latencies, failures, setups, wall, wall_setups = [], [], [], [], []

    def setup():
        speed.sample()
        t = setup_sample()
        wall_setups.append(t)
        setups.append(t * speed.scale())

    start = perf_counter()
    for req in runner.until(seconds):
        if len(setups) < SETUP_SAMPLES and \
                perf_counter() - start >= len(setups) * seconds / SETUP_SAMPLES:
            setup()
        speed.sample()
        dt, why = attempt(runner, req)
        if why is None:
            latencies.append(dt * speed.scale())
            wall.append(dt)
        else:
            failures.append((req, why))
    while len(setups) < SETUP_SAMPLES:
        setup()
    return latencies, failures, statistics.median(setups), wall, statistics.median(wall_setups)


def end_to_end(latencies, failures, setup):
    attempted = len(latencies) + len(failures)
    ranked = latencies if len(latencies) > 1 else (latencies or [0.0]) * 2
    p90 = statistics.quantiles(ranked, n=10, method="inclusive")[8]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return attempted, {
        "req_per_s": (len(latencies) / sum(latencies) if latencies else 0.0, "1/s"),
        "p50_ms": (statistics.median(ranked) * 1e3, "ms"),
        "p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
        "ok_frac": ((attempted - len(failures)) / max(attempted, 1), "frac"),
        "setup_s": (setup, "s"),
    }


def traced(runner, seconds):
    """Each request runs untraced and traced, alternating which goes first."""
    tracer = spans.Tracer()
    rows, failures = [], []
    plain_total = traced_total = 0.0
    out_bytes = 0
    for rid, req in enumerate(runner.until(seconds)):
        times = {}
        for traced_now in ((False, True) if rid % 2 == 0 else (True, False)):
            if traced_now:
                tracer.install()
                try:
                    dt, why = attempt(runner, req, tracer, rid)
                finally:
                    tracer.uninstall()
                out_bytes += runner.out_bytes
            else:
                dt, why = attempt(runner, req)
            times[traced_now] = dt
            if why is not None:
                failures.append((req, why))
                break
        else:
            plain_total += times[False]
            traced_total += times[True]
            rows.append({"id": rid, "kind": req.kind, "size": req.size,
                         "untraced_s": times[False], "traced_s": times[True]})
    overhead = (traced_total - plain_total) / plain_total if plain_total else 0.0
    return tracer, rows, failures, overhead, out_bytes


LAYER_COUNTS = {
    "core.validate_monoid.calls": "1/req", "core.validate_monoid.cells": "cells/req",
    "core.enumerate_homs.calls": "1/req", "congruence.congruence_closure.calls": "1/req",
    "natcoeq.bound_used": "1/req", "natcoeq.chain_steps": "1/req",
    "semiideal.scan_len": "1/req", "tensor.box_volume": "1/req",
}


def per_layer(tracer, rows, overhead, out_bytes):
    n = max(len(rows), 1)
    self_by_req = defaultdict(lambda: defaultdict(float))
    total = defaultdict(float)
    for name, rid, s in tracer.self_times():
        self_by_req[rid][name] += s
        total[name] += s
    for row in rows:
        row["self_s"] = dict(self_by_req[row["id"]])
    metrics = {f"{name}.self_s": (total[name] / n, "s/req") for name in spans.TRACED}
    for key, unit in LAYER_COUNTS.items():
        metrics[key] = (tracer.counts[key] / n, unit)
    box = tracer.counts["tensor.box_volume"]
    metrics["tensor.classes_per_box"] = (tracer.counts["tensor.classes"] / box if box else 0.0,
                                         "frac")
    metrics["cli.out_bytes"] = (out_bytes / n, "B/req")
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics


def summary(rows):
    """Per request kind: count, mean traced latency and the top self times."""
    by_kind = defaultdict(list)
    for row in rows:
        by_kind[row["kind"]].append(row)
    lines = []
    for kind, rs in sorted(by_kind.items()):
        wall = sum(r["traced_s"] for r in rs)
        layers = defaultdict(float)
        for r in rs:
            for name, s in r["self_s"].items():
                layers[name] += s
        top = sorted(layers.items(), key=lambda kv: -kv[1])[:3]
        shares = ", ".join(f"{name} {s / wall:.0%}" for name, s in top)
        lines.append(f"{kind:13s} n={len(rs):5d} mean={wall / len(rs) * 1e3:8.2f} ms  {shares}")
    return lines


def probe(workload: str, seed: int) -> None:
    """Set-up in a fresh process: print the clock when the first request is ready."""
    runner = Runner(workload, seed, WORK / f"probe-{os.getpid()}")
    runner.write_files(runner.pending)
    print(repr(perf_counter()))
    runner.close()


def setup_seconds(workload: str, seed: int) -> float:
    """Start, import and input set-up of a fresh interpreter, in seconds."""
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; " \
           f"run.probe({workload!r}, {seed})"
    start = perf_counter()
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1]) - start


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    runner = Runner(args.workload, args.seed, WORK / f"run-{os.getpid()}")
    try:
        if args.trace:
            tracer, rows, failures, overhead, out_bytes = traced(runner, args.seconds)
            attempted = len(rows) + len(failures)
            metrics = per_layer(tracer, rows, overhead, out_bytes)
            TRACES.mkdir(exist_ok=True)
            with open(TRACES / f"{args.workload}-{args.seed}.json", "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "span_fields": ["name", "start", "end", "parent", "request"],
                           "spans": tracer.spans, "requests": rows}, fh)
            print("\n".join(summary(rows)))
        else:
            latencies, failures, setup, wall, wall_setup = measure(
                runner, args.seconds, functools.partial(setup_seconds, args.workload, args.seed))
            attempted, metrics = end_to_end(latencies, failures, setup)
            _, raw = end_to_end(wall, failures, wall_setup)
            print("wall clock: " + ", ".join(f"{k} {raw[k][0]:.6g} {raw[k][1]}" for k in
                                             ("req_per_s", "p50_ms", "p90_ms", "setup_s")))
    finally:
        runner.close()
    for req, why in failures[:10]:
        print(f"FAILED {req.kind} {list(req.argv) or list(req.call)[:3]}: {why}",
              file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
