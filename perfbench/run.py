"""Seeded single-process benchmark of streamnd.

    python3 perfbench/run.py --workload cap2 --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One run generates its inputs from --seed, then repeats timed passes over them
until --seconds of pass time have elapsed (at least one pass).  The first pass
is checked in full outside the timed region; every later pass must reproduce
its output digest exactly.  The last line of standard output is one JSON
object with keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with --trace 1.
The line before it, "determinism {...}", gives the run's output digest,
stored_items and solution_weight for comparing sets of runs.
See README.md in this directory for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _import_library():
    src = ROOT / "src"
    if not (src / "streamnd" / "__init__.py").is_file():
        sys.exit(f"error: streamnd sources not found under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def percentile(values, q):
    """Linear-interpolation percentile of a non-empty sequence, q in [0, 100]."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


REPEAT_RANK = 0.8  # the timing kept from N repeats is the ceil(0.8 N)-th fastest


def repeat_time(times):
    """The time at rank ceil(0.8 N) among an op's or item's N repeats, in
    ascending order: the 80th percentile of its repeats.

    Each op and item repeats identically in every untraced pass.  The shared
    machines this benchmark runs on switch between speeds up to 1.7x apart
    for seconds at a time, mostly running at the slower one, so the median
    of the repeats depends on how long a run happened to be fast.  A high
    fixed quantile reads the usual speed and, from five repeats on, drops
    the slowest outlier.  The rank is a fixed share of N, so a program that
    fits more passes into --seconds is read at the same quantile."""
    s = sorted(times)
    return s[math.ceil(REPEAT_RANK * len(s)) - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# determinism record shared by every run of one checkout


def _check_record(key, record):
    """Compare this run's deterministic outputs with the first run of the
    same workload and seed in this checkout; store them if there is none."""
    path = OUT / "digests.json"
    OUT.mkdir(exist_ok=True)
    known = json.loads(path.read_text()) if path.is_file() else {}
    previous = known.get(key)
    if previous is not None:
        return previous == record, previous
    known[key] = record
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True, None


# ---------------------------------------------------------------------------
# one workload in this process


def run_workload(name, seed, seconds, trace):
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    inputs = wl.generate(seed)

    passes = []  # untraced passes
    traced = []  # traced passes, trace mode only
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()

    def bump_op():
        tracer.op += 1

    first = wl.run_pass(inputs, keep_state=True)
    passes.append(first)
    wl.check(inputs, first, seed)
    for rec in first.ops:
        rec.state = rec.result = None
    reference = first.digest()
    elapsed = first.wall_s
    while elapsed < seconds or (trace and not traced):
        if trace:
            with tracer.installed():
                res = wl.run_pass(inputs, on_op=bump_op)
            traced.append(res)
            elapsed += res.wall_s
            if elapsed >= seconds:
                break
        passes.append(wl.run_pass(inputs))
        elapsed += passes[-1].wall_s

    failures = []
    for res in passes + traced:
        for i, rec in enumerate(res.ops):
            if not rec.ok or rec.key() != first.ops[i].key():
                failures.append(f"op {i}: {rec.error or 'output differs from the first pass'}")
    attempted = sum(len(res.ops) for res in passes + traced)
    failed = len(failures)

    ok_ops = [rec for rec in first.ops if rec.ok]
    stored = sum(rec.stored for rec in ok_ops)
    weight = sum(rec.weight for rec in ok_ops)
    record = {"digest": reference, "stored_items": stored, "solution_weight": weight}
    same_as_before, previous = _check_record(f"{name}:{seed}", record)
    if not same_as_before:
        failures.append(f"outputs differ from an earlier run of this seed: {previous}")

    op_s = [repeat_time(ts) for ts in zip(*(res.op_s for res in passes))]
    item_s = [repeat_time(ts) for ts in zip(*(res.item_s for res in passes))]
    lines = [
        f"workload {name} seed {seed}: {len(passes)} untraced + {len(traced)} traced passes, "
        f"{attempted} ops, {failed} failed, digest {reference}",
        f"  op percentiles over {len(op_s)} ops and item percentiles over {len(item_s)} items, "
        f"each at rank {math.ceil(REPEAT_RANK * len(passes))} of its {len(passes)} repeats",
        f"  stored {stored} of {sum(rec.bound for rec in ok_ops)} "
        f"(space_bound for cap, streamed edges for spanners); "
        f"largest per op {max((rec.stored for rec in ok_ops), default=0)}",
    ]
    for msg in failures[:10]:
        lines.append(f"  FAILED: {msg}")
    correct = not failures

    if not trace:
        setup = sum(repeat_time(ts) for ts in zip(*(res.setup_s for res in passes)))
        stream_s = sum(item_s)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": _metric(setup, "s"),
            "items_per_s": _metric(len(item_s) / stream_s if stream_s else 0.0, "1/s"),
            "item_p50_us": _metric(percentile(item_s, 50) * 1e6, "us"),
            "item_p99_us": _metric(percentile(item_s, 99) * 1e6, "us"),
            "op_p50_ms": _metric(percentile(op_s, 50) * 1e3, "ms"),
            "op_p95_ms": _metric(percentile(op_s, 95) * 1e3, "ms"),
            "stored_items": _metric(stored, "count"),
            "solution_weight": _metric(weight, "count"),
            "op_stored_max": _metric(max((r.stored for r in ok_ops), default=0), "count"),
            "peak_rss_mb": _metric(peak_kb / 1024, "MB"),
        }
    else:
        metrics = _layer_metrics(wl, tracer, passes, traced, first)
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(span_file)
        lines.append(f"  {len(tracer.span_name)} spans written to {span_file.relative_to(ROOT)}")

    for line in lines:
        print(line)
    # machine-readable, so that any two sets of runs can be compared
    print("determinism " + json.dumps({"workload": name, "seed": seed, **record}))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _layer_metrics(wl, tracer, passes, traced, first):
    from workloads import RATIO_METRICS

    k = len(traced)
    metrics = {}
    totals = tracer.totals()
    for span, (calls, self_s) in totals.items():
        metrics[f"{span}.calls"] = _metric(calls / k, "count")
        metrics[f"{span}.self_s"] = _metric(self_s / k, "s")
    solves = totals["framework.exact_solve"][0]
    feas = totals["graph.check_feasible"][0]
    metrics["framework.feasible_calls_per_solve"] = _metric(
        feas / solves if solves else 0.0, "ratio"
    )
    ok_ops = [rec for rec in first.ops if rec.ok]
    stored = sum(rec.stored for rec in ok_ops)
    bound = sum(rec.bound for rec in ok_ops)
    for key in RATIO_METRICS:
        ratio = stored / bound if key == wl.ratio_metric else 0.0
        metrics[key] = _metric(ratio, "ratio")
    untraced = statistics.median(res.wall_s for res in passes)
    overhead = statistics.median(res.wall_s for res in traced) - untraced
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    metrics["trace.overhead_share"] = _metric(overhead / untraced, "ratio")
    return metrics


# ---------------------------------------------------------------------------
# every workload, each in its own process


def run_all(args, names):
    results = {}
    for name in names:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        out = proc.stdout.strip().splitlines()
        for line in out[:-1]:
            print(line)
        if proc.returncode != 0 or not out:
            sys.exit(f"error: workload {name} exited with code {proc.returncode}")
        result = json.loads(out[-1])
        for line in out[:-1]:
            if line.startswith("determinism "):
                result["determinism"] = json.loads(line.split(" ", 1)[1])
        for metric, m in result["metrics"].items():
            print(f"  {name:12s} {metric:44s} {m['value']:>16.6g} {m['unit']}")
        results[name] = result
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_library()
    from workloads import WORKLOADS

    if args.workload == "all":
        print(json.dumps(run_all(args, list(WORKLOADS))))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
