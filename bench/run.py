"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train-m3 --seed 0 --seconds 60 --trace 0

A run repeats whole rounds (set-up plus the five pipeline steps, then the
output checks), each on the next of the seed's input sets, until the next
round would end past --seconds, and prints one JSON object as its last line
of output: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of a run that alternates untraced and traced rounds.  The
package is imported from ../src.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
          "import tranad.cli; print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=os.path.join(HERE, "out"),
                   help="directory for the CLI workload's files and the trace")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tranad", "__init__.py")):
        print(f"error: no tranad package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import tranad.cli  # noqa: F401  -- the package import is part of set-up
    import_s = import_seconds(time.perf_counter() - t0)

    import pipeline
    import workloads
    from spans import Tracer, clock

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    out_dir = os.path.join(args.out, f"{wl.name}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    sets = [workloads.make_inputs(wl, args.seed, part) for part in range(workloads.INPUT_SETS)]
    files = [pipeline.write_cli_inputs(wl, inputs, os.path.join(out_dir, f"set{part}"))
             if wl.via_cli else None for part, inputs in enumerate(sets)]

    rounds = []
    begin = clock()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        # a traced run keeps to the first set, so its counts repeat exactly and
        # its traced and untraced rounds differ only in the tracing
        part = 0 if args.trace else len(rounds) % len(sets)
        tracer = Tracer()
        tracer.install(pipeline.LAYERS if traced else pipeline.PROBES, pipeline.PACKAGE)
        t0 = clock()
        try:
            rnd = pipeline.run_round(wl, sets[part], files[part], tracer)
        finally:
            tracer.remove()
        rnd.traced, rnd.wall = traced, clock() - t0
        rounds.append(rnd)
        print(f"round {len(rounds)} (input set {part}){' traced' if traced else ''}: "
              f"setup {rnd.setup_s:.3f} s, pipeline {rnd.pipeline_s:.3f} s, checks "
              f"{sum(ok for _, ok, _ in rnd.checks)}/{len(rnd.checks)} passed")
        for name, ok, detail in rnd.checks:
            if not ok:
                print(f"  check {name} FAILED: {detail}")
        elapsed = clock() - begin
        # untraced runs cover every input set; traced ones need one of each kind
        enough = len(rounds) >= (2 if args.trace else len(sets))
        if enough and elapsed + max(r.wall for r in rounds) > args.seconds:
            break

    attempted = sum(pipeline.STEPS + len(r.checks) for r in rounds)
    failed = sum(r.failed_steps + sum(not ok for _, ok, _ in r.checks) for r in rounds)
    done = [r for r in rounds if not r.failed_steps]
    plain = [r for r in done if not r.traced]
    traced = [r for r in done if r.traced]
    if not plain or (args.trace and not traced):
        metrics = {}
    elif args.trace:
        metrics = trace_metrics(wl, traced, plain, out_dir)
    else:
        metrics = end_to_end(import_s, plain, len(sets))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def import_seconds(first):
    """Median time to import the package: this process's import and those
    of two fresh interpreters, which are started and waited for here."""
    samples = [first]
    for _ in range(2):
        child = subprocess.run([sys.executable, "-c", IMPORT, SRC], capture_output=True,
                               text=True, check=True, timeout=120)
        samples.append(float(child.stdout))
    return statistics.median(samples)


def end_to_end(import_s, plain, n_sets):
    import numpy as np
    fits = [r.fit_span() for r in plain]
    scored = [s for r in plain for s in r.score_spans()]
    lat = np.concatenate([r.latencies for r in plain]) * 1e3
    p50, p90, p99 = np.percentile(lat, [50, 90, 99])
    # p50 and p99 are printed, not bounded.  The host's speed drifts over
    # minutes and the bulk of the latencies is bimodal, so the median jumps
    # between modes from run to run; p99 is set by the host's brief stalls,
    # which land on too few of the slowest 1% of rows.
    print(f"stream latency: {lat.size} samples, p50 {p50:.4f} ms, p90 {p90:.4f} ms with "
          f"{np.count_nonzero(lat > p90)} beyond, p99 {p99:.4f} ms with "
          f"{np.count_nonzero(lat > p99)} beyond")
    # the first rounds ran one input set each; a set's quality repeats exactly
    quality = {k: statistics.fmean(r.quality[k] for r in plain[:n_sets])
               for k in plain[0].quality}
    values = {
        "setup_s": (import_s + statistics.median(r.setup_s for r in plain), "s"),
        "pipeline_s": (statistics.median(r.pipeline_s for r in plain), "s"),
        "train_windows_per_s": (
            sum(f.info["windows"] * len(f.result.epochs) for f in fits)
            / sum(f.seconds for f in fits), "windows/s"),
        "score_windows_per_s": (
            sum(len(s.result) for s in scored) / sum(s.seconds for s in scored), "windows/s"),
        "stream_p90_ms": (float(p90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "f1": (quality["f1"], "ratio"),
        "f1_pa": (quality["f1_pa"], "ratio"),
        "auc": (quality["auc"], "ratio"),
        "hitrate_100": (quality["hitrate_100"], "ratio"),
        "ndcg_100": (quality["ndcg_100"], "ratio"),
        "val_loss": (quality["val_loss"], "loss"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def trace_metrics(wl, traced, plain, out_dir):
    import layers
    per_round = [layers.layer_metrics(r.tracer, wl.batch_size) for r in traced]
    values = {}
    for name, unit in layers.UNITS.items():
        got = [m[name] for m in per_round if name in m]
        if got:
            values[name] = (statistics.median(got), unit)
    values["trace.overhead_s"] = (
        statistics.median(r.pipeline_s for r in traced)
        - statistics.median(r.pipeline_s for r in plain), "s")
    self_times = layers.merge_self_times(r.tracer for r in traced)
    print(f"{'span':34} {'calls':>7} {'total s':>10} {'self s':>10}")
    for name, (calls, tot, own) in sorted(self_times.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:34} {calls:7d} {tot:10.4f} {own:10.4f}")
    for name, (v, unit) in values.items():
        print(f"{name:34} {v:14.6f} {unit}")
    with open(os.path.join(out_dir, "spans.json"), "w") as f:
        json.dump([rec for i, r in enumerate(traced) for rec in r.tracer.to_records(i)], f)
    with open(os.path.join(out_dir, "layers.json"), "w") as f:
        json.dump({"metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
                   "self_times": {k: {"calls": c, "total_s": t, "self_s": s}
                                  for k, (c, t, s) in self_times.items()}}, f, indent=1)
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()
            if k in layers.REPORTED}


if __name__ == "__main__":
    sys.exit(main())
