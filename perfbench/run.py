"""nilspec benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload radial --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ./src.  With
--trace 0 the run measures the end-to-end metrics with nothing wrapped;
with --trace 1 it runs every cycle both untraced and traced, then the CLI
commands and the probes traced, and reports the per-layer metrics from
the spans.  Every operation's output is checked against an independent
reference (checks.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The full result, with a machine block,
per-kind latencies, failures and (when traced) spans and the per-layer
table, is written under perfbench/out/.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 7  # timed fresh-interpreter set-ups, after one untimed warm-up
IMPORT_SAMPLES = 3  # fresh-interpreter `import nilspec.cli` timings in a traced run
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metrics of a traced run that are not span statistics; 0 (or a
# 0 ratio) where the workload does not reach the layer
TRACE_EXTRA = {
    "glz.values_share": "ratio",  # eigenvalues returned and passing the check / requested
    "glz.eigh.gflop_computed": "Gflop",  # sum of order^3 over eigh calls, computed, not measured
    "cli.import_s": "s",  # median fresh-interpreter `import nilspec.cli`
    "cli.cache.hits": "count",
    "cli.cache.misses": "count",
    "cli.cache.get_s": "s",
    "cli.cache.put_s": "s",
    "cli.exit_nonzero": "count",
    "cli.spectrum.cache_hit_p50_ms": "ms",  # untraced CLI sweep
    "cli.spectrum.cold_p50_ms": "ms",  # untraced CLI sweep
    "probe.attempted": "count",
    "probe.fail_share": "ratio",
    "trace.overhead_s": "s",  # traced minus untraced busy time, same operations; noisy, can read < 0
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def machine_block():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def time_setup(workload, seed, env):
    """Wall times of fresh interpreters that import the workload's modules
    and generate its inputs; the first, untimed, warms the file cache."""
    argv = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        t0 = perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        samples.append(perf_counter() - t0)
    return samples[1:]


def time_cli_import(env):
    code = "import time; t = time.perf_counter(); import nilspec.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, capture_output=True, text=True)
        samples.append(float(out.stdout))
    return samples


class Pass:
    """Latencies and outcomes of a sequence of operations."""

    def __init__(self):
        self.latency = []
        self.kinds = []
        self.failures = []
        self.busy = 0.0
        self.cycles = 0

    def record(self, op, seconds, out, reason):
        self.latency.append(seconds)
        self.kinds.append(op.kind if "N" not in op.params else f"{op.kind}@{op.params['N']}")
        self.busy += seconds
        if reason:
            self.failures.append({"kind": op.kind, "params": op.params, "reason": reason})

    def extend(self, part):
        for name in ("latency", "kinds", "failures"):
            getattr(self, name).extend(getattr(part, name))
        self.busy += part.busy
        self.cycles += 1

    def per_op(self):
        return [[kind, round(t * 1e3, 4)] for kind, t in zip(self.kinds, self.latency)]

    def by_kind(self):
        groups = {}
        for kind, t in zip(self.kinds, self.latency):
            groups.setdefault(kind, []).append(t)
        return {kind: {"n": len(v), "p50_ms": statistics.median(v) * 1e3} for kind, v in sorted(groups.items())}


def run_ops(ops, runner, checker, tracer=None, first_id=0):
    """Run ops back to back, one at a time, then check them; returns a Pass.

    Checking after the batch keeps the program's own work contiguous, as
    for a client that issues the next request as soon as one returns."""
    done = Pass()
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_id + i
        results.append(runner.run(op))
        if tracer is not None:
            tracer.op = None
    for i, (op, (seconds, out, error)) in enumerate(zip(ops, results)):
        reason = error or checker.check(op, out)
        if tracer is not None and isinstance(out, dict) and out.get("spans"):
            merge_child_spans(tracer, out["spans"], first_id + i)
        done.record(op, seconds, out, reason)
    return done


def run_cycles(workloads, workload, seed, runner, checker, seconds):
    """Whole cycles until the program has been busy for `seconds`."""
    total = Pass()
    j = 0
    while total.busy < seconds:
        total.extend(run_ops(workloads.cycle(workload, seed, j), runner, checker))
        j += 1
    return total


def merge_child_spans(tracer, child, op_id):
    base = len(tracer.spans)
    for name, start, end, parent, _, ok, tag in child["spans"]:
        tracer.spans.append([name, start, end, parent + base if parent >= 0 else -1, op_id, ok, tag])
    tracer.eigh_flop += child["eigh_flop"]


def measure(args, workloads, checks, work, env, result):
    result["setup_samples_s"] = time_setup(args.workload, args.seed, env)
    runner = workloads.Runner(work, env)
    checker = checks.Checker()
    # let lazy set-up (imports, lru caches, BLAS threads) finish first
    workloads.import_modules(args.workload)
    warm = run_ops(workloads.cycle(args.workload, args.seed, 1 << 20), runner, checker)
    result["warmup_failures"] = warm.failures
    done = run_cycles(workloads, args.workload, args.seed, runner, checker, args.seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok = len(done.latency) - len(done.failures)
    result.update(
        cycles=done.cycles,
        busy_s=done.busy,
        by_kind=done.by_kind(),
        latency_ms=done.per_op(),
        failures=done.failures,
        values={"requested": checker.values_requested, "good": checker.values_good},
    )
    metrics = {
        "setup_s": statistics.median(result["setup_samples_s"]),
        "ops_per_s": ok / done.busy,
        "op_p50_ms": statistics.median(done.latency) * 1e3,
        "op_p90_ms": statistics.quantiles(done.latency, n=10, method="inclusive")[-1] * 1e3,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    failed = len(done.failures) + len(warm.failures)
    return metrics, END_TO_END, len(done.latency), failed


def trace(args, workloads, checks, spans, work, env, result):
    """Each cycle untraced and traced, until the untraced copies have been
    busy for half of --seconds; then the CLI sweep untraced and traced, and
    the probes traced."""
    import_samples = time_cli_import(env)
    runner = workloads.Runner(work, env)
    checker = checks.Checker()
    workloads.import_modules(args.workload)
    run_ops(workloads.cycle(args.workload, args.seed, 1 << 20), runner, checker)
    tracer = spans.Tracer()
    traced_checker = checks.Checker(first=checker.first)
    plain, traced = Pass(), Pass()
    j = 0
    while plain.busy < args.seconds / 2.0:
        ops = workloads.cycle(args.workload, args.seed, j)
        # alternate which copy runs first, so that neither caches filled by
        # the first copy nor drift in machine speed favour one side
        for side in ("plain", "traced") if j % 2 == 0 else ("traced", "plain"):
            if side == "plain":
                plain.extend(run_ops(ops, runner, checker))
            else:
                uninstall = spans.install(tracer)
                traced.extend(run_ops(ops, runner, traced_checker, tracer, first_id=len(traced.latency)))
                uninstall()
        j += 1

    sweep = workloads.cli_sweep(args.seed)
    plain_cli = run_ops(sweep, runner, checker)
    runner.traced = True
    runner.work = work / "traced"
    uninstall = spans.install(tracer)
    traced_cli = run_ops(sweep, runner, traced_checker, tracer, first_id=len(traced.latency))
    probe_ops = workloads.probes(args.workload)
    probe = run_ops(probe_ops, runner, traced_checker, tracer, first_id=len(traced.latency) + len(sweep))
    uninstall()

    table = spans.layer_stats(tracer.spans)
    metrics, units = layer_metrics(table, spans.STATS)
    cli_kinds = plain_cli.by_kind()
    exit_nonzero = sum(1 for f in traced_cli.failures + probe.failures if f["reason"].startswith("exit "))
    gets = table.get("cli.cache.get", {"tags": {}, "busy_s": 0.0})
    extra = {
        "glz.values_share": (
            traced_checker.values_good / traced_checker.values_requested if traced_checker.values_requested else 0.0
        ),
        "glz.eigh.gflop_computed": tracer.eigh_flop / 1e9,
        "cli.import_s": statistics.median(import_samples),
        "cli.cache.hits": gets["tags"].get("hit", 0),
        "cli.cache.misses": gets["tags"].get("miss", 0),
        "cli.cache.get_s": gets["busy_s"],
        "cli.cache.put_s": table.get("cli.cache.put", {"busy_s": 0.0})["busy_s"],
        "cli.exit_nonzero": exit_nonzero,
        "cli.spectrum.cache_hit_p50_ms": cli_kinds.get("spectrum_cached", {"p50_ms": 0.0})["p50_ms"],
        "cli.spectrum.cold_p50_ms": cli_kinds.get("spectrum_cold", {"p50_ms": 0.0})["p50_ms"],
        "probe.attempted": len(probe_ops),
        "probe.fail_share": len(probe.failures) / len(probe_ops) if probe_ops else 0.0,
        "trace.overhead_s": traced.busy - plain.busy,
        "trace.overhead_share": (traced.busy - plain.busy) / plain.busy,
        "trace.spans": len(tracer.spans),
    }
    for name, value in extra.items():
        metrics[name] = value
        units[name] = TRACE_EXTRA[name]

    stem = result["stem"]
    with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
        for rec in tracer.spans:
            fh.write(json.dumps(rec) + "\n")
    (OUT / f"{stem}-layers.md").write_text(
        f"# per-layer table: {args.workload}, seed {args.seed}\n\n"
        f"untraced busy {plain.busy:.6f} s, traced busy {traced.busy:.6f} s, "
        f"tracing overhead {traced.busy - plain.busy:.6f} s over {len(traced.latency)} operations; "
        f"spans also cover the CLI sweep ({len(sweep)} commands) and {len(probe_ops)} probes\n\n"
        + spans.markdown_table(table)
    )
    result.update(
        cycles=plain.cycles,
        untraced_busy_s=plain.busy,
        traced_busy_s=traced.busy,
        by_kind=plain.by_kind(),
        cli_by_kind=cli_kinds,
        failures=plain.failures + traced.failures + plain_cli.failures + traced_cli.failures,
        probes=[
            {"kind": op.kind, "params": op.params, "failed": reason}
            for op, reason in zip(probe_ops, probe_outcomes(probe_ops, probe))
        ],
        layers={name: {k: v for k, v in row.items() if k != "tags"} for name, row in table.items()},
    )
    passes = (plain, traced, plain_cli, traced_cli)
    return metrics, units, sum(len(x.latency) for x in passes), sum(len(x.failures) for x in passes)


def probe_outcomes(ops, done):
    reasons = {id(f["params"]): f["reason"] for f in done.failures}
    return [reasons.get(id(op.params)) for op in ops]


def layer_metrics(table, stats):
    """The per-layer metrics named in BENCHMARK.json, 0 where a layer was not called."""
    with open(ROOT / "BENCHMARK.json") as fh:
        wanted = json.load(fh)["per_layer"]
    metrics, units = {}, {}
    for m in wanted:
        name, _, stat = m["name"].rpartition(".")
        if stat in stats:
            row = table.get(name, {})
            metrics[m["name"]] = row.get(stat, 0)
            units[m["name"]] = m["unit"]
    return metrics, units


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "nilspec" / "__init__.py").is_file():
        print(f"perfbench: no nilspec package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"stem": stem, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "machine": machine_block()}
    work = Path(tempfile.mkdtemp(prefix=f"work-{stem}-", dir=OUT))
    try:
        if args.trace:
            metrics, units, attempted, failed = trace(args, workloads, checks, spans, work, env, result)
        else:
            metrics, units, attempted, failed = measure(args, workloads, checks, work, env, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    result["result"] = line
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str) + "\n")
    for name, m in line["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
