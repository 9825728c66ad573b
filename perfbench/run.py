"""Benchmark of merge-planner's four ``report.run_*`` entry points.

Run from the repository root:

    python3 perfbench/run.py --workload dp-vector --seed 0 --seconds 22 --trace 0

``--trace 0`` runs items of the workload for ``--seconds`` seconds and
reports the end-to-end metrics named in ``BENCHMARK.json``; times are scaled
by the machine's measured slowness (see ``calibration.py``).  ``--trace 1``
runs a fixed list of items once untraced and twice traced, reports the
per-module metrics and the tracing overhead, and checks that tracing changes
no output byte and that every count repeats exactly.

Every item's outputs are checked.  The last line on stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit status is 0 only if every check passed.  A fuller record (the
environment, the per-item budget, every item's latency and problems) goes
to ``.bench_out/`` in the repository root.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before NumPy is imported; set-up probes inherit it

import argparse
import itertools
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
ITEM_BUDGET_S = 20.0  # about 40x the slowest item at the commit the benchmark was defined on
SETUP_PROBES = 7
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it


class ItemTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ItemTimeout


def import_program():
    """Import merge_planner from this checkout's ``src``, never from elsewhere."""
    package = SRC / "merge_planner"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a merge-planner checkout")
    sys.path.insert(0, str(SRC))
    import merge_planner

    if Path(merge_planner.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported merge_planner from {merge_planner.__file__}")
    import workloads

    return workloads


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Scaled seconds from starting a fresh interpreter to its first item being ready."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        before = calibrate()
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        samples.append((ready - start) / ((before + calibrate()) / 2))
    return samples


def run_item(wl, cfg, index: int, golden, tracer=None) -> dict:
    """Run one item under the time budget and check its outputs."""
    import workloads

    if tracer is not None:
        tracer.item = index
    record = {"index": index, "latency_s": None, "problems": [], "digest": None, "bytes": 0}
    signal.setitimer(signal.ITIMER_REAL, ITEM_BUDGET_S)
    try:
        start = time.perf_counter()
        result = wl.call(cfg)
        record["latency_s"] = time.perf_counter() - start
    except ItemTimeout:
        record["problems"].append(f"timeout: exceeded the {ITEM_BUDGET_S} s item budget")
        return record
    except Exception as exc:  # a failing item is recorded, the run goes on
        record["problems"].append(f"error: {type(exc).__name__}: {exc}")
        return record
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    out = cfg.out_dir
    try:
        record["problems"] += wl.check(cfg, result, out)
        if golden is not None and index < len(golden):
            found = workloads.golden_problems(wl, workloads.output_record(wl, out), golden[index])
            record["problems"] += ["golden: " + p for p in found]
        record["digest"] = workloads.output_digest(wl, out)
        record["bytes"] = sum((out / name).stat().st_size for name in wl.outputs)
    except Exception as exc:  # unreadable or malformed outputs fail the item
        record["problems"].append(f"check error: {type(exc).__name__}: {exc}")
    return record


def run_pass(wl, configs, golden, tracer=None) -> list[dict]:
    records = []
    for index, cfg in configs:
        records.append(run_item(wl, cfg, index, golden, tracer))
    return records


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples above it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:  # that percentile would fall below the median
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(wl, seed: int, seconds: float, golden) -> tuple[dict, list[dict], dict]:
    """End-to-end metrics from new inputs run for ``seconds``.

    Calibration runs between items, and each item's time is divided by the
    mean of the calibrations just before and after it, so the scaled time
    follows the program rather than the drifting machine.
    """
    stream = enumerate(wl.configs(seed, OUT / wl.name))
    warmup = run_pass(wl, itertools.islice(stream, 1), golden)
    setup = measure_setup(wl.name, seed)
    records, ref = [], [calibrate(wl.kernels)]
    start = time.perf_counter()
    while time.perf_counter() < start + seconds:
        records += run_pass(wl, itertools.islice(stream, 1), golden)
        ref.append(calibrate(wl.kernels))
    wall = time.perf_counter() - start

    scaled = []
    for i, r in enumerate(records):
        if not r["problems"]:
            # item i ran between calibrations i and i + 1
            r["scaled_s"] = r["latency_s"] / ((ref[i] + ref[i + 1]) / 2)
            scaled.append(r["scaled_s"])
    attempted = warmup + records
    passed = sum(not r["problems"] for r in attempted)
    tail_s, tail_pct = tail(scaled) if scaled else (ITEM_BUDGET_S, 100.0)
    values = {
        "setup_s": statistics.median(setup),
        "items_per_s": len(scaled) / sum(scaled) if scaled else 0.0,
        "item_p50_s": statistics.median(scaled) if scaled else ITEM_BUDGET_S,
        "item_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": passed / len(attempted),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "items_per_s": f"{len(scaled)} items, {wall:.3f} s wall",
        "item_p50_s": f"{len(scaled)} samples",
        "item_tail_s": f"p{tail_pct:.1f}, {len(scaled)} samples, {TAIL_BEYOND} beyond",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
        "pass_ratio": f"{passed} of {len(attempted)} item runs passed (1 warm-up)",
    }
    detail = {"setup_samples_s": setup, "measured_wall_s": wall, "calibration_s": ref,
              "tail_percentile": tail_pct, "notes": notes}
    return values, attempted, detail


def layer_metrics(tracer, records: list[dict]) -> dict:
    """Per-module metrics of one traced pass, keyed as in BENCHMARK.json."""
    times = tracer.layer_times()
    items_s = sum(r["latency_s"] or 0.0 for r in records)
    values = dict(tracer.counts)
    values["trace.items_s"] = items_s
    values["report.bytes_written"] = sum(r["bytes"] for r in records)
    for name, entry in times.items():
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_share"] = entry["self_s"] / items_s
    candidates = values["pareto_dp.candidates"]
    dp_s = times["pareto_dp.pareto_dp"]["total_s"]
    values["pareto_dp.survivor_ratio"] = values["pareto_dp.survivors"] / candidates if candidates else 0.0
    values["pareto_dp.candidates_per_s"] = candidates / dp_s if dp_s else 0.0
    sampled = values["gmm.NoisySampler.sample.rows"]
    values["gmm.gating_rows_per_sample"] = (
        values["gmm.posterior_log_weights.rows"] / sampled if sampled else 0.0
    )
    return values


def traced(wl, seed: int, golden) -> tuple[dict, list[dict], dict, list]:
    """Each item runs untraced, then under the first tracer, then under the second.

    Running the three back to back, item by item, keeps slow spells of a
    shared machine from landing on one pass only.
    """
    from tracing import Tracer

    configs = list(itertools.islice(enumerate(wl.configs(seed, OUT / wl.name)), wl.trace_items))
    warmup = run_pass(wl, configs[:1], golden)
    tracers = [Tracer(), Tracer()]
    plain, passes = [], [[], []]
    for item in configs:
        plain += run_pass(wl, [item], golden)
        for tracer, records in zip(tracers, passes):
            with tracer:
                records += run_pass(wl, [item], golden, tracer)

    runs = [layer_metrics(t, p) for t, p in zip(tracers, passes)]
    problems = []
    counted = sorted(k for k, v in runs[0].items() if isinstance(v, int))
    for key in counted:
        if runs[0][key] != runs[1].get(key):
            problems.append(f"count {key} differs between traced passes: {runs[0][key]} vs {runs[1].get(key)}")
    for a, b, c in zip(plain, *passes):
        if not a["digest"] == b["digest"] == c["digest"]:
            problems.append(f"item {a['index']}: traced and untraced outputs differ")

    values = runs[0]
    plain_s = sum(r["latency_s"] or 0.0 for r in plain)
    traced_s = statistics.mean(run["trace.items_s"] for run in runs)
    values["trace.overhead"] = traced_s / plain_s - 1.0
    attempted = warmup + plain + passes[0] + passes[1]
    detail = {"untraced_items_s": plain_s, "traced_items_s": [r["trace.items_s"] for r in runs],
              "layer_times": [t.layer_times() for t in tracers], "self_test_problems": problems}
    return values, attempted, detail, tracers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: import and build the first item, print 'ready', exit")
    args = parser.parse_args(argv)

    if args.setup_probe:
        signal.alarm(60)
        workloads = import_program()
        next(workloads.WORKLOADS[args.workload].configs(args.seed, OUT / args.workload))
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    wl = workloads.WORKLOADS[args.workload]
    golden = workloads.load_golden().get(wl.name) if args.seed == workloads.DEFAULT_SEED else None
    (OUT / wl.name).mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    env = environment(args.seed)

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"item_budget_s {ITEM_BUDGET_S}")
    problems = []
    if args.trace:
        values, attempted, detail, tracers = traced(wl, args.seed, golden)
        problems += detail["self_test_problems"]
        spans = OUT / f"trace-{wl.name}-seed{args.seed}.csv"
        spans.unlink(missing_ok=True)
        for i, tracer in enumerate(tracers, 1):
            tracer.write(spans, f"traced{i}")
        wanted = spec["per_layer"]
        for name, entry in sorted(detail["layer_times"][0].items()):
            print(f"  {name:<36} calls {entry['calls']:>8}  self {entry['self_s']:10.4f} s"
                  f"  total {entry['total_s']:10.4f} s")
        print(f"tracing overhead {values['trace.overhead']:+.2%} "
              f"(untraced {detail['untraced_items_s']:.3f} s, traced {detail['traced_items_s']})")
    else:
        values, attempted, detail = measure(wl, args.seed, args.seconds, golden)
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for m in wanted:
        note = detail.get("notes", {}).get(m["name"], "")
        print(f"{m['name']} {metrics[m['name']]['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    failed = [r for r in attempted if r["problems"]]
    for r in failed:
        print(f"item {r['index']} failed: {'; '.join(r['problems'])}", file=sys.stderr)
    for p in problems:
        print(f"self-test failed: {p}", file=sys.stderr)
    correct = not failed and not problems
    result = {"correct": correct, "attempted": len(attempted), "failed": len(failed), "metrics": metrics}
    record = {"env": env, "item_budget_s": ITEM_BUDGET_S, "workload": wl.name, "seed": args.seed,
              "trace": args.trace, "result": result, "detail": detail,
              "items": [{k: r[k] for k in ("index", "latency_s", "problems")} for r in attempted]}
    path = OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
