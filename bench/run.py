"""Benchmark for the starfree toolkit: four workloads, one process, one thread.

    python3 bench/run.py                          # all workloads, end-to-end table
    python3 bench/run.py --trace 1                # all workloads, per-module table
    python3 bench/run.py --workload long-inputs --seed 3 --seconds 15 --trace 0

A run sets its workload up several times (the median is `setup_s`), then
repeats the workload's fixed pass until `--seconds` is used up and reports
medians over passes. Times are rescaled to a reference host speed that is
sampled while they run (see `hostspeed.py`), because a shared host's load
moves raw times by more than the bounds. With `--trace 1` the first half of the time is spent
untraced and the second half with span wrappers installed (see
`tracing.py`); the per-module metrics come from the traced half, the
tracing overhead is the difference of the two halves' median pass times,
and the run checks that every wrapper is removed afterwards and that the
per-module self times account for the traced pass time.

The last line of output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. For a single workload the metrics are those listed
in BENCHMARK.json: the end-to-end metrics every workload has, or with
`--trace 1` the per-module metrics. The table above it also shows the
end-to-end metrics that only some workloads have (strings per second,
verdict latency, compile/save/load/decompile time, weight bytes). When all
workloads run in one process, peak_rss_mb is that process's peak so far.

The program is imported from `src/` beside this directory; without it the
benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import sys
import time
from pathlib import Path
from statistics import median

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SPAN_DIR = Path(__file__).resolve().parent / "out"

END_TO_END = (  # name, unit
    ("setup_s", "s"), ("wall_s", "s"), ("strings_per_s", "1/s"),
    ("string_ms_p50", "ms"), ("string_ms_p90", "ms"),
    ("compile_s", "s"), ("save_s", "s"), ("load_s", "s"), ("decompile_s", "s"),
    ("weight_bytes", "B"), ("peak_rss_mb", "MB"), ("error_rate", "ratio"),
)
UNITS = dict(END_TO_END)
GATED = ("setup_s", "wall_s", "peak_rss_mb")  # the metrics every workload has

MODELS = ("dyck-naive", "dyck-depth", "dyck-ln", "phi2-naive", "phi2-depth", "phi4-naive",
          "phi4-depth", "stair_2-naive", "stair_2-depth", "random-naive", "random-depth")
SPAN_METRICS = (  # (span name, metric name or None for name + "_s", also report calls)
    ("transformer.run", "transformer.run_self_s", False),
    ("transformer.accepts", "transformer.accepts_self_s", False),
    ("transformer.embed", None, False),
    ("transformer.head_query", None, False),
    ("transformer.head_score", None, True),
    ("transformer.head_value", None, False),
    ("transformer.ffn", None, True),
    ("transformer.layernorm", None, True),
    ("transformer.to_json", None, False),
    ("transformer.from_json", None, False),
    ("compiler.compile_naive", None, False),
    ("compiler.compile_depth_preserving", None, False),
    ("normalform.normalize_unary_value", None, False),
    ("normalform.normalize_unary_score", None, False),
    ("normalform.flatten_defaults", None, False),
    ("compiler.enumerate_value_set", None, False),
    ("compiler.decompile_shallower", None, False),
    ("compiler.decompile_smaller", None, False),
    ("brasp.eval", None, True),
    ("ltl.ltl_accepts", None, False),
    ("ltl.ltl_to_brasp", None, False),
    ("ltl.brasp_to_ltl", None, False),
    ("automata.dfa_accepts", None, False),
    ("automata.cascade_to_brasp", None, False),
    ("automata.is_counter_free", None, False),
    ("automata.check_homomorphism", None, False),
    ("testkit.diff_languages", None, False),
    ("testkit.stutter", None, False),
    ("testkit.oracle", None, False),
)
CALL_COUNTERS = (("exact.compare", "exact.compare.calls"), ("exact.sign", "exact.sign.calls"),
                 ("exact.sympy_sign", "exact.sympy_fallbacks"))
PASS_COUNTS = (  # (counter in a pass, metric)
    ("strings", "testkit.strings_checked"), ("mismatches", "testkit.mismatches"),
    ("value_set_size", "compiler.value_set_size"), ("decompiled_ops", "compiler.decompiled_ops"),
)


def per_layer_names() -> list:
    names = []
    for span, metric, calls in SPAN_METRICS:
        names.append((metric or f"{span}_s", "s"))
        if calls:
            names.append((f"{span}.calls", "count"))
    names += [(metric, "count") for _, metric in CALL_COUNTERS + PASS_COUNTS]
    names += [("compiler.model_width", "count"), ("compiler.model_depth", "count"),
              ("transformer.weight_nnz", "count"), ("transformer.weight_scalars", "count"),
              ("transformer.weight_density", "ratio")]
    names += [(f"transformer.{m}.ms_per_string", "ms") for m in MODELS]
    names += [("trace.overhead_s", "s"), ("trace.wall_s", "s"), ("trace.uncovered_s", "s"),
              ("trace.spans", "count")]
    return names


def coverage_bound() -> float:
    """Largest share of traced pass time that may fall outside every span:
    the wall_s bound of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")


# ---------------------------------------------------------------------------
# Metadata


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(seed) -> dict:
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "starfree").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
        "source_lines": lines,
    }


# ---------------------------------------------------------------------------
# Running one workload


def run_passes(workload, state, rec, budget: float, speed) -> list:
    """Repeat the pass while another one fits in `budget` seconds; at least one.

    "wall" is a pass's work-clock time, "ref" the same rescaled to reference speed.
    """
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        rec.new_pass()
        with speed:
            t0 = speed.clock()
            workload.run_pass(state, rec)
            took = speed.clock() - t0
        scale = speed.scale()
        rec.rescale(scale)
        passes.append({"wall": took, "ref": took * scale, "stages": rec.stages, "counts": rec.counts})
        if time.perf_counter() - start + took > budget:
            return passes


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(workload, setup_s, passes, rec) -> tuple:
    """All twelve end-to-end metrics (None where a workload has none) and notes."""
    wall = median(p["ref"] for p in passes)
    counts = passes[-1]["counts"]
    metrics = {name: None for name, _ in END_TO_END}
    metrics.update(setup_s=setup_s, wall_s=wall,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                   error_rate=rec.failed / max(1, rec.attempted))
    raw = median(p["wall"] for p in passes)
    notes = {"wall_s": f"median of {len(passes)} passes; unscaled {raw:.4g} s"}
    samples = [s for values in rec.latency.values() for s in values]
    for name in workload.reports:
        if name == "strings_per_s":
            metrics[name] = counts.get("strings", 0) / wall
        elif name.startswith("string_ms_"):
            q = 0.5 if name.endswith("p50") else 0.9
            metrics[name] = percentile(samples, q) * 1e3
            notes[name] = f"{len(samples)} verdicts"
        elif name == "weight_bytes":
            metrics[name] = counts.get("weight_bytes", 0)
        else:
            metrics[name] = median(p["stages"].get(name[:-2], 0.0) for p in passes)
    return metrics, notes


def per_layer(workload, state, untraced, traced, rec_untraced, tracer) -> dict:
    """Per traced pass; times at reference speed, like the end-to-end ones."""
    n = len(traced)
    total = sum(p["wall"] for p in traced)
    scale = sum(p["ref"] for p in traced) / total
    metrics = {}
    for span, metric, calls in SPAN_METRICS:
        self_s, count = tracer.self_s.get(span, (0.0, 0))
        metrics[metric or f"{span}_s"] = self_s * scale / n
        if calls:
            metrics[f"{span}.calls"] = count / n
    for counter, metric in CALL_COUNTERS:
        metrics[metric] = tracer.calls.get(counter, 0) / n
    counts = traced[-1]["counts"]
    for key, metric in PASS_COUNTS:
        metrics[metric] = counts.get(key, 0)
    if "model_width" in counts:
        sizes = [counts[k] for k in ("model_width", "model_depth", "weight_nnz", "weight_scalars")]
    else:
        from workloads import weight_counts

        models = workload.models(state)
        sizes = [sum(m.width for m in models), sum(m.depth for m in models),
                 sum(weight_counts(m)[0] for m in models), sum(weight_counts(m)[1] for m in models)]
    (metrics["compiler.model_width"], metrics["compiler.model_depth"],
     metrics["transformer.weight_nnz"], metrics["transformer.weight_scalars"]) = sizes
    metrics["transformer.weight_density"] = sizes[2] / sizes[3] if sizes[3] else 0.0
    for model in MODELS:
        samples = rec_untraced.latency.get(model, [])
        metrics[f"transformer.{model}.ms_per_string"] = (
            sum(samples) / len(samples) * 1e3 if samples else 0.0)
    traced_wall = median(p["ref"] for p in traced)
    metrics["trace.overhead_s"] = traced_wall - median(p["ref"] for p in untraced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.uncovered_s"] = (total - tracer.total_self_s()) * scale / n
    metrics["trace.spans"] = sum(c for _, c in tracer.self_s.values()) / n
    return metrics


def run_workload(workload, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    from tracing import Tracer, leftovers
    from workloads import Recorder

    speed = HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        with speed:
            t0 = speed.clock()
            state = workload.setup(random.Random(seed))
            took = speed.clock() - t0
        setups.append(took * speed.scale())
    setup_s = import_s + median(setups)
    setup_note = f"import {import_s:.3g} s + median of set-ups " + ", ".join(f"{t:.3g}" for t in setups)

    rec = Recorder(clock=speed.clock)
    budget = seconds / 2 if trace else seconds
    passes = run_passes(workload, state, rec, budget, speed)
    result = {"rec": rec}
    if trace:
        tracer = Tracer(speed.clock)
        rec_traced = Recorder(tracer, speed.clock)
        models = workload.models(state)
        rec.op("untraced run installs no wrapper", leftovers, models,
               check=lambda found: f"found {found}" if found else None)
        tracer.install()
        try:
            for model in models:
                tracer.instrument_model(model)
            traced = run_passes(workload, state, rec_traced, budget, speed)
        finally:
            tracer.restore()
        rec.attempted += rec_traced.attempted
        rec.failed += rec_traced.failed
        rec.errors += rec_traced.errors
        rec.op("wrappers restored", leftovers, models,
               check=lambda found: f"still installed: {found}" if found else None)
        covered = tracer.total_self_s() / sum(p["wall"] for p in traced)
        bound = coverage_bound()
        rec.op("self times sum to traced wall", lambda: covered,
               check=lambda c: None if abs(1 - c) <= bound else f"self times sum to {c:.1%}, bound {bound:.0%}")
        tracer.write_spans(SPAN_DIR / f"spans-{workload.name}-seed{seed}.jsonl")
        result["per_layer"] = per_layer(workload, state, passes, traced, rec, tracer)
        result["coverage"] = covered
    rec.new_pass()  # keep the untimed checks' counts out of the passes'
    workload.verify(state, rec)
    result["end_to_end"], result["notes"] = end_to_end(workload, setup_s, passes, rec)
    result["notes"]["setup_s"] = setup_note
    return result


# ---------------------------------------------------------------------------
# Output


def fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1:
        return f"{int(value):,}"
    return f"{value:.4g}"


def print_single(name, result, trace):
    rec = result["rec"]
    print(f"workload {name}: {rec.attempted} operations, {rec.failed} failed")
    for error in rec.errors[:20]:
        print(f"  FAIL {error}")
    for metric, unit in END_TO_END:
        value = result["end_to_end"][metric]
        note = result["notes"].get(metric)
        print(f"  {metric:<16} {fmt(value):>14} {unit:<6}" + (f"  ({note})" if note else ""))
    if trace:
        print(f"  per-module metrics (per traced pass; self times cover "
              f"{result['coverage']:.1%} of traced pass time):")
        for metric, unit in per_layer_names():
            print(f"    {metric:<44} {fmt(result['per_layer'][metric]):>14} {unit}")


def last_line(results: dict, trace: bool) -> dict:
    correct = all(r["rec"].failed == 0 for r in results.values())
    attempted = sum(r["rec"].attempted for r in results.values())
    failed = sum(r["rec"].failed for r in results.values())
    if len(results) == 1:
        (result,) = results.values()
        if trace:
            units = dict(per_layer_names())
            values = result["per_layer"]
        else:
            units = {m: UNITS[m] for m in GATED}
            values = result["end_to_end"]
        metrics = {m: {"value": values[m], "unit": u} for m, u in units.items()}
    else:
        key = "per_layer" if trace else "end_to_end"
        metrics = {name: r[key] for name, r in results.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def print_table(results: dict, trace: bool):
    """End-to-end: one row per workload. Per-module: one row per metric."""
    names = list(results)
    if not trace:
        print(f"{'workload':<18}" + "".join(f"{f'{m} ({u})':>22}" for m, u in END_TO_END))
        for n in names:
            print(f"{n:<18}" + "".join(f"{fmt(results[n]['end_to_end'][m]):>22}" for m, _ in END_TO_END))
        return
    print(f"{'metric':<44} {'unit':<6}" + "".join(f"{n:>18}" for n in names))
    for metric, unit in per_layer_names():
        print(f"{metric:<44} {unit:<6}" + "".join(f"{fmt(results[n]['per_layer'][metric]):>18}" for n in names))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="exhaustive-diff, long-inputs, compile-roundtrip, symbolic-check or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "starfree" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'starfree'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with HostSpeed() as speed:  # imports count toward set-up
        t0 = speed.clock()
        import starfree
        from workloads import WORKLOADS

        import_s = speed.clock() - t0
    import_s *= speed.scale()
    if Path(starfree.__file__).resolve().parent != (SRC / "starfree").resolve():
        print(f"error: starfree imported from {starfree.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    print("meta " + json.dumps(metadata(args.seed)))
    trace = bool(args.trace)
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, trace, import_s)
        print_single(name, results[name], trace)
        sys.stdout.flush()
    if len(names) > 1:
        print_table(results, trace)
    print(json.dumps(last_line(results, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
