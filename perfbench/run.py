"""Benchmark for circlet: three workloads, end-to-end and per-layer numbers.

    python3 perfbench/run.py --workload fold|circuit|batch --seed N \
        --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
Set-up (import, input generation, writing input JSON) runs before the
timed window. Passes over the workload's inputs then repeat, closed
loop in one thread, until ``--seconds`` have passed. Every end-to-end
timing but set-up is taken per input as the least over passes, summed
over the inputs or, for latencies, given as a median and a tail over
them, and scaled to the speed of a fixed reference (reference.py) timed
between inputs. Outputs are checked outside the timed window. The last
line of stdout is the result; the line before it is the run record,
which keeps the unscaled timings. With ``--trace 1`` passes alternate
between untraced and traced ones and the result holds the per-layer
metrics; with ``--trace 0`` nothing is wrapped and it holds the
end-to-end metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

WORKLOADS = ("fold", "circuit", "batch")
# Reserved for confirming a claimed gain; never used while tuning.
HELD_OUT_SEED = 7919
# Set-up repeats at least SETUP_REPEATS times and until SETUP_MIN_S
# seconds have gone into it, so that circuit's set-up of under 0.1 s
# still gives a median of some 20 repeats.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.5
IMPORT_RUNS = 5
# End-to-end timings are the least, per input, over the passes of a run,
# scaled to the reference speed (see reference.py). On a shared 2-CPU
# host the speed of a fixed pure-Python loop swung by up to 2x within
# seconds: interference only ever adds time, and the least over short
# samples filters that where whole-pass timings cannot. The host's
# fastest speed itself moved by up to 1.7x over minutes, which no
# statistic of one run removes; the reference, timed between inputs
# (REFERENCE_CALLS calls at most every REFERENCE_EVERY_S seconds), measures
# it. Its 10th percentile reaches as far into its fast tail as the least
# of a run's 5 to 10 passes reaches into an input's.
REFERENCE_EVERY_S = 0.1
REFERENCE_CALLS = 3
REFERENCE_PERCENTILE = 10
# Cold CLI runs belong to the traced run: the fastest start of a fresh
# interpreter moved by 1.5x between 50-second runs, and paired starts of
# a bare interpreter did not move with it closely enough to scale it.
# They are taken between inputs of the untraced passes, one per
# COLD_EVERY_S seconds and at least MIN_COLD_RUNS, and left out of the
# pass timings.
COLD_EVERY_S = 1.5
MIN_COLD_RUNS = 10
# Percentile of the per-input latencies given as item_tail_s: the
# largest input on fold and circuit, which have 4 inputs; on batch, of
# 92 inputs, the highest with about ten inputs beyond it.
TAIL_PERCENTILE = {"fold": 100, "circuit": 100, "batch": 90}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs: list[float], p: int) -> float:
    if p == 100:
        return max(xs)
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-9)) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    sxx = sum((x - mx) ** 2 for x in lx)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sxx


def least_per_input(passes, time_of) -> list[float]:
    """For each input, the least over passes of ``time_of(item)``."""
    return [min(time_of(p.items[i]) for p in passes) for i in range(len(passes[0].items))]


def stage_total(passes, stage: str) -> float:
    """One stage's time summed over the inputs, each input's the least over passes."""
    return sum(least_per_input(passes, lambda item: item.times.get(stage, 0.0)))


def subprocess_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def timed_subprocess(
    argv: list[str], runs: int
) -> tuple[list[float], list[subprocess.CompletedProcess]]:
    times, procs = [], []
    for _ in range(runs):
        start = time.perf_counter()
        procs.append(subprocess.run(
            argv, capture_output=True, text=True, env=subprocess_env(), cwd=ROOT, timeout=60
        ))
        times.append(time.perf_counter() - start)
    return times, procs


def import_times() -> list[float]:
    """Seconds to import circlet.cli, each in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import circlet.cli; "
    code += "print(time.perf_counter() - t)"
    _, procs = timed_subprocess([sys.executable, "-c", code], IMPORT_RUNS)
    return [float(p.stdout) for p in procs]


def reimport_seconds() -> float:
    """Seconds to run circlet's modules afresh in this process.

    The loaded circlet modules are set aside, ``circlet.cli`` is imported
    anew from its cached bytecode and timed, and the originals are put
    back, so the benchmark keeps using one set of module objects. numpy
    and the standard library stay loaded: a fresh interpreter's start is
    ``cli.import_s``, which moved by 1.5x with the host's load.
    """
    def circlet_modules():
        return [n for n in sys.modules if n == "circlet" or n.startswith("circlet.")]

    loaded = {n: sys.modules.pop(n) for n in circlet_modules()}
    start = time.perf_counter()
    importlib.import_module("circlet.cli")
    seconds = time.perf_counter() - start
    for n in circlet_modules():
        del sys.modules[n]
    sys.modules.update(loaded)
    return seconds


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    return proc.stdout.strip() or None


class Bench:
    """One workload at one seed: inputs on disk, checked passes."""

    def __init__(self, workload: str, seed: int, work: Path):
        import workloads
        from circlet import matroid, serialize

        self.workload, self.work = workload, work
        self.inputs = workloads.inputs(workload, seed)
        self.setup_times = []
        while len(self.setup_times) < SETUP_REPEATS or sum(self.setup_times) < SETUP_MIN_S:
            start = time.perf_counter()
            reimport_seconds()
            self.complexes = [inp.build() for inp in self.inputs]
            self.paths = [work / f"input{i}.json" for i in range(len(self.inputs))]
            for k, path in zip(self.complexes, self.paths):
                serialize.save_complex(k, path)
            self.setup_times.append(time.perf_counter() - start)
        self.validated = []
        for k in self.complexes:
            parts = matroid.decompose_into_circlets(k).parts
            ok = matroid.validate_decomposition(k, parts).passed
            self.validated.append(parts if ok else None)
        digest_file = HERE / "digests.json"
        recorded = json.loads(digest_file.read_text())["seeds"] if digest_file.exists() else {}
        rows = recorded.get(f"{seed}/{workload}")
        self.expected = rows and [dict(zip(workloads.outputs(workload), row)) for row in rows]
        self.recorded = self.expected is not None
        self.invariants_checked = False
        self.problems: list[str] = []

    def check(self, run) -> int:
        """Failed operations in one pass.

        The first pass is checked against the invariants; every pass
        against the recorded digests, or, for a seed without them,
        against the first pass.
        """
        import checks

        failed, got = 0, []
        for i, item in enumerate(run.items):
            cover_path = self.work / f"cover{i}.json"
            digests = checks.item_digests(self.workload, item, cover_path)
            if self.invariants_checked:
                found = checks.not_run(self.workload, item)
            else:
                found = checks.item_problems(
                    self.workload, self.complexes[i], self.validated[i], item,
                    cover_path, self.work / f"source{i}.json",
                )
            if self.expected is not None:
                for stage, want in self.expected[i].items():
                    if digests.get(stage) != want and stage not in found:
                        found[stage] = f"output digest {digests.get(stage)} != {want}"
            failed += len(found)
            self.problems += [f"{self.inputs[i].label} {s}: {p}" for s, p in found.items()]
            got.append(digests)
            item.results = {}  # keep only timings from here on
        self.invariants_checked = True
        if self.expected is None:
            self.expected = got
        return failed


def run(args, work: Path) -> tuple[dict, dict]:
    import numpy
    import reference
    import tracer as tracing
    import workloads
    from circlet import gf2

    bench = Bench(args.workload, args.seed, work)
    n_ops = len(workloads.stages(args.workload)) * len(bench.inputs)
    tr = tracing.Tracer() if args.trace else None
    plain, traced = [], []
    cold_argv = [sys.executable, "-m", "circlet.cli", "analyze", str(bench.paths[0])]
    cold_times, cold_procs = [], []

    def cold_run():
        t, procs = timed_subprocess(cold_argv, 1)
        cold_times.extend(t)
        cold_procs.extend(procs)

    def cold_run_due():
        if time.perf_counter() - start >= COLD_EVERY_S * (len(cold_times) + 1):
            cold_run()

    ref_times, ref_last = [], [0.0]

    def reference_due():
        if time.perf_counter() - ref_last[0] >= REFERENCE_EVERY_S:
            ref_times.extend(reference.times(REFERENCE_CALLS))
            ref_last[0] = time.perf_counter()

    attempted = failed = 0
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        if tr is not None and len(plain) > len(traced):
            with tr:
                p = workloads.run_pass(args.workload, bench.paths, work, tr)
            traced.append((p, tracing.summarize(tr.spans), dict(tr.counts)))
            tr.reset()
        else:
            between = cold_run_due if tr is not None else reference_due
            p = workloads.run_pass(args.workload, bench.paths, work, between=between)
            plain.append(p)
        attempted += n_ops
        failed += bench.check(p)
        if time.perf_counter() >= deadline and (tr is None or traced):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while tr is not None and len(cold_times) < MIN_COLD_RUNS:
        cold_run()
    for proc in cold_procs:
        attempted += 1
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout)["is_even"] is True
        except (ValueError, KeyError):
            ok = False
        if not ok:
            failed += 1
            bench.problems.append(f"cold CLI run: exit {proc.returncode}, {proc.stderr[-200:]!r}")

    latencies = least_per_input(plain, lambda item: item.latency)
    tail_p = TAIL_PERCENTILE[args.workload]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "digests_recorded_for_seed": bench.recorded,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gf2_backend": gf2.active_backend(),
        "CIRCLET_GF2_BACKEND": os.environ.get("CIRCLET_GF2_BACKEND"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "inputs": [
            {"input": inp.label, "facets": len(k.facets), "sides": len(k.sides),
             "circlets": len(v) if v else None}
            for inp, k, v in zip(bench.inputs, bench.complexes, bench.validated)
        ],
        "setup_repeats": len(bench.setup_times),
        "pass_s": [round(p.seconds, 4) for p in plain],
        "traced_passes": len(traced),
        "item_tail_s": {"percentile": tail_p, "inputs": len(latencies), "samples_per_input": len(plain)},
        "cli_cold_runs": len(cold_times),
        "problems": bench.problems[:10],
    }

    if tr is None:
        measured = {
            "setup_s": median(bench.setup_times),
            "pass_s": sum(latencies),
            "decompose_s": stage_total(plain, "decompose"),
            "cover_s": stage_total(plain, "cover"),
            "verify_s": stage_total(plain, "verify"),
            "item_p50_s": median(latencies),
            "item_tail_s": percentile(latencies, tail_p),
        }
        ref_s = percentile(ref_times, REFERENCE_PERCENTILE)
        scale = reference.REFERENCE_S / ref_s
        record["reference"] = {"calls": len(ref_times), "percentile_s": ref_s, "scale": scale}
        record["unscaled"] = measured
        metrics = {
            **{name: (value * scale, "s") for name, value in measured.items()},
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics, record["trace"] = layer_metrics(bench, plain, traced)
        metrics["cli_cold_s"] = (min(cold_times), "s")
        metrics["fail_ratio"] = (failed / attempted, "ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


# span name and measure behind each per-layer time: "incl_s" is the time
# inside the outermost calls, "self_s" leaves out the wrapped calls below
LAYER_TIMES = {
    "complexes.build_s": ("complexes.build", "incl_s"),
    "complexes.facets_over_s": ("complexes.facets_over", "incl_s"),
    "complexes.strong_components_s": ("complexes.strong_components", "incl_s"),
    "complexes.corner_link_s": ("complexes.corner_link", "incl_s"),
    "gf2.scan_s": ("gf2.scan", "incl_s"),
    "matroid.incidence_s": ("matroid.incidence", "incl_s"),
    "matroid.extract_s": ("matroid.extract", "incl_s"),
    "matroid.column_index_s": ("matroid.column_index", "incl_s"),
    "covers.merge_s": ("covers.merge", "incl_s"),
    "covers.gluing_from_cover_s": ("covers.gluing_from_cover", "incl_s"),
    "covers.build_glued_s": ("covers.build_glued", "incl_s"),
    "covers.verify_self_s": ("covers.verify", "self_s"),
    "covers.tour_s": ("covers.tour", "incl_s"),
    "serialize.load_s": ("serialize.load", "incl_s"),
    "serialize.dump_s": ("serialize.dump", "incl_s"),
    "cli.main_self_s": ("cli.main", "self_s"),
}
LAYER_COUNTS = {
    "complexes.build_calls": "complexes.build",
    "complexes.cells_built": "complexes.cells_built",
    "complexes.facets_over_calls": "complexes.facets_over",
    "complexes.corner_link_calls": "complexes.corner_link",
    "gf2.scans": "gf2.scan",
    "gf2.scan_cols": "gf2.scan_cols",
    "matroid.incidence_calls": "matroid.incidence",
    "matroid.extract_calls": "matroid.extract",
    "matroid.find_even_calls": "matroid.find_even",
    "covers.cover_circlet_calls": "covers.cover_circlet",
    "covers.merge_calls": "covers.merge",
    "covers.build_glued_calls": "covers.build_glued",
}


def layer_metrics(bench, plain, traced):
    counts = traced[0][2]

    def span_time(name, kind):
        return median([summary.get(name, {}).get(kind, 0.0) for _, summary, _ in traced])

    def ratio(a, b):
        return counts.get(a, 0) / counts[b] if counts.get(b) else 0.0

    metrics = {m: (span_time(*spec), "s") for m, spec in LAYER_TIMES.items()}
    metrics.update({m: (counts.get(name, 0), "count") for m, name in LAYER_COUNTS.items()})
    metrics["gf2.scan_bytes"] = (counts.get("gf2.scan_bytes", 0), "bytes")
    metrics["gf2.dependent_ratio"] = (ratio("gf2.dependent", "gf2.scan"), "ratio")
    metrics["matroid.circuit_ratio"] = (ratio("matroid.extract", "matroid.find_even"), "ratio")
    metrics["serialize.json_bytes"] = (counts.get("serialize.json_bytes", 0), "bytes")
    metrics["cli.import_s"] = (median(import_times()), "s")
    facets = [len(k.facets) for k in bench.complexes]
    for stage in ("cover", "decompose", "verify"):
        per_input = [
            median([p.items[i].times.get(stage, 0.0) for p in plain])
            for i in range(len(facets))
        ]
        metrics[f"{stage}_exp"] = (slope(facets, per_input), "slope")
    metrics["trace_overhead_s"] = (
        median([p.seconds for p, _, _ in traced]) - median([p.seconds for p in plain]), "s"
    )

    circlets = [len(v) if v else 0 for v in bench.validated]
    first_items = traced[0][0].items
    checks = {
        "merge_calls_eq_circlets_minus_1": all(
            item.counts.get("covers.merge", 0) == c - 1 for item, c in zip(first_items, circlets)
        ),
        "scans_eq_find_even_calls": all(
            item.counts.get("gf2.scan", 0) == item.counts.get("matroid.find_even", 0)
            for item in first_items
        ),
        "counts_repeat": all(c == counts for _, _, c in traced),
    }
    cover_s = stage_total([p for p, _, _ in traced], "cover")
    decompose_s = stage_total([p for p, _, _ in traced], "decompose")
    shares = {
        "scan_of_decompose_and_cover": span_time("gf2.scan", "incl_s") / (cover_s + decompose_s),
        "facets_over_and_merge_self_of_cover": (
            span_time("complexes.facets_over", "incl_s") + span_time("covers.merge", "self_s")
        ) / cover_s,
    }
    self_s = {
        name: median([summary.get(name, {}).get("self_s", 0.0) for _, summary, _ in traced])
        for name in sorted({n for _, summary, _ in traced for n in summary})
    }
    return metrics, {"cross_checks": checks, "shares": shares, "self_s": self_s,
                     "traced_cover_s": cover_s, "traced_decompose_s": decompose_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "circlet" / "__init__.py").is_file():
        print(f"error: no circlet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = HERE / "_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        result, record = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
