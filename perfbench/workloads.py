"""The three workloads: their inputs, and one timed pass over them.

``fold`` and ``circuit`` run each input through the library chain
(load JSON, degree profile and strong components, decompose, cover,
dump and reload the cover, verify the reloaded cover). ``batch`` runs
each input through the JSON CLI in-process (analyze, decompose, cover
-o, verify, then tour on the cover's source). Every call into the
program goes through a module attribute looked up at call time, so a
traced pass sees it through the tracer's wrappers.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from circlet import cli, complexes, covers, families, matroid, serialize

FOLD_RUNGS = (10, 20, 40, 80)
CIRCUIT_SIZES = ((10, 4), (10, 8), (14, 8), (20, 8))
LIBRARY_STAGES = ("load", "analyze", "decompose", "cover", "roundtrip", "verify")
CLI_STAGES = ("analyze", "decompose", "cover", "verify", "tour")
# stages whose output is digested and checked
LIBRARY_OUTPUTS = ("analyze", "decompose", "cover", "verify")
CLI_OUTPUTS = CLI_STAGES


@dataclass
class Input:
    label: str
    build: Callable[[], complexes.Complex]


def _random_even(s: int, n: int) -> Input:
    return Input(f"random_even({s}, {n})", lambda: families.random_even(s, n))


def _fold_rung(rng: random.Random, n: int) -> Input:
    # Library circlets have 4, 6 or 8 facets and 6 or 12 sides, so n glued
    # pieces average 6n facets and 9n + 1 sides. Holding each rung near
    # that size keeps the work per rung the same from seed to seed; the
    # seed still picks the gluing.
    while True:
        s = rng.randrange(2**31)
        k = families.random_even(s, n)
        if abs(len(k.facets) - 6 * n) <= max(4, 0.01 * 6 * n) and abs(
            len(k.sides) - (9 * n + 1)
        ) <= max(6, 0.02 * (9 * n + 1)):
            return _random_even(s, n)


def _relabeled(k: complexes.Complex, rng: random.Random) -> complexes.Complex:
    """The same complex with plain alphanumeric ids shuffled by rng."""
    names: dict[str, str] = {}
    for r in range(k.dim + 1):
        ids = list(k.cells_of_dim(r))
        rng.shuffle(ids)
        names.update((cid, f"{'vefc'[r]}{i}") for i, cid in enumerate(ids))
    return complexes.build_complex(
        complexes.Cell(names[c.id], c.dim, frozenset(names[b] for b in c.boundary))
        for c in k
    )


def _circuit_input(seed: int, k: int, m: int) -> Input:
    def build() -> complexes.Complex:
        return _relabeled(
            families.finned_circlet(k, m), random.Random(f"circuit/{seed}/{k}/{m}")
        )

    return Input(f"finned_circlet({k}, {m}) relabeled by seed {seed}", build)


def inputs(workload: str, seed: int) -> list[Input]:
    """The workload's inputs for a seed, in pass order."""
    if workload == "fold":
        rng = random.Random(f"fold/{seed}")
        return [_fold_rung(rng, n) for n in FOLD_RUNGS]
    if workload == "circuit":
        return [_circuit_input(seed, k, m) for k, m in CIRCUIT_SIZES]
    if workload == "batch":
        rng = random.Random(f"batch/{seed}")
        out = []
        for i in range(60):
            s, n = rng.randrange(2**31), 2 + i % 5
            out.append(_random_even(s, n))
        for _ in range(30):
            s = rng.randrange(2**31)
            out.append(
                Input(
                    f"random_even_multigraph({s})",
                    lambda s=s: families.random_even_multigraph(s),
                )
            )
        out.append(Input("simplex_skeleton(9, 3)", lambda: families.simplex_skeleton(9, 3)))
        out.append(Input("hypercube_skeleton(6, 3)", lambda: families.hypercube_skeleton(6, 3)))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def stages(workload: str) -> tuple[str, ...]:
    return CLI_STAGES if workload == "batch" else LIBRARY_STAGES


def outputs(workload: str) -> tuple[str, ...]:
    return CLI_OUTPUTS if workload == "batch" else LIBRARY_OUTPUTS


# ---- one pass ---------------------------------------------------------


@dataclass
class ItemRun:
    """One input through one chain: stage times, outputs, first failure."""

    times: dict[str, float] = field(default_factory=dict)
    latency: float = 0.0
    results: dict[str, object] = field(default_factory=dict)
    failed_stage: str | None = None
    error: str | None = None
    counts: dict[str, int] = field(default_factory=dict)

    def stage(self, name: str, fn: Callable, *args):
        if self.failed_stage is not None:
            return None
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed_stage, self.error = name, f"{type(exc).__name__}: {exc}"
            return None
        self.times[name] = time.perf_counter() - start
        self.results[name] = result
        return result


def _library_chain(item: ItemRun, path: Path, cover_path: Path) -> None:
    k = item.stage("load", serialize.load_complex, path)
    item.stage(
        "analyze",
        lambda: (complexes.degree_profile(k), complexes.strong_components(k)),
    )
    item.stage("decompose", matroid.decompose_into_circlets, k)
    cover = item.stage("cover", covers.euler_cover, k)

    def roundtrip():
        text = serialize.dumps(serialize.cover_to_dict(cover))
        cover_path.write_text(text)
        return text, serialize.load_cover(cover_path)

    loaded = item.stage("roundtrip", roundtrip)
    item.stage("verify", covers.verify_cover, loaded and loaded[1])


def _cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _cli_chain(item: ItemRun, path: Path, cover_path: Path, source_path: Path) -> None:
    cover_path.unlink(missing_ok=True)  # a failed cover must not leave the last pass's file
    for name, argv in (
        ("analyze", ("analyze", str(path))),
        ("decompose", ("decompose", str(path))),
        ("cover", ("cover", str(path), "-o", str(cover_path))),
        ("verify", ("verify", str(cover_path))),
    ):
        item.stage(name, _cli, *argv)
    # glue, not program work: the tour reads the cover's source as a complex
    if item.results.get("cover", (None,))[0] == 0:
        source = json.loads(cover_path.read_text())["source"]
        source_path.write_text(json.dumps(source, indent=2) + "\n")
    else:
        source_path.unlink(missing_ok=True)
    item.stage("tour", _cli, "tour", str(source_path))


@dataclass
class PassRun:
    seconds: float
    items: list[ItemRun]


def run_pass(
    workload: str, paths: list[Path], work: Path, tracer=None, between=None
) -> PassRun:
    """Every input once, in order. With a tracer, keep per-item counts.

    ``between``, if given, is called after each input; its time is left
    out of the pass time.
    """
    items = []
    start = time.perf_counter()
    for i, path in enumerate(paths):
        item = ItemRun()
        before = tracer.counts.copy() if tracer is not None else None
        t0 = time.perf_counter()
        if workload == "batch":
            _cli_chain(item, path, work / f"cover{i}.json", work / f"source{i}.json")
        else:
            _library_chain(item, path, work / f"cover{i}.json")
        item.latency = time.perf_counter() - t0
        if tracer is not None:
            item.counts = dict(tracer.counts - before)
        items.append(item)
        if between is not None:
            t1 = time.perf_counter()
            between()
            start += time.perf_counter() - t1
    return PassRun(time.perf_counter() - start, items)
