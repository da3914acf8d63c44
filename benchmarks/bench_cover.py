"""Time every pipeline stage up five ladders, and pin the outputs.

Ladders: random_even(1, n) for n = 80 to 1280 circlets, and
simplex_skeleton(v, 2) for v = 20, 30, 40, whose long independent
prefixes keep the elimination basis large. Then dimensions 3 to 5,
where sides lie under many facets and circlets share many sides:
simplex_skeleton(v, 3) for v = 11, 15, 19, hypercube_skeleton(d, 4) for
d = 5, 7, 9 and hypercube_skeleton(d, 5) for d = 6, 8. Their sides have
degree v - 3, d - 3 and d - 4, so every rung is even. Per rung, the
best of N runs of decompose_into_circlets, euler_cover,
serialize.cover_json (dump), serialize.load_cover of the written file
(load) and verify_cover of the loaded cover; the last three are the
CLI's `cover -o`, then `verify`.
A complex keeps its decomposition once built, so each repeat
decomposes and covers fresh copies, built outside the timing.
Each rung shows sha256 prefixes of the decomposition's, the cover's and
the report's canonical JSON; each ladder ends with every stage's
exponent, the least-squares slope of log time against log facet count.
With its last rung's complex and loaded cover alive, each ladder also
shows the time of one full gc.collect(), after an untimed one so that it
reads what each later collection pays, and the number of GC-tracked
objects, len(gc.get_objects()).
Every repeat asserts that the report passes, that the loaded cover
writes back the same text, and that the digests are the recorded ones;
no time is asserted.

Usage: python3 benchmarks/bench_cover.py [--repeat N]
"""

import argparse
import gc
import hashlib
import math
import statistics
import tempfile
import time
from pathlib import Path

from circlet import Complex, decompose_into_circlets, euler_cover, verify_cover
from circlet import serialize
from circlet.families import hypercube_skeleton, random_even, simplex_skeleton

PASSED = "0adf2161214843ba"  # a passing report has no violations
LADDERS = (
    [
        (f"random_even(1, {n})", random_even, (1, n), parts, cover)
        for n, parts, cover in (
            (80, "3bb4e69d3611b27b", "8baaa07b38c6f13a"),
            (160, "8837b8e880398e6d", "3823bf095f2bee16"),
            (320, "c746688e7c347a80", "8abb479056066c5c"),
            (640, "4eacc071fc7cee09", "a5a355523ffd0907"),
            (1280, "e092f6b82d457da4", "35e19113362560cc"),
        )
    ],
    [
        (f"simplex_skeleton({v}, 2)", simplex_skeleton, (v, 2), parts, cover)
        for v, parts, cover in (
            (20, "af98d9264d0e2022", "ebb429f4cf9fb9da"),
            (30, "64c9a7e5be9111a0", "0073ee07c642a1d3"),
            (40, "188e6ff5b9cc5579", "8d44c4cf6c193fa0"),
        )
    ],
    [
        (f"simplex_skeleton({v}, 3)", simplex_skeleton, (v, 3), parts, cover)
        for v, parts, cover in (
            (11, "2d5dd0a54a33e48d", "9b6bdfce9833eb56"),
            (15, "00134a4dc97f0e40", "f62fbcbbd0bf7db8"),
            (19, "4df3066927e00e8d", "0d2e793653ed0ef6"),
        )
    ],
    [
        (f"hypercube_skeleton({d}, 4)", hypercube_skeleton, (d, 4), parts, cover)
        for d, parts, cover in (
            (5, "1974646373ac2225", "496916551845f351"),
            (7, "317943dcf021f629", "f7c766e51d63d4a0"),
            (9, "4ddb67e5ac97278a", "62119fb9808f3a2a"),
        )
    ],
    [
        (f"hypercube_skeleton({d}, 5)", hypercube_skeleton, (d, 5), parts, cover)
        for d, parts, cover in (
            (6, "8d07488d5ea3abcf", "bff7d09b63edb6e6"),
            (8, "4e595133ebee723d", "437035a52a0cc7ee"),
        )
    ],
)
STAGES = ("decompose", "cover", "dump", "load", "verify")


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5)
    repeat = max(1, parser.parse_args().repeat)

    print(f"{'input':<24} {'facets':>7} {'circlets':>8}", end="")
    print("".join(f"{s:>11}" for s in STAGES) + "  parts, cover, report sha256")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cover.json"
        for ladder in LADDERS:
            facets, best = [], []
            for name, family, params, *recorded in ladder:
                k = family(*params)
                times = [math.inf] * len(STAGES)
                for _ in range(repeat):
                    a, got = timed(decompose_into_circlets, Complex(k))
                    b, cover = timed(euler_cover, Complex(k))
                    c, text = timed(serialize.cover_json, cover)
                    path.write_text(text)
                    d, loaded = timed(serialize.load_cover, path)
                    e, report = timed(verify_cover, loaded)
                    assert report.passed, f"{name}: {report.violations[0].message}"
                    assert serialize.cover_json(loaded) == text, f"{name}: round trip"
                    digests = (
                        sha(serialize.dumps(serialize.decomposition_to_dict(got))),
                        sha(text),
                        sha(serialize.dumps(serialize.report_to_dict(report))),
                    )
                    assert digests == (*recorded, PASSED), f"{name}: digests {digests}"
                    times = [min(t, x) for t, x in zip(times, (a, b, c, d, e))]
                facets.append(len(k.facets))
                best.append(times)
                cols = "".join(f" {t * 1e3:>8.1f}ms" for t in times)
                sums = "  ".join(digests)
                print(f"{name:<24} {facets[-1]:>7} {len(got.parts):>8}{cols}  {sums}")
            del got, cover  # k and its loaded cover stay alive
            gc.collect()
            t, _ = timed(gc.collect)
            tracked = len(gc.get_objects())
            print(f"{'gc, last rung alive':<41} collect {t * 1e3:.1f}ms, ", end="")
            print(f"{tracked} objects tracked")
            fit = statistics.linear_regression
            x = list(map(math.log, facets))
            slopes = (fit(x, list(map(math.log, col))).slope for col in zip(*best))
            print(f"{'exponent':<41}" + "".join(f"{e:>11.2f}" for e in slopes))


if __name__ == "__main__":
    main()
