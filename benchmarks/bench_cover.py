"""Time decompose_into_circlets, euler_cover and verify_cover up two ladders.

Runs them on random_even(1, n) for n = 80, 160, 320, 640, 1280 circlets
and on simplex_skeleton(v, 2) for v = 20, 30, 40, whose long independent
prefixes keep the elimination basis large; verify_cover checks the cover
euler_cover built. Reports per rung the best of N runs of each, the
log-log slope of that time against the facet count from the rung below
in the same ladder, and the first 16 hex digits of the sha256 of the
canonical JSON of the decomposition, the cover and the verify report.
Every repeat checks that the cover passes verify_cover and that all
three are the same as on the first run.
A complex keeps its incidence matrix and its circlet decomposition once
built, so each repeat hands decompose_into_circlets and euler_cover a
fresh copy of the rung's complex, built outside the timing: no repeat
reuses an earlier matrix or decomposition, and the cover column times a
full peel.

Usage: python3 benchmarks/bench_cover.py [--repeat N]
"""

import argparse
import hashlib
import math
import time

from circlet import (
    Complex,
    decompose_into_circlets,
    euler_cover,
    serialize,
    verify_cover,
)
from circlet.families import random_even, simplex_skeleton

LADDERS = (
    [(f"random_even(1, {n})", random_even, (1, n)) for n in (80, 160, 320, 640, 1280)],
    [(f"simplex_skeleton({v}, 2)", simplex_skeleton, (v, 2)) for v in (20, 30, 40)],
)


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def slope(t, t_prev, f, f_prev):
    if t_prev is None:
        return ""
    return f"{math.log(t / t_prev) / math.log(f / f_prev):.2f}"


def sha(doc):
    return hashlib.sha256(serialize.dumps(doc).encode()).hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    repeat = max(1, args.repeat)

    print(
        f"{'input':<24} {'facets':>7} {'circlets':>8} {'decompose':>10} "
        f"{'slope':>6} {'cover':>10} {'slope':>6} {'verify':>10} {'slope':>6}  "
        f"{'parts sha256':<16}  {'cover sha256':<16}  report sha256"
    )
    for ladder in LADDERS:
        prev = None
        for name, family, params in ladder:
            k = family(*params)
            facets = len(k.facets)
            times = [math.inf] * 3
            digests = None
            for _ in range(repeat):
                a, got = timed(decompose_into_circlets, Complex(k))
                b, cover = timed(euler_cover, Complex(k))
                c, report = timed(verify_cover, cover)
                assert report.passed, f"{name}: {report.violations[0].message}"
                now = (
                    sha(serialize.decomposition_to_dict(got)),
                    sha(serialize.cover_to_dict(cover)),
                    sha(serialize.report_to_dict(report)),
                )
                assert digests in (None, now), f"{name}: output differs"
                digests = now
                times = [min(t, x) for t, x in zip(times, (a, b, c))]
            p_times, p_facets = prev or ((None,) * 3, None)
            cols = "".join(
                f" {t * 1e3:>8.1f}ms {slope(t, p, facets, p_facets):>6}"
                for t, p in zip(times, p_times)
            )
            print(
                f"{name:<24} {facets:>7} {len(got.parts):>8}{cols}  "
                + "  ".join(digests)
            )
            prev = (times, facets)


if __name__ == "__main__":
    main()
