"""Time decompose_into_circlets and euler_cover up a size ladder.

Runs both on random_even(1, n) for n = 80, 160, 320, 640, 1280 circlets
and reports per rung the best of N runs of each, the log-log slope of
that time against the facet count from the rung below, and the first 16
hex digits of the sha256 of the cover's canonical JSON. Every repeat
checks that the decomposition and the cover's JSON are the same as on
the first run.

Usage: python3 benchmarks/bench_cover.py [--repeat N]
"""

import argparse
import hashlib
import math
import time

from circlet import decompose_into_circlets, euler_cover, serialize
from circlet.families import random_even

SIZES = (80, 160, 320, 640, 1280)


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def slope(t, t_prev, f, f_prev):
    if t_prev is None:
        return ""
    return f"{math.log(t / t_prev) / math.log(f / f_prev):.2f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    repeat = max(1, args.repeat)

    print(
        f"{'input':<22} {'facets':>7} {'circlets':>8} {'decompose':>10} "
        f"{'slope':>6} {'cover':>10} {'slope':>6}  sha256"
    )
    prev = None
    for n in SIZES:
        name = f"random_even(1, {n})"
        k = random_even(1, n)
        facets = len(k.facets)
        t_dec = t_cov = math.inf
        parts = digest = None
        for _ in range(repeat):
            a, got = timed(decompose_into_circlets, k)
            b, cover = timed(euler_cover, k)
            text = serialize.dumps(serialize.cover_to_dict(cover))
            sha = hashlib.sha256(text.encode()).hexdigest()[:16]
            assert parts in (None, got.parts), f"{name}: parts differ"
            assert digest in (None, sha), f"{name}: cover JSON differs"
            parts, digest = got.parts, sha
            t_dec, t_cov = min(t_dec, a), min(t_cov, b)
        p_dec, p_cov, p_facets = prev or (None, None, None)
        print(
            f"{name:<22} {facets:>7} {len(parts):>8} {t_dec * 1e3:>8.1f}ms "
            f"{slope(t_dec, p_dec, facets, p_facets):>6} {t_cov * 1e3:>8.1f}ms "
            f"{slope(t_cov, p_cov, facets, p_facets):>6}  {digest}"
        )
        prev = (t_dec, t_cov, facets)


if __name__ == "__main__":
    main()
