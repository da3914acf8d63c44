"""Time the GF(2) dependency scan.

Runs first_dependency over the int columns of incidence matrices of
generated complexes and over random bit columns, reporting the best of N
runs per case and checking that every run returns the same result.

Usage: python3 benchmarks/bench_gf2.py [--repeat N]
"""

import argparse
import random
import time

from circlet import gf2, incidence_matrix
from circlet.families import hypercube_skeleton, simplex_skeleton


def random_columns(rng, n_rows, n_cols, density):
    """n_cols int bitsets over n_rows rows, each bit set with the density."""
    return [
        sum(1 << r for r in range(n_rows) if rng.random() < density)
        for _ in range(n_cols)
    ]


def cases():
    """(name, columns, rows) per case."""
    for name, k in (
        ("simplex_skeleton(12, 3)", simplex_skeleton(12, 3)),
        ("simplex_skeleton(14, 3)", simplex_skeleton(14, 3)),
        ("hypercube_skeleton(7, 3)", hypercube_skeleton(7, 3)),
    ):
        m = incidence_matrix(k)
        yield name, m.columns, m.shape[0]
    rng = random.Random(99)
    yield "random 2000x600 d=0.05", random_columns(rng, 2000, 600, 0.05), 2000
    yield "random 4000x1200 d=0.01", random_columns(rng, 4000, 1200, 0.01), 4000


def bench(columns, repeat):
    """Best time over the repeats, and the result all repeats agreed on."""
    best = float("inf")
    results = []
    for _ in range(repeat):
        start = time.perf_counter()
        result = gf2.first_dependency(columns)
        best = min(best, time.perf_counter() - start)
        results.append(result)
    assert all(r == results[0] for r in results), "repeats disagree"
    return best, results[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    print(f"{'case':<28} {'cols x rows':>14} {'scan':>10} {'dependent':>10}")
    for name, columns, n_rows in cases():
        shape = f"{len(columns)} x {n_rows}"
        t, (j, _) = bench(columns, max(1, args.repeat))
        print(f"{name:<28} {shape:>14} {t * 1e3:>8.2f}ms {j:>10}")


if __name__ == "__main__":
    main()
