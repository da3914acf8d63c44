"""Time the GF(2) dependency scan.

Runs first_dependency over incidence matrices of generated complexes and
over random bit matrices, reporting the best of N runs per case and
checking that every run returns the same result.

Usage: python3 benchmarks/bench_gf2.py [--repeat N]
"""

import argparse
import time

import numpy as np

from circlet import gf2, incidence_matrix
from circlet.families import hypercube_skeleton, simplex_skeleton


def random_packed(rng, n_rows, n_cols, density):
    cols = []
    for _ in range(n_cols):
        mask = rng.random(n_rows) < density
        cols.append(list(np.nonzero(mask)[0]))
    return gf2.pack_from_indices(cols, n_rows=n_rows)


def cases():
    yield "simplex_skeleton(12, 3)", incidence_matrix(
        simplex_skeleton(12, 3)
    ).packed
    yield "simplex_skeleton(14, 3)", incidence_matrix(
        simplex_skeleton(14, 3)
    ).packed
    yield "hypercube_skeleton(7, 3)", incidence_matrix(
        hypercube_skeleton(7, 3)
    ).packed
    rng = np.random.default_rng(99)
    yield "random 2000x600 d=0.05", random_packed(rng, 2000, 600, 0.05)
    yield "random 4000x1200 d=0.01", random_packed(rng, 4000, 1200, 0.01)


def bench(packed, repeat):
    """Best time over the repeats, and the result all repeats agreed on."""
    best = float("inf")
    results = []
    for _ in range(repeat):
        start = time.perf_counter()
        j, combo = gf2.first_dependency(np.array(packed))
        best = min(best, time.perf_counter() - start)
        results.append((j, combo.tolist()))
    assert all(r == results[0] for r in results), "repeats disagree"
    return best, results[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    print(f"{'case':<28} {'cols x words':>14} {'scan':>10} {'dependent':>10}")
    for name, packed in cases():
        shape = f"{packed.shape[0]} x {packed.shape[1]}"
        t, (j, _) = bench(packed, max(1, args.repeat))
        print(f"{name:<28} {shape:>14} {t * 1e3:>8.2f}ms {j:>10}")


if __name__ == "__main__":
    main()
