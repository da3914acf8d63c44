"""Time canonical JSON: serialize.dumps against the stdlib, and load_cover.

Builds the covers of random_even(1, n) for n = 10, 20, 40, 80 and of
finned_circlet(20, 8), and reports per cover the best of N runs of
serialize.dumps, of json.dumps(doc, indent=2) + "\\n" (the text dumps must
equal) and of serialize.load_cover on the written file. Every repeat checks
that both texts are byte-identical and that the loaded cover dumps back to
the same text.

Usage: python3 benchmarks/bench_json.py [--repeat N]
"""

import argparse
import json
import tempfile
import time
from pathlib import Path

from circlet import euler_cover, serialize
from circlet.families import finned_circlet, random_even


def cases():
    for n in (10, 20, 40, 80):
        yield f"random_even(1, {n})", random_even(1, n)
    yield "finned_circlet(20, 8)", finned_circlet(20, 8)


def stdlib_dumps(doc):
    return json.dumps(doc, indent=2) + "\n"


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=10)
    args = parser.parse_args()
    repeat = max(1, args.repeat)

    print(
        f"{'cover of':<24} {'bytes':>9} {'stdlib':>10} {'dumps':>10} "
        f"{'speedup':>8} {'load_cover':>11}"
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cover.json"
        for name, k in cases():
            doc = serialize.cover_to_dict(euler_cover(k))
            t_std = t_new = t_load = float("inf")
            for _ in range(repeat):
                a, expected = timed(stdlib_dumps, doc)
                b, text = timed(serialize.dumps, doc)
                assert text == expected, f"{name}: dumps differs from stdlib"
                path.write_text(text)
                c, cover = timed(serialize.load_cover, path)
                assert serialize.dumps(serialize.cover_to_dict(cover)) == text
                t_std, t_new = min(t_std, a), min(t_new, b)
                t_load = min(t_load, c)
            print(
                f"{name:<24} {len(text):>9} {t_std * 1e3:>8.2f}ms "
                f"{t_new * 1e3:>8.2f}ms {t_std / t_new:>7.1f}x "
                f"{t_load * 1e3:>9.2f}ms"
            )


if __name__ == "__main__":
    main()
