"""Time canonical cover JSON: the stdlib, serialize.dumps, the emitter, load_cover.

Builds the covers of random_even(1, n) for n = 10, 20, 40, 80 and of
finned_circlet(20, 8), and reports per cover the best of N runs of
json.dumps(cover_to_dict(c), indent=2) + "\\n", of
serialize.dumps(cover_to_dict(c)) and of serialize.cover_json(c), each
timed with the dict build it needs, and of serialize.load_cover on the
written file. Every repeat checks that the three texts are
byte-identical and that the loaded cover writes back the same text.

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


def stdlib_text(cover):
    return json.dumps(serialize.cover_to_dict(cover), indent=2) + "\n"


def dumps_text(cover):
    return serialize.dumps(serialize.cover_to_dict(cover))


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
        f"{'emitter':>10} {'speedup':>8} {'load_cover':>11}"
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cover.json"
        for name, k in cases():
            cover = euler_cover(k)
            best = [float("inf")] * 4
            for _ in range(repeat):
                a, expected = timed(stdlib_text, cover)
                b, text = timed(dumps_text, cover)
                c, emitted = timed(serialize.cover_json, cover)
                assert text == expected, f"{name}: dumps differs from stdlib"
                assert emitted == expected, f"{name}: emitter differs from stdlib"
                path.write_text(text)
                d, loaded = timed(serialize.load_cover, path)
                assert serialize.cover_json(loaded) == text
                best = [min(t, x) for t, x in zip(best, (a, b, c, d))]
            t_std, t_dumps, t_emit, t_load = best
            print(
                f"{name:<24} {len(text):>9} {t_std * 1e3:>8.2f}ms "
                f"{t_dumps * 1e3:>8.2f}ms {t_emit * 1e3:>8.2f}ms "
                f"{t_dumps / t_emit:>7.1f}x {t_load * 1e3:>9.2f}ms"
            )


if __name__ == "__main__":
    main()
