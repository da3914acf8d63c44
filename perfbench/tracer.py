"""Outside-in tracing: wrap the program's layer functions, record spans.

A span is ``[name, parent, start, end, nested]``: the name of the layer
call, the index of the span that was open when it started (-1 for none),
two ``perf_counter`` readings, and whether a span of the same name was
already open (a nested call, such as ``load_cover`` reaching
``complex_from_dict``). Wrappers are installed at the module or class
attribute each caller looks up at call time, so internal calls are
caught too. Nothing is wrapped outside ``with Tracer():``.
"""

from __future__ import annotations

import time
from collections import Counter

from circlet import cli, complexes, covers, gf2, matroid, serialize


def _cells_built(counts, args, result):
    counts["complexes.cells_built"] += len(args[0])


def _scan_shape(counts, args, result):
    n_cols, n_words = args[0].shape
    counts["gf2.scan_cols"] += n_cols
    counts["gf2.scan_bytes"] += n_cols * n_words * 8
    counts["gf2.dependent"] += result[0] >= 0


def _json_bytes(counts, args, result):
    counts["serialize.json_bytes"] += len(result.encode())


# (owner, attribute, span name, extra counter) for every wrapped call site.
# A function imported into another module is wrapped there as well, under
# the same name, because callers in that module look it up there.
TARGETS = (
    (complexes.Complex, "__init__", "complexes.build", _cells_built),
    (complexes.Complex, "facets_over", "complexes.facets_over", None),
    (complexes, "strong_components", "complexes.strong_components", None),
    (covers, "strong_components", "complexes.strong_components", None),
    (cli, "strong_components", "complexes.strong_components", None),
    (complexes, "corner_link", "complexes.corner_link", None),
    (covers, "corner_link", "complexes.corner_link", None),
    (gf2, "first_dependency", "gf2.scan", _scan_shape),
    (matroid, "incidence_matrix", "matroid.incidence", None),
    (matroid, "extract_circlet", "matroid.extract", None),
    (matroid, "find_even_subset", "matroid.find_even", None),
    (matroid.IncidenceMatrixGF2, "column_index", "matroid.column_index", None),
    (matroid, "decompose_into_circlets", "matroid.decompose", None),
    (covers, "decompose_into_circlets", "matroid.decompose", None),
    (cli, "decompose_into_circlets", "matroid.decompose", None),
    (covers, "cover_circlet", "covers.cover_circlet", None),
    (covers, "merge_covers", "covers.merge", None),
    (covers, "gluing_from_cover", "covers.gluing_from_cover", None),
    (covers, "build_glued_complex", "covers.build_glued", None),
    (covers, "euler_cover", "covers.euler_cover", None),
    (cli, "euler_cover", "covers.euler_cover", None),
    (covers, "verify_cover", "covers.verify", None),
    (cli, "verify_cover", "covers.verify", None),
    (covers, "side_tour", "covers.tour", None),
    (cli, "side_tour", "covers.tour", None),
    (serialize, "load_complex", "serialize.load", None),
    (serialize, "load_cover", "serialize.load", None),
    (serialize, "complex_from_dict", "serialize.load", None),
    (serialize, "cover_from_dict", "serialize.load", None),
    (serialize, "dumps", "serialize.dump", _json_bytes),
    (serialize, "complex_to_dict", "serialize.dump", None),
    (serialize, "cover_to_dict", "serialize.dump", None),
    (serialize, "decomposition_to_dict", "serialize.dump", None),
    (serialize, "report_to_dict", "serialize.dump", None),
    (serialize, "tour_to_list", "serialize.dump", None),
    (cli, "main", "cli.main", None),
)


class Tracer:
    """Span recorder; ``with`` installs the wrappers and restores them."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._open: Counter[str] = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, original, name, extra):
        spans, stack, open_names, counts = (
            self.spans, self._stack, self._open, self.counts
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, open_names[name] > 0]
            stack.append(len(spans))
            spans.append(rec)
            open_names[name] += 1
            counts[name] += 1
            rec[2] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                rec[3] = clock()
                open_names[name] -= 1
                stack.pop()
            if extra is not None:
                extra(counts, args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def __enter__(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, extra in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, extra))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Drop recorded spans and counts; the wrappers stay as they are."""
        self.spans.clear()
        self.counts.clear()


def self_times(spans: list[list]) -> tuple[list[float], list[float]]:
    """Per span: (self time, time covered by its direct children)."""
    child = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    own = [end - start - c for (_, _, start, end, _), c in zip(spans, child)]
    return own, child


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive time of the outermost calls, self time.

    Inclusive time skips calls nested inside a call of the same name, so
    a recursive or grouped layer is not counted twice.
    """
    own, _ = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for (name, _, start, end, nested), s in zip(spans, own):
        row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += s
        if not nested:
            row["incl_s"] += end - start
    return out
