"""Output gate: canonical digests and the paper's invariants.

Runs outside the timed window. Every problem is keyed by the stage
(operation) it fails, so each counts once toward the failed operations.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter, defaultdict
from pathlib import Path

from circlet import serialize

from workloads import ItemRun, outputs, stages


def digest(code: int, text: str) -> str:
    return f"{code}:{hashlib.sha256(text.encode()).hexdigest()[:12]}"


def _library_texts(item: ItemRun) -> dict[str, tuple[int, str]]:
    r = item.results
    texts = {}
    if "analyze" in r:
        profile, components = r["analyze"]
        texts["analyze"] = (0, serialize.dumps({
            "degree_histogram": {str(d): c for d, c in profile.histogram().items()},
            "is_pure": profile.is_pure,
            "is_even": profile.is_even,
            "strong_components": len(components),
        }))
    if "decompose" in r:
        texts["decompose"] = (0, serialize.dumps(serialize.decomposition_to_dict(r["decompose"])))
    if "roundtrip" in r:
        texts["cover"] = (0, r["roundtrip"][0])
    if "verify" in r:
        texts["verify"] = (0, serialize.dumps(serialize.report_to_dict(r["verify"])))
    return texts


def _cli_texts(item: ItemRun, cover_path: Path) -> dict[str, tuple[int, str]]:
    texts = dict(item.results)
    if "cover" in texts and texts["cover"][0] == 0:
        texts["cover"] = (0, cover_path.read_text())
    return texts


def item_digests(workload: str, item: ItemRun, cover_path: Path) -> dict[str, str]:
    """Stage -> "exit code:sha256 prefix" for every digested stage that ran."""
    if workload == "batch":
        texts = _cli_texts(item, cover_path)
    else:
        texts = _library_texts(item)
    return {s: digest(*texts[s]) for s in outputs(workload) if s in texts}


def not_run(workload: str, item: ItemRun) -> dict[str, str]:
    """The stage that raised and every stage after it."""
    if item.failed_stage is None:
        return {}
    order = stages(workload)
    skipped = order[order.index(item.failed_stage):]
    return {s: f"not completed: {item.error}" for s in skipped}


# ---- invariants ---------------------------------------------------------


def decomposition_problem(k, parts, validated) -> str | None:
    flat = [f for p in parts for f in p]
    if sorted(flat) != sorted(k.facets):
        return "parts do not partition the facets"
    if validated is None:
        return "validate_decomposition failed at set-up"
    if tuple(tuple(p) for p in parts) != validated:
        return "differs from the decomposition validated at set-up"
    return None


def cover_problem(k, cover) -> str | None:
    if cover.target != k:
        return "cover target differs from the input"
    preimages = Counter(cover.cell_map.get(s) for s in cover.source.sides)
    for s in k.sides:
        if k.side_degrees[s] != 2 * preimages[s]:
            return f"deg_K({s}) = {k.side_degrees[s]} but {preimages[s]} preimages"
    return None


def tour_problem(source, code: int, text: str) -> str | None:
    over: dict[str, set[str]] = defaultdict(set)
    for f in source.facets:
        for s in source.boundary(f):
            over[s].add(f)
    if code == 0:
        tour = json.loads(text)
        if sorted(tour) != sorted(source.sides):
            return "tour does not visit each side exactly once"
        for a, b in zip(tour, tour[1:] + tour[:1]):
            if not over[a] & over[b]:
                return f"consecutive sides {a!r}, {b!r} share no facet"
        return None
    error = json.loads(text).get("error") if code == 1 else None
    if error == "DualNotSimple":
        pairs = Counter(tuple(sorted(over[s])) for s in source.sides)
        if max(pairs.values()) > 1:
            return None
    if error == "OddFacet" and any(len(source.boundary(f)) % 2 for f in source.facets):
        return None
    return f"tour exited {code} ({error}) on a tourable source"


def _library_problems(k, validated, item: ItemRun) -> dict[str, str]:
    r, out = item.results, {}
    if "analyze" in r:
        profile, components = r["analyze"]
        if not profile.is_even or len(components) != 1:
            out["analyze"] = "input is not reported even and strongly connected"
    if "decompose" in r:
        out["decompose"] = decomposition_problem(k, r["decompose"].parts, validated)
    if "roundtrip" in r:
        text, loaded = r["roundtrip"]
        out["cover"] = cover_problem(k, loaded)
        if serialize.dumps(serialize.cover_to_dict(loaded)) != text:
            out["roundtrip"] = "reloaded cover dumps differently"
    if "verify" in r and not r["verify"].passed:
        out["verify"] = f"verify_cover failed: {r['verify'].violations[:2]}"
    return out


def _cli_problems(
    k, validated, item: ItemRun, cover_path: Path, source_path: Path
) -> dict[str, str]:
    r, out = item.results, {}
    for stage, (code, _) in r.items():
        if code != 0 and stage != "tour":
            out[stage] = f"exit code {code}"
    if "analyze" in r and r["analyze"][0] == 0:
        doc = json.loads(r["analyze"][1])
        if not doc["is_even"] or doc["strong_components"] != 1:
            out["analyze"] = "input is not reported even and strongly connected"
    if "decompose" in r and r["decompose"][0] == 0:
        parts = json.loads(r["decompose"][1])["parts"]
        out["decompose"] = decomposition_problem(k, parts, validated)
    if "cover" in r and r["cover"][0] == 0:
        out["cover"] = cover_problem(k, serialize.load_cover(cover_path))
    if "verify" in r and r["verify"][0] == 0 and not json.loads(r["verify"][1])["passed"]:
        out["verify"] = "verify reported a failure"
    if "tour" in r:
        source = serialize.load_complex(source_path) if source_path.exists() else None
        out["tour"] = (
            tour_problem(source, *r["tour"]) if source is not None else "no cover source to tour"
        )
    return out


def item_problems(
    workload, k, validated, item: ItemRun, cover_path: Path, source_path: Path
) -> dict[str, str]:
    """Invariant violations by stage, plus the stages that did not complete."""
    if workload == "batch":
        found = _cli_problems(k, validated, item, cover_path, source_path)
    else:
        found = _library_problems(k, validated, item)
    found = {s: p for s, p in found.items() if p is not None}
    found.update(not_run(workload, item))
    return found
