"""Golden corpus: the CLI's stdout and exit codes, pinned byte for byte.

``tests/golden/manifest.json`` holds, for every input and command, the
exit code and the sha256 of stdout. Most inputs come from ``generate``,
whose own output is pinned too. The rest are committed documents under
``tests/golden/inputs/``: complexes that fail a regularity rule, and
hostile ones that fail to load or fail a precondition, so failure reports
and error documents are pinned as well; a chain of two finned circlets,
where a seed changes each circlet's own pairing; and ``cw-moves``, a
random mod-2 boundary after ``builders.cw_mutate`` (facets over one
boundary, a digon pillow, a pentagon), where the seed changes the cover
too, with ``cw-moves-shuffled``, the same cells out of (dim, id) order
with unsorted boundaries, which the loader reads by its general path and
whose records must equal its canonical twin's. ``verify`` reads whatever
``cover`` wrote, and also runs alone on the tampered cover documents
under ``tests/golden/covers/``. To re-record after a deliberate change of
output:

    PYTHONPATH=src python tests/test_golden.py

``--check`` prints the records computed now instead of writing them; the
hash-seed test compares that printout with the manifest.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import oracles
from circlet.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = GOLDEN / "manifest.json"
DOCUMENTS = GOLDEN / "inputs"
COVERS = GOLDEN / "covers"

INPUTS = {
    "simplex_skeleton-6-2": ["simplex_skeleton", "6", "2"],
    "simplex_skeleton-5-2": ["simplex_skeleton", "5", "2"],
    "simplex_skeleton-5-3": ["simplex_skeleton", "5", "3"],
    "hypercube_skeleton-3-2": ["hypercube_skeleton", "3", "2"],
    "crosspolytope_skeleton-3-2": ["crosspolytope_skeleton", "3", "2"],
    "cycle-6": ["cycle", "6"],
    "triangular_grid-3": ["triangular_grid", "3"],
    "finned_circlet-3-4": ["finned_circlet", "3", "4"],
    "random_even-0-3": ["random_even", "0", "3"],
    "random_even-1-5": ["random_even", "1", "5"],
    "random_even-7-8": ["random_even", "7", "8"],
}

COVER_NAMES = {p.stem for p in COVERS.glob("*.json")}
NAMES = sorted(
    [*INPUTS, *(p.stem for p in DOCUMENTS.glob("*.json")), *COVER_NAMES]
)

COMMANDS = {
    "analyze": ["analyze"],
    "decompose": ["decompose"],
    "cover": ["cover"],
    "cover-seeded-7": ["cover", "--seed", "7"],
    "tour": ["tour"],
    "validate": ["validate"],
    "export-dual": ["export-dual"],
}


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
        io.StringIO()
    ):
        code = main(argv)
    return code, out.getvalue()


def _record(code: int, text: str) -> dict:
    return {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def outputs(name: str, workdir: Path) -> dict[str, dict]:
    """Exit code and stdout digest of every command on one input."""
    if name in COVER_NAMES:
        return {"verify": _record(*_run(["verify", str(COVERS / f"{name}.json")]))}
    records = {}
    path = DOCUMENTS / f"{name}.json"
    if name in INPUTS:
        code, text = _run(["generate", *INPUTS[name]])
        records["generate"] = _record(code, text)
        path = workdir / "input.json"
        path.write_text(text)
    for command, argv in COMMANDS.items():
        code, text = _run([*argv, str(path)])
        records[command] = _record(code, text)
        if command == "cover":
            cover_path = workdir / "cover.json"
            cover_path.write_text(text)
            records["verify"] = _record(*_run(["verify", str(cover_path)]))
    return records


@pytest.mark.parametrize("name", NAMES)
def test_golden_outputs(name, tmp_path):
    expected = json.loads(MANIFEST.read_text())[name]
    assert outputs(name, tmp_path) == expected


def test_golden_outputs_do_not_depend_on_the_hash_seed():
    # one process per seed runs the whole corpus; both run at once
    procs = [
        subprocess.Popen(
            [sys.executable, __file__, "--check"],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        for seed in ("1", "2")
    ]
    expected = json.loads(MANIFEST.read_text())
    for proc in procs:
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0
        assert json.loads(out) == expected


def test_shuffled_input_reads_as_its_canonical_twin():
    # the loader's general path must give every output its one pass gives
    doc = json.loads((DOCUMENTS / "cw-moves-shuffled.json").read_text())
    assert not oracles.reads_in_one_pass(doc)
    manifest = json.loads(MANIFEST.read_text())
    assert manifest["cw-moves-shuffled"] == manifest["cw-moves"]


def test_golden_names_are_unique():
    assert len(NAMES) == len(set(NAMES))


def test_every_subcommand_has_a_golden_entry():
    # generate makes each input and verify reads the canonical cover
    (sub,) = (
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    pinned = {argv[0] for argv in COMMANDS.values()} | {"generate", "verify"}
    assert set(sub.choices) == pinned


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = {name: outputs(name, Path(tmp)) for name in NAMES}
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    if sys.argv[1:] == ["--check"]:
        sys.stdout.write(text)
    else:
        MANIFEST.write_text(text)
        sys.stdout.write(f"wrote {len(manifest)} inputs to {MANIFEST}\n")
