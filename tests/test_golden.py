"""Golden corpus: the CLI's stdout and exit codes, pinned byte for byte.

``tests/golden/manifest.json`` holds, for every input and command, the
exit code and the sha256 of stdout. Inputs come from ``generate``, whose
own output is pinned too; ``verify`` reads the canonical ``cover``. To
re-record after a deliberate change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from circlet.cli import build_parser, main

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"

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

COMMANDS = {
    "analyze": ["analyze"],
    "decompose": ["decompose"],
    "cover": ["cover"],
    "cover-seeded-7": ["cover", "--strategy", "seeded", "--seed", "7"],
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


def outputs(spec: list[str], workdir: Path) -> dict[str, dict]:
    """Exit code and stdout digest of every command on one input."""
    code, text = _run(["generate", *spec])
    records = {"generate": _record(code, text)}
    path = workdir / "input.json"
    path.write_text(text)
    for name, argv in COMMANDS.items():
        code, text = _run([*argv, str(path)])
        records[name] = _record(code, text)
        if name == "cover":
            cover_path = workdir / "cover.json"
            cover_path.write_text(text)
            records["verify"] = _record(*_run(["verify", str(cover_path)]))
    return records


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_golden_outputs(name, tmp_path):
    expected = json.loads(MANIFEST.read_text())[name]
    assert outputs(INPUTS[name], tmp_path) == expected


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
        manifest = {
            name: outputs(spec, Path(tmp)) for name, spec in INPUTS.items()
        }
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(manifest)} inputs to {MANIFEST}\n")
