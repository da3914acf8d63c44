import json
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import builders
from circlet import cell, serialize
from circlet.cli import main
from circlet.complexes import build_complex
from circlet.families import simplex_skeleton


@pytest.fixture()
def delta52_file(tmp_path, delta52):
    path = tmp_path / "delta52.json"
    serialize.save_complex(delta52, path)
    return str(path)


@pytest.fixture()
def cube_file(tmp_path, cube):
    path = tmp_path / "cube.json"
    serialize.save_complex(cube, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- analyze ----------------------------------------------------------


def test_analyze(capsys, delta52_file):
    code, out, err = run(capsys, "analyze", delta52_file)
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "dimension": 2,
        "cell_counts": [6, 15, 20],
        "degree_histogram": {"4": 15},
        "is_pure": True,
        "is_even": True,
        "strong_components": 1,
        "euler_characteristic": 11,
    }
    assert "even 2-complex" in err


def test_analyze_missing_file(capsys, tmp_path):
    code, out, _ = run(capsys, "analyze", str(tmp_path / "absent.json"))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def test_analyze_invalid_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, out, _ = run(capsys, "analyze", str(bad))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def test_analyze_points_is_analysis_failure(capsys, tmp_path):
    path = tmp_path / "pts.json"
    serialize.save_complex(build_complex([cell("a", 0)]), path)
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 1
    assert json.loads(out)["error"] == "ZeroDimensional"


# ---- validate ---------------------------------------------------------


def test_validate_pass(capsys, cube_file):
    code, out, err = run(capsys, "validate", cube_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["check"] == "regularity-necessary-conditions"
    assert doc["passed"] is True
    assert "PASS" in err


def test_validate_fail(capsys, tmp_path):
    broken = build_complex(
        [
            cell("a", 0),
            cell("b", 0),
            cell("c", 0),
            cell("ab", 1, ["a", "b"]),
            cell("bc", 1, ["b", "c"]),
            cell("f", 2, ["ab", "bc"]),
        ]
    )
    path = tmp_path / "broken.json"
    serialize.save_complex(broken, path)
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert any(v["rule"] == "diamond" for v in doc["violations"])
    assert "FAIL" in err


# ---- decompose --------------------------------------------------------


def test_decompose(capsys, delta52_file):
    code, out, err = run(capsys, "decompose", delta52_file)
    assert code == 0
    doc = json.loads(out)
    assert [len(p) for p in doc["parts"]] == [6, 6, 4, 4]
    assert "4 circlet(s)" in err


def test_decompose_uneven(capsys, tmp_path):
    path = tmp_path / "d42.json"
    serialize.save_complex(simplex_skeleton(5, 2), path)
    code, out, _ = run(capsys, "decompose", str(path))
    assert code == 1
    assert json.loads(out)["error"] == "NotEven"


# ---- cover and verify -------------------------------------------------


def test_cover_verify_round_trip(capsys, tmp_path, delta52_file):
    cover_path = tmp_path / "cover.json"
    code, out, err = run(capsys, "cover", delta52_file, "-o", str(cover_path))
    assert code == 0
    assert out == ""  # JSON went to the file
    assert "chi -4" in err
    code, out, err = run(capsys, "verify", str(cover_path))
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert "PASS" in err


def test_cover_single_triangle_not_even(capsys, tmp_path):
    path = tmp_path / "tri.json"
    serialize.save_complex(simplex_skeleton(3, 2), path)
    code, out, _ = run(capsys, "cover", str(path))
    assert code == 1
    assert json.loads(out)["error"] == "NotEven"


def test_cover_boolean_dimension_is_a_parse_error(capsys, tmp_path):
    doc = serialize.complex_to_dict(simplex_skeleton(4, 2))
    for entry in doc["cells"]:
        if entry["dim"] == 1:
            entry["dim"] = True
    path = tmp_path / "booldim.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "cover", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def test_cover_id_clash_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "clash.json"
    k = builders.renamed(simplex_skeleton(4, 2), "1", "1-2#1")
    serialize.save_complex(k, path)
    code, _, _ = run(capsys, "analyze", str(path))
    assert code == 0
    code, out, _ = run(capsys, "cover", str(path))
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "ParseError"
    assert "'1-2#1'" in doc["message"]


def test_verify_tampered_cover(capsys, tmp_path, delta52_file):
    cover_path = tmp_path / "cover.json"
    run(capsys, "cover", delta52_file, "-o", str(cover_path))
    doc = json.loads(cover_path.read_text())
    lifted = [e for e in doc["map"] if e["from"].endswith("^")]
    lifted[0]["to"] = lifted[1]["to"]
    cover_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(cover_path))
    assert code == 1
    assert json.loads(out)["passed"] is False
    assert "FAIL" in err


def test_cover_seeded_deterministic(capsys, tmp_path):
    # degree-4 spine edges give the seed real pairing choices
    path = tmp_path / "c34.json"
    run(capsys, "generate", "finned_circlet", "3", "4", "-o", str(path))
    _, out1, _ = run(capsys, "cover", str(path), "--strategy", "seeded", "--seed", "5")
    _, out2, _ = run(capsys, "cover", str(path), "--strategy", "seeded", "--seed", "5")
    _, out3, _ = run(capsys, "cover", str(path), "--strategy", "seeded", "--seed", "6")
    assert out1 == out2
    assert out1 != out3


# ---- tour -------------------------------------------------------------


def test_tour_cube(capsys, cube_file):
    code, out, err = run(capsys, "tour", cube_file)
    assert code == 0
    sides = json.loads(out)
    assert len(sides) == 12
    assert "12 sides" in err


def test_tour_odd_facet(capsys, tmp_path, octahedron):
    path = tmp_path / "octa.json"
    serialize.save_complex(octahedron, path)
    code, out, _ = run(capsys, "tour", str(path))
    assert code == 1
    assert json.loads(out)["error"] == "OddFacet"


# ---- generate ---------------------------------------------------------


def test_generate_byte_identical(capsys):
    _, out1, _ = run(capsys, "generate", "simplex_skeleton", "6", "2")
    _, out2, _ = run(capsys, "generate", "simplex_skeleton", "6", "2")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["dimension"] == 2
    assert len(doc["cells"]) == 41


def test_generate_to_file_then_analyze(capsys, tmp_path):
    target = tmp_path / "grid.json"
    code, out, _ = run(capsys, "generate", "triangular_grid", "3", "-o", str(target))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "analyze", str(target))
    assert code == 0
    assert json.loads(out)["cell_counts"] == [10, 18]


def test_generate_bad_arity(capsys):
    code, out, _ = run(capsys, "generate", "cycle", "5", "2")
    assert code == 2
    assert json.loads(out)["error"] == "BadParameters"


def test_generate_unknown_family_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "moebius", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_shared_parser_matches_fresh_processes(
    capsys, delta52_file, cube_file
):
    # one process: a rejected argv, then good calls whose options differ
    calls = [
        ("cover", delta52_file, "--strategy", "bogus"),
        ("analyze", delta52_file),
        ("cover", delta52_file, "--strategy", "seeded", "--seed", "7"),
        ("cover", delta52_file),
        ("tour", cube_file),
    ]
    codes = []
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "circlet.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert (code, out) == (fresh.returncode, fresh.stdout)
        codes.append(code)
    assert codes == [2, 0, 0, 0, 0]


# ---- unwritable -o paths ----------------------------------------------


@pytest.mark.parametrize("command", ["cover", "decompose", "export-dual", "generate"])
@pytest.mark.parametrize("into", ["missing directory", "directory"])
def test_unwritable_output_exits_2(capsys, tmp_path, cube_file, command, into):
    target = tmp_path / "missing" / "out" if into == "missing directory" else tmp_path
    args = ["simplex_skeleton", "4", "2"] if command == "generate" else [cube_file]
    code, out, err = run(capsys, command, *args, "-o", str(target))
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "OutputError"
    assert doc["message"].startswith(f"cannot write {target}: ")
    assert "Traceback" not in err and err.startswith("error: OutputError")


# ---- export-dual ------------------------------------------------------


def test_export_dual(capsys, cube_file):
    code, out, err = run(capsys, "export-dual", cube_file)
    assert code == 0
    assert out.startswith("graph dual {")
    assert out.count(" -- ") == 12
    assert "12 edges" in err


def test_export_dual_points(capsys, tmp_path):
    path = tmp_path / "pts.json"
    serialize.save_complex(build_complex([cell("a", 0)]), path)
    code, out, _ = run(capsys, "export-dual", str(path))
    assert code == 1
    assert json.loads(out)["error"] == "ZeroDimensional"


# ---- hostile input files ----------------------------------------------


def write_non_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dimension": 0, "cells": [{"id": "\xe9"}]}')
    return "analyze", path


def write_deep_nesting(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    return "analyze", path


def write_nul_target(tmp_path):
    path = tmp_path / "cover.json"
    source = serialize.complex_to_dict(simplex_skeleton(4, 2))
    path.write_text(json.dumps({"source": source, "target": "a\u0000b", "map": []}))
    return "verify", path


@pytest.mark.parametrize(
    "write", [write_non_utf8, write_deep_nesting, write_nul_target]
)
def test_hostile_file_is_a_parse_error(tmp_path, write):
    command, path = write(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "circlet.cli", command, str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "ParseError"
    assert "Traceback" not in proc.stderr


# ---- console script wiring --------------------------------------------


def test_console_script(tmp_path, delta52):
    path = tmp_path / "d52.json"
    serialize.save_complex(delta52, path)
    proc = subprocess.run(
        [sys.executable, "-m", "circlet.cli", "analyze", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["euler_characteristic"] == 11

    # The declared entry point must resolve to a callable, and the launcher
    # pip writes for it (import, set argv[0], exit with the return value)
    # must run the CLI with its documented exit codes.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["circlet"]
    entry = EntryPoint(name="circlet", value=target, group="console_scripts")
    assert callable(entry.load())
    launcher = (
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        "sys.argv[0] = 'circlet'\n"
        f"sys.exit({entry.attr}())\n"
    )

    def run_launcher(*argv):
        return subprocess.run(
            [sys.executable, "-c", launcher, *argv], capture_output=True, text=True
        )

    script = run_launcher("analyze", str(path))
    assert script.returncode == 0
    assert json.loads(script.stdout)["is_even"] is True

    missing = run_launcher("analyze", str(tmp_path / "absent.json"))
    assert missing.returncode == 2
    assert json.loads(missing.stdout)["error"] == "ParseError"


@pytest.mark.skipif(shutil.which("circlet") is None, reason="circlet is not installed")
def test_installed_console_script(tmp_path, delta52):
    path = tmp_path / "d52.json"
    serialize.save_complex(delta52, path)
    script = subprocess.run(
        ["circlet", "analyze", str(path)], capture_output=True, text=True
    )
    assert script.returncode == 0
    assert json.loads(script.stdout)["is_even"] is True


def test_cli_import_leaves_numpy_out():
    # the package has no runtime dependency; a fresh interpreter shows it
    probe = "import sys, circlet.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
