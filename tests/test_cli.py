"""End-to-end command-line tests: every subcommand through a real process,
the triangulate-then-verify pipeline, determinism, and exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lobfib

# children import the same lobfib as this process, with or without PYTHONPATH
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(lobfib.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


def run(*argv):
    return subprocess.run(
        [sys.executable, "-m", "lobfib.cli", *argv],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=60,  # a hanging child fails its test instead of stalling the suite
    )


def test_import_loads_no_scipy_or_numpy():
    """The runtime needs the standard library only."""
    probe = "import sys, lobfib; print(sorted({'scipy', 'numpy'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=CHILD_ENV,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n", f"import lobfib loaded {result.stdout.strip()}"


class TestPipeline:
    """triangulate writes a gluing table that verify certifies."""

    def test_lobell_triangulate_then_verify(self, tmp_path):
        table = tmp_path / "lobell5.json"
        built = run(
            "triangulate", "--family", "lobell", "--n", "5",
            "--color", "auto", "--out", str(table),
        )
        assert built.returncode == 0, built.stderr
        assert built.stdout == "", "--out must silence stdout"
        checked = run("verify", "--file", str(table))
        assert checked.returncode == 0, checked.stderr
        assert checked.stdout.splitlines()[0] == "closed orientable: yes; tetrahedra: 288"

    def test_fibonacci_triangulate_then_verify(self, tmp_path):
        table = tmp_path / "fib6.json"
        built = run("triangulate", "--family", "fibonacci", "--n", "6", "--out", str(table))
        assert built.returncode == 0, built.stderr
        checked = run("verify", "--file", str(table))
        assert checked.returncode == 0
        assert checked.stdout.splitlines()[0] == "closed orientable: yes; tetrahedra: 18"

    def test_verify_json_report(self, tmp_path):
        table = tmp_path / "fib4.json"
        run("triangulate", "--family", "fibonacci", "--n", "4", "--out", str(table))
        checked = run("verify", "--file", str(table), "--format", "json")
        assert checked.returncode == 0
        doc = json.loads(checked.stdout)
        assert doc["ok"] is True and doc["cells"] == 12
        assert doc["quotientVertices"] == 1 and doc["eulerCharacteristic"] == 0

    def test_coloring_file_round_trip(self, tmp_path):
        coloring = tmp_path / "c6.json"
        table = tmp_path / "lobell6.json"
        colored = run("color", "--family", "lobell", "--n", "6", "--out", str(coloring))
        assert colored.returncode == 0, colored.stderr
        assert set(json.loads(coloring.read_text())) == {"n", "colors"}
        built = run(
            "triangulate", "--family", "lobell", "--n", "6",
            "--color", f"file:{coloring}", "--out", str(table),
        )
        assert built.returncode == 0, built.stderr
        checked = run("verify", "--file", str(table))
        assert checked.returncode == 0
        assert "tetrahedra: 352" in checked.stdout.splitlines()[0]

    def test_verify_reports_failure_with_exit_1(self, tmp_path):
        table = tmp_path / "open.json"
        table.write_text('{"tetCount": 1, "gluings": [[null, null, null, null]]}')
        checked = run("verify", "--file", str(table))
        assert checked.returncode == 1
        assert checked.stdout.splitlines()[0] == "closed orientable: no; tetrahedra: 1"
        assert any(line.startswith("problem:") for line in checked.stdout.splitlines())


    def test_verify_rejects_an_empty_triangulation(self, tmp_path):
        table = tmp_path / "empty.json"
        table.write_text('{"tetCount": 0, "gluings": []}')
        checked = run("verify", "--file", str(table))
        assert checked.returncode == 1
        lines = checked.stdout.splitlines()
        assert lines[0] == "closed orientable: no; tetrahedra: 0"
        assert lines[-1] == "problem: quotient is empty"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        (
            ("volume", "--family", "lobell", "--n", "6", "--format", "json"),
            ("triangulate", "--family", "fibonacci", "--n", "5"),
            ("build-polytope", "--family", "lobell", "--n", "7"),
            ("color", "--family", "lobell", "--n", "6"),
            ("bounds", "--family", "fibonacci", "--n", "5", "--format", "json"),
        ),
    )
    def test_byte_identical_reruns(self, argv):
        first, second = run(*argv), run(*argv)
        assert first.returncode == second.returncode == 0, first.stderr
        assert first.stdout == second.stdout

    def test_out_file_matches_stdout(self, tmp_path):
        path = tmp_path / "vol.json"
        to_file = run("volume", "--family", "fibonacci", "--n", "4",
                      "--format", "json", "--out", str(path))
        to_stdout = run("volume", "--family", "fibonacci", "--n", "4", "--format", "json")
        assert to_file.returncode == to_stdout.returncode == 0
        assert path.read_text() == to_stdout.stdout


class TestSubcommandOutput:
    def test_build_polytope_json(self):
        result = run("build-polytope", "--family", "fibonacci", "--n", "4")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert set(doc) == {"family", "n", "faces", "faceLabels"}
        assert doc["family"] == "fibonacci" and doc["n"] == 4
        assert len(doc["faces"]) == 16

    def test_build_polytope_text(self):
        result = run("build-polytope", "--family", "lobell", "--n", "5", "--format", "text")
        assert result.returncode == 0
        assert "family: lobell" in result.stdout
        assert "vertices: 20" in result.stdout and "faces: 12" in result.stdout

    def test_volume_text(self):
        result = run("volume", "--family", "lobell", "--n", "6", "--format", "text")
        assert result.returncode == 0
        assert "volume: 48.184368160" in result.stdout
        assert "error bound:" in result.stdout and "theta:" in result.stdout

    def test_fibonacci_volume_text(self):
        result = run("volume", "--family", "fibonacci", "--n", "4", "--format", "text")
        assert result.returncode == 0
        assert "volume: 2.029883213" in result.stdout

    def test_bounds_json(self):
        result = run("bounds", "--family", "fibonacci", "--n", "4", "--format", "json")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["lowerBound"] == 3 and doc["upperBound"] == 12
        assert doc["asymptoticLower"] == 8 and doc["asymptoticAttained"] is False

    def test_bounds_text(self):
        result = run("bounds", "--family", "lobell", "--n", "6")
        assert result.returncode == 0
        assert "lower bound" in result.stdout and "upper bound" in result.stdout

    @pytest.mark.parametrize(
        "family, upper", (("lobell", 639999968), ("fibonacci", 30000000))
    )
    def test_bounds_at_huge_n_answers(self, family, upper):
        """The upper bound is the construction's closed formula, so bounds
        answers at once where building the witness would not finish."""
        result = run("bounds", "--family", family, "--n", "10000000")
        assert result.returncode == 0, result.stderr
        assert re.search(rf"^upper bound +{upper}$", result.stdout, re.MULTILINE)

    @pytest.mark.parametrize("n", (2**1018 - 2**1011, 2**1018), ids=("2^1018-2^1011", "2^1018"))
    def test_bounds_near_the_float_limit(self, n):
        """v3 * upper is no finite float here; the volume ratio still is."""
        text = run("bounds", "--family", "lobell", "--n", str(n))
        assert text.returncode == 0, text.stderr
        assert re.search(r"^volume / \(v3 \* upper\)  0\.156250000$", text.stdout, re.MULTILINE)
        doc = run("bounds", "--family", "lobell", "--n", str(n), "--format", "json")
        assert doc.returncode == 0, doc.stderr
        ratio = json.loads(doc.stdout)["ratios"]["volumeOverV3Upper"]
        assert ratio == pytest.approx(10 / 64, rel=1e-12)

    def test_color_limit(self):
        result = run("color", "--family", "lobell", "--n", "5", "--limit", "3")
        assert result.returncode == 0
        docs = json.loads(result.stdout)
        assert isinstance(docs, list) and len(docs) == 3
        assert all(set(doc) == {"n", "colors"} for doc in docs)

    def test_presentation_text(self):
        lobell = run("presentation", "--family", "lobell", "--n", "5", "--format", "text")
        assert lobell.returncode == 0 and "g1^2" in lobell.stdout
        fib = run("presentation", "--family", "fibonacci", "--n", "4", "--format", "text")
        assert fib.returncode == 0 and "x1 x2 x3^-1" in fib.stdout


class TestExitCodes:
    """0 success, 1 domain error (printed as 'error: ...'), 2 usage error."""

    @pytest.mark.parametrize(
        "argv",
        (
            ("volume", "--family", "lobell", "--n", "3"),
            ("volume", "--family", "fibonacci", "--n", "2"),
            ("build-polytope", "--family", "lobell", "--n", "4"),
            ("presentation", "--family", "fibonacci", "--n", "2"),
            ("presentation", "--family", "fibonacci", "--n", "3"),
        ),
    )
    def test_domain_errors_exit_1(self, argv):
        result = run(*argv)
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")
        assert result.stdout == ""

    @pytest.mark.parametrize("subcommand", ("volume", "bounds"))
    @pytest.mark.parametrize("family", ("lobell", "fibonacci"))
    @pytest.mark.parametrize("n", (str(10**400), str(10**308)), ids=("400-digits", "1e308"))
    def test_n_beyond_float_range_exits_1(self, subcommand, family, n):
        """Past the float range pi/n cannot be formed, and at 1e308 the
        volume itself overflows to infinity."""
        result = run(subcommand, "--family", family, "--n", n)
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr == "error: n is too large for a floating-point volume\n", (
            result.stderr[-300:]
        )

    def test_missing_triangulation_file_exits_1(self, tmp_path):
        result = run("verify", "--file", str(tmp_path / "nope.json"))
        assert result.returncode == 1 and result.stderr.startswith("error: ")

    def test_malformed_triangulation_file_exits_1(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        result = run("verify", "--file", str(path))
        assert result.returncode == 1
        assert result.stderr.startswith("error: not valid JSON")

    @pytest.mark.parametrize(
        "document, message",
        (
            ('{"n": 5, "colors": []}', "error: coloring field 'colors' must map face labels"),
            ('{"n": 5, "colors": {"1": []}}', "error: color of face 1 must be a color name"),
            ("[" * 200_000 + "]" * 200_000, "error: coloring document is nested too deeply"),
        ),
    )
    def test_malformed_coloring_file_exits_1(self, tmp_path, document, message):
        path = tmp_path / "coloring.json"
        path.write_text(document)
        result = run("triangulate", "--family", "lobell", "--n", "5", "--color", f"file:{path}")
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr.startswith(message) and result.stderr.count("\n") == 1, (
            result.stderr[-300:]
        )

    def test_coloring_file_with_a_bool_n_exits_1(self, tmp_path):
        """JSON true is no integer, so it is not read as n = 1 and the file,
        not the Andreev condition, is blamed."""
        path = tmp_path / "coloring.json"
        path.write_text('{"n": true, "colors": {}}')
        result = run("triangulate", "--family", "lobell", "--n", "1", "--color", f"file:{path}")
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr == "error: coloring field 'n' must be an integer\n", result.stderr

    def test_deeply_nested_triangulation_file_exits_1(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        result = run("verify", "--file", str(path))
        assert result.returncode == 1
        assert result.stderr == "error: not valid JSON: nested too deeply\n", result.stderr[-300:]

    def test_coloring_for_another_n_exits_1(self, tmp_path):
        coloring = tmp_path / "c6.json"
        colored = run("color", "--family", "lobell", "--n", "6", "--out", str(coloring))
        assert colored.returncode == 0, colored.stderr
        result = run(
            "triangulate", "--family", "lobell", "--n", "5", "--color", f"file:{coloring}",
            "--format", "text",
        )
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr == "error: coloring is for R(6), but --n is 5\n"

    @pytest.mark.parametrize(
        "label, message",
        (
            ("99", "error: coloring of R(5) is not valid: fails ['total'] "
                   "(colored labels must be the faces: missing [], extra [99])\n"),
            ("x", "error: face label 'x' must be an integer\n"),
        ),
        ids=("label-99", "label-x"),
    )
    def test_coloring_file_naming_a_face_r5_lacks_exits_1(self, tmp_path, label, message):
        coloring = tmp_path / "c5.json"
        colored = run("color", "--family", "lobell", "--n", "5", "--out", str(coloring))
        assert colored.returncode == 0, colored.stderr
        doc = json.loads(coloring.read_text())
        doc["colors"][label] = "alpha"
        coloring.write_text(json.dumps(doc))
        result = run(
            "triangulate", "--family", "lobell", "--n", "5", "--color", f"file:{coloring}",
            "--format", "text",
        )
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr == message

    @pytest.mark.parametrize(
        "key, color, message",
        (
            ("014", "beta", "error: face 14 is given twice\n"),
            (" 14", "beta", "error: face 14 is given twice\n"),
            ("+14", "beta", "error: face 14 is given twice\n"),
            ("14", None, "error: face 14 is given twice\n"),
        ),
        ids=("leading-zero", "leading-space", "plus-sign", "repeated-key"),
    )
    def test_coloring_file_giving_a_face_twice_exits_1(self, tmp_path, key, color, message):
        """A second entry for face 14, in any spelling and even with the same
        color, is refused rather than silently overriding the first."""
        coloring = tmp_path / "c6.json"
        colored = run("color", "--family", "lobell", "--n", "6", "--out", str(coloring))
        assert colored.returncode == 0, colored.stderr
        colors = json.loads(coloring.read_text())["colors"]
        entries = [f'"{k}": "{v}"' for k, v in colors.items()]
        entries.append(f'"{key}": "{color or colors["14"]}"')
        coloring.write_text('{"n": 6, "colors": {' + ", ".join(entries) + "}}")
        result = run(
            "triangulate", "--family", "lobell", "--n", "6", "--color", f"file:{coloring}",
            "--format", "text",
        )
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr == message

    @pytest.mark.parametrize(
        "argv",
        (
            ("frobnicate",),
            ("volume", "--family", "cube", "--n", "5"),
            ("volume", "--family", "lobell", "--n", "six"),
            ("volume", "--family", "lobell"),
            ("verify",),
            ("color", "--family", "fibonacci", "--n", "5"),
            ("triangulate", "--family", "fibonacci", "--n", "5", "--color", "file:x.json"),
        ),
    )
    def test_usage_errors_exit_2(self, argv):
        result = run(*argv)
        assert result.returncode == 2, f"{argv}: {result.stderr}"
        assert result.stderr != ""
