"""End-to-end command-line tests: every subcommand through a real process,
the triangulate-then-verify pipeline, determinism, exit codes, and the exact
bytes of every JSON document the CLI writes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lobfib
from lobfib import cli

# children import the same lobfib as this process, with or without PYTHONPATH,
# and fail on any warning, as the tests in this process do
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(lobfib.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
    "PYTHONWARNINGS": "error",
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
    """The runtime needs the standard library only.  The probe reads every
    public name first, since `import lobfib` alone loads no submodule."""
    probe = "import sys; from lobfib import *; print(sorted({'scipy', 'numpy'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=CHILD_ENV,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n", f"import lobfib loaded {result.stdout.strip()}"


# runs lobfib.cli as `python -m` does, its output to --out or discarded, then
# prints the lobfib modules the run loaded
CLOSURE_PROBE = """
import contextlib, io, runpy, sys
sys.argv = ["lobfib", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("lobfib.cli", run_name="__main__")
    except SystemExit as exit_:
        assert not exit_.code, exit_.code
print(" ".join(sorted(name for name in sys.modules if name.split(".")[0] == "lobfib")))
"""


def loaded_modules(*argv: str) -> set[str]:
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", CLOSURE_PROBE, *argv],
        capture_output=True, text=True, env=CHILD_ENV, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


# the lobfib submodules each subcommand loads
CLOSURES = {
    "volume --family lobell --n 6": {"polytope", "volume"},
    "bounds --family fibonacci --n 5": {"bounds", "polytope", "volume"},
    "presentation --family lobell --n 6": {"coloring", "polytope"},
    "color --family lobell --n 5": {"coloring", "polytope"},
    "build-polytope --family fibonacci --n 4": {"polytope"},
    "triangulate --family lobell --n 5": {"coloring", "gluing", "polytope", "triangulation"},
}


class TestImportClosure:
    """Each subcommand imports only the modules it runs."""

    @pytest.mark.parametrize("argv", CLOSURES, ids=lambda argv: argv.split()[0])
    def test_subcommand(self, argv):
        expected = {"lobfib", *(f"lobfib.{module}" for module in CLOSURES[argv])}
        assert loaded_modules(*argv.split()) == expected

    def test_verify(self, tmp_path):
        table = tmp_path / "fib4.json"
        assert cli.main(["triangulate", "--family", "fibonacci", "--n", "4",
                         "--out", str(table)]) == 0
        assert loaded_modules("verify", "--file", str(table)) == {
            "lobfib", "lobfib.coloring", "lobfib.gluing", "lobfib.polytope",
            "lobfib.triangulation",
        }

    def test_import_lobfib_loads_the_namespace_only(self):
        result = subprocess.run(
            [sys.executable, "-W", "error", "-c",
             "import sys, lobfib; print([m for m in sys.modules if m.split('.')[0] == 'lobfib'])"],
            capture_output=True, text=True, env=CHILD_ENV, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "['lobfib']\n"

    def test_submodule_import_from_the_package(self):
        """`from lobfib import cli` imports the submodule once the namespace
        lookup has raised AttributeError."""
        result = subprocess.run(
            [sys.executable, "-W", "error", "-c", "from lobfib import cli; print(cli.__name__)"],
            capture_output=True, text=True, env=CHILD_ENV, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "lobfib.cli\n"


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


# sha256 of each JSON document the CLI writes, one command per kind of document
JSON_DIGESTS = {
    "build-polytope --family lobell --n 6":
        "9770ab95f1622c8e6f15944a093d062ba7e66db29a7c8fe4d308ebfc2b2d3a71",
    "build-polytope --family fibonacci --n 5":
        "d2286082c9d8601cf70af9bf8a9bcc716446256592315bd34dad5204ffaa3d87",
    "color --family lobell --n 6":
        "fcda17eb3b112a8c717c414e3f4aa2d4ceba57e7f78947a39c6be6ba493af193",
    "color --family lobell --n 6 --limit 3":
        "d771da2f2e993ef8c1703e2ee9a238198f025bb824263e57fea36e0f9d8df1fa",
    "presentation --family lobell --n 6":
        "6f26a4700586fa00f550f1d7cce36076582e237e744b91f0ea9b9bf9c13046e6",
    "presentation --family fibonacci --n 5":
        "33c4a8fa2c164cbaf4f1ffdcb5b532c5d13a3ea4ddb9a83e94136a2dc83dd603",
    "volume --family lobell --n 6 --format json":
        "ff4b40a4b20b2fa42fc36e1605c5b7a92cd4b861215f7d0a7797acf174ba17cc",
    "volume --family fibonacci --n 5 --format json":
        "b09ab735e0b978e8a353874b4c75b61adfde84a58e4285629310357d2874d170",
    "bounds --family lobell --n 6 --format json":
        "92c5c0f4619d3f63597e863bb59a5bc28288ad6c2d007349f54f4a1b195baae8",
    "bounds --family fibonacci --n 5 --format json":
        "c52c7750352dbd4864a54481c0dfe5e0a709c4ed7207c53d567a8a4483112ec7",
    "triangulate --family lobell --n 5 --format json":
        "ccd5b62d4241456429b08a48151a0958138917c9a2a6ae2d464f14c9571eee4f",
    "triangulate --family fibonacci --n 4 --format json":
        "484ae18a0d445b5a9d48d1532985977457a6baf890ceb9e6ad07d580b4dd0519",
}


class TestJsonBytes:
    """Each JSON document, written in this process by cli.main, has fixed
    bytes: a change of key order, indent, float repr or final newline shows
    here."""

    @pytest.mark.parametrize("command", JSON_DIGESTS)
    def test_document_bytes(self, capsys, command):
        assert cli.main(command.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            JSON_DIGESTS[command]
        )

    def test_verify_report_bytes(self, capsys, tmp_path):
        table = tmp_path / "fib5.json"
        assert cli.main(["triangulate", "--family", "fibonacci", "--n", "5",
                         "--out", str(table)]) == 0
        assert cli.main(["verify", "--file", str(table), "--format", "json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "2c5229ca68c9885453bb7f032c3670859fdf6fef4f3bb97452fb984927355c31"
        )

    def test_verify_lobell_report_bytes(self, capsys, tmp_path):
        table = tmp_path / "lob5.json"
        assert cli.main(["triangulate", "--family", "lobell", "--n", "5",
                         "--out", str(table)]) == 0
        assert cli.main(["verify", "--file", str(table), "--format", "json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "1abc637c443ea8354a78c331a37a8b6da5b3f65f364b90c5766b609960fcfd2a"
        )

    @pytest.mark.parametrize(
        "form, digest",
        (("json", "51ef97c292d85ee85d23e0a59fcc53343d8e7b8f4b719823845d57d0d34af9cc"),
         ("text", "35eefe4fdc4240a58350856b35b49bc3bf1c063cdf822738369dd0449571f6b1")),
    )
    def test_verify_damaged_report_bytes(self, capsys, tmp_path, form, digest):
        """One tetrahedron with faces 0 and 3 glued to themselves and faces
        1 and 2 to each other, which collapses edge 12: the report's problem
        lines, their order included, are part of its bytes."""
        table = tmp_path / "folded.json"
        table.write_text(json.dumps({"tetCount": 1, "gluings": [[
            [0, 0, [0, 2, 1, 3]], [0, 2, [0, 2, 1, 3]],
            [0, 1, [0, 2, 1, 3]], [0, 3, [0, 1, 2, 3]],
        ]]}))
        assert cli.main(["verify", "--file", str(table), "--format", form]) == 1
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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

    @pytest.mark.parametrize("limit", ("0", "-1"))
    def test_color_limit_below_1_exits_2(self, capsys, limit):
        """R(5) has 240 valid colorings, so a limit below 1 is refused as a
        usage error rather than reported as a search that found none."""
        with pytest.raises(SystemExit) as exit_:
            cli.main(["color", "--family", "lobell", "--n", "5", "--limit", limit])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: --limit must be at least 1, got {limit}\n")



def readme_sessions() -> list[list[tuple[list[str], str]]]:
    """The ```console blocks of README.md, each a list of (argv after
    `$ lobfib`, the output shown under that line up to the next one, blank
    lines at either end dropped)."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    sessions = []
    for block in re.findall(r"^```console\n(.*?)^```", text, re.M | re.S):
        session: list[tuple[list[str], list[str]]] = []
        for line in block.splitlines():
            if line.startswith("$ "):
                program, *argv = line[2:].split()
                assert program == "lobfib", line
                session.append((argv, []))
            else:
                session[-1][1].append(line)
        sessions.append([
            (argv, "".join(f"{line}\n" for line in "\n".join(shown).strip("\n").splitlines()))
            for argv, shown in session
        ])
    return sessions


@pytest.mark.parametrize(
    "session", readme_sessions(), ids=lambda session: "-then-".join(a[0] for a, _ in session)
)
def test_readme_console_examples(session, capsys, tmp_path, monkeypatch):
    """Each `$ lobfib ...` line of README.md's console examples, run by
    cli.main in a fresh directory, exits 0 and prints the lines shown."""
    monkeypatch.chdir(tmp_path)
    for argv, shown in session:
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out == shown, argv
