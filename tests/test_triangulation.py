"""Singular triangulations: tetrahedron counts, gluing-axiom verification,
quotient cell counts, JSON round trips, and detection of damaged tables."""

import hashlib
import random

import pytest

from oracles import export_triangulation_oracle
from lobfib.coloring import GROUP8, canonical_coloring, group_index, known_lobell6_coloring
from lobfib.polytope import build_fibonacci_polytope, build_lobell_polytope
from lobfib.triangulation import (
    Triangulation,
    TriangulationFormatError,
    export_triangulation,
    import_triangulation,
    triangulate_fibonacci,
    triangulate_lobell,
    verify_triangulation,
)


def lobell_triangulation(n: int) -> Triangulation:
    return triangulate_lobell(canonical_coloring(build_lobell_polytope(n)))


def fibonacci5_with_an_unglued_pair() -> Triangulation:
    """Y(5) coned from Q with face 1 of tetrahedron 0 and its partner, face 2
    of tetrahedron 5, unglued: a null between glued entries in both rows."""
    tri = triangulate_fibonacci(5)
    t2, f2, _ = tri.gluings[0][1]
    tri.gluings[0][1] = tri.gluings[t2][f2] = None
    return tri


def random_table(rng: random.Random) -> Triangulation:
    """0-6 tetrahedra whose faces are unglued or glued at random, damaged
    entries included: tetrahedra and faces out of range, perms that are no
    permutation, negative and many-digit ints, gluings not mirrored."""
    count = rng.randrange(7)

    def index(bound: int) -> int:
        return rng.choice((
            rng.randrange(bound), rng.randrange(-3, bound + 3), rng.randrange(-10**20, 10**20)
        ))

    def entry():
        if rng.random() < 0.3:
            return None
        perm = rng.sample(range(4), 4) if rng.random() < 0.7 else [index(4) for _ in range(4)]
        return (index(max(count, 1)), index(4), perm)

    return Triangulation([[entry() for _ in range(4)] for _ in range(count)])


class TestTetrahedronCounts:
    """R(n) subdivides into 32(2n - 2) + 32 = 32(2n - 1) tetrahedra (eight
    copies, 8n - 4 cone tetrahedra each); Y(n) into 3n."""

    @pytest.mark.parametrize("n", range(5, 13))
    def test_lobell_count(self, n):
        tri = lobell_triangulation(n)
        assert tri.tet_count == 32 * (2 * n - 1), (
            f"R({n}) must give {32 * (2 * n - 1)} tetrahedra, got {tri.tet_count}"
        )

    @pytest.mark.parametrize("n", range(4, 17))
    def test_fibonacci_count(self, n):
        tri = triangulate_fibonacci(n)
        assert tri.tet_count == 3 * n, (
            f"Y({n}) must give {3 * n} tetrahedra, got {tri.tet_count}"
        )

    def test_lobell_rejects_invalid_coloring(self):
        c = known_lobell6_coloring()
        c.colors[2] = c.colors[1]
        with pytest.raises(ValueError, match="not valid"):
            triangulate_lobell(c)


class TestQuotientStructure:
    """Both families verify as closed orientable manifolds with the expected
    quotient cell counts and Euler characteristic zero."""

    @pytest.mark.parametrize("n", (5, 6, 7))
    def test_lobell_verifies(self, n):
        report = verify_triangulation(lobell_triangulation(n))
        assert report.ok, f"R({n}) triangulation must verify: {report.problems[:3]}"
        assert report.cells == 64 * n - 32
        assert report.quotient_vertices == 4 * n + 8, (
            "4n polytope vertex classes plus 8 cone apexes"
        )
        assert report.quotient_edges == 68 * n - 24
        assert report.quotient_faces == 128 * n - 64
        assert report.euler_characteristic == 0
        assert all(link.is_sphere for link in report.vertex_links)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_fibonacci_verifies(self, n):
        report = verify_triangulation(triangulate_fibonacci(n))
        assert report.ok, f"Y({n}) triangulation must verify: {report.problems[:3]}"
        assert report.cells == 3 * n
        assert report.quotient_vertices == 1, "the manifold has a single vertex"
        assert report.quotient_edges == 3 * n + 1, (
            "2n polytope edge classes plus n + 1 classes of cone edges"
        )
        assert report.quotient_faces == 6 * n
        assert report.euler_characteristic == 0
        assert all(link.is_sphere for link in report.vertex_links)

    def test_summary_first_line(self):
        report = verify_triangulation(triangulate_fibonacci(4))
        first = report.summary().splitlines()[0]
        assert first == "closed orientable: yes; tetrahedra: 12"


class TestSubdivisionLabels:
    """The bookkeeping labels expose how each tetrahedron sits in the
    polytope: cone apex first, base triangle rotated to its least vertex."""

    def test_fibonacci_labels(self):
        tri = triangulate_fibonacci(5)
        name_of = {fi: name for name, fi in build_fibonacci_polytope(5).face_labels.items()}
        assert len(tri.labels) == tri.tet_count
        bases = [name_of[lab["face"]] for lab in tri.labels]
        assert len(set(bases)) == 15, "one tetrahedron per face avoiding Q"
        assert all("*" in b or int(b[1:]) % 2 == 0 for b in bases), (
            "the cone bases are the starred faces and the even (R-apex) faces"
        )
        for lab in tri.labels:
            assert lab["vertices"][0] == "Q"
            assert "Q" not in lab["vertices"][1:]

    def test_lobell_base_gluings_follow_the_coloring(self):
        c = known_lobell6_coloring()
        p = build_lobell_polytope(6)
        label_of = {fi: int(lab) for lab, fi in p.face_labels.items()}
        tri = triangulate_lobell(c)
        assert len(tri.labels) == tri.tet_count
        for t, lab in enumerate(tri.labels):
            entry = tri.gluings[t][0]
            assert entry is not None and entry[2] == (0, 1, 2, 3), (
                "base triangles are glued by the identity"
            )
            partner = tri.labels[entry[0]]
            assert partner["face"] == lab["face"] and partner["fan"] == lab["fan"], (
                "a base triangle must meet the same triangle of the same face"
            )
            color = c.colors[label_of[lab["face"]]]
            assert partner["copy"] == group_index(GROUP8[lab["copy"]] + color), (
                f"face {label_of[lab['face']]} of copy {lab['copy']} must cross "
                f"to copy g + {color.name}"
            )
            assert lab["vertices"][1:] == partner["vertices"][1:], (
                "the two fan triangles carry the same polytope vertices"
            )

    def test_lobell_apexes_stay_inside_their_copy(self):
        tri = triangulate_lobell(known_lobell6_coloring())
        for t, lab in enumerate(tri.labels):
            for f in (1, 2, 3):
                t2, _, _ = tri.gluings[t][f]
                assert tri.labels[t2]["copy"] == lab["copy"], (
                    "cone walls never leave their copy"
                )


class TestSerialization:
    """The JSON form is lossless and strictly validated on import."""

    @pytest.mark.parametrize("builder", (lambda: triangulate_fibonacci(6), lambda: lobell_triangulation(5)))
    def test_round_trip(self, builder):
        tri = builder()
        text = export_triangulation(tri)
        back = import_triangulation(text)
        assert back.gluings == tri.gluings
        assert export_triangulation(back) == text

    def test_export_is_deterministic(self):
        assert export_triangulation(triangulate_fibonacci(5)) == export_triangulation(
            triangulate_fibonacci(5)
        )

    def test_export_shape(self):
        import json

        doc = json.loads(export_triangulation(triangulate_fibonacci(4)))
        assert set(doc) == {"tetCount", "gluings"}
        assert doc["tetCount"] == 12 and len(doc["gluings"]) == 12
        entry = doc["gluings"][0][0]
        assert isinstance(entry, list) and len(entry) == 3
        assert sorted(entry[2]) == [0, 1, 2, 3]

    def test_null_faces_survive(self):
        tri = Triangulation([[None, None, None, None]])
        back = import_triangulation(export_triangulation(tri))
        assert back.gluings == [[None, None, None, None]]

    @pytest.mark.parametrize(
        "text, fragment",
        (
            ("[", "not valid JSON"),
            ("[]", "top level must be an object"),
            ('{"tetCount": 0}', "missing key 'gluings'"),
            ('{"gluings": []}', "missing key 'tetCount'"),
            ('{"tetCount": -1, "gluings": []}', "non-negative integer"),
            ('{"tetCount": true, "gluings": []}', "non-negative integer"),
            ('{"tetCount": 2, "gluings": [[null, null, null, null]]}', "tetCount is 2 but gluings lists 1"),
            ('{"tetCount": 1, "gluings": [[null, null, null]]}', "gluings[0] must list 4"),
            ('{"tetCount": 1, "gluings": [[[5, 0, [0, 1, 2, 3]], null, null, null]]}', "gluings[0][0] references tetrahedron 5 of 1"),
            ('{"tetCount": 1, "gluings": [[[0, 7, [0, 1, 2, 3]], null, null, null]]}', "references face 7 of 4"),
            ('{"tetCount": 1, "gluings": [[[0, 0, [0, 1, 2, 2]], null, null, null]]}', "not a permutation of 0..3"),
            ('{"tetCount": 1, "gluings": [[[0, 0], null, null, null]]}', "must be [tet, face, perm] or null"),
            # json.loads refuses integers over 4300 digits with a bare ValueError
            pytest.param('{"tetCount": 1' + "0" * 5000 + ', "gluings": []}', "not valid JSON", id="tetCount-of-5001-digits"),
            # JSON numbers load as int, bool or float, and True == 1 == 1.0
            ('{"tetCount": 1, "gluings": [[[0, 0, [0, true, 2, 3]], null, null, null]]}', "permutation [0, True, 2, 3] is not a permutation of 0..3"),
            ('{"tetCount": 1, "gluings": [[[0, 0, [0.0, 1, 2, 3]], null, null, null]]}', "permutation [0.0, 1, 2, 3] is not a permutation of 0..3"),
            ('{"tetCount": 1, "gluings": [[[0, 0, [[0], 1, 2, 3]], null, null, null]]}', "permutation [[0], 1, 2, 3] is not a permutation of 0..3"),
            ('{"tetCount": 1, "gluings": [[[0, 0, [0, 1, 2, 3, 4]], null, null, null]]}', "permutation [0, 1, 2, 3, 4] is not a permutation of 0..3"),
            ('{"tetCount": 1, "gluings": [[[0, 0, "0123"], null, null, null]]}', "permutation '0123' is not a permutation of 0..3"),
            ('{"tetCount": 1, "gluings": [[[true, 0, [0, 1, 2, 3]], null, null, null]]}', "gluings[0][0] references tetrahedron True of 1"),
            ('{"tetCount": 1, "gluings": [[[0, 1.0, [0, 1, 2, 3]], null, null, null]]}', "gluings[0][0] references face 1.0 of 4"),
            ('{"tetCount": 1, "gluings": [7]}', "gluings[0] must list 4 face gluings"),
            ('{"tetCount": 1, "gluings": [["abc", null, null, null]]}', "gluings[0][0] must be [tet, face, perm] or null"),
        ),
    )
    def test_import_rejects_malformed_documents(self, text, fragment):
        with pytest.raises(TriangulationFormatError) as err:
            import_triangulation(text)
        assert fragment in str(err.value), (
            f"message {err.value} must locate the defect via {fragment!r}"
        )

    @pytest.mark.parametrize(
        "build, digest",
        (
            pytest.param(lambda: lobell_triangulation(5), "ccd5b62d4241456429b08a48151a0958138917c9a2a6ae2d464f14c9571eee4f", id="lobell5"),
            pytest.param(lambda: lobell_triangulation(6), "307e88fd97be4465be8e64cf1e25b383680fd83b4845155800a51eb0fc6dd719", id="lobell6"),
            pytest.param(lambda: triangulate_fibonacci(4), "484ae18a0d445b5a9d48d1532985977457a6baf890ceb9e6ad07d580b4dd0519", id="fibonacci4"),
            pytest.param(lambda: triangulate_fibonacci(5), "f23f6064bc5819f2d7c8e85875a719606a8bb7287f9bf6a6094b44de561c9a57", id="fibonacci5"),
            pytest.param(lambda: Triangulation([]), "66ecea8867fa1c3043c83e2b313316f71b46a82087953f23b1ebd7a31ea5c214", id="empty"),
            pytest.param(lambda: Triangulation([[None] * 4]), "550312e249993117e685d74ca44eaaf1cf502dd1edf9ff43e5fb91a095f04545", id="unglued"),
            pytest.param(lambda: lobell_triangulation(100), "3f3388e81e74ff6a669ecafe8414d08e1c26b6a1afb96b7c77584f99afb301f7", id="lobell100"),
            pytest.param(lambda: triangulate_fibonacci(2000), "d48358048f0b15185c4797bdb645805ce847351ebfbb5362af1232c8ac626577", id="fibonacci2000"),
            pytest.param(fibonacci5_with_an_unglued_pair, "e7c9f3364c1ac58fbcc82a2a21facee1a0c4e510739efd6495b5a05eaf3071bf", id="fibonacci5-unglued-pair"),
        ),
    )
    def test_export_bytes_are_frozen(self, build, digest):
        """Indentation, separators and entry order of the export are part of
        the format: these digests, taken from json.dumps(..., indent=2),
        pin its exact bytes."""
        text = export_triangulation(build())
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("seed", range(300))
    def test_export_matches_json_dumps(self, seed):
        """The template writer and json.dumps(..., indent=2) write the same
        bytes for any table of ints, whatever its gluings mean."""
        tri = random_table(random.Random(seed))
        assert export_triangulation(tri) == export_triangulation_oracle(tri)

    @pytest.mark.parametrize(
        "entry",
        (
            (True, 0, (0, 1, 2, 3)),
            (0, False, (0, 1, 2, 3)),
            (0, 0, (0, True, 2, 3)),
            (1.0, 0, (0, 1, 2, 3)),
            (0, 0, (0, 1, 2.0, 3)),
            (0, 0, (0, 1, 2, 3.5)),
        ),
        ids=("bool-tet", "bool-face", "bool-perm", "float-tet", "float-perm", "fractional-perm"),
    )
    def test_export_refuses_non_int_entries(self, entry):
        """json writes bools and floats as true and 1.0, but %d would write
        them as 1: the constructor refuses them, so no table of them reaches
        the writer."""
        with pytest.raises(TriangulationFormatError, match="all of type int"):
            export_triangulation(Triangulation([[entry, None, None, None]]))

    @pytest.mark.parametrize(
        "entry",
        (
            1, "1", [1, 2, (0, 2, 1, 3)], (1, 2), (1, 2, (0, 2, 1, 3), 0),
            (1, 2, 3), (1, 2, [0, 2, 1, 3]), (1, 2, (0, 2, 1)), (1, 2, (0, 2, 1, 3, 0)),
        ),
        ids=(
            "int", "str", "list", "two-items", "four-items",
            "int-perm", "list-perm", "three-item-perm", "five-item-perm",
        ),
    )
    def test_export_refuses_entries_edited_out_of_shape(self, entry):
        """An entry set after construction to anything but None or a
        (t', f', perm) tuple with a 4-tuple perm is refused rather than
        written with bytes that may differ from json's."""
        tri = triangulate_fibonacci(4)
        tri.gluings[0][1] = entry
        with pytest.raises(TriangulationFormatError, match="cannot write gluings"):
            export_triangulation(tri)

    @pytest.mark.parametrize("length", (0, 3, 5))
    def test_export_refuses_rows_edited_out_of_shape(self, length):
        tri = triangulate_fibonacci(4)
        tri.gluings[0] = (tri.gluings[0] * 2)[:length]
        with pytest.raises(TriangulationFormatError, match="cannot write gluings"):
            export_triangulation(tri)

    def test_constructor_rejects_short_rows(self):
        with pytest.raises(TriangulationFormatError, match="3 face entries instead of 4"):
            Triangulation([[None, None, None]])

    @pytest.mark.parametrize(
        "entry",
        (
            (1, 2), 1, (1, 2, (0, 2, 1, 3), 0), [1, 2, [0, 2, 1, 3], 0],
            (1.0, 2, (0, 2, 1, 3)), (1, 2, ((0, 2), 1, 3, 0)), (1, 2, [[0], 2, 1, 3]),
        ),
        ids=(
            "two-items", "int", "four-items", "four-item-list",
            "float-tet", "nested-perm", "nested-list-perm",
        ),
    )
    def test_constructor_refuses_entries_out_of_shape(self, entry):
        """Each of these once got past the constructor or failed in it with
        an IndexError or TypeError: a fourth item was cut off, and a float
        index or a nested perm made verify_triangulation raise."""
        rows = triangulate_fibonacci(4).gluings
        rows[0][1] = entry
        with pytest.raises(TriangulationFormatError, match="gluings are malformed"):
            Triangulation(rows)

    def test_constructor_refuses_a_row_that_is_no_sequence(self):
        rows = triangulate_fibonacci(4).gluings
        rows[1] = 7
        with pytest.raises(TriangulationFormatError, match="gluings are malformed"):
            Triangulation(rows)


class TestDamageDetection:
    """verify_triangulation reports every broken gluing axiom instead of
    raising, and the report goes negative."""

    @pytest.mark.parametrize(
        "edit",
        (
            lambda rows: rows[0].__setitem__(0, 7),
            lambda rows: rows.__setitem__(0, rows[0][:3]),
            lambda rows: rows[0].__setitem__(0, (1, 2)),
            lambda rows: rows[0].__setitem__(0, (*rows[0][0][:2], [0, 2, 1, 3])),
            lambda rows: rows[0].__setitem__(0, (str(rows[0][0][0]), *rows[0][0][1:])),
        ),
        ids=("int-entry", "short-row", "two-item-entry", "list-perm", "str-index"),
    )
    def test_table_edited_out_of_shape_raises_the_format_error(self, edit):
        """Each of these once ended in a TypeError, IndexError or ValueError
        from inside the check; a table the constructor would refuse is
        refused in its words instead."""
        tri = triangulate_fibonacci(4)
        edit(tri.gluings)
        with pytest.raises(TriangulationFormatError, match="^gluings are malformed: "):
            verify_triangulation(tri)

    def test_unglued_face_is_not_closed(self):
        tri = triangulate_fibonacci(4)
        t2, f2, _ = tri.gluings[0][0]
        tri.gluings[0][0] = None
        tri.gluings[t2][f2] = None
        report = verify_triangulation(tri)
        assert not report.closed and not report.ok
        assert any("unglued faces" in p for p in report.problems)
        assert not all(link.closed for link in report.vertex_links)

    def test_missing_mirror_is_reported(self):
        tri = triangulate_fibonacci(4)
        t2, f2, _ = tri.gluings[0][0]
        tri.gluings[t2][f2] = None
        report = verify_triangulation(tri)
        assert not report.ok
        assert any("is not mirrored by" in p for p in report.problems)

    def test_face_sent_to_wrong_face_is_reported(self):
        tri = triangulate_fibonacci(4)
        t2, f2, perm = tri.gluings[0][0]
        wrong = list(perm)
        wrong[0], wrong[1] = wrong[1], wrong[0]
        tri.gluings[0][0] = (t2, f2, tuple(wrong))
        report = verify_triangulation(tri)
        assert not report.ok
        assert any(f"not to face {f2}" in p for p in report.problems)

    def test_dangling_reference_is_reported(self):
        tri = triangulate_fibonacci(4)
        _, f2, perm = tri.gluings[0][0]
        tri.gluings[0][0] = (999, f2, perm)
        report = verify_triangulation(tri)
        assert not report.ok
        assert any("references tetrahedron 999" in p for p in report.problems)

    def test_orientation_reversing_regluing_is_detected(self):
        """Composing one gluing with a transposition of the face (kept
        mutually inverse, so every incidence axiom still holds) flips its
        parity and kills orientability."""
        tri = triangulate_fibonacci(4)
        t, f = 0, 0
        t2, f2, perm = tri.gluings[t][f]
        twisted = list(perm)
        on_face = [i for i in range(4) if i != f]
        i, j = on_face[0], on_face[1]
        twisted[i], twisted[j] = twisted[j], twisted[i]
        inverse = [0, 0, 0, 0]
        for k in range(4):
            inverse[twisted[k]] = k
        tri.gluings[t][f] = (t2, f2, tuple(twisted))
        tri.gluings[t2][f2] = (t, f, tuple(inverse))
        report = verify_triangulation(tri)
        assert not any("mirrored" in p or "permutation" in p for p in report.problems), (
            "the damage must be invisible to the incidence axioms"
        )
        assert not report.orientable and not report.ok
        assert any("orientations" in p for p in report.problems)
