import re

import pytest

from cdtsep.graphs import GraphError
from cdtsep.separator import AlternateCensus, AlternateOrbit
from cdtsep.topology import FaceComplex, euler, face_complex

# text name -> (faces, chi, genus); all seven complexes are orientable
EXPECTED = {
    "k4": (8, 2, 0),
    "k33": (18, 0, 1),
    "q3": (14, 2, 0),
    "dodecahedral": (32, 2, 0),
    "desargues": (50, -10, 6),
    "coxeter": (66, -18, 10),
    "tutte": (270, -90, 46),
}


class TestFaceComplex:
    # face_complex only assembles; euler checks what it assembled
    @pytest.mark.parametrize("text", sorted(EXPECTED))
    def test_every_edge_in_two_face_slots(self, text, analysis_of):
        a = analysis_of(text)
        p, s, census = a.row, a.separator, a.census
        fc = face_complex(s, census)
        assert fc.vertices == s.order
        assert len(fc.edges) == 3 * s.order // 2
        assert len(fc.faces) == p.eta + census.simple_count(1)

    def test_rejects_incomplete_coverage(self, analysis_of):
        a = analysis_of("k4")
        s, census = a.separator, a.census
        # drop one alternate face: its edges are then covered only once
        trimmed = AlternateCensus(
            {1: tuple(census.simple_cycles(1)[:-1])}
        )
        with pytest.raises(GraphError):
            euler(face_complex(s, trimmed))

    def test_rejects_non_edge_walk(self, analysis_of):
        s = analysis_of("k4").separator
        fake = AlternateOrbit(3, (0, 0, 0, 0, 0, 0), True)
        with pytest.raises(GraphError, match=r"non-edge \(0, 0\)"):
            euler(face_complex(s, AlternateCensus({1: (fake,)})))

    def test_names_the_edge_covered_once(self, analysis_of):
        a = analysis_of("k4")
        s, census = a.separator, a.census
        trimmed = AlternateCensus({1: tuple(census.simple_cycles(1)[:-1])})
        with pytest.raises(GraphError, match=r"^edge \(\d+, \d+\) lies in 1 face slots$"):
            euler(face_complex(s, trimmed))

    def test_rejects_a_vertex_out_of_range(self, analysis_of):
        # (u - 1, v + n) would share the slot code u*n + v of the edge (u, v)
        s = analysis_of("k4").separator
        n = s.order
        u, v = next((u, v) for u, v in s.under.edges() if u > 0)
        fake = AlternateOrbit(1, (u - 1, v + n), True)
        with pytest.raises(GraphError, match="is not a walk on the vertices"):
            euler(face_complex(s, AlternateCensus({1: (fake,)})))


class TestEuler:
    @pytest.mark.parametrize("text", sorted(EXPECTED))
    def test_characteristic_and_genus(self, text, analysis_of):
        a = analysis_of(text)
        s, census = a.separator, a.census
        report = euler(face_complex(s, census))
        faces, chi, genus = EXPECTED[text]
        assert report.faces == faces
        assert report.chi == chi
        assert report.vertices - report.edges + report.faces == chi
        assert report.orientable
        assert report.genus == genus

    def test_projective_plane_is_not_orientable(self):
        # the hemi-icosahedron: ten triangles on six vertices, every edge
        # in two of them, triangulating the projective plane
        faces = (
            (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
            (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
        )
        slots = [tuple(sorted((f[i], f[i - 1]))) for f in faces for i in range(3)]
        edges = tuple(sorted(set(slots)))
        assert all(slots.count(e) == 2 for e in edges)
        report = euler(FaceComplex(6, edges, faces))
        assert (report.edges, report.faces, report.chi) == (15, 10, 1)
        assert report.orientable is False
        assert report.genus is None

    def test_names_an_edge_in_one_slot(self):
        # the hemi-icosahedron less its last face (5, 1, 3), whose three
        # edges are then left in one slot each
        faces = (
            (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
            (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2),
        )
        edges = tuple(sorted({tuple(sorted((f[i], f[i - 1]))) for f in faces for i in range(3)}))
        with pytest.raises(GraphError, match=r"^edge \((1, 3|1, 5|3, 5)\) lies in 1 face slots$"):
            euler(FaceComplex(6, edges, faces))

    def test_names_an_edge_in_three_slots(self):
        # the tetrahedron with its face (0, 1, 2) walked a second time
        faces = ((0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0), (0, 1, 2))
        edges = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        with pytest.raises(GraphError, match=r"^edge \((0, 1|0, 2|1, 2)\) lies in 3 face slots$"):
            euler(FaceComplex(4, edges, faces))

    def test_names_a_listed_edge_that_no_face_walks(self):
        # the tetrahedron on five vertices with the extra edge (0, 4)
        faces = ((0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0))
        edges = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3))
        with pytest.raises(GraphError, match=r"^edge \(0, 4\) lies in 0 face slots$"):
            euler(FaceComplex(5, edges, faces))

    def test_names_a_walked_pair_that_is_not_listed(self):
        # the tetrahedron with (2, 3) left out of its edges, listed either way round
        faces = ((0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0))
        for edges in [((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)),
                      ((1, 0), (2, 0), (3, 0), (2, 1), (3, 1))]:
            with pytest.raises(GraphError, match=r"^face walk uses non-edge \(2, 3\)$"):
                euler(FaceComplex(4, edges, faces))

    def test_names_an_edge_listed_twice(self):
        # the tetrahedron with (0, 1) listed again, either way round
        faces = ((0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0))
        edges = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        for extra in [((1, 0),), ((0, 1), (1, 0))]:
            with pytest.raises(GraphError, match=r"^edge \(0, 1\) is listed more than once$"):
                euler(FaceComplex(4, edges + extra, faces))

    @pytest.mark.parametrize("walk", [(0, 6), (-1, 5)], ids=["above-n", "negative"])
    def test_names_a_walk_off_the_vertices(self, walk):
        # the tetrahedron with a digon whose two slot codes are those of
        # (1, 2) or (0, 1), for 6 = 1*4 + 2 and -1*4 + 5 = 0*4 + 1
        faces = ((0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0), walk)
        edges = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        message = rf"^face walk {re.escape(str(walk))} is not a walk on the vertices 0\.\.3$"
        with pytest.raises(GraphError, match=message):
            euler(FaceComplex(4, edges, faces))

    def test_names_an_empty_face(self):
        # the tetrahedron with an empty walk put in as face 2
        faces = ((0, 1, 2), (0, 3, 1), (), (1, 3, 2), (2, 3, 0))
        edges = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        with pytest.raises(GraphError, match=r"^face 2 is an empty walk$"):
            euler(FaceComplex(4, edges, faces))
