"""Closed-surface assembly from separator faces: the oriented girth
cycles plus the simple alternate cycles, with Euler characteristic,
orientability and genus.

face_complex only assembles the faces; euler is the one place that
checks them.  A face slot, one step of a face boundary, is keyed by the
integer code u*n + v of its edge (u < v, n the vertex count), walked
with the previous vertex carried along the boundary."""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .graphs import GraphError, parity_coloring
from .separator import AlternateCensus, SeparatorDigraph

__all__ = ["FaceComplex", "EulerReport", "face_complex", "euler"]


class FaceComplex(NamedTuple):
    """Vertices, underlying edges and directed face-boundary walks; a
    closed surface when every edge lies in exactly two boundary slots,
    which euler checks."""

    vertices: int
    edges: tuple[tuple[int, int], ...]
    faces: tuple[tuple[int, ...], ...]


class EulerReport(NamedTuple):
    vertices: int
    edges: int
    faces: int
    chi: int
    orientable: bool
    genus: int | None  # None when non-orientable; then 2 - chi is the
    # non-orientable (crosscap) genus


def face_complex(s: SeparatorDigraph, census: AlternateCensus) -> FaceComplex:
    """Faces = the oriented girth cycles plus all simple single-step
    alternate cycles of the census, on the underlying edges of s.  The
    walks are assembled, not checked: euler checks them."""
    faces = s.succ_orbits()
    faces += [o.walk for o in census.simple_cycles(1)]
    return FaceComplex(s.order, tuple(s.under.edges()), tuple(faces))


def euler(fc: FaceComplex) -> EulerReport:
    """Euler characteristic, orientability, and genus when orientable.

    Orientable means the faces can be flipped so that the two boundary
    slots of every edge traverse it in opposite directions: a parity
    constraint per edge between its two faces, solved by the parity
    coloring that also solves the girth-cycle orientation problem.
    Each edge's two slots are collected under its code u*n + v, which
    names distinct pairs only for ids in 0..n-1, so each face's ids are
    checked before any of its codes is formed: (u - 1, v + n) has the
    code of (u, v).  Raises GraphError naming the face when a face walk
    is empty, naming the walk when it leaves the vertices 0..n-1, and
    naming the edge as a (u, v) pair when fc.edges lists an edge twice,
    or the faces walk a pair that fc.edges does not list, leave a listed
    edge unwalked, or walk an edge in a number of slots other than two.
    """
    n = fc.vertices
    chi = n - len(fc.edges) + len(fc.faces)
    # slots[u*n + v], u < v: (face id, traversed from u) of each slot,
    # one list per listed edge, so a listed edge no face walks keeps none
    codes = [u * n + v if u < v else v * n + u for u, v in fc.edges]
    slots: dict[int, list[tuple[int, bool]]] = {code: [] for code in codes}
    if len(slots) != len(codes):
        twice = min(code for code, count in Counter(codes).items() if count > 1)
        raise GraphError(f"edge {divmod(twice, n)} is listed more than once")
    try:
        for fid, face in enumerate(fc.faces):
            if not face:
                raise GraphError(f"face {fid} is an empty walk")
            if min(face) < 0 or max(face) >= n:
                raise GraphError(f"face walk {face} is not a walk on the vertices 0..{n - 1}")
            forward, backward = (fid, True), (fid, False)
            u = face[-1]
            for v in face:
                if u < v:
                    slots[u * n + v].append(forward)
                else:
                    slots[v * n + u].append(backward)
                u = v
    except KeyError as unlisted:
        raise GraphError(f"face walk uses non-edge {divmod(unlisted.args[0], n)}") from None
    # same natural direction in both slots: one of the two faces flips
    try:
        constraints = [(f1, f2, d1 == d2) for (f1, d1), (f2, d2) in slots.values()]
    except ValueError:
        key, pair = next((key, pair) for key, pair in slots.items() if len(pair) != 2)
        raise GraphError(f"edge {divmod(key, n)} lies in {len(pair)} face slots") from None
    orientable = parity_coloring(len(fc.faces), constraints).odd_walk is None
    genus = (2 - chi) // 2 if orientable else None
    if orientable and chi % 2 != 0:
        raise GraphError("orientable complex with odd Euler characteristic")
    return EulerReport(n, len(fc.edges), len(fc.faces), chi, orientable, genus)
