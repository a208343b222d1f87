"""Closed-surface assembly from separator faces: the oriented girth
cycles plus the simple alternate cycles, with Euler characteristic,
orientability and genus."""

from __future__ import annotations

from typing import NamedTuple

from .graphs import GraphError, parity_coloring
from .separator import AlternateCensus, SeparatorDigraph

__all__ = ["FaceComplex", "EulerReport", "face_complex", "euler"]


class FaceComplex(NamedTuple):
    """Vertices, underlying edges and directed face-boundary walks; every
    edge lies in exactly two boundary slots."""

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
    alternate cycles of the census.  Raises GraphError if some underlying
    edge is not covered exactly twice."""
    faces = [tuple(o) for o in s.succ_orbits()]
    faces += [o.walk for o in census.simple_cycles(1)]
    edges = tuple(s.under.edges())
    coverage = {e: 0 for e in edges}
    for face in faces:
        for u, v in zip(face, face[1:] + face[:1]):
            key = (min(u, v), max(u, v))
            if key not in coverage:
                raise GraphError(f"face walk uses non-edge {key}")
            coverage[key] += 1
    bad = [e for e, c in coverage.items() if c != 2]
    if bad:
        raise GraphError(f"edge {bad[0]} lies in {coverage[bad[0]]} face slots")
    return FaceComplex(s.order, edges, tuple(faces))


def euler(fc: FaceComplex) -> EulerReport:
    """Euler characteristic, orientability, and genus when orientable.

    Orientable means the faces can be flipped so that the two boundary
    slots of every edge traverse it in opposite directions: a parity
    constraint per edge between its two faces, solved by the parity
    coloring that also solves the girth-cycle orientation problem.
    """
    chi = fc.vertices - len(fc.edges) + len(fc.faces)
    # slots[edge] = list of (face id, traversed from its lower end)
    slots: dict[tuple[int, int], list[tuple[int, bool]]] = {}
    for fid, face in enumerate(fc.faces):
        for u, v in zip(face, face[1:] + face[:1]):
            slots.setdefault((min(u, v), max(u, v)), []).append((fid, u < v))
    # same natural direction in both slots: one of the two faces flips
    constraints = [(f1, f2, d1 == d2) for (f1, d1), (f2, d2) in slots.values()]
    orientable = parity_coloring(len(fc.faces), constraints).odd_walk is None
    genus = (2 - chi) // 2 if orientable else None
    if orientable and chi % 2 != 0:
        raise GraphError("orientable complex with odd Euler characteristic")
    return EulerReport(fc.vertices, len(fc.edges), len(fc.faces), chi, orientable, genus)
