import pytest

from cdtsep.analysis import Analysis
from cdtsep.catalog import CdtName, build_cdt
from cdtsep.graphs import GraphError
from cdtsep.orient import OddWitness
from cdtsep.separator import build_separator
from cdtsep.separator import alternate_census
from cdtsep.topology import euler, face_complex

# the seven catalog graphs with oriented girth cycles, hence a separator
ORIENTABLE = ("k4", "k33", "q3", "dodecahedral", "desargues", "coxeter", "tutte")


class TestStages:
    def test_catalog_row_supplies_k_without_a_group(self):
        a = Analysis.from_catalog(CdtName.TUTTE)
        assert a.k == 5
        assert a.surface.chi == -90
        assert "host_group" not in vars(a)

    def test_ingested_graph_recomputes_k(self):
        g, _ = build_cdt(CdtName.PETERSEN)
        a = Analysis(g)
        assert a.k == 3
        assert a.host_group.order() == 120
        assert not a.solved and a.kappa == 0

    def test_stages_are_kept(self):
        a = Analysis.from_catalog(CdtName.Q3)
        assert a.separator is a.separator
        assert a.census is a.census
        assert sorted(a.census.orbits) == [1, 2, 3, 4]
        assert a.separator_group is a.separator_group
        assert a.separator_group.order() == a.row.a


class TestUnsolvable:
    @pytest.mark.parametrize("name", [n for n in CdtName if n.value not in ORIENTABLE],
                             ids=lambda n: n.value)
    def test_separator_is_a_graph_error(self, name):
        a = Analysis.from_catalog(name)
        assert isinstance(a.outcome, OddWitness)
        with pytest.raises(GraphError, match="orientation constraints are unsolvable"):
            a.separator
        with pytest.raises(GraphError, match=f"odd witness through {len(a.outcome.paths)} paths"):
            build_separator(a.graph, a.cycles, a.k, a.outcome)


class TestOneCensus:
    @pytest.mark.parametrize("text", ORIENTABLE)
    def test_serves_the_shallow_rows_and_the_surface(self, text, analysis_of):
        a = analysis_of(text)
        shallow = alternate_census(a.separator, 2)
        for r in (1, 2):
            assert a.census.simple_count(r) == shallow.simple_count(r)
            assert a.census.simple_lengths(r) == shallow.simple_lengths(r)
        assert a.surface == euler(face_complex(a.separator, alternate_census(a.separator, 1)))
