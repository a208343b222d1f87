from cdtsep.analysis import Analysis
from cdtsep.catalog import CdtName, build_cdt


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
        assert a.census(2) is a.census(2)
        assert sorted(a.census(4).orbits) == [1, 2, 3, 4]
        assert a.separator_group is a.separator_group
        assert a.separator_group.order() == a.row.a
