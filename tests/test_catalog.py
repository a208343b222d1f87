import pytest

from cdtsep.catalog import (
    CdtName,
    LabelTable,
    Reference,
    build_cdt,
    cdt_parameters,
    reference,
    reference_ooc,
)
from cdtsep.graphs import distances, girth, is_bipartite

SOLVABLE = {
    CdtName.K4,
    CdtName.K33,
    CdtName.Q3,
    CdtName.DODECAHEDRAL,
    CdtName.DESARGUES,
    CdtName.COXETER,
    CdtName.TUTTE,
}


class TestNames:
    def test_twelve_graphs(self):
        assert len(CdtName) == 12

    @pytest.mark.parametrize("text", ["K4", "k4", "biggs_smith", "Biggs-Smith"])
    def test_from_string_normalizes(self, text):
        assert CdtName.from_string(text) in CdtName

    def test_from_string_rejects_unknown(self):
        with pytest.raises(ValueError):
            CdtName.from_string("moebius-kantor")


class TestConstructions:
    @pytest.mark.parametrize("name", list(CdtName), ids=lambda n: n.value)
    def test_matches_parameter_row(self, name):
        p = cdt_parameters(name)
        g, table = build_cdt(name)
        assert g.order == p.n
        assert g.is_cubic()
        assert g.is_connected()
        assert distances(g).diameter == p.d
        assert girth(g) == p.g
        assert is_bipartite(g) == bool(p.b)
        assert len(table.to_id) == p.n
        assert all(table.to_id[table.to_label[v]] == v for v in range(p.n))


class TestLabelTable:
    def test_from_labels_and_len(self):
        table = LabelTable.from_labels(["a", "b", "c"])
        assert len(table) == 3
        assert table.to_id == {"a": 0, "b": 1, "c": 2}
        assert table.to_label == {0: "a", 1: "b", 2: "c"}
        with pytest.raises(ValueError, match="duplicate"):
            LabelTable.from_labels(["a", "b", "a"])


class TestReferenceOoc:
    @pytest.mark.parametrize("name", list(CdtName), ids=lambda n: n.value)
    def test_presence_matches_solvability(self, name):
        fixture = reference_ooc(name, *build_cdt(name))
        assert (fixture is not None) == (name in SOLVABLE)

    @pytest.mark.parametrize("name", sorted(SOLVABLE, key=lambda n: n.value),
                             ids=lambda n: n.value)
    def test_cycle_shapes(self, name):
        p = cdt_parameters(name)
        g, _ = build_cdt(name)
        fixture = reference_ooc(name, *build_cdt(name))
        assert len(fixture.cycles) == p.eta
        for cyc in fixture.cycles:
            assert len(cyc) == p.g
            assert len(set(cyc)) == p.g
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                assert g.has_edge(a, b)

    def test_coxeter_has_one_reconstructed_cycle(self):
        fixture = reference_ooc(CdtName.COXETER, *build_cdt(CdtName.COXETER))
        assert len(fixture.reconstructed) == 1

    def test_other_fixtures_are_verbatim(self):
        for name in SOLVABLE - {CdtName.COXETER}:
            assert reference_ooc(name, *build_cdt(name)).reconstructed == ()


class TestReferenceRecords:
    @pytest.mark.parametrize("name", list(CdtName), ids=lambda n: n.value)
    def test_separator_data_exactly_where_kappa_is_positive(self, name):
        ref, kappa = reference(name), cdt_parameters(name).kappa
        separator_data = bool(ref.alternates) and None not in (ref.chi, ref.genus)
        assert separator_data == (kappa > 0) == (reference_ooc(name, *build_cdt(name)) is not None)
        if kappa == 0:
            assert ref == Reference()
