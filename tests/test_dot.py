from cdtsep.catalog import CdtName, build_cdt
from cdtsep.dot import emit_dot


class TestSeparatorOutput:
    def test_k4_separator_shape(self, analysis_of):
        s = analysis_of("k4").separator
        text = emit_dot(s)
        lines = text.splitlines()
        assert lines[0] == 'digraph "G" {'
        assert lines[-1] == "}"
        assert sum("[label=" in ln for ln in lines) == 12
        assert sum("->" in ln and "dir=none" not in ln and "label" not in ln
                   for ln in lines) == 12
        assert sum("dir=none" in ln for ln in lines) == 6

    def test_deterministic(self, analysis_of):
        s = analysis_of("k4").separator
        assert emit_dot(s) == emit_dot(s)

    def test_labels_use_table(self, analysis_of):
        s = analysis_of("k4").separator
        _, table = build_cdt(CdtName.K4)
        assert '[label="0 1"]' in emit_dot(s, table)
