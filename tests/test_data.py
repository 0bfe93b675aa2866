import json

import numpy as np
import pytest

from rlw import (
    DataFormatError,
    DomainError,
    IndexRangeError,
    MissingDataError,
)
from rlw.data import (
    BuiltinFamily,
    RecordingData,
    TableData,
    data_from_config,
    load_data,
    parse_family_spec,
)
from rlw.group import QMODZ

F15 = QMODZ.parse("1/5")
F25 = QMODZ.parse("2/5")
F17 = QMODZ.parse("1/7")


class TestBuiltinFamily:
    def test_labels(self):
        fam = BuiltinFamily("P", 3, 2.0)
        ls = fam.labels(F15)
        assert len(ls) == 3
        assert [l.id for l in ls] == ["0@1/5", "1@1/5", "2@1/5"]
        assert all(l.degree == F15 for l in ls)
        assert all((l.d, l.b, l.beta) == (2.0, 1 / 3, 1.0) for l in ls)

    def test_singular_degree_rejected(self):
        fam = BuiltinFamily("P", 3, 2.0)
        with pytest.raises(DomainError):
            fam.labels(QMODZ.parse("1/2"))
        with pytest.raises(DomainError):
            fam.labels(QMODZ.parse("1/3"))

    def test_dual(self):
        fam = BuiltinFamily("P", 3, 2.0)
        j = fam.labels(F15)[1]
        jd = fam.dual(j)
        assert jd.degree == -F15
        assert fam.dual(jd) == j
        assert fam.label_index(jd) == 2

    def test_delta(self):
        fam = BuiltinFamily("P", 3, 2.0)
        i = fam.labels(F15)[1]
        j = fam.labels(F15)[1]
        k = fam.labels(QMODZ.parse("3/5"))[1]
        assert fam.delta(i, j, k) == 1
        assert fam.delta(i, j, fam.labels(QMODZ.parse("3/5"))[0]) == 0
        # degree sum 3/5 != 0
        assert fam.delta(i, j, fam.labels(F15)[1]) == 0

    def test_scalar_table(self):
        m = BuiltinFamily("M", 2, 1.0)
        lbl = m.labels(F15)[0]
        assert (lbl.d, lbl.b, lbl.beta) == (-1.0, 0.5, 1.0)
        f = BuiltinFamily("F", 2, 1.0, 2.0)
        lbl = f.labels(F15)[0]
        assert lbl.beta == pytest.approx(2 ** (-2 / 3))
        assert f.gamma(*_triple(f), 1) == 2.0

    def test_gamma_range(self):
        fam = BuiltinFamily("P", 2, 1.0)
        i, j, k = _triple(fam)
        assert fam.gamma(i, j, k, 1) == 1.0
        with pytest.raises(IndexRangeError):
            fam.gamma(i, j, k, 2)
        with pytest.raises(IndexRangeError):
            fam.gamma(i, j, k, 0)

    def test_sixj_values(self):
        p = BuiltinFamily("P", 2, 4.0)
        m = BuiltinFamily("M", 2, 4.0)
        js, a = _sixj_args(p)
        assert p.sixj(js, a) == 0.25
        assert m.sixj([_relabel(m, j) for j in js], a) == -0.25
        # off-support index is zero, not an error
        assert p.sixj(js, (2, 1, 1, 1)) == 0
        with pytest.raises(IndexRangeError):
            p.sixj(js, (0, 1, 1, 1))

    def test_blocks_match_pointwise(self):
        fam = BuiltinFamily("P", 2, 2.0)
        degs = _supported_sextuple()
        block = fam.sixj_block(degs)
        assert block.shape == (2,) * 6 + (1,) * 4
        ls = [fam.labels(g) for g in degs]
        for idx in np.ndindex(*block.shape[:6]):
            js = [ls[t][idx[t]] for t in range(6)]
            assert block[idx + (0, 0, 0, 0)] == fam.sixj(js, (1, 1, 1, 1))
        d3 = fam.delta_block(F15, F15, QMODZ.parse("3/5"))
        for idx in np.ndindex(*d3.shape):
            i, j, k = (fam.labels(g)[t] for g, t in zip((F15, F15, QMODZ.parse("3/5")), idx))
            assert d3[idx] == fam.delta(i, j, k)

    def test_dual_perm(self):
        fam = BuiltinFamily("P", 3, 2.0)
        assert list(fam.dual_perm(F15)) == [0, 2, 1]

    def test_probe_degrees_deterministic(self):
        fam = BuiltinFamily("P", 2, 1.0)
        probes = [g for _, g in zip(range(4), fam.probe_degrees())]
        # halves and thirds are singular under 6-torsion
        assert [str(p) for p in probes] == ["1/4", "3/4", "1/5", "2/5"]

    def test_bad_parameters(self):
        with pytest.raises(DataFormatError):
            BuiltinFamily("Q", 2, 1.0)
        with pytest.raises(DataFormatError):
            BuiltinFamily("P", 0, 1.0)
        with pytest.raises(DataFormatError):
            BuiltinFamily("P", 2, -1.0)
        with pytest.raises(DataFormatError):
            BuiltinFamily("F", 2, 1.0)
        with pytest.raises(DataFormatError):
            BuiltinFamily("P", 2, 1.0, gamma0=2.0)

    def test_parse_family_spec(self):
        fam = parse_family_spec("P:3:2")
        assert (fam.kind, fam.N, fam.c) == ("P", 3, 2.0)
        fam = parse_family_spec("F:2:1:2")
        assert fam.gamma0 == 2.0
        for bad in ("P:3", "X:2:1", "F:2:1", "P:a:1"):
            with pytest.raises(DataFormatError):
                parse_family_spec(bad)


def _triple(fam):
    g3 = -(F15 + F15)
    return fam.labels(F15)[0], fam.labels(F15)[0], fam.labels(g3)[0]


def _supported_sextuple():
    g1, g2, g4 = F15, F25, F17
    g3 = g1 + g2
    g5 = g3 + g4
    g6 = g5 - g1
    return (g1, g2, g3, g4, g5, g6)


def _sixj_args(fam):
    degs = _supported_sextuple()
    js = [fam.labels(g)[0] for g in degs]
    return js, (1, 1, 1, 1)


def _relabel(fam, j):
    return fam.labels(j.degree)[fam.label_index(j)]


class TestTableData:
    def roundtrip(self, fam, queries):
        rec = RecordingData(fam)
        out = [q(rec) for q in queries]
        table = rec.export_table()
        replay = [q(table) for q in queries]
        assert out == replay
        return table

    def test_record_and_replay_scalars(self):
        fam = BuiltinFamily("P", 2, 2.0)
        js, a = _sixj_args(fam)

        def q_sixj(d):
            js2 = [d.labels(j.degree)[fam.label_index(j)] for j in js]
            return d.sixj(js2, a)

        def q_delta(d):
            i, j, k = _triple(fam)
            return d.delta(d.labels(i.degree)[0], d.labels(j.degree)[0], d.labels(k.degree)[0])

        table = self.roundtrip(fam, [q_sixj, q_delta])
        assert q_sixj(table) == 0.5

    def test_block_recording(self):
        fam = BuiltinFamily("P", 2, 2.0)
        rec = RecordingData(fam)
        degs = _supported_sextuple()
        b1 = rec.sixj_block(degs)
        rec.delta_block(F15, F15, QMODZ.parse("3/5"))
        rec.gamma_block(F15, F15, QMODZ.parse("3/5"))
        table = rec.export_table()
        b2 = table.sixj_block(degs)
        assert np.array_equal(b1, b2)
        assert np.array_equal(
            table.delta_block(F15, F15, QMODZ.parse("3/5")),
            fam.delta_block(F15, F15, QMODZ.parse("3/5")),
        )

    def test_json_file_roundtrip(self, tmp_path):
        fam = BuiltinFamily("F", 2, 1.0, 2.0)
        rec = RecordingData(fam)
        rec.sixj_block(_supported_sextuple())
        rec.gamma_block(F15, F15, QMODZ.parse("3/5"))
        table = rec.export_table()
        path = tmp_path / "slice.json"
        table.to_file(str(path))
        back = TableData.from_file(str(path))
        assert back.to_dict() == table.to_dict()
        assert back.mult_bound == 1
        lbl = back.labels(F15)[0]
        assert lbl.beta == 2 ** (-2 / 3)

    def test_missing_degree(self):
        fam = BuiltinFamily("P", 2, 1.0)
        rec = RecordingData(fam)
        rec.labels(F15)
        table = rec.export_table()
        with pytest.raises(MissingDataError):
            table.labels(F17)
        with pytest.raises(DomainError):
            table.labels(QMODZ.parse("1/6"))

    def test_gamma_missing_in_range(self):
        fam = BuiltinFamily("P", 2, 1.0)
        rec = RecordingData(fam)
        i, j, k = _triple(fam)
        rec.delta(i, j, k)
        table = rec.export_table()
        i2, j2, k2 = (table.labels(l.degree)[fam.label_index(l)] for l in (i, j, k))
        assert table.delta(i2, j2, k2) == 1
        with pytest.raises(MissingDataError):
            table.gamma(i2, j2, k2, 1)

    def test_gamma_block_missing_in_range(self):
        # the block keeps gamma's contract instead of zero-filling
        fam = BuiltinFamily("P", 2, 1.0)
        rec = RecordingData(fam)
        i, j, k = _triple(fam)
        rec.delta(i, j, k)
        table = rec.export_table()
        with pytest.raises(MissingDataError, match="inside delta range 1"):
            table.gamma_block(i.degree, j.degree, k.degree)

    def test_malformed_tables(self):
        base = {
            "group": {"type": "product", "factors": [{"type": "QmodZ"}]},
            "singular": {"type": "torsion_dividing", "n": 6},
            "labels": [
                {"id": "x", "degree": "1/5", "dual": "y", "d": 1, "b": 1, "beta": 1},
                {"id": "y", "degree": "4/5", "dual": "x", "d": 1, "b": 1, "beta": 1},
            ],
        }
        TableData.from_dict(base)  # sane
        bad = json.loads(json.dumps(base))
        bad["labels"][1]["dual"] = "z"
        with pytest.raises(DataFormatError):
            TableData.from_dict(bad)
        bad = json.loads(json.dumps(base))
        bad["labels"][1]["degree"] = "1/5"  # dual degree mismatch
        with pytest.raises(DataFormatError):
            TableData.from_dict(bad)
        bad = json.loads(json.dumps(base))
        bad["labels"].append(dict(bad["labels"][0]))
        with pytest.raises(DataFormatError):
            TableData.from_dict(bad)
        bad = json.loads(json.dumps(base))
        bad["labels"][0]["d"] = "big"
        with pytest.raises(DataFormatError):
            TableData.from_dict(bad)
        bad = json.loads(json.dumps(base))
        bad["labels"][0]["degree"] = "1/6"  # singular
        with pytest.raises(DataFormatError):
            TableData.from_dict(bad)

    def test_load_data_dispatch(self, tmp_path):
        fam = data_from_config({"family": "P", "N": 3, "c": 2.0})
        assert isinstance(fam, BuiltinFamily)
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"family": "M", "N": 2, "c": 1.0}))
        assert load_data(str(path)).kind == "M"
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(DataFormatError):
            load_data(str(bad))
