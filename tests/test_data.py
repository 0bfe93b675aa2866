import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rlw import (
    DataFormatError,
    DomainError,
    IndexRangeError,
    MissingDataError,
    StringNetModel,
    build_torus,
    coloring_from_holonomy,
    validate,
)
from rlw.data import (
    BlockCache,
    BuiltinFamily,
    Label,
    RecordingData,
    TableData,
    data_from_config,
    load_data,
    parse_family_spec,
)
from rlw import data as data_module
from multiplicity import ForcedMultiplicity
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
        # 1/5 + 2/5 - 1/7 is not an integer: both reads give zero
        missed = (F15, F25, F17, F15, F25, F17)
        assert not fam.sixj_block(missed).any()
        ls = [fam.labels(g) for g in missed]
        for idx in np.ndindex(*block.shape[:6]):
            assert fam.sixj([ls[t][idx[t]] for t in range(6)], (1, 1, 1, 1)) == 0
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

    @pytest.mark.parametrize(
        "c, gamma0", [("2", None), (True, None), (1.0, "2"), (1.0, False)]
    )
    def test_parameters_are_not_converted(self, c, gamma0):
        # a string or a bool is refused with the parameter named, not
        # converted or compared into a bare TypeError
        with pytest.raises(DataFormatError, match="c must be|gamma0 > 0"):
            BuiltinFamily("F" if gamma0 is not None else "P", 2, c, gamma0)

    def test_parse_family_spec(self):
        fam = parse_family_spec("P:3:2")
        assert (fam.kind, fam.N, fam.c) == ("P", 3, 2.0)
        fam = parse_family_spec("F:2:1:2")
        assert fam.gamma0 == 2.0
        for bad in ("P:3", "X:2:1", "F:2:1", "P:a:1"):
            with pytest.raises(DataFormatError):
                parse_family_spec(bad)


# small fractions, integers and multiples of 1/6 among them
_FRACTIONS = st.builds(
    Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13])
)

# no multiple of 1/6, so few sums of them are singular
_GENERIC = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([4, 5, 7, 11, 13])).filter(
    lambda f: f.denominator > 3
)


class TestIntegerDegreeTest:
    """The builtin blocks decide the degree constraint on integer pairs;
    the oracle is the same rule on `Fraction` sums."""

    @given(st.lists(_FRACTIONS, min_size=1, max_size=4), st.booleans())
    def test_whole_matches_fraction_sum(self, fractions, close):
        if close:  # make the sum an integer
            fractions.append(-sum(fractions) + len(fractions))
        pairs = [(f.numerator, f.denominator) for f in fractions]
        assert data_module._whole(*pairs) == (sum(fractions).denominator == 1)

    @settings(max_examples=200)
    @given(st.lists(_GENERIC, min_size=4, max_size=4), st.integers(0, 2))
    def test_blocks_match_fraction_rule(self, values, mode):
        fam = BuiltinFamily("P", 2, 1.0)
        g1, g2, g4, extra = values
        if mode == 0:  # the 6j constraint holds by construction
            g3, g5 = g1 + g2, g1 + g2 + g4
            degs = (g1, g2, g3, g4, g5, g5 - g1)
            triple = (g1, g2, -(g1 + g2))
        elif mode == 1:  # one sum is off by `extra`
            g3, g5 = g1 + g2 + extra, g1 + g2 + g4
            degs = (g1, g2, g3, g4, g5, g5 - g1)
            triple = (g1, g2, extra - g1 - g2)
        else:
            degs = (g1, g2, g4, extra, g1 + extra, g2 - g4)
            triple = (g1, g2, g4)
        elements = [QMODZ.element(v) for v in degs]
        assume(all(fam.singular.is_generic(g) for g in elements))
        v1, v2, v3, v4, v5, v6 = degs
        sums = (v1 + v2 - v3, v3 + v4 - v5, v5 - v6 - v1, v6 - v4 - v2)
        assert bool(fam.sixj_block(elements).any()) == all(
            Fraction(s).denominator == 1 for s in sums
        )
        triple_elements = [QMODZ.element(v) for v in triple]
        assume(all(fam.singular.is_generic(g) for g in triple_elements))
        assert bool(fam.delta_block(*triple_elements).any()) == (
            Fraction(sum(triple)).denominator == 1
        )


def _triple(fam):
    g3 = -(F15 + F15)
    return fam.labels(F15)[0], fam.labels(F15)[0], fam.labels(g3)[0]


def _supported_sextuple():
    g1, g2, g4 = F15, F25, F17
    g3 = g1 + g2
    g5 = g3 + g4
    g6 = g5 - g1
    return (g1, g2, g3, g4, g5, g6)


def _read(data, kind, *degs):
    """Block `kind` ("delta", "gamma" or "sixj") of `data` at `degs`, read
    through `data.blocks` as every computation reads it."""
    blocks = data.blocks
    return getattr(blocks, kind)(*map(blocks.id, degs))


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
        b1 = _read(rec, "sixj", *degs)
        _read(rec, "delta", F15, F15, QMODZ.parse("3/5"))
        _read(rec, "gamma", F15, F15, QMODZ.parse("3/5"))
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
        _read(rec, "sixj", *_supported_sextuple())
        _read(rec, "gamma", F15, F15, QMODZ.parse("3/5"))
        table = rec.export_table()
        path = tmp_path / "slice.json"
        table.to_file(str(path))
        back = load_data(str(path))
        assert back.to_dict() == table.to_dict()
        assert back.mult_bound == 1
        lbl = back.labels(F15)[0]
        assert lbl.beta == 2 ** (-2 / 3)

    def test_zero_sixj_block_survives_file_roundtrip(self, tmp_path):
        # an all-zero 6j block is stored data, not a missing block
        coloring = coloring_from_holonomy(build_torus("theta"), (F15, F25))
        probe = QMODZ.parse("1/4")
        rec = RecordingData(BuiltinFamily("P", 3, 2.0))
        StringNetModel(rec, coloring, probe=probe).ground_dim()
        obj = rec.export_table().to_dict()
        degree = {row["id"]: row["degree"] for row in obj["labels"]}
        first = [degree[i] for i in obj["sixj"][0]["j"]]
        for row in obj["sixj"]:
            if [degree[i] for i in row["j"]] == first:
                row["re"] = row["im"] = 0.0
        table = TableData.from_dict(obj)
        path = tmp_path / "zeroed.json"
        table.to_file(str(path))
        back = load_data(str(path))
        assert back.to_dict() == table.to_dict()
        dims = [StringNetModel(t, coloring, probe=probe).ground_dim() for t in (table, back)]
        assert dims[0] == dims[1]

    @pytest.mark.parametrize(
        "field, key, value",
        [("sixj", "re", float("nan")), ("sixj", "im", float("inf")),
         ("labels", "d", float("nan")), ("gamma", "value", float("-inf"))],
    )
    def test_non_finite_entry_rejected_at_load(self, tmp_path, field, key, value):
        rec = RecordingData(BuiltinFamily("P", 2, 1.0))
        _read(rec, "sixj", *_supported_sextuple())
        _read(rec, "gamma", F15, F15, QMODZ.parse("3/5"))
        table = rec.export_table().to_dict()
        table[field][0][key] = value
        path = tmp_path / "slice.json"
        path.write_text(json.dumps(table))  # json writes NaN and Infinity
        with pytest.raises(DataFormatError, match="must be finite") as info:
            load_data(str(path))
        names = {"re": "sixj re", "im": "sixj im", "d": "d", "value": "gamma"}
        assert str(info.value).startswith(names[key])

    @staticmethod
    def recorded_rows():
        rec = RecordingData(BuiltinFamily("P", 2, 1.0))
        _read(rec, "sixj", *_supported_sextuple())
        _read(rec, "gamma", F15, F15, QMODZ.parse("3/5"))
        _read(rec, "delta", F15, F15, QMODZ.parse("3/5"))
        return rec.export_table().to_dict()

    @pytest.mark.parametrize(
        "field, key, value",
        [("sixj", "a", [0, 1, 1, 1]), ("sixj", "a", [1, 1, 2, 1]),
         ("gamma", "n", 0), ("gamma", "n", 2), ("delta", "value", -1),
         ("delta", "value", 1.5), ("delta", "value", 1.0), ("delta", "value", True),
         ("gamma", "n", 1.9), ("gamma", "n", "1"),
         ("sixj", "a", [1, 1, True, 1]), ("sixj", "a", [1, 1, 1, 1.2])],
    )
    def test_out_of_range_row_rejected_at_load(self, field, key, value):
        # n = 0 used to land at index -1, n above every delta was a raw
        # IndexError on first read, a negative delta shrank the spaces,
        # and int() loaded delta 1.5 and n 1.9 as 1 and a = true as 1
        table = self.recorded_rows()
        table[field][0][key] = value
        with pytest.raises(DataFormatError, match=f"^{field} row") as info:
            TableData.from_dict(table)
        assert repr(table[field][0]) in str(info.value)

    @pytest.mark.parametrize("field", ["delta", "gamma", "sixj"])
    def test_repeated_entry_rejected_at_load(self, field):
        # a later row at the same entry used to overwrite the first
        table = self.recorded_rows()
        table[field].append(dict(table[field][0]))
        with pytest.raises(DataFormatError, match=f"^{field} row .* repeats an earlier entry"):
            TableData.from_dict(table)

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

    def test_per_entry_reads_are_checked(self):
        fam = BuiltinFamily("P", 2, 1.0)
        rec = RecordingData(fam)
        validate(rec, [F15, F25])
        table = rec.export_table()
        i, j, k = (table.labels(l.degree)[fam.label_index(l)] for l in _triple(fam))
        assert table.delta(i, j, k) == 1
        for n in (0, 2):
            with pytest.raises(IndexRangeError, match=f"branching index {n} outside 1..1"):
                table.gamma(i, j, k, n)
        stranger = Label("9@1/5", F15, "9@4/5", 1.0, 1.0, 1.0)
        with pytest.raises(MissingDataError, match="unknown label id '9@1/5'"):
            table.label_index(stranger)
        for data in (fam, rec):
            with pytest.raises(MissingDataError, match="^label '9@1/5' not found at degree 1/5$"):
                data.label_index(stranger)
        lost = Label("0@1/5", F15, "9@4/5", 1.0, 1.0, 1.0)
        for data in (fam, rec, table):
            with pytest.raises(MissingDataError, match="^dual label '9@4/5' not found at"):
                data.dual(lost)

    def test_warm_per_entry_reads_call_no_provider_block(self, monkeypatch):
        fam = BuiltinFamily("P", 2, 1.0)
        rec = RecordingData(fam)
        validate(rec, [F15, F25, F17])
        table = rec.export_table()
        js = [table.labels(g)[0] for g in _supported_sextuple()]
        ijk = [table.labels(l.degree)[fam.label_index(l)] for l in _triple(fam)]

        def reads():
            return table.delta(*ijk), table.gamma(*ijk, 1), table.sixj(js, (1, 1, 1, 1))

        cold = reads()
        assert cold == (1, 1.0, 1.0)

        def refuse(*args):
            raise AssertionError("a provider block was read")

        for name in ("delta_block", "gamma_block", "sixj_block"):
            monkeypatch.setattr(table, name, refuse)
        assert reads() == cold

    def test_gamma_block_missing_in_range(self):
        # the block keeps gamma's contract instead of zero-filling
        fam = BuiltinFamily("P", 2, 1.0)
        rec = RecordingData(fam)
        i, j, k = _triple(fam)
        rec.delta(i, j, k)
        table = rec.export_table()
        with pytest.raises(MissingDataError, match="inside delta range 1"):
            table.gamma_block(i.degree, j.degree, k.degree)

    def test_sixj_block_absent_at_constrained_degrees(self):
        # such a block is never all zero, so its absence is missing data
        rec = RecordingData(BuiltinFamily("P", 2, 1.0))
        degs = _supported_sextuple()
        for g in degs:
            rec.labels(g)
        table = rec.export_table()
        with pytest.raises(
            MissingDataError,
            match=r"^6j block at degrees \(1/5,2/5,3/5,1/7,26/35,19/35\) is not in the table$",
        ):
            table.sixj_block(degs)
        assert not table.sixj_block((F15,) * 6).any()  # off the constraint
        with pytest.raises(MissingDataError, match="not tabulated"):
            table.sixj_block((QMODZ.parse("1/11"),) + degs[1:])

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


class TestBlockCache:
    def test_interning(self):
        fam = BuiltinFamily("P", 3, 2.0)
        blocks = BlockCache(fam)
        i, j = blocks.id(F15), blocks.id(F25)
        assert blocks.id(QMODZ.parse("1/5")) == i != j
        assert blocks.element(i) == F15
        assert blocks.add(i, j) == blocks.id(F15 + F25) == blocks.add(j, i)
        assert blocks.element(blocks.neg(i)) == -F15
        assert blocks.neg(blocks.neg(i)) == i
        zero = blocks.add(i, blocks.neg(i))
        assert blocks.generic[i] and not blocks.generic[zero]
        ids = range(len(blocks.generic))
        assert blocks.generic == [fam.singular.is_generic(blocks.element(k)) for k in ids]

    def test_blocks_are_read_only(self):
        fam = BuiltinFamily("P", 3, 2.0)
        rec = RecordingData(fam)
        _read(rec, "sixj", *_supported_sextuple())
        table = rec.export_table()
        for data in (fam, table):
            blocks = BlockCache(data)
            ids = tuple(blocks.id(g) for g in _supported_sextuple())
            g1, g2, g3 = ids[:3]
            fetched = [
                blocks.sixj(*ids),
                blocks.delta(g1, g2, blocks.neg(g3)),
                blocks.gamma(g1, g2, blocks.neg(g3)),
                blocks.perm(g1),
                *blocks.scalars(g1),
            ]
            assert blocks.sixj(*ids) is fetched[0]
            for block in fetched:
                with pytest.raises(ValueError):
                    block[(0,) * block.ndim] = 7

    # the axes the plaquette walk dualizes at a corner: the new and old
    # labels of a position walked along an odd dart, the next position's
    # when walked along an even one, both, and each with the leg
    WALK_DUALS = [(0, 2), (3, 5), (0, 2, 3, 5)]

    @pytest.mark.parametrize(
        "fam",
        [BuiltinFamily("P", 3, 2.0), ForcedMultiplicity(BuiltinFamily("P", 2, 1.0))],
        ids=["P32", "forced-P21"],
    )
    @pytest.mark.parametrize("dual", WALK_DUALS + [d + (4,) for d in WALK_DUALS])
    def test_dualized_corner_table(self, fam, dual):
        blocks = BlockCache(fam)
        table_ids = [blocks.id(g) for g in _supported_sextuple()]
        ids = [blocks.neg(d) if k in dual else d for k, d in enumerate(table_ids)]
        got = blocks.dualized(blocks.corner, ids, dual)
        want = blocks.corner(*table_ids)
        for k in dual:
            want = np.take(want, blocks.perm(ids[k]), axis=k)
        assert want.any()
        assert np.array_equal(got, want)
        assert blocks.dualized(blocks.corner, ids, dual) is got

    @pytest.mark.parametrize(
        "fam",
        [BuiltinFamily("P", 3, 2.0), ForcedMultiplicity(BuiltinFamily("P", 2, 1.0))],
        ids=["P32", "forced-P21"],
    )
    def test_dualized_scalar_vector(self, fam):
        blocks = BlockCache(fam)
        i = blocks.id(F25)
        got = blocks.dualized(lambda d: blocks.scalars(d)[0], [i], [0])
        d = blocks.scalars(blocks.neg(i))[0]
        assert np.array_equal(got, d[blocks.perm(i)])
        assert blocks.dualized(lambda d: blocks.scalars(d)[0], [i], [0]) is got
        assert blocks.dualized(lambda d: blocks.scalars(d)[0], [i], []) is blocks.scalars(i)[0]
        # every builtin d vector is constant, so read one whose entries differ
        position = np.arange(len(fam.labels(-F25)))
        assert np.array_equal(blocks.dualized(lambda d: position, [i], [0]), blocks.perm(i))

    def test_builtin_blocks_are_shared(self):
        fam = BuiltinFamily("P", 3, 2.0)
        other = (F25, F15, F25 + F15, F17, F25 + F15 + F17, F15 + F17)
        block = fam.sixj_block(_supported_sextuple())
        assert fam.sixj_block(other) is block
        assert fam.sixj_block((F15,) * 6) is not block
        assert not fam.sixj_block((F15,) * 6).any()
        three = QMODZ.parse("3/5")
        assert fam.delta_block(F15, F25, three) is fam.delta_block(F25, F15, three)
        gamma = fam.gamma_block(F15, F25, F25)  # degrees summing to 0
        assert fam.gamma_block(F25, F17, -(F25 + F17)) is gamma
        assert np.array_equal(gamma[..., 0], fam.delta_block(F15, F25, F25))
        zero = fam.gamma_block(F15, F25, three)
        assert fam.gamma_block(F17, F17, F15) is zero is not gamma
        assert gamma.any() and not zero.any()
        with pytest.raises(ValueError):
            gamma[(0,) * gamma.ndim] = 7
        with pytest.raises(ValueError):
            block[(0,) * block.ndim] = 7
        with pytest.raises(DomainError):
            fam.sixj_block((QMODZ.parse("1/2"),) + other[1:])


    def test_interning_keeps_dtype_shape_and_bytes(self):
        blocks = BlockCache(BuiltinFamily("P", 3, 2.0))
        first = np.zeros(4, np.int64)
        assert blocks._intern(first) is first
        assert blocks._intern(np.zeros(4, np.int64)) is first
        # the same bytes as another dtype or shape, or one byte apart
        same_bytes = [np.zeros(4, np.float64), np.zeros((2, 2), np.int64)]
        one_byte = first.copy()
        one_byte[3] = 1
        signed = [np.array([0.0]), np.array([-0.0])]  # equal values, not bytes
        for arr in same_bytes + [one_byte] + signed:
            assert blocks._intern(arr) is arr
        assert blocks._intern(np.array([-0.0])) is signed[1]

    def test_every_interned_array_is_read_only(self):
        blocks = BlockCache(ForcedMultiplicity(BuiltinFamily("P", 2, 1.0)))
        ids = [blocks.id(g) for g in _supported_sextuple()]
        blocks.support(ids)
        blocks.dualized(blocks.gamma, ids[:3], (2,))
        blocks.dualized(blocks.sixj, ids, (0, 1, 2))
        blocks.scalars(ids[0])
        assert len(blocks._interned) > 5
        for arr in blocks._interned.values():
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 7

    def test_dualized_is_one_array_per_block_and_perms(self):
        blocks = BlockCache(BuiltinFamily("P", 3, 2.0))
        first = [blocks.id(g) for g in _supported_sextuple()]
        g1, g2, g4 = F25, F17, F15
        second = [blocks.id(g) for g in (g1, g2, g1 + g2, g4, g1 + g2 + g4, g2 + g4)]
        assert first != second
        # the tetrahedral check's first identity: labels (j2, j3*, j1*, j5, j6, j4)
        reads = [[ids[k] for k in (1, 2, 0, 4, 5, 3)] for ids in (first, second)]
        raw = [blocks.sixj(*[blocks.neg(g) if k in (1, 2) else g for k, g in enumerate(at)])
               for at in reads]
        assert raw[0] is raw[1] and raw[0].any()
        assert blocks.perm(reads[0][1]) is blocks.perm(reads[1][1])
        one = blocks.dualized(blocks.sixj, reads[0], (1, 2))
        assert blocks.dualized(blocks.sixj, reads[1], (1, 2)) is one
        expected = raw[0]
        for k in (1, 2):
            expected = np.take(expected, blocks.perm(reads[0][k]), axis=k)
        assert np.array_equal(one, expected)
        assert blocks.support(first) is blocks.support(second)


CLOSED_FORMS = {
    "P21": BuiltinFamily("P", 2, 1.0),
    "P32": BuiltinFamily("P", 3, 2.0),
    "M21": BuiltinFamily("M", 2, 1.0),
    "F212": BuiltinFamily("F", 2, 1.0, 2.0),
}


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_table_reads_match_closed_forms(name):
    """Every per-entry read of a recorded table, over each block it
    stores, equals the builtin family's closed form."""
    fam = CLOSED_FORMS[name]
    rec = RecordingData(fam)
    theta = coloring_from_holonomy(build_torus("theta"), (F15, F25))
    StringNetModel(rec, theta).ground_dim()
    validate(rec, [F15, F25])
    table = TableData.from_dict(rec.export_table().to_dict())
    rows = table.to_dict()
    by_id = {l.id: l for g in table.degrees() for l in table.labels(g)}

    def stored(field, ids):
        degs = {tuple(by_id[i].degree for i in ids(row)) for row in rows[field]}
        assert degs
        for key in sorted(degs, key=str):
            yield itertools.product(*map(table.labels, key))

    def triple(row):
        return row["i"], row["j"], row["k"]

    for labels in stored("delta", triple):
        for ijk in labels:
            assert table.delta(*ijk) == fam.delta(*ijk)
    for labels in stored("gamma", triple):
        for ijk in labels:
            for n in range(1, fam.delta(*ijk) + 1):
                assert table.gamma(*ijk, n) == fam.gamma(*ijk, n)
    branching = list(itertools.product(range(1, table.mult_bound + 1), repeat=4))
    for labels in stored("sixj", lambda row: row["j"]):
        for js in labels:
            for a in branching:
                assert table.sixj(js, a) == fam.sixj(js, a)
