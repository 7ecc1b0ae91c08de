"""Dataset CSV round trip and the row and sidecar checks of read_dataset."""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tls_scope import cli, dataio
from tls_scope.errors import SchemaError
from tls_scope.spectro import SegmentSpec, SpectroscopyDataset

N_FREQ = 7


def make_dataset():
    """Three segments with different controls and held values, floats
    whose repr is long, and a few missing (NaN) T1 cells."""
    rng = np.random.default_rng(5)
    freq = 5.8 + np.arange(N_FREQ) / 3.0
    specs = [
        ("sample", 4, {"v_p": 0.1, "v_g": -30.0}),
        ("piezo", 3, {"v_g": -30.0, "v_s": 1.0 / 3.0e3}),
        ("global", 5, {"v_p": 90.0, "v_s": 0.0}),
    ]
    segments, grids = [], []
    for control, n_bias, held in specs:
        segments.append(SegmentSpec(
            control=control,
            bias=rng.uniform(-2e-3, 2e-3, n_bias),
            held=held,
        ))
        grids.append(rng.uniform(0.1, 10.0, (n_bias, N_FREQ)) ** 3)
    grids[0][1, 2] = np.nan
    grids[2][4, 0] = np.nan
    grids[2][0, 6] = np.nan
    return SpectroscopyDataset(
        segments=tuple(segments),
        freq_ghz=freq,
        t1_us=tuple(grids),
        meta={"seed": 5, "note": "round trip"},
    )


@pytest.fixture
def written(tmp_path):
    ds = make_dataset()
    path = tmp_path / "dataset.csv"
    dataio.write_dataset(ds, path)
    return ds, path


def reference_csv(ds):
    """The dataset CSV written line by line, as the format defines it: one
    line per bias step, its T1 cells in the order of the header's
    frequencies, a non-finite cell as ``nan``."""
    lines = [",".join([dataio.DATASET_COLUMNS, *(repr(float(f)) for f in ds.freq_ghz)])]
    for s, (seg, t1) in enumerate(zip(ds.segments, ds.t1_us)):
        for v, row in zip(seg.bias, t1):
            cells = [repr(float(t)) if np.isfinite(t) else "nan" for t in row]
            lines.append(",".join([str(s), seg.control, repr(float(v)), *cells]))
    return "\n".join(lines) + "\n"


#: The file line of the last bias step of make_dataset, whose 4 + 3 + 5
#: bias steps are lines 2-13.
LAST_LINE = 13


def replace_line(path, lineno, text):
    lines = path.read_text().split("\n")
    lines[lineno - 1] = text
    path.write_text("\n".join(lines))


def set_bias(path, lineno, bias):
    fields = path.read_text().split("\n")[lineno - 1].split(",")
    fields[2] = bias
    replace_line(path, lineno, ",".join(fields))


class TestRoundTrip:
    def test_values_come_back_bit_for_bit(self, written):
        ds, path = written
        back = dataio.read_dataset(path)
        assert back.freq_ghz.tobytes() == ds.freq_ghz.tobytes()
        assert len(back.segments) == len(ds.segments)
        for a, b in zip(ds.segments, back.segments):
            assert (b.control, b.held, b.direction) == (a.control, a.held, a.direction)
            assert b.bias.tobytes() == a.bias.tobytes()
        for a, b in zip(ds.t1_us, back.t1_us):
            assert b.tobytes() == a.tobytes()
        assert back.meta["note"] == "round trip"

    def test_missing_cells_are_nan(self, written):
        ds, path = written
        lines = path.read_text().splitlines()
        assert lines[0].startswith(dataio.DATASET_COLUMNS + ",")
        assert len(lines) == 1 + sum(seg.bias.size for seg in ds.segments) == LAST_LINE
        missing = [(i, j) for i, line in enumerate(lines[1:])
                   for j, cell in enumerate(line.split(",")[3:]) if cell == "nan"]
        # Bias step 1, column 2 of segment 0; steps 0 and 4 of segment 2,
        # which starts after the 4 + 3 steps of segments 0 and 1.
        assert missing == [(1, 2), (7, 6), (11, 0)]

    def test_writer_matches_reference_loop(self, tmp_path):
        ds = make_dataset()
        ds.t1_us[1][2, 3] = np.inf
        path = tmp_path / "dataset.csv"
        dataio.write_dataset(ds, path)
        assert path.read_text() == reference_csv(ds)

    def test_rewrite_gives_identical_bytes(self, written, tmp_path):
        _, path = written
        again = tmp_path / "again.csv"
        dataio.write_dataset(dataio.read_dataset(path), again)
        assert again.read_bytes() == path.read_bytes()

    def test_blank_lines_are_skipped(self, written):
        ds, path = written
        lines = path.read_text().split("\n")
        lines.insert(5, "")
        lines.insert(9, "  ")
        path.write_text("\n".join(lines))
        back = dataio.read_dataset(path)
        for a, b in zip(ds.t1_us, back.t1_us):
            assert b.tobytes() == a.tobytes()


class TestRowChecks:
    def test_short_row_names_its_line(self, written):
        _, path = written
        replace_line(path, 6, "0,sample,0.001,5.8")
        with pytest.raises(SchemaError, match=r"\brow 6\b"):
            dataio.read_dataset(path)

    def test_non_numeric_cell_names_its_line(self, written):
        _, path = written
        fields = path.read_text().split("\n")[8].split(",")
        fields[5] = "abc"
        replace_line(path, 9, ",".join(fields))
        with pytest.raises(SchemaError, match=r"\brow 9\b.*'abc'"):
            dataio.read_dataset(path)

    def test_non_numeric_header_frequency_names_row_1(self, written):
        _, path = written
        fields = path.read_text().split("\n")[0].split(",")
        fields[4] = "abc"
        replace_line(path, 1, ",".join(fields))
        with pytest.raises(SchemaError, match=r"\brow 1\b.*'abc'"):
            dataio.read_dataset(path)

    def test_control_change_within_segment(self, written):
        _, path = written
        line = path.read_text().split("\n")[3]
        replace_line(path, 4, line.replace(",sample,", ",piezo,"))
        with pytest.raises(SchemaError, match=r"\brow 4\b.*control changed"):
            dataio.read_dataset(path)

    def test_line_numbers_count_blank_lines(self, written):
        _, path = written
        lines = path.read_text().split("\n")
        lines[3] = lines[3].replace(",sample,", ",piezo,")
        lines.insert(2, "")
        path.write_text("\n".join(lines))
        with pytest.raises(SchemaError, match=r"\brow 5\b.*control changed"):
            dataio.read_dataset(path)

    def test_long_control_name_with_a_valid_prefix(self, written):
        _, path = written
        path.write_text(path.read_text().replace(",sample,", ",sampleXYZ,"))
        with pytest.raises(SchemaError, match="unknown control"):
            dataio.read_dataset(path)

    def test_doubled_bias_step_is_the_sidecar_count(self, written):
        _, path = written
        lines = path.read_text().split("\n")
        lines.insert(3, lines[3])
        path.write_text("\n".join(lines))
        needle = "meta.json: segment 0 has 4 bias steps, the CSV has 5"
        with pytest.raises(SchemaError, match=re.escape(needle)):
            dataio.read_dataset(path)

    @pytest.mark.parametrize("cut", [1, 3, 9])
    def test_cut_file_names_its_last_line(self, written, cut):
        # Cut 1 leaves "...0.2325873" as "...0.232587": still a number.
        _, path = written
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(SchemaError, match=rf"\brow {LAST_LINE}\b.*cut short"):
            dataio.read_dataset(path)

    def test_swapped_header_frequencies(self, written):
        _, path = written
        fields = path.read_text().split("\n")[0].split(",")
        fields[4], fields[6] = fields[6], fields[4]
        replace_line(path, 1, ",".join(fields))
        with pytest.raises(SchemaError, match="frequency axis must be strictly increasing"):
            dataio.read_dataset(path)

    @pytest.mark.parametrize("change", ["more", "fewer"])
    def test_line_with_a_cell_more_or_fewer(self, written, change):
        _, path = written
        line = path.read_text().split("\n")[4]
        replace_line(path, 5, line + ",1.0" if change == "more" else line[:line.rindex(",")])
        with pytest.raises(SchemaError, match=r"\brow 5\b"):
            dataio.read_dataset(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_bias(self, written, value):
        _, path = written
        set_bias(path, 2 + N_FREQ, value)
        with pytest.raises(SchemaError, match=rf"\brow {2 + N_FREQ}\b.*bias_V is not finite"):
            dataio.read_dataset(path)

    @pytest.mark.parametrize("value", ["inf", "-inf", "1e400"])
    def test_infinite_t1_is_refused(self, written, value):
        # An infinite T1 used to pass as a missing cell and come back from
        # write_dataset as an empty field.
        _, path = written
        fields = path.read_text().split("\n")[4].split(",")
        fields[4] = value
        replace_line(path, 5, ",".join(fields))
        with pytest.raises(SchemaError, match="T1 values must be finite or NaN"):
            dataio.read_dataset(path)

    def test_bias_steps_are_the_sidecar_count(self, written):
        _, path = written
        lines = path.read_text().split("\n")
        del lines[1]
        path.write_text("\n".join(lines))
        needle = "meta.json: segment 0 has 4 bias steps, the CSV has 3"
        with pytest.raises(SchemaError, match=re.escape(needle)):
            dataio.read_dataset(path)

    def test_header_only_file_has_no_rows(self, written):
        _, path = written
        path.write_text(path.read_text().split("\n")[0] + "\n")
        with pytest.raises(SchemaError, match="no rows"):
            dataio.read_dataset(path)

    @staticmethod
    def with_missing_cells(tmp_path, n_missing):
        """A dataset file of two segments and 8 frequencies whose bias step
        1 of segment 1 has ``n_missing`` cells ``nan``."""
        n_freq = 8
        ds = SpectroscopyDataset(
            segments=(SegmentSpec("sample", np.array([1e-3, 2e-3]), {"v_p": 0.0, "v_g": 0.0}),
                      SegmentSpec("piezo", np.array([1.0, 2.0, 3.0]),
                                  {"v_g": 0.0, "v_s": 2e-3})),
            freq_ghz=5.0 + 0.25 * np.arange(n_freq),
            t1_us=(np.ones((2, n_freq)), np.ones((3, n_freq))),
        )
        path = tmp_path / "dataset.csv"
        dataio.write_dataset(ds, path)
        fields = path.read_text().split("\n")[4].split(",")  # file line 5
        fields[3:3 + n_missing] = ["nan"] * n_missing
        replace_line(path, 5, ",".join(fields))
        return path

    def test_half_a_bias_step_missing_is_refused(self, tmp_path, capsys):
        # The check is "half or more"; it used to say "a trace is more than
        # half missing" and name neither the segment nor the step.
        path = self.with_missing_cells(tmp_path, 4)
        assert cli.main(["fit", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "segment 1, bias step 1: half or more of its T1 values are missing" in err
        assert not (tmp_path / "out").exists()

    def test_just_under_half_a_bias_step_missing_reads(self, tmp_path):
        back = dataio.read_dataset(self.with_missing_cells(tmp_path, 3))
        assert np.isnan(back.t1_us[1]).sum(axis=1).tolist() == [0, 3, 0]


class TestSidecarChecks:
    @pytest.mark.parametrize("where, value, needle", [
        (("segments", 0, "held"), {"v_p": None}, "segment 0: 'held'"),
        (("segments", 0, "held"), [1, 2], "segment 0: 'held'"),
        (("segments", 2, "direction"), 1, "segment 2: 'direction'"),
        (("segments", 1), 3, "'segments' must be a list of objects"),
        (("segments",), {"a": 1}, "'segments' must be a list of objects"),
    ], ids=["held-null", "held-list", "direction-number", "entry-number",
            "segments-object"])
    def test_wrong_shape_names_the_sidecar(self, written, where, value, needle):
        _, path = written
        sidecar = path.with_name(path.name + ".meta.json")
        meta = json.loads(sidecar.read_text())
        target = meta
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(SchemaError, match=f"dataset.csv.meta.json: {needle}"):
            dataio.read_dataset(path)

    @pytest.mark.parametrize("number", ["NaN", "-Infinity", "1e999"])
    @pytest.mark.parametrize("where", [("segments", 0, "held", "v_p"), ("note", 1, "a")],
                             ids=["held", "nested"])
    def test_non_finite_number_is_refused(self, written, number, where):
        # write_json refuses these; the reader took a held NaN as a number.
        _, path = written
        sidecar = path.with_name(path.name + ".meta.json")
        meta = json.loads(sidecar.read_text())
        meta["note"] = [1.0, {}]
        target = meta
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = "@"
        sidecar.write_text(json.dumps(meta).replace('"@"', number))
        with pytest.raises(SchemaError, match="dataset.csv.meta.json: holds a number that "
                                              "is not finite"):
            dataio.read_dataset(path)

    @pytest.mark.parametrize("old, new, ids", [
        ("\n0,sample,", "\n-1,sample,", [-1, 1, 2]),
        ("\n2,global,", "\n3,global,", [0, 1, 3]),
        ("\n2,global,", "\n1,piezo,", [0, 1]),
    ], ids=["negative-id", "id-gap", "segment-missing"])
    def test_csv_segments_are_the_sidecar_segments(self, written, old, new, ids):
        _, path = written
        path.write_text(path.read_text().replace(old, new))
        needle = f"meta.json: describes segments 0..2, the CSV has segments {ids}"
        with pytest.raises(SchemaError, match=re.escape(needle)):
            dataio.read_dataset(path)

    def test_frequency_axis_length_is_the_sidecar_length(self, written):
        ds, path = written
        sidecar = path.with_name(path.name + ".meta.json")
        meta = json.loads(sidecar.read_text())
        assert meta["n_freq"] == ds.freq_ghz.size
        meta["n_freq"] += 1
        sidecar.write_text(json.dumps(meta))
        needle = (f"dataset.csv.meta.json: the frequency axis has {ds.freq_ghz.size + 1} "
                  f"points, the CSV has {ds.freq_ghz.size}")
        with pytest.raises(SchemaError, match=re.escape(needle)):
            dataio.read_dataset(path)

    def test_sidecar_without_frequency_axis_still_reads(self, written):
        ds, path = written
        sidecar = path.with_name(path.name + ".meta.json")
        meta = json.loads(sidecar.read_text())
        del meta["n_freq"]
        sidecar.write_text(json.dumps(meta))
        assert dataio.read_dataset(path).freq_ghz.tobytes() == ds.freq_ghz.tobytes()

    def test_segment_control_is_the_sidecar_control(self, written):
        _, path = written
        sidecar = path.with_name(path.name + ".meta.json")
        meta = json.loads(sidecar.read_text())
        meta["segments"][1]["control"] = "global"
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(
            SchemaError,
            match="dataset.csv.meta.json: segment 1 is 'global', the CSV has 'piezo'",
        ):
            dataio.read_dataset(path)


@st.composite
def small_datasets(draw):
    """A valid dataset of 1-2 segments, 1-3 bias steps and 2-4 frequencies."""
    n_freq = draw(st.integers(2, 4))
    volts = st.floats(-2e-3, 2e-3, allow_subnormal=False)
    segments, grids = [], []
    for control in draw(st.lists(st.sampled_from(["sample", "piezo", "global"]),
                                 min_size=1, max_size=2)):
        n_bias = draw(st.integers(1, 3))
        segments.append(SegmentSpec(
            control=control,
            bias=np.array(draw(st.lists(volts, min_size=n_bias, max_size=n_bias))),
            held={},
        ))
        cells = draw(st.lists(st.floats(0.01, 100.0), min_size=n_bias * n_freq,
                              max_size=n_bias * n_freq))
        grids.append(np.reshape(cells, (n_bias, n_freq)))
    return SpectroscopyDataset(
        segments=tuple(segments),
        freq_ghz=5.0 + 0.25 * np.arange(n_freq),
        t1_us=tuple(grids),
    )


def corrupt(text, kind, data, n_freq):
    """``text`` with one damage of the given kind, drawn from ``data``."""
    if kind == "cut":
        return text[:data.draw(st.integers(text.index("\n") + 1, len(text) - 1))]
    lines = text.split("\n")
    if kind == "swap":
        # Two frequencies of the header.
        i, j = data.draw(st.lists(st.integers(3, 2 + n_freq), min_size=2, max_size=2,
                                  unique=True))
        fields = lines[0].split(",")
        fields[i], fields[j] = fields[j], fields[i]
        lines[0] = ",".join(fields)
        return "\n".join(lines)
    k = data.draw(st.integers(1, len(lines) - 2))
    fields = lines[k].split(",")
    if kind == "cells":
        # A cell more or one fewer on a bias-step line.
        fields = data.draw(st.sampled_from([fields + ["1.0"], fields[:-1]]))
    else:
        fields[2] = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
    lines[k] = ",".join(fields)
    return "\n".join(lines)


class TestCorruption:
    @settings(max_examples=60, deadline=None)
    @given(ds=small_datasets(), kind=st.sampled_from(["cut", "swap", "cells", "non-finite"]),
           data=st.data())
    def test_damage_is_refused_or_harmless(self, ds, kind, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "dataset.csv"
            dataio.write_dataset(ds, path)
            path.write_text(corrupt(path.read_text(), kind, data, ds.freq_ghz.size))
            try:
                back = dataio.read_dataset(path)
            except SchemaError:
                return
        assert back.freq_ghz.tobytes() == ds.freq_ghz.tobytes()
        for a, b in zip(ds.segments, back.segments, strict=True):
            assert b.bias.tobytes() == a.bias.tobytes()
        for a, b in zip(ds.t1_us, back.t1_us, strict=True):
            assert b.tobytes() == a.tobytes()


def refused_damage(text, kind, data, n_freq):
    """``text`` with one damage of the given kind that makes it no dataset
    file: cut short, a bias-step line dropped or doubled, or a non-finite
    value where the format forbids one."""
    if kind == "truncated":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    lines = text.split("\n")
    k = data.draw(st.integers(1, len(lines) - 2))
    if kind == "ragged":
        lines[k:k + 1] = [lines[k]] * data.draw(st.sampled_from([0, 2]))
        return "\n".join(lines)
    where = data.draw(st.sampled_from(["bias_V", "freq_GHz", "t1_us"]))
    columns = [2] if where == "bias_V" else [3 + data.draw(st.integers(0, n_freq - 1))]
    if where == "freq_GHz":
        k = 0  # the header
    if kind == "inf":
        value = data.draw(st.sampled_from(["inf", "-inf", "1e400"]))
    elif where == "t1_us":
        # A NaN T1 is a missing cell; half a bias step missing is too many.
        cells = data.draw(st.sets(st.integers(0, n_freq - 1), min_size=(n_freq + 1) // 2))
        columns, value = [3 + j for j in cells], data.draw(st.sampled_from(["nan", ""]))
    else:
        value = "nan"
    fields = lines[k].split(",")
    for column in columns:
        fields[column] = value
    lines[k] = ",".join(fields)
    return "\n".join(lines)


class TestDamagedFiles:
    """What the reader must refuse."""

    @settings(max_examples=80, deadline=None)
    @given(ds=small_datasets(), kind=st.sampled_from(["truncated", "ragged", "nan", "inf"]), data=st.data())
    def test_damage_raises_schema_error_only(self, ds, kind, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "dataset.csv"
            dataio.write_dataset(ds, path)
            path.write_text(refused_damage(path.read_text(), kind, data, ds.freq_ghz.size))
            with pytest.raises(SchemaError):
                dataio.read_dataset(path)

    def test_lone_one_step_segment_cut_at_a_cell(self, tmp_path):
        ds = SpectroscopyDataset(
            segments=(SegmentSpec("sample", np.array([1e-3]), {}),),
            freq_ghz=5.0 + 0.25 * np.arange(4),
            t1_us=(np.array([[1.0, 2.0, 3.0, 4.0]]),),
        )
        path = tmp_path / "dataset.csv"
        dataio.write_dataset(ds, path)
        text = path.read_text()
        path.write_text(text[:text.rindex(",")] + "\n")
        with pytest.raises(SchemaError, match=r"\brow 2\b"):
            dataio.read_dataset(path)

