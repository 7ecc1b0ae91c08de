"""Dataset CSV round trip and the row and sidecar checks of read_dataset."""

import json
import re

import numpy as np
import pytest

from tls_scope import dataio
from tls_scope.errors import SchemaError
from tls_scope.spectro import SegmentSpec, SpectroscopyDataset

N_FREQ = 7


def make_dataset():
    """Three segments with different controls, held values and directions,
    floats whose repr is long, and a few missing (NaN) T1 cells."""
    rng = np.random.default_rng(5)
    freq = 5.8 + np.arange(N_FREQ) / 3.0
    specs = [
        ("sample", 4, {"v_p": 0.1, "v_g": -30.0}, "up"),
        ("piezo", 3, {"v_g": -30.0, "v_s": 1.0 / 3.0e3}, "down"),
        ("global", 5, {"v_p": 90.0, "v_s": 0.0}, "up"),
    ]
    segments, grids = [], []
    for control, n_bias, held, direction in specs:
        segments.append(SegmentSpec(
            control=control,
            bias=rng.uniform(-2e-3, 2e-3, n_bias),
            held=held,
            direction=direction,
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
    """The dataset CSV written cell by cell, as the format defines it."""
    lines = [dataio.DATASET_HEADER]
    for s, (seg, t1) in enumerate(zip(ds.segments, ds.t1_us)):
        for i, v in enumerate(seg.bias):
            for j, f in enumerate(ds.freq_ghz):
                t = t1[i, j]
                t_str = repr(float(t)) if np.isfinite(t) else ""
                lines.append(f"{s},{seg.control},{float(v)!r},{float(f)!r},{t_str}")
    return "\n".join(lines) + "\n"


def replace_line(path, lineno, text):
    lines = path.read_text().split("\n")
    lines[lineno - 1] = text
    path.write_text("\n".join(lines))


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

    def test_missing_cells_are_empty_fields(self, written):
        ds, path = written
        lines = path.read_text().splitlines()
        assert lines[0] == dataio.DATASET_HEADER
        assert len(lines) == 1 + sum(t.size for t in ds.t1_us)
        empty = [line for line in lines if line.endswith(",")]
        assert len(empty) == 3
        # Row 1 (bias index 1), column 2 of segment 0.
        assert lines[1 + N_FREQ + 2] == empty[0]

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
        replace_line(path, 9, "0,sample,0.001,5.8,abc")
        with pytest.raises(SchemaError, match=r"\brow 9\b.*'abc'"):
            dataio.read_dataset(path)

    def test_control_change_within_segment(self, written):
        _, path = written
        line = path.read_text().split("\n")[11]
        replace_line(path, 12, line.replace(",sample,", ",piezo,"))
        with pytest.raises(SchemaError, match=r"\brow 12\b.*control changed"):
            dataio.read_dataset(path)

    def test_line_numbers_count_blank_lines(self, written):
        _, path = written
        lines = path.read_text().split("\n")
        lines[11] = lines[11].replace(",sample,", ",piezo,")
        lines.insert(3, "")
        path.write_text("\n".join(lines))
        with pytest.raises(SchemaError, match=r"\brow 13\b.*control changed"):
            dataio.read_dataset(path)

    def test_long_control_name_with_a_valid_prefix(self, written):
        _, path = written
        path.write_text(path.read_text().replace(",sample,", ",sampleXYZ,"))
        with pytest.raises(SchemaError, match="unknown control"):
            dataio.read_dataset(path)

    def test_ragged_grid(self, written):
        _, path = written
        lines = path.read_text().split("\n")
        del lines[3]
        path.write_text("\n".join(lines))
        with pytest.raises(SchemaError, match="ragged"):
            dataio.read_dataset(path)

    def test_header_only_file_has_no_rows(self, written):
        _, path = written
        path.write_text(dataio.DATASET_HEADER + "\n")
        with pytest.raises(SchemaError, match="no rows"):
            dataio.read_dataset(path)


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
