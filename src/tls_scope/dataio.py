"""File formats: dataset CSV + JSON sidecar, ground truth, fit reports.

The dataset is a long-format CSV with header

    segment,control,bias_V,freq_GHz,t1_us

accompanied by ``<name>.meta.json`` carrying qubit parameters, the seed
and ``schema_version``.  Floats are written with ``repr`` (shortest
round-trip), so identical inputs produce identical bytes.  Readers check
``schema_version`` on every file and refuse versions they do not know.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .spectro import SegmentSpec, SpectroscopyDataset
from .stm import SCHEMA_VERSION, TlsParams, check_schema_version

DATASET_HEADER = "segment,control,bias_V,freq_GHz,t1_us"


def _meta_path(csv_path) -> Path:
    p = Path(csv_path)
    return p.with_name(p.name + ".meta.json")


def write_dataset(ds: SpectroscopyDataset, csv_path) -> None:
    """Write a dataset as CSV plus its .meta.json sidecar."""
    csv_path = Path(csv_path)
    lines = [DATASET_HEADER]
    freq = ds.freq_ghz
    for s, (seg, t1) in enumerate(zip(ds.segments, ds.t1_us)):
        for i, v in enumerate(seg.bias):
            vr = repr(float(v))
            for j, f in enumerate(freq):
                t = t1[i, j]
                t_str = "" if not np.isfinite(t) else repr(float(t))
                lines.append(f"{s},{seg.control},{vr},{repr(float(f))},{t_str}")
    csv_path.write_text("\n".join(lines) + "\n")

    meta = dict(ds.meta)
    meta["schema_version"] = SCHEMA_VERSION
    meta["segments"] = [
        {
            "control": seg.control,
            "n_bias": int(seg.bias.size),
            "direction": seg.direction,
            "held": {k: float(v) for k, v in seg.held.items()},
        }
        for seg in ds.segments
    ]
    _meta_path(csv_path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _read_json(path: Path) -> dict:
    """The JSON object in ``path``, if it parses and has our schema_version."""
    try:
        obj = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path.name}: not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise SchemaError(f"{path.name}: expected a JSON object")
    check_schema_version(obj.get("schema_version"), path.name)
    return obj


def read_dataset(csv_path) -> SpectroscopyDataset:
    """Read a dataset CSV written by :func:`write_dataset`.

    Raises
    ------
    SchemaError
        On a missing/strange sidecar, bad header, a corrupt row (the
        message carries the 1-based row number), or values the dataset
        itself rejects, such as a non-positive T1.
    """
    csv_path = Path(csv_path)
    meta_path = _meta_path(csv_path)
    if not meta_path.exists():
        raise SchemaError(f"missing sidecar {meta_path.name}")
    meta = _read_json(meta_path)

    rows_by_segment: dict[int, dict] = {}
    # Undecodable bytes become U+FFFD, which the header and row checks reject.
    with open(csv_path, errors="replace") as fh:
        header = fh.readline().strip()
        if header != DATASET_HEADER:
            raise SchemaError(f"unexpected CSV header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise SchemaError(f"row {lineno}: expected 5 fields, got {len(parts)}")
            try:
                s = int(parts[0])
                control = parts[1]
                bias = float(parts[2])
                freq = float(parts[3])
                t1 = float(parts[4]) if parts[4] != "" else np.nan
            except ValueError as exc:
                raise SchemaError(f"row {lineno}: {exc}") from None
            seg = rows_by_segment.setdefault(
                s, {"control": control, "bias": [], "freq": [], "t1": []}
            )
            if seg["control"] != control:
                raise SchemaError(f"row {lineno}: control changed within segment {s}")
            seg["bias"].append(bias)
            seg["freq"].append(freq)
            seg["t1"].append(t1)

    if not rows_by_segment:
        raise SchemaError("dataset has no rows")
    seg_meta = meta.get("segments", [])
    segments, grids = [], []
    freq_axis = None
    # SegmentSpec and SpectroscopyDataset raise ValueError on bad content.
    try:
        for s in sorted(rows_by_segment):
            seg = rows_by_segment[s]
            bias = np.array(seg["bias"])
            freq = np.array(seg["freq"])
            t1 = np.array(seg["t1"])
            uniq_freq = np.unique(freq)
            n_f = uniq_freq.size
            if bias.size % n_f != 0:
                raise SchemaError(f"segment {s}: ragged grid")
            n_b = bias.size // n_f
            if freq_axis is None:
                freq_axis = uniq_freq
            elif not np.array_equal(freq_axis, uniq_freq):
                raise SchemaError(f"segment {s}: frequency axis differs")
            held = {}
            direction = "up"
            if s < len(seg_meta):
                held = seg_meta[s].get("held", {})
                direction = seg_meta[s].get("direction", "up")
            bias_axis = bias.reshape(n_b, n_f)[:, 0]
            segments.append(
                SegmentSpec(
                    control=seg["control"],
                    bias=bias_axis,
                    held={k: float(v) for k, v in held.items()},
                    direction=direction,
                )
            )
            grids.append(t1.reshape(n_b, n_f))
        return SpectroscopyDataset(
            segments=tuple(segments),
            freq_ghz=freq_axis,
            t1_us=tuple(grids),
            meta=meta,
        )
    except ValueError as exc:
        raise SchemaError(f"{csv_path.name}: {exc}") from None


def write_ground_truth(tls_list, path) -> None:
    """JSON list of TlsParams, for round-trip tests against analysis output."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tls": [t.to_dict() for t in tls_list],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_ground_truth(path) -> list[TlsParams]:
    payload = _read_json(Path(path))
    return [TlsParams.from_dict(d) for d in payload["tls"]]


def write_fit_report(records, density_by_class, path, extra: dict | None = None) -> None:
    """Per-defect fit records plus class densities, as JSON."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tls": [r.to_dict() for r in records],
        "spectral_density_per_GHz": {
            k: float(v) for k, v in density_by_class.items()
        },
    }
    if extra:
        payload.update(extra)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_fit_report(path) -> dict:
    return _read_json(Path(path))


def write_table_csv(path, header: str, columns) -> None:
    """Tidy columnar CSV for plotting tools; one row per grid cell."""
    cols = [np.asarray(c) for c in columns]
    n = cols[0].size
    lines = [header]
    for i in range(n):
        lines.append(",".join(_cell(c[i]) for c in cols))
    Path(path).write_text("\n".join(lines) + "\n")


def _cell(x) -> str:
    if isinstance(x, (str, np.str_)):
        return str(x)
    xf = float(x)
    if not np.isfinite(xf):
        return ""
    if xf == int(xf) and abs(xf) < 1e15 and isinstance(x, (int, np.integer)):
        return str(int(xf))
    return repr(xf)
