"""File formats: dataset CSV + JSON sidecar, ground truth, fit reports.

Every JSON output is written by :func:`write_json`, the one serializer
(sorted keys, two-space indent, a final newline) and the one place a
file gets its top-level ``schema_version``.

The dataset CSV is the (bias step x qubit frequency) T1 map of each
sweep segment, one line per bias step, segment after segment:

    segment,control,bias_V,<f_0 [GHz]>,...,<f_{n-1}>
    <segment>,<control>,<bias_V>,<T1 [us] at f_0>,...,<T1 at f_{n-1}>

Floats are written with ``repr`` (shortest round-trip), so identical
inputs produce identical bytes; a missing (NaN) T1 cell is ``nan``; the
file ends with a newline.  Its ``<name>.meta.json`` sidecar carries qubit
parameters, the seed, ``schema_version``, the length ``n_freq`` of the
frequency axis and one entry per segment.  The reader takes the axis from
the header and parses the data lines with one structured ``np.loadtxt``,
which refuses a line with a cell too many or too few; a file of the
earlier one-line-per-cell layout is refused by its header.  Readers check
``schema_version`` on every file and refuse versions they do not know,
and refuse a JSON file with a number that is not finite, which
:func:`write_json` never writes.
The sidecar's ``segments`` are type-checked as well, and the CSV's
segments must be the sidecar's, by id, control and number of bias steps,
and its frequency axis must have the sidecar's ``n_freq`` points (a
sidecar without ``n_freq`` skips that check).
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .pairfit import PairFitResult
from .spectro import CONTROLS, SegmentSpec, SpectroscopyDataset
from .stm import SCHEMA_VERSION, check_schema_version

#: The columns before the frequencies in the header of a dataset CSV.
DATASET_COLUMNS = "segment,control,bias_V"

#: The header of the earlier one-line-per-cell dataset layout.
_PER_CELL_HEADER = "segment,control,bias_V,freq_GHz,t1_us"


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as a JSON file of the current ``schema_version``;
    a NaN or infinite number, which is no JSON, raises ``ValueError``."""
    text = json.dumps({**payload, "schema_version": SCHEMA_VERSION}, indent=2, sort_keys=True,
                      allow_nan=False)
    Path(path).write_text(text + "\n")


def _meta_path(csv_path) -> Path:
    p = Path(csv_path)
    return p.with_name(p.name + ".meta.json")


def write_dataset(ds: SpectroscopyDataset, csv_path) -> None:
    """Write a dataset as CSV plus its .meta.json sidecar."""
    csv_path = Path(csv_path)
    freq = np.asarray(ds.freq_ghz, dtype=float).tolist()
    with open(csv_path, "w") as fh:
        fh.write(",".join([DATASET_COLUMNS, *map(repr, freq)]) + "\n")
        for s, (seg, t1) in enumerate(zip(ds.segments, ds.t1_us)):
            t1 = np.asarray(t1, dtype=float)
            cells = np.where(np.isfinite(t1), t1, np.nan).tolist()
            bias = np.asarray(seg.bias, dtype=float).tolist()
            fh.write("".join([
                f"{s},{seg.control},{v!r},{','.join(map(repr, row))}\n"
                for v, row in zip(bias, cells)
            ]))

    write_json(_meta_path(csv_path), {
        **ds.meta,
        "n_freq": int(np.size(ds.freq_ghz)),
        "segments": [
            {
                "control": seg.control,
                "n_bias": int(seg.bias.size),
                "direction": seg.direction,
                "held": {k: float(v) for k, v in seg.held.items()},
            }
            for seg in ds.segments
        ],
    })


def _read_json(path: Path) -> dict:
    """The JSON object in ``path``, if it parses, has our schema_version
    and holds only finite numbers, as :func:`write_json` writes them."""
    try:
        obj = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path.name}: not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise SchemaError(f"{path.name}: expected a JSON object")
    check_schema_version(obj.get("schema_version"), path.name)
    if not all_finite(obj):
        raise SchemaError(f"{path.name}: holds a number that is not finite")
    return obj


def is_number(x) -> bool:
    """Whether a parsed JSON value is a number (an int or float, not a bool)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def all_finite(value) -> bool:
    """Whether every number in a parsed JSON value is finite; JSON's
    ``NaN`` and ``Infinity`` and an overflow such as ``1e999`` are not."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        value = list(value.values())
    return not isinstance(value, list) or all(map(all_finite, value))


def _segment_meta(meta: dict, name: str) -> list[tuple[str, dict, object]]:
    """(control, held, n_bias) of each segment entry of a sidecar,
    type-checked.  The ``direction`` follows from the bias, so only its
    type is checked."""
    entries = meta.get("segments", [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise SchemaError(f"{name}: 'segments' must be a list of objects")
    out = []
    for k, entry in enumerate(entries):
        held = entry.get("held", {})
        if not isinstance(held, dict) or not all(map(is_number, held.values())):
            raise SchemaError(f"{name}: segment {k}: 'held' must map names to numbers")
        if not isinstance(entry.get("direction", "up"), str):
            raise SchemaError(f"{name}: segment {k}: 'direction' must be a string")
        out.append((entry.get("control"), held, entry.get("n_bias")))
    return out


#: A CSV line before its T1 cells, as ``np.loadtxt`` parses it.  The
#: control field is one character wider than the longest control name, so
#: a longer name that gets cut short still fails the check in SegmentSpec.
_ROW_DTYPE = [
    ("segment", np.int64),
    ("control", f"U{max(map(len, CONTROLS)) + 1}"),
    ("bias", float),
]


def _header_frequencies(header: str) -> np.ndarray:
    """The frequency axis [GHz] that a dataset CSV header names."""
    if header == _PER_CELL_HEADER:
        raise SchemaError(f"row 1: {header!r} is the header of the old one-line-per-cell "
                          "layout; run generate again to write the dataset")
    if not header.startswith(DATASET_COLUMNS + ","):
        raise SchemaError(f"unexpected CSV header {header[:80]!r}")
    try:
        return np.array(header.split(",")[3:], dtype=float)
    except ValueError as exc:
        raise SchemaError(f"row 1: {exc}") from None


class _DataLines:
    """The lines after the header of an open dataset file, for ``np.loadtxt``.

    Blank lines are skipped.  ``lineno`` is the 1-based file line of the
    last line handed out, which is the offending one when ``np.loadtxt``
    raises; :meth:`line_of` maps a parsed row's index back to its line.
    """

    def __init__(self, fh):
        self.fh = fh
        self.lineno = 1
        self.blank: list[int] = []
        self.ends_with_newline = True

    def __iter__(self):
        line = "\n"
        for self.lineno, line in enumerate(self.fh, start=2):
            if line.isspace():
                self.blank.append(self.lineno)
            else:
                yield line
        self.ends_with_newline = line.endswith("\n")

    def line_of(self, row: int) -> int:
        line = row + 2
        for b in self.blank:
            if b <= line:
                line += 1
        return line

    def refuse_first(self, bad, rows, what: str) -> None:
        """Raise SchemaError at the line of ``rows[k]`` for the first k
        where the flat mask ``bad`` is true."""
        k = np.flatnonzero(bad)
        if k.size:
            raise SchemaError(f"row {self.line_of(rows[k[0]])}: {what}")


def read_dataset(csv_path) -> SpectroscopyDataset:
    """Read a dataset CSV written by :func:`write_dataset`.

    Raises
    ------
    SchemaError
        On a missing/strange sidecar (including a number that is not
        finite anywhere in it, ``segments`` that is not a list of
        objects, or a ``held`` or ``direction`` of the wrong type), CSV
        segment ids other than 0..n-1 for the n sidecar
        segments, a segment whose control or number of bias steps is
        not its sidecar entry's, a frequency axis whose length is not
        the sidecar's ``n_freq``, a bad header (the one-line-per-cell
        layout included), a corrupt line or one whose number of cells is
        not the header's, a file without its final newline, a non-finite
        bias, a control that changes within a segment (these messages
        carry the 1-based file line as "row N"), or values the dataset
        itself rejects, such as a frequency axis that is not strictly
        increasing or a non-positive or infinite T1.
    """
    csv_path = Path(csv_path)
    meta_path = _meta_path(csv_path)
    if not meta_path.exists():
        raise SchemaError(f"missing sidecar {meta_path.name}")
    meta = _read_json(meta_path)
    seg_meta = _segment_meta(meta, meta_path.name)

    # Undecodable bytes become U+FFFD, which the header and row checks reject.
    with open(csv_path, errors="replace") as fh:
        freq_axis = _header_frequencies(fh.readline().strip())
        lines = _DataLines(fh)
        try:
            with warnings.catch_warnings():
                # A header-only file warns "input contained no data".
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(
                    lines, dtype=[*_ROW_DTYPE, ("t1", float, (freq_axis.size,))],
                    delimiter=",", comments=None, ndmin=1,
                )
        except ValueError as exc:
            # numpy's own "at row ..." counts parsed rows, not file lines.
            reason = str(exc).split(" at row ")[0]
            raise SchemaError(f"row {lines.lineno}: {reason}") from None

    if not lines.ends_with_newline:
        raise SchemaError(f"row {lines.lineno}: no final newline; the file is cut short")
    if rows.size == 0:
        raise SchemaError("dataset has no rows")
    lines.refuse_first(~np.isfinite(rows["bias"]), range(rows.size), "bias_V is not finite")
    seg_ids = rows["segment"]
    ids = np.unique(seg_ids).tolist()
    if ids != list(range(len(seg_meta))):
        raise SchemaError(
            f"{meta_path.name}: describes segments 0..{len(seg_meta) - 1}, "
            f"the CSV has segments {ids}"
        )
    n_freq = meta.get("n_freq", freq_axis.size)
    if n_freq != freq_axis.size:
        raise SchemaError(
            f"{meta_path.name}: the frequency axis has {n_freq!r} points, "
            f"the CSV has {freq_axis.size}"
        )
    segments, grids = [], []
    # SegmentSpec and SpectroscopyDataset raise ValueError on bad content.
    try:
        for s in ids:
            in_seg = seg_ids == s
            controls = rows["control"][in_seg]
            lines.refuse_first(controls != controls[0], np.flatnonzero(in_seg),
                               f"control changed within segment {s}")
            control, held, n_bias = seg_meta[s]
            if n_bias != controls.size:
                raise SchemaError(
                    f"{meta_path.name}: segment {s} has {n_bias!r} bias steps, "
                    f"the CSV has {controls.size}"
                )
            segments.append(SegmentSpec(control=str(controls[0]), bias=rows["bias"][in_seg],
                                        held={k: float(v) for k, v in held.items()}))
            if control != segments[-1].control:
                raise SchemaError(
                    f"{meta_path.name}: segment {s} is {control!r}, "
                    f"the CSV has {segments[-1].control!r}"
                )
            grids.append(rows["t1"][in_seg])
        return SpectroscopyDataset(segments=tuple(segments), freq_ghz=freq_axis,
                                   t1_us=tuple(grids), meta=meta)
    except ValueError as exc:
        raise SchemaError(f"{csv_path.name}: {exc}") from None


def write_ground_truth(tls_list, path) -> None:
    """The simulated defects as TlsParams records, to score analyses by."""
    write_json(path, {"tls": [t.to_dict() for t in tls_list]})


def write_fit_report(records, density_by_class, path, extra: dict) -> None:
    """Per-defect fit records, class densities and the ``extra`` top-level
    entries (``fit`` gives ``n_traces``, ``n_tracks`` and ``class_filter``)."""
    write_json(path, {
        "tls": [r.to_dict() for r in records],
        "spectral_density_per_GHz": {k: float(v) for k, v in density_by_class.items()},
        **extra,
    })


def write_coupled_fit(fit: PairFitResult, path) -> None:
    """``coupled_fit.json``: the numbers of the fit, its sigma and covariance."""
    write_json(path, {
        "g_z_MHz": fit.g_z,
        "g_x_MHz": fit.g_x,
        "gamma_p2_GHz_per_V": fit.gamma_p2,
        "chi2": fit.chi2,
        "n_points": fit.n_points,
        "sigma": fit.sigma.tolist(),
        "covariance": fit.covariance.tolist(),
        "gx_sign_from_convention": True,  # the g_x sign is the initial guess's
    })


def write_table_csv(path, header: str, columns) -> None:
    """Columnar CSV of a header line and one row per element of the columns.

    Each number is written with ``repr`` of its Python value, so an
    integer column stays integral; a non-finite float is an empty field.
    """
    cells = [
        ["" if isinstance(x, float) and not math.isfinite(x) else repr(x)
         for x in np.asarray(c).tolist()]
        for c in columns
    ]
    Path(path).write_text("\n".join([header, *map(",".join, zip(*cells))]) + "\n")
