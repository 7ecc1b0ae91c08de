"""File formats: dataset CSV + JSON sidecar, ground truth, fit reports.

Every JSON output is written by :func:`write_json`, the one serializer
(sorted keys, two-space indent, a final newline) and the one place a
file gets its top-level ``schema_version``.

The dataset is a long-format CSV with header

    segment,control,bias_V,freq_GHz,t1_us

accompanied by ``<name>.meta.json`` carrying qubit parameters, the seed,
``schema_version``, the length ``n_freq`` of the frequency axis and one
entry per segment.  Floats are written with ``repr`` (shortest
round-trip), so identical inputs produce identical bytes; a missing (NaN)
T1 cell is an empty field.  The writer formats each frequency once per
file and each bias once per row, and streams the file row by row.

Row order: within a segment the rows run bias step by bias step, each
step a block of one row per frequency of the axis, in ascending order,
all with the step's ``bias_V``.  The file ends with a newline.  The
reader parses the whole file with one structured ``np.loadtxt``, groups
the rows into segments with numpy masks and checks this order on the
reshaped (bias, frequency) grids, so a cut, shuffled or edited file is
refused, not misread.  Readers check ``schema_version`` on every file
and refuse versions they do not know.  The sidecar's ``segments``, the
``tls`` records of the fit report and the ground truth, and the numbers
of a coupled fit are type-checked as well, and the CSV's segments must
be the sidecar's, by id, control and number of bias steps, and its
frequency axis must have the sidecar's ``n_freq`` points (a sidecar
without ``n_freq``, written before it was recorded, skips that check).
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
from .stm import SCHEMA_VERSION, TlsParams, check_schema_version

DATASET_HEADER = "segment,control,bias_V,freq_GHz,t1_us"


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as a JSON file of the current ``schema_version``."""
    text = json.dumps({**payload, "schema_version": SCHEMA_VERSION}, indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")


def _meta_path(csv_path) -> Path:
    p = Path(csv_path)
    return p.with_name(p.name + ".meta.json")


def write_dataset(ds: SpectroscopyDataset, csv_path) -> None:
    """Write a dataset as CSV plus its .meta.json sidecar."""
    csv_path = Path(csv_path)
    freq = [f"{f!r}," for f in np.asarray(ds.freq_ghz, dtype=float).tolist()]
    with open(csv_path, "w") as fh:
        fh.write(DATASET_HEADER + "\n")
        for s, (seg, t1) in enumerate(zip(ds.segments, ds.t1_us)):
            t1 = np.asarray(t1, dtype=float)
            bias = np.asarray(seg.bias, dtype=float).tolist()
            for v, row, finite in zip(bias, t1.tolist(), np.isfinite(t1).tolist()):
                head = f"{s},{seg.control},{v!r},"
                fh.write("".join([
                    f"{head}{f}{t!r}\n" if ok else f"{head}{f}\n"
                    for f, t, ok in zip(freq, row, finite)
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
    """The JSON object in ``path``, if it parses and has our schema_version."""
    try:
        obj = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path.name}: not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise SchemaError(f"{path.name}: expected a JSON object")
    check_schema_version(obj.get("schema_version"), path.name)
    return obj


def is_number(x) -> bool:
    """Whether a parsed JSON value is a number (an int or float, not a bool)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


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


#: One CSV row as ``np.loadtxt`` parses it.  The control field is one
#: character wider than the longest control name, so a longer name that
#: gets cut short still fails the check in SegmentSpec.
_ROW_DTYPE = [
    ("segment", np.int64),
    ("control", f"U{max(map(len, CONTROLS)) + 1}"),
    ("bias", float),
    ("freq", float),
    ("t1", float),
]


def _t1_cell(text: str) -> float:
    """An empty ``t1_us`` field is a missing cell."""
    return float(text) if text else np.nan


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
        On a missing/strange sidecar (including ``segments`` that is not
        a list of objects, or a ``held`` or ``direction`` of the wrong
        type), CSV segment ids other than 0..n-1 for the n sidecar
        segments, a segment whose control or number of bias steps is
        not its sidecar entry's, a frequency axis whose length is not
        the sidecar's ``n_freq``, bad header, a corrupt row, a file
        without its final newline, a non-finite bias or frequency,
        rows out of the order stated in the module docstring (these
        messages carry the 1-based file line as "row N"), or values
        the dataset itself rejects, such as a non-positive or infinite
        T1.
    """
    csv_path = Path(csv_path)
    meta_path = _meta_path(csv_path)
    if not meta_path.exists():
        raise SchemaError(f"missing sidecar {meta_path.name}")
    meta = _read_json(meta_path)
    seg_meta = _segment_meta(meta, meta_path.name)

    # Undecodable bytes become U+FFFD, which the header and row checks reject.
    with open(csv_path, errors="replace") as fh:
        header = fh.readline().strip()
        if header != DATASET_HEADER:
            raise SchemaError(f"unexpected CSV header {header!r}")
        lines = _DataLines(fh)
        try:
            with warnings.catch_warnings():
                # A header-only file warns "input contained no data".
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(
                    lines, dtype=_ROW_DTYPE, delimiter=",", comments=None,
                    converters={4: _t1_cell}, ndmin=1,
                )
        except ValueError as exc:
            # numpy's own "at row ..." counts parsed rows, not file lines.
            reason = str(exc).split(" at row ")[0]
            raise SchemaError(f"row {lines.lineno}: {reason}") from None

    if not lines.ends_with_newline:
        raise SchemaError(f"row {lines.lineno}: no final newline; the file is cut short")
    if rows.size == 0:
        raise SchemaError("dataset has no rows")
    for col, name in (("bias", "bias_V"), ("freq", "freq_GHz")):
        lines.refuse_first(~np.isfinite(rows[col]), range(rows.size),
                           f"{name} is not finite")
    seg_ids = rows["segment"]
    ids = np.unique(seg_ids).tolist()
    if ids != list(range(len(seg_meta))):
        raise SchemaError(
            f"{meta_path.name}: describes segments 0..{len(seg_meta) - 1}, "
            f"the CSV has segments {ids}"
        )
    segments, grids = [], []
    freq_axis = None
    # SegmentSpec and SpectroscopyDataset raise ValueError on bad content.
    try:
        for s in ids:
            in_seg = seg_ids == s
            seg_rows = np.flatnonzero(in_seg)
            controls = rows["control"][in_seg]
            lines.refuse_first(controls != controls[0], seg_rows,
                               f"control changed within segment {s}")
            bias = rows["bias"][in_seg]
            freq = rows["freq"][in_seg]
            t1 = rows["t1"][in_seg]
            uniq_freq = np.unique(freq)
            n_f = uniq_freq.size
            if bias.size % n_f != 0:
                raise SchemaError(f"segment {s}: ragged grid")
            n_b = bias.size // n_f
            if freq_axis is None:
                freq_axis = uniq_freq
            elif not np.array_equal(freq_axis, uniq_freq):
                raise SchemaError(f"segment {s}: frequency axis differs")
            bias_grid = bias.reshape(n_b, n_f)
            lines.refuse_first((freq.reshape(n_b, n_f) != uniq_freq).ravel(), seg_rows,
                               f"frequency out of order in segment {s}")
            lines.refuse_first((bias_grid != bias_grid[:, :1]).ravel(), seg_rows,
                               f"bias_V changes within a bias step of segment {s}")
            control, held, n_bias = seg_meta[s]
            if n_bias != n_b:
                raise SchemaError(
                    f"{meta_path.name}: segment {s} has {n_bias!r} bias steps, "
                    f"the CSV has {n_b}"
                )
            segments.append(
                SegmentSpec(
                    control=str(controls[0]),
                    bias=bias_grid[:, 0],
                    held={k: float(v) for k, v in held.items()},
                )
            )
            if control != segments[-1].control:
                raise SchemaError(
                    f"{meta_path.name}: segment {s} is {control!r}, "
                    f"the CSV has {segments[-1].control!r}"
                )
            grids.append(t1.reshape(n_b, n_f))
        n_freq = meta.get("n_freq", freq_axis.size)
        if n_freq != freq_axis.size:
            raise SchemaError(
                f"{meta_path.name}: the frequency axis has {n_freq!r} points, "
                f"the CSV has {freq_axis.size}"
            )
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
    write_json(path, {"tls": [t.to_dict() for t in tls_list]})


def _tls_records(payload: dict, name: str) -> list[dict]:
    records = payload.get("tls")
    if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise SchemaError(f"{name}: 'tls' is missing or not a list of objects")
    return records


def read_ground_truth(path) -> list[TlsParams]:
    """The defects written by :func:`write_ground_truth`."""
    path = Path(path)
    records = _tls_records(_read_json(path), path.name)
    try:
        return [TlsParams.from_dict(d) for d in records]
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path.name}: {exc}") from None


def write_fit_report(records, density_by_class, path, extra: dict) -> None:
    """Per-defect fit records, class densities and the ``extra`` top-level
    entries (``fit`` gives ``n_traces``, ``n_tracks`` and ``class_filter``)."""
    write_json(path, {
        "tls": [r.to_dict() for r in records],
        "spectral_density_per_GHz": {k: float(v) for k, v in density_by_class.items()},
        **extra,
    })


def read_fit_report(path) -> dict:
    """A ``fit_report.json`` payload whose ``tls`` records are objects and
    whose dipoles are null or finite non-negative numbers."""
    path = Path(path)
    payload = _read_json(path)
    for k, rec in enumerate(_tls_records(payload, path.name)):
        p = rec.get("p_parallel_eA")
        if p is not None and not (is_number(p) and 0 <= p < math.inf):
            raise SchemaError(
                f"{path.name}: record {k}: 'p_parallel_eA' is not null or a "
                "finite non-negative number"
            )
    return payload


#: (key in ``coupled_fit.json``, ``PairFitResult`` field) of each number of a fit.
_COUPLED_NUMBERS = (("g_z_MHz", "g_z"), ("g_x_MHz", "g_x"), ("gamma_p2_GHz_per_V", "gamma_p2"),
                    ("chi2", "chi2"), ("n_points", "n_points"))


def write_coupled_fit(fit: PairFitResult, path) -> None:
    """``coupled_fit.json``: the numbers of the fit, its sigma and covariance."""
    write_json(path, {
        **{key: getattr(fit, name) for key, name in _COUPLED_NUMBERS},
        "sigma": fit.sigma.tolist(),
        "covariance": fit.covariance.tolist(),
        "gx_sign_from_convention": fit.gx_sign_from_convention,
    })


def read_coupled_fit(path) -> PairFitResult:
    """The fit in a ``coupled_fit.json``, with every number of it present."""
    path = Path(path)
    payload = _read_json(path)
    for key, _name in _COUPLED_NUMBERS:
        if not is_number(payload.get(key)):
            raise SchemaError(f"{path.name}: {key!r} is missing or not a number")
    if not isinstance(payload.get("covariance"), list):
        raise SchemaError(f"{path.name}: 'covariance' is missing or not a list")
    return PairFitResult(
        **{name: payload[key] for key, name in _COUPLED_NUMBERS},
        covariance=np.array(payload["covariance"]),
    )


def write_table_csv(path, header: str, columns) -> None:
    """Tidy columnar CSV for plotting tools; one row per grid cell.

    Each number is written with ``repr`` of its Python value, so an
    integer column stays integral; a non-finite float is an empty field.
    """
    cells = [
        ["" if isinstance(x, float) and not math.isfinite(x) else repr(x)
         for x in np.asarray(c).tolist()]
        for c in columns
    ]
    Path(path).write_text("\n".join([header, *map(",".join, zip(*cells))]) + "\n")
