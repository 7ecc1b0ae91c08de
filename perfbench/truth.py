"""Score an analysis against the ensemble the simulator drew.

Every trace point of a reported track is compared with the true
transition energy of every drawn defect at the same bias point,

    E = sqrt(delta0^2 + (eps_i + gamma_p*V_p + gamma_g*V_g + gamma_s*V_s)^2),

where the swept control comes from the segment's bias axis and the two
held controls from the segment's ``held`` values.  A point belongs to
the nearest defect within ``MATCH_TOL_STEPS`` frequency-grid steps; a
track belongs to the defect that owns at least half of its points, and
is a false track otherwise.  Record ``k`` of the fit report describes
track ``k``.

The scorer reads the ground truth as plain JSON and evaluates the model
itself, so it does not share code with the simulator it checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: A trace point may sit this many grid steps from the true transition.
MATCH_TOL_STEPS = 2.5
#: A defect counts as in band when the extractor could see it: its
#: transition lies on the frequency axis for at least this many bias
#: steps of one segment (the extractor's ``min_points`` default).
MIN_VISIBLE_STEPS = 5

_ATTR = {"piezo": "v_p", "global": "v_g", "sample": "v_s"}


def segment_biases(control: str, bias: np.ndarray, held: dict) -> dict:
    """(V_p, V_g, V_s) arrays over one segment's bias steps."""
    n = bias.size
    out = {attr: np.full(n, float(held.get(attr, 0.0))) for attr in _ATTR.values()}
    out[_ATTR[control]] = np.asarray(bias, dtype=float)
    return out


def true_energies(truth: list[dict], volts: dict) -> np.ndarray:
    """(n_bias, n_tls) transition energies [GHz] of the drawn defects."""
    col = {k: np.array([t[k] for t in truth], dtype=float)
           for k in ("delta0", "eps_i", "gamma_p", "gamma_g", "gamma_s")}
    eps = (
        col["eps_i"][None, :]
        + col["gamma_p"][None, :] * volts["v_p"][:, None]
        + col["gamma_g"][None, :] * volts["v_g"][:, None]
        + col["gamma_s"][None, :] * volts["v_s"][:, None]
    )
    return np.hypot(col["delta0"][None, :], eps)


@dataclass
class Score:
    """Counts behind the quality metrics; scores of several datasets add."""

    in_band: int = 0
    detected: int = 0
    matched_tracks: int = 0
    false_tracks: int = 0
    wrong_class: int = 0
    p0_reported: float = 0.0
    p0_true: float = 0.0
    dipole_reported_sum: float = 0.0
    dipole_reported_n: int = 0
    dipole_true_sum: float = 0.0
    dipole_true_n: int = 0
    confusion: dict = field(default_factory=dict)

    def __add__(self, other: "Score") -> "Score":
        out = Score()
        for name in self.__dataclass_fields__:
            if name == "confusion":
                continue
            setattr(out, name, getattr(self, name) + getattr(other, name))
        for src in (self.confusion, other.confusion):
            for key, n in src.items():
                out.confusion[key] = out.confusion.get(key, 0) + n
        return out

    def metrics(self) -> dict:
        """recall, fragmentation, misclass_rate, p0_rel_err, dipole_rel_err."""
        return {
            "recall": self.detected / self.in_band if self.in_band else float("nan"),
            "fragmentation": (
                self.matched_tracks / self.detected if self.detected else float("nan")
            ),
            "misclass_rate": (
                self.wrong_class / self.matched_tracks
                if self.matched_tracks else float("nan")
            ),
            "p0_rel_err": (
                abs(self.p0_reported - self.p0_true) / self.p0_true
                if self.p0_true else float("nan")
            ),
            "dipole_rel_err": _dipole_rel_err(self),
        }


def _dipole_rel_err(s: Score) -> float:
    if not s.dipole_reported_n or not s.dipole_true_n:
        return float("nan")
    reported = s.dipole_reported_sum / s.dipole_reported_n
    true = s.dipole_true_sum / s.dipole_true_n
    return abs(reported - true) / true


def score_dataset(
    truth: list[dict],
    segments: list[tuple[str, np.ndarray, dict]],
    freq_ghz: np.ndarray,
    tracks: list[list[tuple[int, list[int], list[float]]]],
    records: list[dict],
    material: dict,
    volume_um3: float,
) -> Score:
    """Score one analyzed dataset.

    Parameters
    ----------
    truth : list of dict
        ``ground_truth.json["tls"]``.
    segments : list of (control, bias array, held dict)
        One entry per dataset segment.
    freq_ghz : ndarray
        Qubit frequency axis of the dataset.
    tracks : list of tracks
        Each track is a list of ``(segment, bias_index list, freq list)``,
        one per trace.
    records : list of dict
        ``fit_report.json["tls"]``, one per track, in track order.
    material : dict
        ``material_report.json``.
    volume_um3 : float
        Dielectric volume the report used.
    """
    if len(records) != len(tracks):
        raise ValueError(f"{len(records)} records for {len(tracks)} tracks")
    lo, hi = float(freq_ghz[0]), float(freq_ghz[-1])
    step = float(freq_ghz[1] - freq_ghz[0])
    n_tls = len(truth)
    energies = []
    visible_steps = np.zeros((len(segments), n_tls), dtype=int)
    for s, (control, bias, held) in enumerate(segments):
        e = true_energies(truth, segment_biases(control, bias, held))
        energies.append(e)
        visible_steps[s] = np.sum((e >= lo) & (e <= hi), axis=0)
    in_band = np.any(visible_steps >= MIN_VISIBLE_STEPS, axis=0)

    owner_of_track = [_track_owner(track, energies, step) for track in tracks]
    sc = Score()
    sc.in_band = int(in_band.sum())
    owned = {k for k in owner_of_track if k is not None}
    sc.detected = len(owned & set(np.nonzero(in_band)[0].tolist()))
    for owner, rec in zip(owner_of_track, records):
        if owner is None:
            sc.false_tracks += 1
            continue
        sc.matched_tracks += 1
        true_class = truth[owner].get("location", "unclassified")
        key = f"{true_class}->{rec['class']}"
        sc.confusion[key] = sc.confusion.get(key, 0) + 1
        if rec["class"] != true_class:
            sc.wrong_class += 1

    n_seg = len(segments)
    span = hi - lo
    n_bias = np.array([bias.size for _c, bias, _h in segments], dtype=float)
    fractions = visible_steps / n_bias[:, None]
    sc.p0_true = float(fractions.sum() / n_seg / span / volume_um3)
    sc.p0_reported = float(material["P0_per_um3_GHz"])
    if material.get("p_parallel_mean_eA") is not None and material["n_sample_tls"]:
        sc.dipole_reported_n = int(material["n_sample_tls"])
        sc.dipole_reported_sum = float(material["p_parallel_mean_eA"]) * sc.dipole_reported_n
    dip = np.array([t["p_parallel"] for t in truth], dtype=float)[in_band]
    sc.dipole_true_n = int(dip.size)
    sc.dipole_true_sum = float(dip.sum())
    return sc


def _track_owner(track, energies, step) -> int | None:
    """Index of the drawn defect owning most points of a track, or None."""
    votes: dict[int, int] = {}
    n_points = 0
    for segment, bias_index, freqs in track:
        e = energies[segment][np.asarray(bias_index, dtype=int)]
        dist = np.abs(e - np.asarray(freqs, dtype=float)[:, None])
        nearest = np.argmin(dist, axis=1)
        ok = dist[np.arange(nearest.size), nearest] <= MATCH_TOL_STEPS * step
        for k in nearest[ok]:
            votes[int(k)] = votes.get(int(k), 0) + 1
        n_points += len(freqs)
    if not votes:
        return None
    best = max(votes, key=lambda k: (votes[k], -k))
    return best if 2 * votes[best] >= n_points else None
