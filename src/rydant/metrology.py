"""Autler-Townes splitting extraction and field metrology.

The measurement chain: a spectrum (from eigenvalues or from peak fitting)
yields the splitting delta_at; the field amplitude follows from
E = sqrt(delta_at^2 - detuning^2) / mu; angle-resolved ratios normalize
into a gain pattern in dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .hamiltonian import EigenSpectrum, RfDrive
from .angular import Orientation

# Relative tolerance for identifying the degenerate -detuning pair.
DEGENERACY_TOL = 1e-8

SOURCE_EIGEN = "eigen"
SOURCE_SPECTRUM = "spectrum-peaks"


@dataclass(frozen=True)
class SplittingResult:
    """Extracted splitting (rad/s) and where it came from."""

    delta_at: float
    source: str

    def __post_init__(self):
        if not math.isfinite(self.delta_at) or self.delta_at < 0:
            raise ValueError(f"delta_at must be finite and >= 0, got {self.delta_at}")
        if self.source not in (SOURCE_EIGEN, SOURCE_SPECTRUM):
            raise ValueError(f"unknown source {self.source!r}")


@dataclass(frozen=True)
class FieldEstimate:
    """Field amplitude in V/m recovered from a splitting measurement."""

    amplitude: float
    delta_at: float
    detuning: float
    mu: float

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if self.delta_at < abs(self.detuning):
            raise ValueError(
                f"delta_at ({self.delta_at}) must be >= |detuning| ({abs(self.detuning)})"
            )


@dataclass(frozen=True)
class GainSample:
    """One angle of a normalized pattern; gain_db <= 0 by construction."""

    angle: float
    raw_ratio: float
    gain_db: float

    def __post_init__(self):
        if self.raw_ratio <= 0:
            raise ValueError(f"raw_ratio must be > 0, got {self.raw_ratio}")
        if self.gain_db > 1e-12:
            raise ValueError(f"gain_db must be <= 0, got {self.gain_db}")


def splitting_from_eigen(spectrum: EigenSpectrum, detuning: float) -> SplittingResult:
    """Splitting from a dressed-level spectrum.

    Removes the two eigenvalues forming the degenerate pair at -detuning
    (identified within DEGENERACY_TOL * max|eigenvalue|) and returns
    max - min of the remaining branch values.  For the 1/2 -> 3/2 system
    with phi = 0 this equals sqrt(detuning^2 + rabi^2).  The one-row call
    of splittings_from_eigen.
    """
    delta_at = splittings_from_eigen(spectrum.values[None, :], detuning)[0]
    return SplittingResult(float(delta_at), SOURCE_EIGEN)


def splittings_from_eigen(values: np.ndarray, detuning: float) -> np.ndarray:
    """Splittings of a stack of spectra, values[n, dim] -> delta_at[n].

    Row by row the rule of splitting_from_eigen: the per-row tolerance is
    DEGENERACY_TOL * max|eigenvalue| of that row, the pair is the first two
    of a stable argsort of |value + detuning|, and the splitting is max - min
    of the rest.  A row without an identifiable pair raises ValueError
    quoting that row's residuals; the first such row is reported.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"values must be 2-D, one spectrum per row, got shape {values.shape}")
    if values.shape[1] < 4:
        raise ValueError(f"need at least 4 eigenvalues, got {values.shape[1]}")
    tol = DEGENERACY_TOL * np.abs(values).max(axis=1)
    distance = np.abs(values + detuning)
    pair = np.argsort(distance, axis=1, kind="stable")[:, :2]
    bad = np.any(np.take_along_axis(distance, pair, axis=1) > tol[:, None], axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            "degenerate pair at -detuning not identifiable "
            f"(closest residuals {np.sort(distance[i])[:2]}, tolerance {tol[i]:.3e})"
        )
    keep = np.ones(values.shape, dtype=bool)
    np.put_along_axis(keep, pair, False, axis=1)
    rest = values[keep].reshape(len(values), values.shape[1] - 2)
    return rest.max(axis=1) - rest.min(axis=1)


def branch_splittings(drive: RfDrive, orientation: Orientation) -> tuple[float, float]:
    """The two branch splittings for phi != 0, (plus-branch, minus-branch).

    Both reduce to sqrt(detuning^2 + rabi^2) at phi = 0; splitting_from_eigen
    is only defined there, so this is the documented readout for the
    elliptical regime.
    """
    a = math.sin(orientation.chi) * math.cos(orientation.chi) * math.sin(orientation.phi)
    d, w = drive.detuning, drive.rabi
    return (
        math.sqrt(d * d + w * w * (1.0 + a)),
        math.sqrt(d * d + w * w * (1.0 - a)),
    )


def field_from_splitting(delta_at: float, detuning: float, mu: float) -> FieldEstimate:
    """Invert the splitting relation to a field amplitude.

    Requires delta_at >= |detuning|; mu is in (rad/s) per (V/m).
    """
    if not math.isfinite(mu) or mu <= 0:
        raise ValueError(f"mu must be finite and > 0, got {mu}")
    if not math.isfinite(delta_at) or delta_at < 0:
        raise ValueError(f"delta_at must be finite and >= 0, got {delta_at}")
    if delta_at < abs(detuning):
        raise ValueError(
            f"delta_at ({delta_at}) below |detuning| ({abs(detuning)}): "
            "no field consistent with this splitting"
        )
    amplitude = math.sqrt(delta_at * delta_at - detuning * detuning) / mu
    return FieldEstimate(amplitude, delta_at, detuning, mu)


def normalized_gain(samples: Iterable[tuple[float, float]]) -> list[GainSample]:
    """Turn (angle, raw_ratio) pairs into gain samples, 0 dB at the maximum.

    gain_db = 20*log10(ratio / max ratio); all ratios must be > 0.
    """
    pairs = list(samples)
    if not pairs:
        raise ValueError("no samples to normalize")
    ratios = [r for _, r in pairs]
    if min(ratios) <= 0:
        raise ValueError("all raw ratios must be > 0")
    top = max(ratios)
    out = []
    for angle, ratio in pairs:
        gain = 20.0 * math.log10(ratio / top)
        out.append(GainSample(angle, ratio, min(gain, 0.0)))
    return out


def isotropic_deviation(pattern: Sequence[GainSample]) -> float:
    """Spread max(gain_db) - min(gain_db) over a pattern, in dB."""
    if not pattern:
        raise ValueError("pattern is empty")
    gains = [s.gain_db for s in pattern]
    return max(gains) - min(gains)
