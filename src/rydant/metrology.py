"""Autler-Townes splitting extraction and field metrology.

The measurement chain: the coupling blocks (through their ground-space
Gram matrices) or a scanned spectrum (through its peaks) yield the
splitting delta_at; the field amplitude follows from
E = sqrt(delta_at^2 - detuning^2) / mu; angle-resolved ratios normalize
into a gain pattern in dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np


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


class GainSample(NamedTuple):
    """One angle of a normalized pattern, a plain record: raw_ratio > 0, gain_db <= 0."""

    angle: float
    raw_ratio: float
    gain_db: float


def gram_splittings(blocks: np.ndarray, detuning: float) -> np.ndarray:
    """Mode splittings of a stack of coupling blocks, (n, excited, ground) -> (n, ground), ascending.

    Away from -detuning an eigenvalue lam of the dressed Hamiltonian solves
    lam * (lam + detuning) = s, with s an eigenvalue of the ground-space Gram
    matrix V^dag V, so each Gram mode s_k is a bright pair split by
    sqrt(detuning^2 + 4 s_k).  For J -> J + 1, whose two dark states sit at
    -detuning, the splitting (max - min of the dressed spectrum less that
    pair) is the top mode, column -1; for 1/2 -> 3/2 with phi = 0 both modes
    equal sqrt(detuning^2 + rabi^2).
    """
    gram = np.linalg.eigvalsh(blocks.conj().transpose(0, 2, 1) @ blocks)
    return np.sqrt(detuning**2 + 4.0 * gram)


def gram_modes(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram eigenpairs of a stack of coupling blocks: (s, u), shapes (n, ground) and (n, ground, ground).

    s[i] holds the eigenvalues s_k of V^dag V for block i, ascending, and
    column k of u[i] its ground-space eigenvector u_k, from np.linalg.eigh.
    Inside a degenerate +-m pair eigh's basis is arbitrary; a readout that
    weighs the modes must not depend on it, as weighted_splittings does not.
    """
    return np.linalg.eigh(blocks.conj().transpose(0, 2, 1) @ blocks)


def weighted_splittings(blocks: np.ndarray, detuning: float, populations) -> np.ndarray:
    """The laser-weighted readout of each block: sum_k p_k sqrt(detuning^2 + 4 s_k), shape (n,).

    Bright pair k (a Gram mode (s_k, u_k), see gram_modes) is seen with
    weight p_k = sum_m w_m |<m|u_k>|^2 / sum w, where populations holds w,
    one per ground sublevel in ascending m: finite, >= 0 and not all zero,
    else ValueError.  Uniform w reads the mean of gram_splittings' modes.
    A degenerate pair's weight sums over the pair, so eigh's basis inside
    it drops out.
    """
    w = np.asarray(populations, dtype=float)
    if w.shape != (blocks.shape[-1],) or not np.isfinite(w).all() or (w < 0).any() or not w.any():
        raise ValueError(f"populations must be {blocks.shape[-1]} finite values >= 0, not all 0, got {w.tolist()}")
    s, u = gram_modes(blocks)
    seen = np.einsum("m,nmk->nk", w / w.sum(), np.abs(u) ** 2)
    return (seen * np.sqrt(detuning**2 + 4.0 * s)).sum(axis=1)


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


def normalized_gain(angles, ratios) -> list[GainSample]:
    """Turn equal-length angle and raw_ratio arrays into gain samples, 0 dB at the maximum.

    gain_db = min(20 * log10(ratio / max ratio), 0), with math.log10 per
    element so the bits do not depend on numpy's vector log.  Every ratio
    must be finite and > 0, and no ratio / max ratio may underflow to 0;
    otherwise ValueError names the ratio and its index.
    """
    angles = np.asarray(angles, dtype=float)
    ratios = np.asarray(ratios, dtype=float)
    if ratios.ndim != 1 or angles.shape != ratios.shape:
        raise ValueError(f"angles {angles.shape} and ratios {ratios.shape} must be 1-D of equal length")
    if not ratios.size:
        raise ValueError("no samples to normalize")
    for bad, why in ((~np.isfinite(ratios), "is not finite"), (ratios <= 0, "must be > 0")):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"raw ratio {float(ratios[i])!r} at index {i} {why}")
    relative = ratios / ratios.max()
    if not relative.all():
        i = int(np.argmin(relative))
        raise ValueError(
            f"raw ratio {float(ratios[i])!r} at index {i} underflows to 0 against the maximum {float(ratios.max())!r}"
        )
    gains = np.minimum(20.0 * np.fromiter(map(math.log10, relative.tolist()), float, relative.size), 0.0)
    # tuple.__new__(GainSample, row) makes each record with no Python-level call.
    return list(map(tuple.__new__, repeat(GainSample), zip(angles.tolist(), ratios.tolist(), gains.tolist())))


def isotropic_deviation(pattern: Sequence[GainSample]) -> float:
    """Spread max(gain_db) - min(gain_db) over a pattern, in dB."""
    if not pattern:
        raise ValueError("pattern is empty")
    gains = list(map(itemgetter(2), pattern))
    return max(gains) - min(gains)
