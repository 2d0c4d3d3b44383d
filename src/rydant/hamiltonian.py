"""Dressed-level Hamiltonian for an RF-driven two-manifold transition.

Basis ordering convention: ground sublevels first (ascending m), then
excited sublevels (ascending m).  Interaction blocks are indexed
``[excited row, ground column]``.  All frequencies (Rabi, detunings,
eigenvalues) are angular frequencies in rad/s; the value scale is
irrelevant to the algebra, so tests often use order-unity numbers.

In the rotating frame the full matrix is

    H = [[ 0,    M_I^dag ],
         [ M_I,  -detuning * I ]]

where the coupling block for a drive of scalar Rabi frequency ``rabi`` at
orientation (chi, theta, phi) carries the spherical components of the
polarization onto the Delta-m = -1, 0, +1 transition amplitudes.  The
sigma-plus spherical component drives Delta-m = -1 and vice versa (the
usual contraction of the field with the dipole operator); the overall
scale is fixed so the reduced Rabi frequency is sqrt(6) * rabi.

coupling_stack fills the blocks M_I of a whole sweep, or of one
orientation, from one Clebsch-Gordan table per transition; every splitting
is read from their Gram matrices M_I^dag M_I (metrology.gram_splittings),
so only `rydant eigen` assembles H (hamiltonian_array), for the numeric
column of its table of dressed levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angular import AngularMomentum, clebsch_gordan
from .spectra import InputError

_PHOTON = AngularMomentum(2)  # rank-1 coupling


@dataclass(frozen=True)
class RfDrive:
    """Scalar drive parameters in rad/s.

    The one drive rule: Rabi frequency finite and >= 0, detuning finite,
    else InputError("rabi") or InputError("detuning").
    """

    rabi: float
    detuning: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.rabi) or self.rabi < 0:
            raise InputError("rabi", f" must be finite and >= 0, got {self.rabi} rad/s")
        if not math.isfinite(self.detuning):
            raise InputError("detuning", f" must be finite, got {self.detuning} rad/s")


@dataclass(frozen=True)
class TransitionSystem:
    """A jg -> je transition with reduced coupling strength mu.

    mu folds hbar and is expressed in (rad/s) per (V/m): multiplying mu by a
    field amplitude gives the scalar Rabi frequency directly.
    """

    jg: AngularMomentum
    je: AngularMomentum
    mu: float

    def __post_init__(self):
        if abs(self.jg.two_j - self.je.two_j) > 2:
            raise ValueError(
                f"dipole selection rule |jg - je| <= 1 violated: "
                f"jg = {self.jg.j}, je = {self.je.j}"
            )
        if not math.isfinite(self.mu) or self.mu <= 0:
            raise ValueError(f"mu must be finite and > 0, got {self.mu}")


@lru_cache(maxsize=None)
def _coupling_table(two_jg: int, two_je: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per q = -1, 0, +1: excited-row indices, ground-column indices, CG values.

    Lists every entry with m_e - m_g = q, including those whose coefficient
    vanishes, so a filled block matches an entry-by-entry fill exactly.
    """
    jg, je = AngularMomentum(two_jg), AngularMomentum(two_je)
    table = []
    for q in (-1, 0, +1):
        rows, cols, cgs = [], [], []
        for row, tme in enumerate(je.two_m_values()):
            for col, tmg in enumerate(jg.two_m_values()):
                if tme - tmg == 2 * q:
                    rows.append(row)
                    cols.append(col)
                    cgs.append(clebsch_gordan(jg, tmg / 2, _PHOTON, q, je, tme / 2))
        arrays = (np.array(rows, dtype=int), np.array(cols, dtype=int), np.array(cgs))
        for arr in arrays:
            arr.flags.writeable = False  # shared by every caller through the cache
        table.append(arrays)
    return tuple(table)


def coupling_stack(system: TransitionSystem, rabis, polarizations) -> np.ndarray:
    """Coupling blocks for one drive per polarization, shape (n, excited, ground sublevels).

    polarizations is (eps_minus, eps_zero, eps_plus), three arrays of n
    spherical components as angular.decompose_polarizations returns them;
    rabis holds one Rabi frequency per polarization.  The Clebsch-Gordan
    table is built once per transition.  Entry (m_e row, m_g col) is
    sqrt(6)/4 * rabi * eps_{-q} * <jg m_g; 1 q | je m_e> with q = m_e - m_g;
    for jg = 1/2 -> je = 3/2 that is the paper's hand-written block to within
    rounding.
    """
    eps_minus, eps_zero, eps_plus = polarizations
    rabis = np.asarray(rabis, dtype=float)
    if rabis.shape != (len(eps_zero),):
        raise ValueError(f"need one Rabi frequency per orientation, got shape {rabis.shape}")
    if not np.all(np.isfinite(rabis)) or np.any(rabis < 0):
        raise ValueError("rabi frequencies must be finite and >= 0")
    amp = math.sqrt(6.0) / 4.0 * rabis
    blocks = np.zeros((len(rabis), system.je.sublevel_count, system.jg.sublevel_count), dtype=complex)
    # The opposite-handed spherical component carries each sigma amplitude.
    for eps_q, (rows, cols, cg) in zip(
        (eps_plus, eps_zero, eps_minus), _coupling_table(system.jg.two_j, system.je.two_j)
    ):
        blocks[:, rows, cols] = (amp * eps_q)[:, None] * cg
    return blocks


def hamiltonian_array(interaction: np.ndarray, detuning: float) -> np.ndarray:
    """Embed a coupling block into the full rotating-frame matrix, Hermitian by construction."""
    block = np.asarray(interaction, dtype=complex)
    if block.ndim != 2 or 0 in block.shape:
        raise ValueError(f"interaction block must be a non-empty 2-D array, got shape {block.shape}")
    if not math.isfinite(detuning):
        raise ValueError(f"detuning must be finite, got {detuning}")
    ne, ng = block.shape
    dim = ng + ne
    h = np.zeros((dim, dim), dtype=complex)
    h[ng:, ng:] = -detuning * np.eye(ne)
    h[ng:, :ng] = block
    h[:ng, ng:] = block.conj().T
    return h
