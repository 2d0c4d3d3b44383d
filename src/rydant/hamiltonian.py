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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .angular import (
    AngularMomentum,
    Orientation,
    clebsch_gordan,
    decompose_polarization,
)

# Relative tolerance for declaring a matrix Hermitian.
HERMITICITY_TOL = 1e-14

_PHOTON = AngularMomentum(2)  # rank-1 coupling


@dataclass(frozen=True)
class RfDrive:
    """Scalar drive parameters: Rabi frequency >= 0 and detuning, in rad/s."""

    rabi: float
    detuning: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.rabi) or self.rabi < 0:
            raise ValueError(f"rabi must be finite and >= 0, got {self.rabi}")
        if not math.isfinite(self.detuning):
            raise ValueError(f"detuning must be finite, got {self.detuning}")


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

    @property
    def dim(self) -> int:
        return self.jg.sublevel_count + self.je.sublevel_count


@dataclass(frozen=True)
class HermitianMatrix:
    """Dense complex square matrix, validated Hermitian at construction."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        scale = max(1.0, float(np.abs(arr).max()) if arr.size else 1.0)
        residual = float(np.abs(arr - arr.conj().T).max()) if arr.size else 0.0
        if residual > HERMITICITY_TOL * scale:
            raise ValueError(
                f"matrix is not Hermitian: residual {residual:.3e} "
                f"exceeds {HERMITICITY_TOL:.0e} * {scale:.3e}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def dim(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class EigenSpectrum:
    """Real eigenvalues in ascending order."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("values must be a non-empty 1-D real array")
        if np.any(np.diff(arr) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size


def build_interaction_paper(drive: RfDrive, orientation: Orientation) -> np.ndarray:
    """Literal 4x2 coupling block for the jg = 1/2 -> je = 3/2 transition.

    Rows are excited sublevels m = (-3/2, -1/2, +1/2, +3/2); columns are
    ground sublevels m = (-1/2, +1/2).  Serves as the hand-written reference
    the general builder must reproduce bit-for-bit.
    """
    s = math.sin(orientation.chi)
    c = math.cos(orientation.chi)
    e_plus = np.exp(1j * (orientation.theta + orientation.phi))
    e_minus = np.exp(-1j * (orientation.theta - orientation.phi))
    root3 = math.sqrt(3.0)
    return (drive.rabi / 4.0) * np.array(
        [
            [-root3 * e_plus * s, 0.0],
            [2.0 * c, -e_plus * s],
            [e_minus * s, 2.0 * c],
            [0.0, root3 * e_minus * s],
        ],
        dtype=complex,
    )


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


def _coupling_blocks(system: TransitionSystem, rabis: np.ndarray, orientations) -> np.ndarray:
    """Stacked coupling blocks, shape (n, excited sublevels, ground sublevels)."""
    pols = [decompose_polarization(o) for o in orientations]
    # The opposite-handed spherical component carries each sigma amplitude.
    eps = (
        np.array([p.eps_plus for p in pols], dtype=complex),
        np.array([p.eps_zero for p in pols], dtype=complex),
        np.array([p.eps_minus for p in pols], dtype=complex),
    )
    amp = math.sqrt(6.0) / 4.0 * rabis
    blocks = np.zeros((len(pols), system.je.sublevel_count, system.jg.sublevel_count), dtype=complex)
    for eps_q, (rows, cols, cg) in zip(eps, _coupling_table(system.jg.two_j, system.je.two_j)):
        blocks[:, rows, cols] = (amp * eps_q)[:, None] * cg
    return blocks


def build_interaction_general(
    system: TransitionSystem, drive: RfDrive, orientation: Orientation
) -> np.ndarray:
    """Coupling block for any jg -> je allowed by the selection rule.

    Entry (m_e row, m_g col) is sqrt(6)/4 * rabi * eps_{-q} * <jg m_g; 1 q | je m_e>
    with q = m_e - m_g; the opposite-handed spherical component carries each
    sigma amplitude.  Normalization reproduces build_interaction_paper exactly
    for jg = 1/2 -> je = 3/2.  The one-orientation call of hamiltonian_stack's
    coupling table.
    """
    return _coupling_blocks(system, np.array([drive.rabi]), [orientation])[0]


def hamiltonian_stack(
    system: TransitionSystem, rabis, orientations: Sequence[Orientation], detuning: float
) -> np.ndarray:
    """Rotating-frame matrices for one drive per orientation, shape (n, dim, dim).

    rabis holds one Rabi frequency per orientation; the detuning is shared.
    Each matrix equals hamiltonian_array(build_interaction_general(...), detuning)
    bit for bit, and the Clebsch-Gordan table is built once per transition.
    """
    rabis = np.asarray(rabis, dtype=float)
    if rabis.shape != (len(orientations),):
        raise ValueError(f"need one Rabi frequency per orientation, got shape {rabis.shape}")
    if not np.all(np.isfinite(rabis)) or np.any(rabis < 0):
        raise ValueError("rabi frequencies must be finite and >= 0")
    if not math.isfinite(detuning):
        raise ValueError(f"detuning must be finite, got {detuning}")
    blocks = _coupling_blocks(system, rabis, orientations)
    ng = system.jg.sublevel_count
    h = np.zeros((len(blocks), system.dim, system.dim), dtype=complex)
    h[:, ng:, ng:] = -detuning * np.eye(system.je.sublevel_count)
    h[:, ng:, :ng] = blocks
    h[:, :ng, ng:] = blocks.conj().transpose(0, 2, 1)
    return h


def assemble_hamiltonian(interaction: np.ndarray, detuning: float) -> HermitianMatrix:
    """Embed a coupling block into the full rotating-frame matrix."""
    return HermitianMatrix(hamiltonian_array(interaction, detuning))


def hamiltonian_array(interaction: np.ndarray, detuning: float) -> np.ndarray:
    """The rotating-frame matrix as a plain array, skipping the Hermitian check.

    Hermitian by construction; hamiltonian_stack fills its matrices the same way.
    """
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


def eigen_hermitian(matrix: HermitianMatrix) -> EigenSpectrum:
    """All eigenvalues of a Hermitian matrix, ascending (LAPACK behind the contract)."""
    return EigenSpectrum(np.linalg.eigvalsh(matrix.data))


def eigen_closed_form(drive: RfDrive, orientation: Orientation) -> EigenSpectrum:
    """The six closed-form eigenvalues of the 1/2 -> 3/2 system, ascending.

    Two eigenvalues sit at -detuning; the remaining four split into two
    branches governed by 1 +/- sin(chi)*cos(chi)*sin(phi).  Independent of
    theta.  Returned as a sorted multiset.
    """
    d = drive.detuning
    w = drive.rabi
    a = math.sin(orientation.chi) * math.cos(orientation.chi) * math.sin(orientation.phi)
    values = [-d, -d]
    for branch in (1.0 + a, 1.0 - a):
        root = math.sqrt(d * d + w * w * branch)
        values.append(-0.5 * (d + root))
        values.append(-0.5 * (d - root))
    return EigenSpectrum(np.sort(values))
