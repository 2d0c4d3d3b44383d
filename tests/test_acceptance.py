"""Acceptance gate: one test per release criterion, one PASS line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines; a failing
criterion fails its test outright.  Each criterion carries an explicit
tolerance and a wall-clock budget.
"""

import json
import math
import time

import numpy as np
import pytest

from _oracles import build_interaction_paper, eigen_closed_form, random_cell_case, rk4_field_profile, wrap_orientation
from rydant.angular import AngularMomentum, decompose_polarizations
from rydant.cellfield import (
    SPEED_OF_LIGHT,
    CellGeometry,
    FieldProfile,
    angle_sweep_deviation,
    path_average,
    transfer_matrix_field,
)
from rydant.cli import _dressed_levels, main
from rydant.hamiltonian import RfDrive, TransitionSystem, coupling_stack, hamiltonian_array
from rydant.metrology import (
    field_from_splitting,
    gram_splittings,
    isotropic_deviation,
    normalized_gain,
)
from rydant.patterns import (
    SweepPlan,
    compare_patterns,
    dipole_reference,
    run_sweep,
)
from rydant.spectra import default_ladder, extract_splitting, scan_spectrum

MHZ = 2.0 * math.pi * 1e6
SYSTEM = TransitionSystem(AngularMomentum(1), AngularMomentum(3), mu=MHZ)
THZ_CELL = CellGeometry(wall_thickness=2e-3, inner_length=20e-3)
THZ_FREQ = 0.1296e12


def report(number, detail):
    print(f"ACCEPTANCE {number}/9 PASS: {detail}")


def test_1_block_construction_matches_reference():
    start = time.perf_counter()
    rng = np.random.default_rng(20240814)
    rabis, orientations = [], []
    for _ in range(1000):
        rabis.append(float(rng.uniform(0.01, 50.0)))
        orientations.append(wrap_orientation(
            chi=float(rng.uniform(0, math.pi)),
            theta=float(rng.uniform(0, 2 * math.pi)),
            phi=float(rng.uniform(0, 2 * math.pi)),
        ))
    blocks = coupling_stack(SYSTEM, rabis, decompose_polarizations(*np.array(orientations).T))
    worst = 0.0
    for rabi, orientation, block in zip(rabis, orientations, blocks):
        reference = build_interaction_paper(RfDrive(rabi), orientation)
        worst = max(worst, float(np.abs(block - reference).max()) / max(1.0, rabi))
    elapsed = time.perf_counter() - start
    assert worst < 1e-14, f"worst scaled entry error {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s (budget 1s)"
    report(1, f"coupling_stack block == reference block, worst {worst:.2e} "
              f"(tol 1e-14, 1000 draws, {elapsed:.2f}s)")


def test_2_closed_form_eigenvalues_match_numerics():
    # The program's closed form reads the Gram modes; the references are the
    # numeric spectrum of the paper's block and the hand-derived closed form.
    start = time.perf_counter()
    rng = np.random.default_rng(20240815)
    count = 1000
    stack = np.empty((count, 6, 6), dtype=complex)
    drives = []
    orientations = []
    for i in range(count):
        drive = RfDrive(rabi=float(rng.uniform(0, 20.0)), detuning=float(rng.uniform(-10, 10)))
        orientation = wrap_orientation(
            chi=float(rng.uniform(0, math.pi)),
            theta=float(rng.uniform(0, 2 * math.pi)),
            phi=float(rng.uniform(0, 2 * math.pi)),
        )
        drives.append(drive)
        orientations.append(orientation)
        stack[i] = hamiltonian_array(build_interaction_paper(drive, orientation), drive.detuning)
    numeric = np.linalg.eigvalsh(stack)

    worst = worst_hand = 0.0
    for i in range(count):
        closed = _dressed_levels(drives[i], *orientations[i])[0]
        scale = max(1.0, float(np.abs(numeric[i]).max()))
        worst = max(worst, float(np.abs(numeric[i] - closed).max()) / scale)
        worst_hand = max(worst_hand, float(np.abs(eigen_closed_form(drives[i], orientations[i]) - closed).max()) / scale)
        pair_hits = int(np.sum(np.abs(numeric[i] + drives[i].detuning) <= 1e-8 * scale))
        assert pair_hits >= 2, f"case {i}: -detuning multiplicity {pair_hits} < 2"
    elapsed = time.perf_counter() - start
    assert worst < 1e-10, f"worst scaled eigenvalue error {worst:.3e}"
    assert worst_hand < 1e-12, f"worst scaled distance from the hand-derived closed form {worst_hand:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s (budget 5s)"
    report(2, f"closed-form spectrum == numeric spectrum, worst {worst:.2e} "
              f"(tol 1e-10), == hand-derived closed form, worst {worst_hand:.2e} (tol 1e-12), "
              f"and the -detuning pair is always present (1000 draws, {elapsed:.2f}s)")


def test_3_orientation_grid_is_isotropic():
    start = time.perf_counter()
    drive = RfDrive(rabi=7.0 * MHZ, detuning=2.0 * MHZ)
    chis, thetas = np.meshgrid(np.linspace(0.0, math.pi, 37), np.linspace(0.0, 2 * math.pi, 37, endpoint=False),
                               indexing="ij")
    polarizations = decompose_polarizations(chis.ravel(), thetas.ravel(), np.zeros(chis.size))
    blocks = coupling_stack(SYSTEM, np.full(chis.size, drive.rabi), polarizations)
    delta_ats = gram_splittings(blocks, drive.detuning)[:, -1]
    field = drive.rabi / SYSTEM.mu
    deviation = isotropic_deviation(normalized_gain(np.arange(delta_ats.size), delta_ats / field))
    elapsed = time.perf_counter() - start
    assert deviation < 1e-10, f"deviation {deviation:.3e} dB over the orientation grid"
    assert elapsed < 5.0, f"took {elapsed:.2f}s (budget 5s)"
    report(3, f"37x37 orientation grid deviation {deviation:.2e} dB "
              f"(tol 1e-10 dB, full readout chain, {elapsed:.2f}s)")


def test_4_field_round_trip_accuracy():
    # The inversion sqrt(delta_at^2 - detuning^2) amplifies any error in
    # delta_at by (delta_at/rabi)^2, up to 2.5e5 on this grid; the Gram
    # mode keeps the branch gap exact to representation precision, which an
    # O(eps * ||H||) eigensolver of the full dressed matrix cannot.
    start = time.perf_counter()
    mu = 2.5 * MHZ
    worst = 0.0
    for rabi_mhz in np.geomspace(0.1, 100.0, 16):
        for detuning_mhz in np.linspace(-50.0, 50.0, 11):
            drive = RfDrive(rabi=float(rabi_mhz) * MHZ, detuning=float(detuning_mhz) * MHZ)
            delta_at = _dressed_levels(drive, math.pi / 2, 0.3, 0.0)[2][-1]
            estimate = field_from_splitting(delta_at, drive.detuning, mu)
            expected = drive.rabi / mu
            worst = max(worst, abs(estimate.amplitude - expected) / expected)
    elapsed = time.perf_counter() - start
    assert worst < 1e-10, f"worst relative field error {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s (budget 1s)"
    report(4, f"field amplitude round trip worst {worst:.2e} relative "
              f"(tol 1e-10, drive 0.1-100 MHz x detuning -50..50 MHz, {elapsed:.2f}s)")


def test_5_spectral_splitting_tracks_the_drive():
    start = time.perf_counter()
    gamma_e = default_ladder(0.0, 0.0).gamma_e
    worst = 0.0
    for ratio in (5.0, 10.0, 20.0):
        omega_rf = ratio * gamma_e
        for delta_rf in (0.0, omega_rf / 2.0, -omega_rf / 2.0):
            cfg = default_ladder(omega_rf, delta_rf)
            expected = math.hypot(omega_rf, delta_rf)
            center = -delta_rf / 2.0
            half_width = 0.75 * expected + 3.0 * gamma_e
            trace = scan_spectrum(cfg, (center - half_width, center + half_width), 1401)
            got = extract_splitting(trace).delta_at
            worst = max(worst, abs(got - expected) / expected)
    elapsed = time.perf_counter() - start
    assert worst < 0.05, f"worst relative splitting error {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.2f}s (budget 30s)"
    report(5, f"scanned-spectrum splitting tracks the drive, worst {worst:.2%} "
              f"(tol 5%, 9 drive/detuning combinations, {elapsed:.2f}s)")


def test_6_cell_solver_matches_independent_integration():
    start = time.perf_counter()
    rng = np.random.default_rng(20240816)
    worst = 0.0
    for _ in range(20):
        geometry, frequency, angle, polarization = random_cell_case(rng)
        profile = transfer_matrix_field(geometry, frequency, angle, polarization, samples=161)
        _, oracle = rk4_field_profile(geometry, frequency, angle, polarization, 161)
        rel = float(np.abs(profile.amplitude - oracle).max()) / float(profile.amplitude.max())
        worst = max(worst, rel)
    assert worst < 1e-6, f"worst profile disagreement {worst:.3e}"

    wavelength = SPEED_OF_LIGHT / THZ_FREQ
    half_wave = CellGeometry(
        wall_thickness=wavelength / 4.0, inner_length=20e-3, wall_index=2.0 + 0j
    )
    flat = transfer_matrix_field(half_wave, THZ_FREQ, 0.0, "TE", samples=2001)
    ripple = float(np.ptp(flat.amplitude))
    assert ripple < 1e-8, f"half-wave wall ripple {ripple:.3e}"
    assert abs(path_average(flat) - 1.0) < 1e-8

    k = 2.0 * math.pi
    x = np.linspace(0.0, 3 * math.pi / k, 30001)
    cosine = FieldProfile(x, np.abs(np.cos(k * x)), 0.0, 1e9)
    rectified_error = abs(path_average(cosine) - 2.0 / math.pi)
    assert rectified_error < 1e-4, f"rectified-cosine average error {rectified_error:.3e}"

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s (budget 10s)"
    report(6, f"stack solver vs direct integration worst {worst:.2e} (tol 1e-6, "
              f"20 random stacks), half-wave ripple {ripple:.1e} (tol 1e-8), "
              f"rectified-cosine mean error {rectified_error:.1e} (tol 1e-4) "
              f"({elapsed:.2f}s)")


def test_7_dipole_reference_contrast():
    start = time.perf_counter()
    angles = np.radians(np.arange(0.0, 360.0, 1.0))
    dipole = dipole_reference(angles, plane="axial")
    assert dipole.deviation_db > 20.0, f"dipole deviation {dipole.deviation_db:.2f} dB"

    plan = SweepPlan(
        plane="XY", angles=angles, drive=RfDrive(rabi=10 * MHZ), system=SYSTEM
    )
    isotropic = run_sweep(plan)
    comparison = compare_patterns(isotropic, dipole)
    assert comparison.improvement_db > 20.0, (
        f"improvement {comparison.improvement_db:.2f} dB"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s (budget 1s)"
    report(7, f"dipole reference spans {dipole.deviation_db:.1f} dB and the "
              f"isotropic sweep beats it by {comparison.improvement_db:.1f} dB "
              f"(both > 20 dB, {elapsed:.2f}s)")


def test_8_cell_modulation_and_noise_statistics():
    start = time.perf_counter()
    angles = np.radians(np.arange(0.0, 90.0, 10.0))
    plan = SweepPlan(
        plane="XY",
        angles=angles,
        drive=RfDrive(rabi=10 * MHZ),
        system=SYSTEM,
        cell=THZ_CELL,
        cell_frequency=THZ_FREQ,
    )
    pattern = run_sweep(plan)
    direct = angle_sweep_deviation(THZ_CELL, THZ_FREQ, angles, "TE")
    gap = abs(pattern.deviation_db - direct)
    assert pattern.deviation_db > 0.0
    assert gap <= 1e-12, f"sweep vs direct stack deviation differ by {gap:.3e} dB"

    bare = np.radians(np.arange(0.0, 360.0, 5.0))
    deviations = []
    for seed in range(50):
        noisy = SweepPlan(
            plane="XY",
            angles=bare,
            drive=RfDrive(rabi=10 * MHZ),
            system=SYSTEM,
            noise_sigma_db=0.1,
            seed=seed,
        )
        deviations.append(run_sweep(noisy).deviation_db)
    median = float(np.median(deviations))
    assert 0.0 < median <= 1.0, f"median noisy deviation {median:.3f} dB outside (0, 1]"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s (budget 30s)"
    report(8, f"cell-modulated sweep == stack average to {gap:.1e} dB (tol 1e-12); "
              f"0.1 dB readout noise gives median deviation {median:.2f} dB in (0, 1] "
              f"over 50 seeds ({elapsed:.2f}s)")


def test_9_cli_outputs_are_reproducible(tmp_path):
    start = time.perf_counter()
    config = {
        "schema_version": 1,
        "seed": 7,
        "system": {"two_jg": 1, "two_je": 3, "mu_mhz_per_v_per_m": 1.0},
        "drive": {"rabi_mhz": 10.0},
        "cell": {"wall_thickness_mm": 2.0, "inner_length_mm": 20.0, "rf_frequency_ghz": 129.6},
        "sweep": {
            "plane": "XY",
            "angles_deg": "0:10:90",
            "use_cell": True,
            "noise_sigma_db": 0.2,
        },
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))

    def run_all(out_dir):
        out_dir.mkdir()
        base = ["--out-dir", str(out_dir), "--basename", "rep"]
        assert main(["sweep", "--config", str(config_path)] + base) == 0
        assert main(["spectrum", "--config", str(config_path)] + base) == 0
        assert main(["cellfield", "--config", str(config_path), "--angles", "0:10:90"] + base) == 0
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    first = run_all(tmp_path / "a")
    second = run_all(tmp_path / "b")
    assert first.keys() == second.keys()
    assert len(first) == 7
    mismatched = [name for name in first if first[name] != second[name]]
    assert not mismatched, f"outputs differ between reruns: {mismatched}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s (budget 30s)"
    report(9, f"all {len(first)} CLI artifacts byte-identical across reruns "
              f"(sweep + spectrum + cellfield, {elapsed:.2f}s)")
