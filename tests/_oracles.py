"""Independent numerical oracles used by the tests.

The field-profile oracle integrates the 1-D layered Helmholtz equation
u'' = (beta^2 - k0^2 n^2) u directly with fixed-step RK4, walking backward
from a unit transmitted wave, and shares no code with the production
transfer-matrix solver beyond the interface constants.

The ladder oracles build the four-level Lindblad Liouvillian from the model
stated in the spectra module docstring, row-stacked (the production solver
column-stacks), and solve it directly with one batched np.linalg.solve per
chunk of detunings.  The Doppler oracle integrates that stationary
absorption against the Gaussian velocity distribution on a fine uniform
grid, with no pole expansion.

The per-angle oracles are the eigen sweep and the cell sweep as they were
before batching: a coupling block filled entry by entry from clebsch_gordan,
one splitting per eigenvalue row (np.delete of the degenerate pair), and one
validated transfer-matrix profile per incidence angle.  The batched code
must match them exactly.
"""

import math

import numpy as np

from rydant.angular import AngularMomentum, clebsch_gordan, decompose_polarization
from rydant.cellfield import SPEED_OF_LIGHT, _eta, _kx, path_average, sweep_samples, transfer_matrix_field
from rydant.hamiltonian import RfDrive, hamiltonian_array
from rydant.patterns import plane_to_orientation


def _rk4_step(u, v, w, h):
    k1u, k1v = v, w * u
    u2, v2 = u + 0.5 * h * k1u, v + 0.5 * h * k1v
    k2u, k2v = v2, w * u2
    u3, v3 = u + 0.5 * h * k2u, v + 0.5 * h * k2v
    k3u, k3v = v3, w * u3
    u4, v4 = u + h * k3u, v + h * k3v
    k4u, k4v = v4, w * u4
    return (
        u + h * (k1u + 2 * k2u + 2 * k3u + k4u) / 6.0,
        v + h * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0,
    )


def rk4_field_profile(geometry, frequency, angle, polarization, samples, steps_per_rad=60.0):
    """Interior |E| profile on linspace(0, inner_length, samples).

    Same reporting convention as the production solver: TE returns |u|,
    TM returns sqrt(beta^2 |u|^2 + |u'|^2) / (k0 |n|^2).
    """
    k0 = 2.0 * math.pi * frequency / SPEED_OF_LIGHT
    beta = k0 * math.sin(angle)
    ns = [1 + 0j, geometry.wall_index, geometry.inner_index, geometry.wall_index, 1 + 0j]
    ds = [0.0, geometry.wall_thickness, geometry.inner_length, geometry.wall_thickness, 0.0]

    kx_out = complex(_kx(ns[4], k0, beta))
    u, v = 1.0 + 0j, 1j * kx_out
    eta_prev = _eta(ns[4], polarization)
    vapor = None
    for j in (3, 2, 1):
        eta_j = _eta(ns[j], polarization)
        v = v * eta_prev / eta_j  # eta * u' is continuous across the interface
        w = beta * beta - (k0 * ns[j]) ** 2
        kmag = abs(complex(_kx(ns[j], k0, beta)))
        if j == 2:
            xs = np.linspace(0.0, ds[j], samples)
            us = np.empty(samples, dtype=complex)
            vs = np.empty(samples, dtype=complex)
            us[-1], vs[-1] = u, v
            for seg in range(samples - 1, 0, -1):
                seg_len = xs[seg] - xs[seg - 1]
                m = max(1, math.ceil(kmag * seg_len * steps_per_rad))
                h = -seg_len / m
                uu, vv = us[seg], vs[seg]
                for _ in range(m):
                    uu, vv = _rk4_step(uu, vv, w, h)
                us[seg - 1], vs[seg - 1] = uu, vv
            u, v = us[0], vs[0]
            vapor = (xs, us, vs)
        else:
            m = max(2, math.ceil(kmag * ds[j] * steps_per_rad))
            h = -ds[j] / m
            for _ in range(m):
                u, v = _rk4_step(u, v, w, h)
        eta_prev = eta_j

    v0 = v * eta_prev / _eta(ns[0], polarization)
    kx0 = complex(_kx(ns[0], k0, beta))
    incident = 0.5 * (u + v0 / (1j * kx0))

    xs, us, vs = vapor
    us = us / incident
    vs = vs / incident
    if polarization == "TE":
        amp = np.abs(us)
    else:
        n2 = abs(geometry.inner_index) ** 2
        amp = np.sqrt(beta**2 * np.abs(us) ** 2 + np.abs(vs) ** 2) / (k0 * n2)
    return xs, amp


def random_cell_case(rng):
    """One random (geometry, frequency, angle, polarization) tuple."""
    from rydant.cellfield import CellGeometry

    geometry = CellGeometry(
        wall_thickness=float(rng.uniform(0.5e-3, 3e-3)),
        inner_length=float(rng.uniform(5e-3, 25e-3)),
        wall_index=complex(rng.uniform(1.2, 3.0), rng.uniform(0.0, 0.05)),
    )
    frequency = float(rng.uniform(0.05e12, 0.2e12))
    angle = float(rng.uniform(0.0, 1.3))
    polarization = "TE" if rng.integers(2) else "TM"
    return geometry, frequency, angle, polarization


def _ladder_liouvillians(cfg, detunings):
    """Row-stacked Liouvillians, one per scanned detuning: shape (n, 16, 16)."""
    n = len(detunings)
    h = np.zeros((n, 4, 4), dtype=complex)
    h[:, 1, 1] = -cfg.delta_p
    h[:, 2, 2] = -(cfg.delta_p + detunings)
    h[:, 3, 3] = -(cfg.delta_p + detunings + cfg.delta_rf)
    for (i, j), omega in (((0, 1), cfg.omega_p), ((1, 2), cfg.omega_c), ((2, 3), cfg.omega_rf)):
        h[:, i, j] = h[:, j, i] = omega / 2.0
    eye = np.eye(4)
    # row stacking: vec(A rho B) = kron(A, B.T) vec(rho)
    lv = -1j * (np.einsum("nij,kl->nikjl", h, eye) - np.einsum("ij,nlk->nikjl", eye, h))
    for rate, low, high in ((cfg.gamma_e, 0, 1), (cfg.gamma_r, 1, 2), (cfg.gamma_r, 2, 3)):
        c = np.zeros((4, 4))
        c[low, high] = math.sqrt(rate)
        cdc = c.T @ c
        lv += (np.kron(c, c) - 0.5 * np.kron(cdc, eye) - 0.5 * np.kron(eye, cdc.T)).reshape(1, 4, 4, 4, 4)
    return lv.reshape(n, 16, 16)


def ladder_states(cfg, detunings, chunk=2048):
    """Stationary density matrices, shape (n, 4, 4), by a batched direct solve.

    Row 0 of each Liouvillian is replaced by the trace condition.  Raises
    np.linalg.LinAlgError when a matrix is exactly singular.
    """
    detunings = np.asarray(detunings, dtype=float)
    out = np.empty((detunings.size, 4, 4), dtype=complex)
    rhs = np.zeros(16, dtype=complex)
    rhs[0] = 1.0
    for start in range(0, detunings.size, chunk):
        a = _ladder_liouvillians(cfg, detunings[start:start + chunk])
        a[:, 0, :] = 0.0
        a[:, 0, [0, 5, 10, 15]] = 1.0
        x = np.linalg.solve(a, np.broadcast_to(rhs, (a.shape[0], 16))[..., None])[..., 0]
        out[start:start + chunk] = x.reshape(-1, 4, 4)
    return out


def doppler_absorption(cfg, low, high, points, sigma, max_grid_step, span_sigmas=10.0):
    """Gaussian velocity average of Im(rho_ge) at linspace(low, high, points).

    The stationary absorption is solved on a uniform grid whose step divides
    the scan step and is at most max_grid_step (rad/s), reaching span_sigmas
    standard deviations past both scan ends; each scan point is then the
    trapezoid sum of that grid against the Gaussian density.  The trapezoid
    rule on the line converges geometrically once the grid step is small
    against the distance of the nearest pole from the real axis.
    """
    step = (high - low) / (points - 1)
    per_step = math.ceil(step / max_grid_step)
    h = step / per_step
    reach = math.ceil(span_sigmas * sigma / h)
    offsets = np.arange(-reach, reach + 1) * h
    grid = low + np.arange(-reach, (points - 1) * per_step + reach + 1) * h
    absorption = ladder_states(cfg, grid)[:, 0, 1].imag
    weights = h * np.exp(-0.5 * (offsets / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    return np.correlate(absorption, weights, mode="valid")[::per_step]


def interaction_block(system, drive, orientation):
    """Coupling block filled entry by entry, one clebsch_gordan call per entry.

    Entry (m_e row, m_g col) is sqrt(6)/4 * rabi * eps_{-q} * <jg m_g; 1 q | je m_e>
    with q = m_e - m_g, the rule stated in the hamiltonian module.
    """
    pol = decompose_polarization(orientation)
    coeff = {-1: pol.eps_plus, 0: pol.eps_zero, +1: pol.eps_minus}
    amp = math.sqrt(6.0) / 4.0 * drive.rabi
    two_mg = system.jg.two_m_values()
    two_me = system.je.two_m_values()
    block = np.zeros((len(two_me), len(two_mg)), dtype=complex)
    for row, tme in enumerate(two_me):
        for col, tmg in enumerate(two_mg):
            two_q = tme - tmg
            if abs(two_q) > 2 or two_q % 2:
                continue
            q = two_q // 2
            cg = clebsch_gordan(system.jg, tmg / 2, AngularMomentum(2), q, system.je, tme / 2)
            block[row, col] = amp * coeff[q] * cg
    return block


def splitting(values, detuning, tolerance=1e-8):
    """max - min of one spectrum after deleting the two values nearest -detuning.

    Raises ValueError with the message of metrology.splitting_from_eigen when
    that pair is farther than tolerance * max|value| from -detuning.
    """
    tol = tolerance * float(np.abs(values).max())
    distance = np.abs(values + detuning)
    pair = np.argsort(distance, kind="stable")[:2]
    if np.any(distance[pair] > tol):
        raise ValueError(
            "degenerate pair at -detuning not identifiable "
            f"(closest residuals {np.sort(distance)[:2]}, tolerance {tol:.3e})"
        )
    rest = np.delete(values, pair)
    return float(rest.max() - rest.min())


def eigen_delta_ats(plan, factors):
    """Eigen-readout splittings of a sweep, built and read out one angle at a time."""
    dim = plan.system.dim
    stack = np.empty((len(plan.angles), dim, dim), dtype=complex)
    for i, angle in enumerate(plan.angles):
        orientation = plane_to_orientation(plan.plane, float(angle))
        drive = RfDrive(plan.drive.rabi * factors[i], plan.drive.detuning)
        stack[i] = hamiltonian_array(interaction_block(plan.system, drive, orientation), plan.drive.detuning)
    return [splitting(row, plan.drive.detuning) for row in np.linalg.eigvalsh(stack)]


def path_averages(geometry, frequency, angles, polarization="TE"):
    """One validated transfer-matrix profile and its path average per angle."""
    samples = sweep_samples(geometry, frequency)
    return [
        path_average(transfer_matrix_field(geometry, frequency, float(a), polarization, samples))
        for a in angles
    ]
