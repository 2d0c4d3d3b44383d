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
grid, with no pole expansion.  full_pole_states is the scan's pole
expansion over the whole 16 x 16 A0^-1 S, eight zero eigenvalues filtered
out and all eight live poles Doppler-averaged one by one through
scipy.special.wofz, which the production solver cuts down to the 8 x 8
sloped block and averages through its own Faddeeva function.
mpmath_faddeeva is that function's reference, exp(-z^2) erfc(-iz) at 80
digits.

The per-angle oracles are the eigen sweep and the cell sweep as they were
before batching, one angle at a time in Python scalars: the orientation
wrap and the cmath polarization decomposition, a coupling block filled
entry by entry from clebsch_gordan, one splitting per eigenvalue row
(np.delete of the degenerate pair), and one scalar transfer-matrix walk and
interior profile per incidence angle.  The batched code must match them
exactly, apart from two changes of method that agree to rounding: the
sweep takes its splitting from the ground-space Gram matrix of each
coupling block, the oracle from the full dressed Hamiltonian; and the
production profile builds exp(+-i kx x) from short phase tables, the
oracle takes two plain exponentials per sample.  two_exponential_profile
is the production profile of one angle as it was built before a lossless
vapor took its exp(-i kx x) tables as conjugates: the same walk and phase
tables with both exponentials evaluated, which the production profile must
equal bit for bit.  mpmath_interior_amplitudes evaluates a profile from the
walk's own amplitudes at 30 digits.
peak_positions is the peak search rebuilt on scipy.signal.find_peaks, with
a scalar parabola per peak, and splitting_from_peaks the splitting rule
on it.  run_local_maxima, array_peak_positions and squaring_block_order
are the spectra module's maxima, peak refinement and block order as they
ran before they moved to scalars and shortcuts: every run with both ends
concatenated and masked off, one array parabola over all kept peaks, and
three squarings of every sloped block.  The production forms must equal
them bit for bit.
hamiltonian_stack is that full-matrix route for a whole sweep,
closed_form_delta_at the splitting of a linearly polarized drive from
sympy's Clebsch-Gordan coefficients, and cartesian_polarizations the
spherical components of Cartesian polarization vectors, for drives of any
ellipticity.  angular_momentum_matrices are (J_x, J_y, J_z), wigner_small_d
is d^J(beta) from the eigendecomposition of J_y, and laser_path_weights the two-photon sublevel weights that
6S1/2 -> 6P3/2 -> nS1/2 lasers of given polarizations prepare (ROADMAP
items 4 and 13); j_half_readout is the weighted 1/2 -> 3/2 readout of a
wave of any ellipticity in closed form, from the Gram law and the normal
of the polarization ellipse alone.  build_interaction_paper is the paper's hand-written
1/2 -> 3/2 block, the reference of acceptance criterion 1;
branch_splittings and eigen_closed_form are the hand-derived
1/2 -> 3/2 closed forms, the reference of criterion 2, which `rydant
eigen` reads from the Gram modes instead.  folded_incidence folds one XY angle alone, without merging
the mirror twins that patterns.incidence_angles merges; patterns built on
it are the unmerged reference.  normal_draws is the readout-noise stream
in scalar math: Box-Muller on random.Random(seed).random(), one uniform
pair per two draws.  scalar_sweep_tail is the end of run_sweep as it ran
before the sweep stayed in arrays, one Python step per angle: a gap angle
for each None splitting, raw ratio delta_at / field * scale otherwise, and
min(20 log10(ratio / max), 0) per sample; the array form must equal it
bit for bit.
"""

import cmath
import math
import random
from typing import NamedTuple

import mpmath
import numpy as np
from scipy.signal import find_peaks
from sympy import Rational
from sympy.physics.quantum.cg import CG

from rydant.angular import AngularMomentum, clebsch_gordan, decompose_polarizations
from rydant.cellfield import SPEED_OF_LIGHT, _walk, sweep_samples
from rydant.hamiltonian import RfDrive, coupling_stack, hamiltonian_array
from rydant.spectra import _prominences

TWO_PI = 2.0 * math.pi


def kx(n, k0, beta):
    """Normal wavevector sqrt(k0^2 n^2 - beta^2), principal branch."""
    return np.sqrt(complex((k0 * n) ** 2 - beta**2))


def eta(n, polarization):
    """Interface weight of u': 1 for TE, 1 / n^2 for TM."""
    return 1.0 if polarization == "TE" else 1.0 / (n * n)


def stack_amplitudes(ns, ds, k0, beta, polarization):
    """Forward/backward amplitudes per layer for a unit incident wave, one beta.

    ns and ds are aligned; the first and last entries are semi-infinite and
    their thickness is ignored.  Amplitudes are referenced to each layer's
    left edge.  Returns (amplitudes, r, t).
    """
    count = len(ns)
    kxs = [kx(n, k0, beta) for n in ns]
    qs = [eta(n, polarization) * k for n, k in zip(ns, kxs)]
    if abs(qs[0]) == 0:
        raise ValueError("grazing incidence: no propagating incident wave")

    # Walk backward from a unit transmitted wave, then rescale so the
    # incident amplitude is exactly 1.
    amps = [None] * count
    amps[count - 1] = (1.0 + 0.0j, 0.0 + 0.0j)
    for j in range(count - 2, -1, -1):
        a_next, b_next = amps[j + 1]
        total = a_next + b_next
        diff = (qs[j + 1] / qs[j]) * (a_next - b_next)
        right_a = 0.5 * (total + diff)
        right_b = 0.5 * (total - diff)
        if j == 0:
            amps[j] = (right_a, right_b)
        else:
            phase = np.exp(1j * kxs[j] * ds[j])
            amps[j] = (right_a / phase, right_b * phase)

    incident = amps[0][0]
    if abs(incident) == 0:
        raise ValueError("degenerate stack: vanishing incident amplitude")
    scaled = [(a / incident, b / incident) for a, b in amps]
    return scaled, scaled[0][1], scaled[-1][0]


def interior_amplitude(geometry, frequency, angle, polarization, x):
    """|E| relative to the incident wave at interior positions x, for one angle."""
    k0 = 2.0 * math.pi * frequency / SPEED_OF_LIGHT
    beta = k0 * math.sin(angle)
    ns = [1.0 + 0j, geometry.wall_index, geometry.inner_index, geometry.wall_index, 1.0 + 0j]
    ds = [0.0, geometry.wall_thickness, geometry.inner_length, geometry.wall_thickness, 0.0]
    amps, _, _ = stack_amplitudes(ns, ds, k0, beta, polarization)

    a, b = amps[2]
    k = kx(geometry.inner_index, k0, beta)
    forward = a * np.exp(1j * k * x)
    backward = b * np.exp(-1j * k * x)
    u = forward + backward
    if polarization == "TE":
        return np.abs(u)
    du = 1j * k * (forward - backward)
    n2 = abs(geometry.inner_index) ** 2
    return np.sqrt(beta**2 * np.abs(u) ** 2 + np.abs(du) ** 2) / (k0 * n2)


def two_exponential_profile(geometry, frequency, angle, polarization, samples):
    """|E| on linspace(0, inner_length, samples) for one angle, exp(i kx x) and exp(-i kx x) each evaluated.

    The production walk, phase tables, matmul and reporting rule, one angle
    at a time, with no conjugate shortcut for a lossless vapor.
    """
    k0 = 2.0 * math.pi * frequency / SPEED_OF_LIGHT
    beta = k0 * math.sin(angle)
    ns = [1.0 + 0j, geometry.wall_index, geometry.inner_index, geometry.wall_index, 1.0 + 0j]
    ds = [0.0, geometry.wall_thickness, geometry.inner_length, geometry.wall_thickness, 0.0]
    kxs, amps = _walk(ns, ds, k0, [beta], polarization)
    block = math.isqrt(samples - 1) + 1
    step = geometry.inner_length / (samples - 1)
    coarse, fine = np.arange(0, samples, block) * step, np.arange(block) * step
    a, b = (amp[:, None] for amp in amps[2])
    ikx = 1j * kxs[2][:, None]
    left = np.stack([a * np.exp(ikx * coarse), b * np.exp(-ikx * coarse)], axis=-1)
    if polarization == "TM":
        left = np.concatenate([left, ikx[..., None] * left * [1.0, -1.0]], axis=1)
    right = np.stack([np.exp(ikx * fine), np.exp(-ikx * fine)], axis=1)
    fields = np.matmul(left, right).reshape(1, -1, coarse.size * block)[0, :, :samples]
    if polarization == "TE":
        return np.abs(fields[0])
    n2 = abs(geometry.inner_index) ** 2
    return np.sqrt(beta**2 * np.abs(fields[0]) ** 2 + np.abs(fields[1]) ** 2) / (k0 * n2)


def mpmath_interior_amplitudes(geometry, frequency, angle, positions):
    """TE and TM |E| at positions, evaluated at 30 digits from the production walk's own amplitudes.

    Takes the vapor layer's kx and, per polarization, its (a, b) from
    rydant.cellfield._walk, then evaluates u = a exp(i kx x) + b exp(-i kx x)
    and the reporting rule in mpmath; each phase exp(i kx x) serves both
    polarizations.  Returns {"TE": array, "TM": array}.
    """
    k0 = 2.0 * math.pi * frequency / SPEED_OF_LIGHT
    beta = k0 * math.sin(angle)
    ns = [1.0 + 0j, geometry.wall_index, geometry.inner_index, geometry.wall_index, 1.0 + 0j]
    ds = [0.0, geometry.wall_thickness, geometry.inner_length, geometry.wall_thickness, 0.0]
    out = {}
    with mpmath.workdps(30):
        kx = mpmath.mpc(complex(_walk(ns, ds, k0, [beta], "TE")[0][2][0]))
        phases = [mpmath.exp(1j * kx * x) for x in positions.tolist()]
        n2 = abs(mpmath.mpc(geometry.inner_index)) ** 2
        for polarization in ("TE", "TM"):
            a, b = (mpmath.mpc(complex(v[0])) for v in _walk(ns, ds, k0, [beta], polarization)[1][2])
            fields = [(a * phase, b / phase) for phase in phases]
            if polarization == "TE":
                values = [abs(forward + backward) for forward, backward in fields]
            else:
                beta_sq = mpmath.mpf(beta) ** 2
                values = [
                    mpmath.sqrt(beta_sq * abs(forward + backward) ** 2 + abs(kx * (forward - backward)) ** 2)
                    / (k0 * n2)
                    for forward, backward in fields
                ]
            out[polarization] = np.array([float(v) for v in values])
    return out


def mpmath_faddeeva(z):
    """w(z) = exp(-z^2) erfc(-iz) at 80 digits, rounded to complex, for each z in an array."""
    with mpmath.workdps(80):
        values = [mpmath.exp(-mpmath.mpc(v) ** 2) * mpmath.erfc(-1j * mpmath.mpc(v)) for v in np.ravel(z).tolist()]
        return np.array([complex(v) for v in values]).reshape(np.shape(z))


class Angles(NamedTuple):
    chi: float
    theta: float
    phi: float


def wrap_orientation(chi, theta, phi=0.0):
    """decompose_polarizations' angle rule on Python floats: chi folded into [0, pi], theta and phi wrapped."""
    for name, v in (("chi", chi), ("theta", theta), ("phi", phi)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    chi = chi % TWO_PI
    if chi > math.pi:
        chi = TWO_PI - chi
        theta = theta + math.pi
    return Angles(chi, theta % TWO_PI, phi % TWO_PI)


def plane_orientation(plane, angle):
    """A sweep angle in a principal plane as wrapped (chi, theta, phi), phi = 0."""
    chi, theta = {"XY": (math.pi / 2, angle), "XZ": (angle, 0.0), "YZ": (angle, math.pi / 2)}[plane]
    return wrap_orientation(chi, theta, 0.0)


def folded_incidence(plane, angle):
    """A sweep angle's stack incidence, folded alone: no merging of mirror twins."""
    if plane != "XY":
        return 0.0
    folded = angle % math.pi
    return folded if folded <= math.pi / 2 else math.pi - folded


def polarizations(orientations):
    """coupling_stack's spherical-component arrays for a list of (chi, theta, phi) records."""
    return decompose_polarizations(*(np.array([getattr(o, k) for o in orientations]) for k in Angles._fields))


def spherical_components(orientation):
    """(eps_minus, eps_zero, eps_plus) of a wrapped orientation, in cmath scalars."""
    s = math.sin(orientation.chi)
    c = math.cos(orientation.chi)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return (
        +s * inv_sqrt2 * cmath.exp(1j * (orientation.phi - orientation.theta)),
        complex(c),
        -s * inv_sqrt2 * cmath.exp(1j * (orientation.phi + orientation.theta)),
    )


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

    kx_out = complex(kx(ns[4], k0, beta))
    u, v = 1.0 + 0j, 1j * kx_out
    eta_prev = eta(ns[4], polarization)
    vapor = None
    for j in (3, 2, 1):
        eta_j = eta(ns[j], polarization)
        v = v * eta_prev / eta_j  # eta * u' is continuous across the interface
        w = beta * beta - (k0 * ns[j]) ** 2
        kmag = abs(complex(kx(ns[j], k0, beta)))
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

    v0 = v * eta_prev / eta(ns[0], polarization)
    kx0 = complex(kx(ns[0], k0, beta))
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


def random_cell_case(rng, lossy_vapor=False):
    """One random (geometry, frequency, angle, polarization) tuple.

    With lossy_vapor the vapor gets a complex index too, drawn after the rest.
    """
    from rydant.cellfield import CellGeometry

    geometry = CellGeometry(
        wall_thickness=float(rng.uniform(0.5e-3, 3e-3)),
        inner_length=float(rng.uniform(5e-3, 25e-3)),
        wall_index=complex(rng.uniform(1.2, 3.0), rng.uniform(0.0, 0.05)),
    )
    frequency = float(rng.uniform(0.05e12, 0.2e12))
    angle = float(rng.uniform(0.0, 1.3))
    polarization = "TE" if rng.integers(2) else "TM"
    if lossy_vapor:
        inner_index = complex(rng.uniform(1.0, 1.5), rng.uniform(0.0, 0.05))
        geometry = CellGeometry(geometry.wall_thickness, geometry.inner_length, geometry.wall_index, inner_index)
    return geometry, frequency, angle, polarization


def peak_positions(x, y, prominence):
    """scipy.signal.find_peaks above prominence * span, each peak refined alone.

    Returns (positions, prominences) in index order.  A position is the
    vertex of the parabola through the maximum and its two neighbours,
    scaled by the grid step on the side it leans to; a parabola that does
    not open downwards leaves the sample where it is.
    """
    span = float(np.max(y) - np.min(y))
    if span <= 0.0:
        return np.array([]), np.array([])
    indices, props = find_peaks(y, prominence=prominence * span)
    positions = []
    for i in indices.tolist():
        left, mid, right = float(y[i - 1]), float(y[i]), float(y[i + 1])
        denom = left - 2.0 * mid + right
        offset = 0.5 * (left - right) / denom if denom < 0.0 else 0.0
        step = float(x[i + 1] - x[i]) if offset >= 0 else float(x[i] - x[i - 1])
        positions.append(float(x[i]) + offset * step)
    return np.array(positions), props["prominences"]


def splitting_from_peaks(x, y, prominence):
    """The splitting rule on peak_positions: the distance between the two
    peaks that argsort ranks most prominent, over positions in index order;
    None with fewer than two peaks."""
    positions, prominences = peak_positions(x, y, prominence)
    if positions.size < 2:
        return None
    top_two = positions[np.argsort(prominences)[-2:]]
    return float(abs(top_two[1] - top_two[0]))


def run_local_maxima(y):
    """Middle index (rounded down) of every run of equal samples above both neighbours.

    Lists every run, the two touching the ends included, then masks those
    off: spectra._local_maxima as it was before it took the inner runs
    straight from the changes.
    """
    change = np.flatnonzero(y[1:] != y[:-1])
    starts = np.concatenate(([0], change + 1))
    ends = np.concatenate((change, [y.size - 1]))
    inner = (starts > 0) & (ends < y.size - 1)
    starts, ends = starts[inner], ends[inner]
    top = (y[starts - 1] < y[starts]) & (y[ends + 1] < y[ends])
    return (starts[top] + ends[top]) // 2


def array_peak_positions(x, y, prominence):
    """spectra._peak_positions as one array parabola over all kept peaks, on run_local_maxima."""
    span = float(y.max() - y.min())
    if span <= 0.0:
        return np.array([]), np.array([])
    peaks = run_local_maxima(y)
    proms = _prominences(y, peaks)
    keep = proms >= prominence * span
    i, proms = peaks[keep], proms[keep]
    left, mid, right = y[i - 1], y[i], y[i + 1]
    denom = left - 2.0 * mid + right
    offset = np.divide(0.5 * (left - right), denom, out=np.zeros_like(denom), where=denom < 0.0)
    step = np.where(offset >= 0, x[i + 1] - x[i], x[i] - x[i - 1])
    return x[i] + offset * step, proms


def squaring_block_order(k):
    """spectra._block_order with no shortcut: three squarings of k's coupling pattern, whatever k holds."""
    linked = (k != 0.0) | (k.T != 0.0) | np.eye(k.shape[0], dtype=bool)
    for _ in range(3):
        linked = linked @ linked
    return np.argsort(linked.argmax(axis=1), kind="stable")


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


def column_stacked_liouvillian(cfg, delta_c):
    """_ladder_liouvillians at one detuning, restacked by columns as rydant.spectra stacks rho.

    Column-stacked component k is rho[k % 4, k // 4], row-stacked component
    4 (k % 4) + k // 4.
    """
    order = [4 * (k % 4) + k // 4 for k in range(16)]
    return _ladder_liouvillians(cfg, np.array([delta_c]))[0][np.ix_(order, order)]


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


def full_pole_states(cfg, detunings):
    """The scan as a pole expansion of the full 16 x 16 A0^-1 S: (states, poles).

    The scan solver as it stood before it was cut down to its sloped block:
    column_stacked_liouvillian at the scan centre, with the trace row in
    place of row 0; one eig of A0^-1 S = V diag(lam) V^-1; c = V^-1 x0;
    every point x0 - V [eps lam / (1 + eps lam) * c], keeping the
    eigenvalues that are not exactly zero.  With cfg.doppler_sigma > 0
    each of those poles is averaged over the Gaussian through the Faddeeva
    function.  states is column-stacked, one row per detuning; poles holds
    the kept eigenvalues.  No residual check.
    """
    from scipy.special import wofz

    from rydant.spectra import _SCAN_SLOPE

    center = 0.5 * (detunings[0] + detunings[-1])
    a = column_stacked_liouvillian(cfg, center)
    a[0, :] = 0.0
    a[0, [0, 5, 10, 15]] = 1.0
    b = np.zeros(16, dtype=complex)
    b[0] = 1.0
    x0 = np.linalg.solve(a, b)
    lam, v = np.linalg.eig(np.linalg.solve(a, np.diag(_SCAN_SLOPE)))
    c = np.linalg.solve(v, x0)
    live = lam != 0.0
    lam, v, c = lam[live, None], v[:, live], c[live, None]
    eps = detunings - center
    if cfg.doppler_sigma > 0.0:
        sigma = cfg.doppler_sigma
        offset = -1.0 / lam - eps
        side = np.where(offset.imag > 0.0, 1.0, -1.0)
        mean_inverse = -1j * side * math.sqrt(math.pi / 2.0) / sigma * wofz(side * offset / (sigma * math.sqrt(2.0)))
        terms = 1.0 + mean_inverse / lam
    else:
        terms = eps * lam / (1.0 + eps * lam)
    return (x0[:, None] - v @ (terms * c)).T, lam[:, 0]


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


def build_interaction_paper(drive, orientation):
    """Literal 4x2 coupling block for the jg = 1/2 -> je = 3/2 transition.

    Rows are excited sublevels m = (-3/2, -1/2, +1/2, +3/2); columns are
    ground sublevels m = (-1/2, +1/2).  The hand-written reference that
    hamiltonian.coupling_stack reproduces to within rounding: the two differ
    in the last bits of nearly every entry.
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


def branch_splittings(drive, orientation):
    """The two branch splittings of the 1/2 -> 3/2 system, (plus-branch, minus-branch).

    sqrt(detuning^2 + rabi^2 * (1 +/- sin(chi)*cos(chi)*sin(phi))), derived by
    hand; the sign of the product depends on the parameterization, so which
    branch is the larger one does too.
    """
    a = math.sin(orientation.chi) * math.cos(orientation.chi) * math.sin(orientation.phi)
    d, w = drive.detuning, drive.rabi
    return (
        math.sqrt(d * d + w * w * (1.0 + a)),
        math.sqrt(d * d + w * w * (1.0 - a)),
    )


def eigen_closed_form(drive, orientation):
    """The six closed-form eigenvalues of the 1/2 -> 3/2 system, ascending.

    Two eigenvalues sit at -detuning; the remaining four are
    -(detuning +/- root) / 2 for the two branch splittings.  Independent of
    theta.
    """
    d = drive.detuning
    values = [-d, -d]
    for root in branch_splittings(drive, orientation):
        values.append(-0.5 * (d + root))
        values.append(-0.5 * (d - root))
    return np.sort(values)


def interaction_block(system, drive, orientation):
    """Coupling block filled entry by entry, one clebsch_gordan call per entry.

    Entry (m_e row, m_g col) is sqrt(6)/4 * rabi * eps_{-q} * <jg m_g; 1 q | je m_e>
    with q = m_e - m_g, the rule stated in the hamiltonian module.
    """
    eps_minus, eps_zero, eps_plus = spherical_components(orientation)
    coeff = {-1: eps_plus, 0: eps_zero, +1: eps_minus}
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

    The degenerate-pair rule on the full dressed spectrum, which
    metrology.gram_splittings replaces in the program.  Raises ValueError when
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
    dim = plan.system.jg.sublevel_count + plan.system.je.sublevel_count
    stack = np.empty((len(plan.angles), dim, dim), dtype=complex)
    for i, angle in enumerate(plan.angles):
        orientation = plane_orientation(plan.plane, float(angle))
        drive = RfDrive(plan.drive.rabi * factors[i], plan.drive.detuning)
        stack[i] = hamiltonian_array(interaction_block(plan.system, drive, orientation), plan.drive.detuning)
    return [splitting(row, plan.drive.detuning) for row in np.linalg.eigvalsh(stack)]


def hamiltonian_stack(system, rabis, polarizations, detuning):
    """Full rotating-frame matrices [[0, V^dag], [V, -detuning]] for a sweep, shape (n, dim, dim)."""
    blocks = coupling_stack(system, rabis, polarizations)
    ng = system.jg.sublevel_count
    dim = ng + system.je.sublevel_count
    h = np.zeros((len(blocks), dim, dim), dtype=complex)
    h[:, ng:, ng:] = -detuning * np.eye(system.je.sublevel_count)
    h[:, ng:, :ng] = blocks
    h[:, :ng, ng:] = blocks.conj().transpose(0, 2, 1)
    return h


def closed_form_delta_at(two_jg, rabi, detuning):
    """Splitting of a linearly polarized drive on J -> J + 1: sqrt(detuning^2 + 4 c_max^2).

    Along the polarization the block is diagonal, c_m = sqrt(6)/4 * rabi *
    <J m; 1 0 | J+1 m>, so the largest Gram eigenvalue is c_max^2; every
    other linear polarization is a rotation of it.  Coefficients from sympy.
    """
    cg_max_sq = max(
        CG(Rational(two_jg, 2), Rational(tm, 2), 1, 0, Rational(two_jg + 2, 2), Rational(tm, 2)).doit() ** 2
        for tm in range(-two_jg, two_jg + 1, 2)
    )
    return math.sqrt(detuning**2 + 1.5 * float(cg_max_sq) * rabi**2)


def cartesian_polarizations(eps):
    """coupling_stack's (eps_minus, eps_zero, eps_plus) of Cartesian polarizations eps[..., (x, y, z)].

    eps_minus = (x - i y) / sqrt(2), eps_zero = z, eps_plus = -(x + i y) / sqrt(2).
    """
    x, y, z = np.moveaxis(np.asarray(eps, dtype=complex), -1, 0)
    return (x - 1j * y) / math.sqrt(2.0), z, -(x + 1j * y) / math.sqrt(2.0)


def angular_momentum_matrices(two_j):
    """(J_x, J_y, J_z) on the sublevels in ascending m, with the Condon-Shortley J_+."""
    j = two_j / 2
    m = np.arange(-j, j + 1)
    raising = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), -1)
    return (raising + raising.T) / 2, (raising - raising.T) / 2j, np.diag(m)


def wigner_small_d(two_j, beta):
    """d^J(beta)[m, m'] = <J m| exp(-i beta J_y) |J m'>, rows and columns in ascending m.

    J_y is exponentiated through its eigendecomposition; d is real, so the
    imaginary rounding is dropped.
    """
    values, vectors = np.linalg.eigh(angular_momentum_matrices(two_j)[1])
    return ((vectors * np.exp(-1j * beta * values)) @ vectors.conj().T).real


def laser_path_weights(q1, q2):
    """(w_-1/2, w_+1/2) of nS1/2 after 6S1/2 -> 6P3/2 (photon q1) -> nS1/2 (photon q2).

    w_m = sum over the path of |CG1 CG2|^2 from angular.clebsch_gordan,
    starting from both 6S1/2 sublevels alike; unnormalized, so pi-pi gives
    2/9 each.
    """
    s_half, p_three_halves, photon = AngularMomentum(1), AngularMomentum(3), AngularMomentum(2)
    halves, three_halves = (-0.5, 0.5), (-1.5, -0.5, 0.5, 1.5)
    return np.array([
        sum((clebsch_gordan(s_half, m0, photon, q1, p_three_halves, m1)
             * clebsch_gordan(p_three_halves, m1, photon, q2, s_half, m)) ** 2
            for m0 in halves for m1 in three_halves)
        for m in halves
    ])


def j_half_readout(rabi, detuning, eps, w):
    """The 1/2 -> 3/2 readout R = (r+ + r-) / 2 + (w0 - w1) / (w0 + w1) cos(beta_v) (r+ - r-) / 2.

    eps[..., (x, y, z)] are unit Cartesian polarizations, v = i (eps* x eps)
    the real normal of each one's ellipse and beta_v its polar angle from
    the lasers' Z axis.  r+- = sqrt(detuning^2 + 4 s+-) with the Gram law
    s+- = rabi^2 / 4 +- (rabi^2 / 8) |v|.  w = (w0, w1) weighs m = -1/2 and
    m = +1/2, coupling_stack's ground columns in order.  A linear wave
    (v = 0) reads (r+ + r-) / 2 for every w.
    """
    eps = np.asarray(eps, dtype=complex)
    v = (1j * np.cross(eps.conj(), eps)).real
    size = np.linalg.norm(v, axis=-1)
    rabi, detuning = np.asarray(rabi, dtype=float), np.asarray(detuning, dtype=float)
    r_minus, r_plus = (np.sqrt(detuning ** 2 + rabi ** 2 * (2.0 + sign * size) / 2.0) for sign in (-1.0, 1.0))
    cos_beta = np.divide(v[..., 2], size, out=np.zeros_like(size), where=size > 0)
    orientation = (w[0] - w[1]) / (w[0] + w[1])
    return (r_plus + r_minus) / 2.0 + orientation * cos_beta * (r_plus - r_minus) / 2.0


def path_averages(geometry, frequency, angles, polarization="TE"):
    """One scalar interior profile and its trapezoid path average per angle."""
    x = np.linspace(0.0, geometry.inner_length, sweep_samples(geometry, frequency))
    return [
        float(np.trapezoid(interior_amplitude(geometry, frequency, float(a), polarization, x), x) / (x[-1] - x[0]))
        for a in angles
    ]


def normal_draws(seed, sigma, count):
    """count normal draws: pair k of random.Random(seed) gives draws 2k and 2k + 1 by Box-Muller."""
    source = random.Random(seed)
    draws = []
    while len(draws) < count:
        u, v = source.random(), source.random()
        radius = sigma * math.sqrt(-2.0 * math.log1p(-u))
        draws += [radius * math.cos(TWO_PI * v), radius * math.sin(TWO_PI * v)]
    return draws[:count]


def scalar_sweep_tail(angles, delta_ats, field_amplitude, scales):
    """(samples as (angle, raw_ratio, gain_db) tuples, gap angles, deviation) one angle at a time."""
    pairs, gaps = [], []
    for angle, delta_at, scale in zip(angles, delta_ats, scales):
        if delta_at is None:
            gaps.append(angle)
        else:
            pairs.append((angle, delta_at / field_amplitude * scale))
    top = max(ratio for _, ratio in pairs)
    samples = [(angle, ratio, min(20.0 * math.log10(ratio / top), 0.0)) for angle, ratio in pairs]
    gains = [gain for _, _, gain in samples]
    return samples, gaps, max(gains) - min(gains)
