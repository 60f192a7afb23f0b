"""Exact linear propagation, decay measurement, and oscillatory-integral tools.

The linearized chain is solved exactly in Fourier space on the periodic
extension of size 2N+2; skew-symmetric data make that extension odd, which is
identical to the Dirichlet-closed finite chain, so the propagator agrees with
direct time integration to machine precision until nothing at all (there is
no boundary mismatch, only wrap-around once a front crosses the ghost sites).
Every state is the one lattice layout, sites -N..N.  The transverse variable
xi of the pinned linear system is a state whose central site is zero;
``propagate_pinned`` and ``modified_energy`` reject any other datum.

Also here: the dispersion relation nu(theta) = sqrt(1 + 4 eps sin^2(theta/2)),
stationary-phase interval splitting and slope measurement, the lattice
resolvent kernel with its limiting boundary values, the Puiseux leading-term
check, and the space-time inequality check ``sp_temp_check``.  The space-time
(Strichartz-type) norms themselves are ``lattice.SpaceTimeNorm``, which states
their one convention.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .lattice import (LatticeState, PolynomialWeight, SpaceTimeNorm, WeightSpec,
                      _site_factors, check_skew, norm)
from .potential import QuadratureError, gauss_legendre


class SpectralCutError(ValueError):
    """Spectral parameter on the continuous-spectrum cut."""


class BoundaryWindowError(ValueError):
    """Requested fit window reaches past the boundary-safe time."""


def dispersion_frequency(eps: float, theta):
    """nu(theta) = sqrt(1 + 4 eps sin^2(theta/2)); band [1, sqrt(1+4 eps)]."""
    return np.sqrt(1.0 + 4.0 * eps * np.sin(0.5 * np.asarray(theta)) ** 2)


# ---------------------------------------------------------------------------
# periodic ring embedding (size P = 2N+2; ghost at index N+1 stays zero)

def _ring_thetas(P: int) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(P)


def state_to_ring(state: LatticeState) -> tuple[np.ndarray, np.ndarray]:
    N = state.N
    P = 2 * N + 2
    qr = np.zeros(P)
    pr = np.zeros(P)
    ks = state.sites()
    idx = np.where(ks >= 0, ks, ks + P)
    qr[idx] = state.q
    pr[idx] = state.p
    return pr, qr


def ring_to_state(pr: np.ndarray, qr: np.ndarray) -> LatticeState:
    P = pr.size
    N = P // 2 - 1
    ks = np.arange(-N, N + 1)
    idx = np.where(ks >= 0, ks, ks + P)
    return LatticeState(N, pr[idx], qr[idx])


def propagate_whole_chain(state: LatticeState, t: float, eps: float) -> LatticeState:
    """Closed-form flow of the uniform linear chain on skew-symmetric data.

    q_hat(t) = q_hat0 cos(nu t) + p_hat0 sin(nu t)/nu and
    p_hat(t) = p_hat0 cos(nu t) - q_hat0 nu sin(nu t).
    """
    if not check_skew(state, tol=1e-12 * max(1.0, norm(state, 2))):
        raise ValueError("datum is not skew-symmetric")
    pr, qr = state_to_ring(state)
    nu = dispersion_frequency(eps, _ring_thetas(pr.size))
    ph, qh = _rotate(np.fft.fft(pr), np.fft.fft(qr), nu, np.cos(nu * t), np.sin(nu * t))
    return ring_to_state(np.fft.ifft(ph).real, np.fft.ifft(qh).real)


def _rotate(ph, qh, nu, c, s):
    """S(t) on Fourier coefficients, given c = cos(nu t) and s = sin(nu t)."""
    return ph * c - qh * (nu * s), qh * c + ph * (s / nu)


def _check_site0_zero(xi: LatticeState):
    """ValueError unless xi holds site 0 at zero, as the pinned system does."""
    p0, q0 = xi.p[xi.N], xi.q[xi.N]
    if p0 != 0.0 or q0 != 0.0:
        raise ValueError(f"the pinned system holds site 0 at zero; got p_0 = {p0:g}, "
                         f"q_0 = {q0:g}")


def propagate_pinned(xi: LatticeState, t: float, eps: float) -> LatticeState:
    """Flow of the transverse linear system with the central site pinned to zero.

    Each half chain is extended to a skew-symmetric whole-chain sequence,
    propagated by the closed-form flow, and restricted back; the halves are
    decoupled, so this realizes the pinned evolution exactly.
    """
    _check_site0_zero(xi)
    out = LatticeState.zeros(xi.N)
    ks = xi.sites()
    for half in (ks < 0, ks > 0):
        p, q = np.where(half, xi.p, 0.0), np.where(half, xi.q, 0.0)
        moved = propagate_whole_chain(LatticeState(xi.N, p - p[::-1], q - q[::-1]), t, eps)
        out.p[half], out.q[half] = moved.p[half], moved.q[half]
    return out


def modified_energy(xi: LatticeState, eps: float) -> float:
    """<p;p> + <q;Bq> with B = 1 - eps*Delta and the central site held at zero.

    An exact invariant of the pinned flow; used by the conservation tests.
    With q_0 = 0 the row of B at site 0 drops out of <q;Bq>.
    """
    _check_site0_zero(xi)
    qp = np.concatenate(([0.0], xi.q, [0.0]))
    lap = qp[2:] + qp[:-2] - 2.0 * qp[1:-1]
    return float(np.dot(xi.p, xi.p) + np.dot(xi.q, xi.q - eps * lap))


# ---------------------------------------------------------------------------
# decay measurement

@dataclass
class DecayFit:
    slope: float
    intercept: float
    eps_t: np.ndarray
    values: np.ndarray
    window: tuple[float, float]


def measure_decay(state: LatticeState, eps: float, r_exp: float,
                  weight: WeightSpec | None = None,
                  window: tuple[float, float] = (10.0, 300.0),
                  n_samples: int = 30) -> DecayFit:
    """Fit the slope of log ||S(t) xi|| against log(eps t) over the window.

    Rejects windows whose final time exceeds the boundary-safe horizon
    t < N/2 (conservative group-velocity guard).
    """
    lo, hi = window
    t_max = hi / eps
    if t_max >= state.N / 2:
        raise BoundaryWindowError(
            f"window end t={t_max} reaches the boundary guard N/2={state.N / 2}"
        )
    ets = np.geomspace(lo, hi, n_samples)
    vals = np.empty(n_samples)
    for i, et in enumerate(ets):
        moved = propagate_whole_chain(state, et / eps, eps)
        vals[i] = norm(moved, r_exp, weight)
    slope, intercept = np.polyfit(np.log(ets), np.log(vals), 1)
    return DecayFit(float(slope), float(intercept), ets, vals, window)


# ---------------------------------------------------------------------------
# oscillatory integrals and the stationary-phase splitting

def phase_intervals(split: str = "consistent") -> dict[str, list[tuple[float, float]]]:
    """Stationary-phase splitting of [0, pi] into the k=2 region I1 and k=3 region I2.

    "consistent" places the boundary at pi/4 multiples so that |nu''| is
    bounded below on I1 and |nu'''| on I2 for the dispersion relation used
    here (nu'' ~ eps cos(theta), inflection near pi/2).  "paper" is the
    historical pi/8-based splitting, kept for comparison; its middle I1 piece
    contains the inflection point and the measured exponents swap.
    """
    pi = np.pi
    if split == "consistent":
        return {"I1": [(0.0, pi / 4), (3 * pi / 4, pi)],
                "I2": [(pi / 4, 3 * pi / 4)]}
    if split == "paper":
        return {"I1": [(0.0, pi / 8), (3 * pi / 8, 5 * pi / 8), (7 * pi / 8, pi)],
                "I2": [(pi / 8, 3 * pi / 8), (5 * pi / 8, 7 * pi / 8)]}
    raise ValueError(f"unknown split {split!r}")


def _resolve_interval(interval, split: str) -> list[tuple[float, float]]:
    if isinstance(interval, str):
        if interval == "full":
            return [(-np.pi, np.pi)]
        return phase_intervals(split)[interval]
    return [tuple(map(float, piece)) for piece in interval]


# order of every Gauss-Legendre panel in the oscillatory quadrature
_PANEL_ORDER = 128


def _panel_rule(a: float, b: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [a, b] with at least n_nodes nodes.

    ceil(n_nodes / p) equal panels of the fixed order p = _PANEL_ORDER, so the
    node count can grow with lam without a new (dense) Legendre eigenproblem.
    """
    x, w = gauss_legendre(_PANEL_ORDER)
    edges = np.linspace(a, b, max(1, -(-n_nodes // _PANEL_ORDER)) + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _osc_piece(lam: float, rho: float, eps: float, a: float, b: float,
               n_nodes: int) -> complex:
    th, w = _panel_rule(a, b, n_nodes)
    return complex(np.dot(w, np.exp(1j * lam * (dispersion_frequency(eps, th) + rho * th))))


def oscillatory_integral(rho: float, lam: float, eps: float, interval="full",
                         split: str = "consistent", rtol: float = 1e-10,
                         n_nodes: int | None = None) -> complex:
    """integral of e^{i lam (nu(theta) + rho theta)} over the interval pieces.

    Node count scales with lam; with n_nodes unset the count doubles until two
    successive evaluations agree to rtol.
    """
    pieces = _resolve_interval(interval, split)
    length = sum(b - a for a, b in pieces)
    if lam == 0.0:
        return complex(length)

    def total(n):
        return sum(_osc_piece(lam, rho, eps, a, b, max(8, int(n * (b - a) / length)))
                   for a, b in pieces)

    if n_nodes is not None:
        return total(n_nodes)
    n = max(64, int(12.0 * abs(lam) * (abs(rho) + 4.0 * abs(eps)) / (2.0 * np.pi)) + 64)
    prev = total(n)
    for _ in range(12):
        n *= 2
        cur = total(n)
        if abs(cur - prev) <= rtol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureError(f"oscillatory integral did not converge at lam={lam}")


def _osc_on_rho_grid(lam: float, eps: float, a: float, b: float,
                     rho_grid: np.ndarray) -> np.ndarray:
    """integral over [a, b] for every rho in a uniform grid, sharing the nu phase."""
    n = max(256, int(16.0 * abs(lam) * (np.max(np.abs(rho_grid)) + 4.0 * eps)
                     * (b - a) / (2.0 * np.pi)) + 64)
    th, w = _panel_rule(a, b, n)
    base = w * np.exp(1j * lam * dispersion_frequency(eps, th))
    dr = rho_grid[1] - rho_grid[0] if rho_grid.size > 1 else 0.0
    # e^{i lam rho th} built incrementally along the uniform rho grid
    ratio = np.exp(1j * lam * dr * th)
    cur = np.exp(1j * lam * rho_grid[0] * th)
    vals = np.empty(rho_grid.size, dtype=complex)
    for r in range(rho_grid.size):
        vals[r] = np.dot(base, cur)
        cur *= ratio
    return vals


def _sup_over_rho(lam: float, eps: float, pieces, rho_grid: np.ndarray) -> float:
    """sup over the rho grid of |sum over interval pieces of the integral|."""
    acc = np.zeros(rho_grid.size, dtype=complex)
    for a, b in pieces:
        acc += _osc_on_rho_grid(lam, eps, a, b, rho_grid)
    return float(np.max(np.abs(acc)))


@dataclass
class VdcResult:
    lam_grid: np.ndarray
    sup_I1: np.ndarray
    sup_I2: np.ndarray
    slope_I1: float
    slope_I2: float
    split: str


def van_der_corput_check(eps: float, lam_grid, rho_grid=None,
                         split: str = "consistent") -> VdcResult:
    """Measured sup-over-rho decay exponents of the oscillatory integral.

    I1 carries a second-derivative (k=2) lower bound and should decay like
    lam^(-1/2); I2 a third-derivative (k=3) bound and lam^(-1/3).  A given
    ``rho_grid`` must be uniform (ValueError otherwise): the integrals share
    one phase recurrence along it.
    """
    lam_grid = np.asarray(lam_grid, dtype=float)
    if rho_grid is None:
        # stationary points on [0, pi] need rho = -nu'(theta); pad both sides
        vmax = float(np.max(np.abs(_group_velocity(eps, np.linspace(0, np.pi, 512)))))
        rho_grid = np.linspace(-1.5 * vmax, 0.25 * vmax, 181)
    rho_grid = np.asarray(rho_grid, dtype=float)
    steps = np.diff(rho_grid)
    if steps.size and not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("van_der_corput_check needs a uniform rho grid")
    intervals = phase_intervals(split)
    sups = {}
    for name, pieces in intervals.items():
        sups[name] = np.array([_sup_over_rho(lam, eps, pieces, rho_grid)
                               for lam in lam_grid])
    s1 = float(np.polyfit(np.log(lam_grid), np.log(sups["I1"]), 1)[0])
    s2 = float(np.polyfit(np.log(lam_grid), np.log(sups["I2"]), 1)[0])
    return VdcResult(lam_grid, sups["I1"], sups["I2"], s1, s2, split)


def _group_velocity(eps: float, theta):
    th = np.asarray(theta)
    return eps * np.sin(th) / dispersion_frequency(eps, th)


# ---------------------------------------------------------------------------
# lattice resolvent

def _theta_of(nu_t: complex) -> complex:
    """Solution of 2 - 2 cos(theta) = nu_t with -pi <= Re theta <= pi, Im theta < 0."""
    z = 1.0 - nu_t / 2.0
    th = cmath.acos(z)  # principal: Re in [0, pi]
    if th.imag > 0:
        th = -th
    if th.imag == 0:
        raise SpectralCutError(f"nu={nu_t} lies on the spectral cut [0, 4]")
    return th


def _theta_boundary(nu_t: float, side: int = +1) -> complex:
    """Limiting theta for nu_t on (0,4) approached from Im nu = side * 0+."""
    if not (0.0 < nu_t < 4.0):
        raise SpectralCutError(f"nu={nu_t} not inside the cut (0, 4)")
    a = float(np.arccos(1.0 - nu_t / 2.0))
    return complex(-side * a, 0.0)


def resolvent_kernel(nu_t: complex, j: int, k: int, boundary: int | None = None) -> complex:
    """Kernel of (-Delta - nu)^{-1} on the line: -i e^{-i theta |j-k|} / (2 sin theta).

    theta is the Im theta < 0 branch of 2 - 2 cos theta = nu; for nu on the cut
    pass boundary=+1 (or -1) for the limiting value from above (below).  The
    sign in the exponent makes the kernel decay geometrically with ratio
    |e^{-i theta}| < 1.
    """
    if boundary is None:
        th = _theta_of(complex(nu_t))
    else:
        th = _theta_boundary(float(np.real(nu_t)), boundary)
    return -1j * cmath.exp(-1j * th * abs(j - k)) / (2.0 * cmath.sin(th))


def resolvent_apply(nu_t: complex, ks: np.ndarray, x: np.ndarray,
                    out_ks: np.ndarray, boundary: int | None = None) -> np.ndarray:
    """Apply the resolvent kernel of -Delta to the sequence x supported on ks."""
    if boundary is None:
        th = _theta_of(complex(nu_t))
    else:
        th = _theta_boundary(float(np.real(nu_t)), boundary)
    amp = -1j / (2.0 * cmath.sin(th))
    dist = np.abs(out_ks[:, None] - np.asarray(ks)[None, :])
    return amp * (np.exp(-1j * th * dist) @ np.asarray(x, dtype=complex))


def resolvent_B_apply(nu: complex, eps: float, ks: np.ndarray, x: np.ndarray,
                      out_ks: np.ndarray) -> np.ndarray:
    """R_B(nu) = (1/eps) R_{-Delta}((nu - 1)/eps), B = 1 - eps Delta.

    Rejects nu on the transverse band [1, 1 + 4 eps].
    """
    zeta = (nu - 1.0) / eps
    if abs(np.imag(zeta)) == 0.0 and 0.0 <= np.real(zeta) <= 4.0:
        raise SpectralCutError(f"nu={nu} lies on the band [1, 1+4eps]")
    return resolvent_apply(zeta, ks, x, out_ks) / eps


@dataclass
class PuiseuxFit:
    slope: float
    nu_grid: np.ndarray
    errors: np.ndarray


def puiseux_leading_check(ks, vals, nu_grid, s: float = 2.0,
                          k_window: int = 4096) -> PuiseuxFit:
    """Error of the nu -> 0+ leading term of the boundary resolvent on skew data.

    [R^+ q]_k = -(1/2) sum_l |k - l| q_l + O(sqrt(nu)) in the <k>^{-s} weighted
    l^2 norm; returns the fitted slope of log(error) against log(nu).
    """
    ks = np.asarray(ks, dtype=int)
    vals = np.asarray(vals, dtype=float)
    if s <= 1.5:
        raise ValueError("need s > 3/2")
    lookup = dict(zip(ks.tolist(), vals.tolist()))
    for k, v in lookup.items():
        if lookup.get(-k) != -v:
            raise ValueError("sequence is not skew-symmetric")
    out_ks = np.arange(-k_window, k_window + 1)
    leading = -0.5 * (np.abs(out_ks[:, None] - ks[None, :]) @ vals)
    w = (1.0 + out_ks.astype(float) ** 2) ** (-s)
    nu_grid = np.asarray(nu_grid, dtype=float)
    errors = np.empty(nu_grid.size)
    for i, nt in enumerate(nu_grid):
        resolved = resolvent_apply(nt, ks, vals, out_ks, boundary=+1)
        errors[i] = np.sqrt(np.sum(w * np.abs(resolved - leading) ** 2))
    slope = float(np.polyfit(np.log(nu_grid), np.log(errors), 1)[0])
    return PuiseuxFit(slope, nu_grid, errors)


# ---------------------------------------------------------------------------
# space-time norms

def sp_temp_check(times: np.ndarray, states: list[LatticeState], s: float,
                  s_prime: float, eps: float = 1.0) -> tuple[bool, float, float]:
    """Check ||x||_{L^2_{eps t} l^inf_{-s}} <= sqrt(C) ||x||_{l^inf_{-s'} L^2_{eps t}}.

    C = sum_n <n>^{-2(s-s')} over the lattice sites; applied to the per-site
    modulus sqrt(p^2 + q^2).  Both sides are SpaceTimeNorm integrals with its
    weight <k>^{-s}.  Returns (holds, lhs/rhs ratio, C).
    """
    if s <= s_prime + 0.5:
        raise ValueError("need s > s' + 1/2")
    ks = states[0].sites()
    w_s = _site_factors(PolynomialWeight(-s), ks)
    acc = SpaceTimeNorm(eps, 2.0)
    for t, st in zip(times, states):
        density = st.p ** 2 + st.q ** 2
        acc.add(float(t), float(np.max(w_s * np.sqrt(density))), density)
    lhs, rhs = acc.lq(), acc.weighted_mixed(ks, s_prime)
    const = float(np.sum(_site_factors(PolynomialWeight(-2.0 * (s - s_prime)), ks)))
    if rhs == 0.0:
        return lhs == 0.0, 0.0, const
    return bool(lhs <= np.sqrt(const) * rhs + 1e-12), float(lhs / rhs), const


def forced_evolution(times: np.ndarray, forcing: list[LatticeState],
                     eps: float) -> list[LatticeState]:
    """u(t_i) = integral_{t_0}^{t_i} S(t_i - tau) F(tau) d tau by trapezoid in tau.

    Uses S(t_i - tau) = S(t_i) S(-tau): the trapezoid integral of S(-tau) F(tau)
    is carried forward in Fourier space and S(t_i) is applied once per sample,
    so the cost is O(n) propagations for n samples and the working memory
    O(P) beyond the returned states.  Forcing samples must be skew-symmetric
    whole-chain states on a uniform time grid (ValueError otherwise); the
    first sample's state is zero.
    """
    times = np.asarray(times, dtype=float)
    steps = np.diff(times)
    if steps.size and not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("forced_evolution needs a uniform time grid")
    P = 2 * forcing[0].N + 2
    nu = dispersion_frequency(eps, _ring_thetas(P))
    acc_p = np.zeros(P, dtype=complex)
    acc_q = np.zeros(P, dtype=complex)
    prev = None
    out = []
    for t, F in zip(times, forcing):
        pr, qr = state_to_ring(F)
        c, s = np.cos(nu * t), np.sin(nu * t)
        cur = _rotate(np.fft.fft(pr), np.fft.fft(qr), nu, c, -s)
        if prev is not None:
            acc_p += (0.5 * steps[0]) * (prev[0] + cur[0])
            acc_q += (0.5 * steps[0]) * (prev[1] + cur[1])
        prev = cur
        up, uq = _rotate(acc_p, acc_q, nu, c, s)
        out.append(ring_to_state(np.fft.ifft(up).real, np.fft.ifft(uq).real))
    return out
