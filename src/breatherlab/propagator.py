"""Exact linear propagation, decay measurement, and oscillatory-integral tools.

The linear chain is q'' = -B q with B = 1 - eps*Delta on the sites -N..N,
closed by the ghosts q_{+-(N+1)} = 0.  Skew data (p_{-k} = -p_k, q_{-k} = -q_k)
have q_0 = 0 and B keeps that symmetry, so their flow is exactly that of the
half chain k = 1..N with q_0 = q_{N+1} = 0, the Dirichlet chain.  Its modes
are sin(pi j k / (N+1)) with frequencies nu(pi j / (N+1)), j = 1..N, and the
orthonormal type-1 DST, its own inverse, maps onto them: ``_sine_spectrum``
and ``_from_spectrum`` are the one pair of transforms every propagation uses.

Also here: the dispersion relation nu(theta) = sqrt(1 + 4 eps sin^2(theta/2)),
stationary-phase interval splitting and slope measurement, the lattice
resolvent kernel with its limiting boundary values, and the space-time
inequality check ``sp_temp_check``.  The space-time (Strichartz-type) norms
themselves are ``lattice.SpaceTimeNorm``, which states their one convention.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from scipy.fft import dst

from .lattice import LatticeState, SpaceTimeNorm, _site_factors, check_skew, norm
from .potential import gauss_legendre


class SpectralCutError(ValueError):
    """Spectral parameter on the continuous-spectrum cut."""


class BoundaryWindowError(ValueError):
    """Requested fit window reaches past the boundary-safe time."""


def dispersion_frequency(eps: float, theta):
    """nu(theta) = sqrt(1 + 4 eps sin^2(theta/2)); band [1, sqrt(1+4 eps)]."""
    return np.sqrt(1.0 + 4.0 * eps * np.sin(0.5 * np.asarray(theta)) ** 2)


# ---------------------------------------------------------------------------
# the Dirichlet half chain's sine basis

def _dst1(x: np.ndarray) -> np.ndarray:
    """Orthonormal type-1 DST along the last axis: the sine basis, its own inverse."""
    return dst(x, type=1, norm="ortho", axis=-1)


def _sine_frequencies(N: int, eps: float) -> np.ndarray:
    """nu_j = nu(pi j / (N+1)) of the Dirichlet modes sin(pi j k / (N+1)), j = 1..N."""
    return dispersion_frequency(eps, np.pi * np.arange(1, N + 1) / (N + 1))


def _sine_spectrum(state: LatticeState) -> np.ndarray:
    """(p_hat, q_hat), shape (2, N): the half chain k = 1..N of a skew state in the sine basis.

    ValueError unless the state is skew-symmetric to 1e-12 of its l^2 norm.
    """
    if not check_skew(state, tol=1e-12 * max(1.0, norm(state, 2))):
        raise ValueError("datum is not skew-symmetric")
    return _dst1(np.stack((state.p[state.N + 1:], state.q[state.N + 1:])))


def _from_spectrum(N: int, ph: np.ndarray, qh: np.ndarray) -> LatticeState:
    """The skew whole-chain state whose half chain has the sine coefficients (ph, qh)."""
    p, q = _dst1(np.stack((ph, qh)))
    return LatticeState(N, *(np.concatenate((-x[::-1], [0.0], x)) for x in (p, q)))


def _rotate(ph, qh, nu, c, s):
    """S(t) on sine coefficients, given c = cos(nu t) and s = sin(nu t)."""
    return ph * c - qh * (nu * s), qh * c + ph * (s / nu)


def propagate_whole_chain(state: LatticeState, t: float, eps: float) -> LatticeState:
    """Closed-form flow of the uniform linear chain on skew-symmetric data.

    q_hat(t) = q_hat0 cos(nu t) + p_hat0 sin(nu t)/nu and
    p_hat(t) = p_hat0 cos(nu t) - q_hat0 nu sin(nu t).
    """
    nu = _sine_frequencies(state.N, eps)
    ph, qh = _sine_spectrum(state)
    return _from_spectrum(state.N, *_rotate(ph, qh, nu, np.cos(nu * t), np.sin(nu * t)))


# ---------------------------------------------------------------------------
# decay measurement

@dataclass
class DecayFit:
    slope: float
    intercept: float
    eps_t: np.ndarray
    values: np.ndarray
    window: tuple[float, float]


def measure_decay(state: LatticeState, eps: float, r_exp: float, s: float | None = None,
                  window: tuple[float, float] = (10.0, 300.0),
                  n_samples: int = 30) -> DecayFit:
    """Fit the slope of log ||S(t) xi|| against log(eps t) over the window, the
    norm ``norm(., r_exp, s)``.

    Needs 0 < lo < hi and at least two samples (ValueError otherwise), and
    rejects windows whose final time exceeds the boundary-safe horizon
    t < N/2 (conservative group-velocity guard).  The datum is transformed to
    the sine basis once; each sample is one rotation and one inverse transform.
    """
    lo, hi = window
    if not 0 < lo < hi:
        raise ValueError(f"the decay window needs 0 < lo < hi, got {lo:g}..{hi:g}")
    if n_samples < 2:
        raise ValueError(f"a slope needs at least 2 samples, got n_samples={n_samples}")
    t_max = hi / eps
    if t_max >= state.N / 2:
        raise BoundaryWindowError(
            f"window end t={t_max} reaches the boundary guard N/2={state.N / 2}"
        )
    ets = np.geomspace(lo, hi, n_samples)
    vals = np.empty(n_samples)
    nu = _sine_frequencies(state.N, eps)
    ph, qh = _sine_spectrum(state)
    for i, t in enumerate(ets / eps):
        moved = _from_spectrum(state.N, *_rotate(ph, qh, nu, np.cos(nu * t), np.sin(nu * t)))
        vals[i] = norm(moved, r_exp, s)
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
    lam^(-1/2); I2 a third-derivative (k=3) bound and lam^(-1/3).  The slopes
    need at least two lam values, and a given ``rho_grid`` must be uniform
    (ValueError otherwise): the integrals share one phase recurrence along it.
    """
    lam_grid = np.asarray(lam_grid, dtype=float)
    if lam_grid.size < 2:
        raise ValueError(f"a slope needs at least 2 lam values, got {lam_grid.size}")
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
    w_s = _site_factors(-s, ks)
    acc = SpaceTimeNorm(eps, 2.0)
    for t, st in zip(times, states):
        density = st.p ** 2 + st.q ** 2
        acc.add(float(t), float(np.max(w_s * np.sqrt(density))), density)
    lhs, rhs = acc.lq(), acc.weighted_mixed(ks, s_prime)
    const = float(np.sum(_site_factors(-2.0 * (s - s_prime), ks)))
    if rhs == 0.0:
        return lhs == 0.0, 0.0, const
    return bool(lhs <= np.sqrt(const) * rhs + 1e-12), float(lhs / rhs), const


def forced_evolution(times: np.ndarray, forcing: list[LatticeState],
                     eps: float) -> list[LatticeState]:
    """u(t_i) = integral_{t_0}^{t_i} S(t_i - tau) F(tau) d tau by trapezoid in tau.

    On the uniform grid of step h the trapezoid sum obeys
    u_i = S(h) (u_{i-1} + (h/2) F_{i-1}) + (h/2) F_i, carried in the sine basis:
    one forward and one inverse transform per sample, one rotation S(h) whose
    cos and sin are computed once, and working memory O(N) beyond the returned
    states.  Forcing samples must be skew-symmetric whole-chain states on a
    uniform time grid (ValueError otherwise); the first sample's state is zero.
    """
    times = np.asarray(times, dtype=float)
    steps = np.diff(times)
    if steps.size and not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("forced_evolution needs a uniform time grid")
    N, h = forcing[0].N, (steps[0] if steps.size else 0.0)
    nu = _sine_frequencies(N, eps)
    c, s = np.cos(nu * h), np.sin(nu * h)
    u, prev, out = np.zeros((2, N)), None, []
    for F in forcing:
        half = (0.5 * h) * _sine_spectrum(F)
        if prev is not None:
            u = np.stack(_rotate(*(u + prev), nu, c, s)) + half
        prev = half
        out.append(_from_spectrum(N, *u))
    return out
