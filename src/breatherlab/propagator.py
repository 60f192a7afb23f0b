"""Exact linear propagation, decay measurement, and oscillatory-integral tools.

The linear chain is q'' = -B q with B = 1 - eps*Delta on the sites -N..N,
closed by the ghosts q_{+-(N+1)} = 0.  Skew data (p_{-k} = -p_k, q_{-k} = -q_k)
have q_0 = 0 and B keeps that symmetry, so their flow is exactly that of the
half chain k = 1..N with q_0 = q_{N+1} = 0, the Dirichlet chain.  Its modes
are sin(pi j k / (N+1)) with frequencies nu(pi j / (N+1)), j = 1..N, and the
orthonormal type-1 DST, its own inverse, maps onto them.  Every propagation is
the one batched flow S(t): ``_modes`` transforms a stack of states, ``_flow``
moves each by its own time, and ``_states`` transforms them back.

The flow runs on the light cone: a Dirichlet chain of the M <= N sites that
``_cone`` finds the flow can reach, with exact zeros past it.  Data supported
on k <= K reach site K + r only through r hops of the coupling, so with
omega = sqrt(1 + 2 eps) and x = 2 eps t / omega, the cut chain's S(tau) differs
from the full chain's by at most (omega / 2) sum_{n > M - K} x^n / n! of the
datum's l^2 norm for every |tau| <= t.  M is the shortest cut at which that is
below 2^-104, rounded up to a fast transform length; data that fill the chain
keep M = N.

Also here: the dispersion relation nu(theta) = sqrt(1 + 4 eps sin^2(theta/2)),
stationary-phase interval splitting and slope measurement, the lattice
resolvent kernel with its limiting boundary values, and the space-time
inequality check ``sp_temp_check``.  The space-time (Strichartz-type) norms
themselves are ``lattice.SpaceTimeNorm``, which states their one convention.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from scipy.fft import dst, next_fast_len

from .lattice import LatticeState, SpaceTimeNorm, _site_factors, _span, check_skew, norm
from .potential import gauss_legendre


class SpectralCutError(ValueError):
    """Spectral parameter on the continuous-spectrum cut."""


class BoundaryWindowError(ValueError):
    """Requested fit window reaches past the boundary-safe time."""


def dispersion_frequency(eps: float, theta):
    """nu(theta) = sqrt(1 + 4 eps sin^2(theta/2)); band [1, sqrt(1+4 eps)]."""
    return np.sqrt(1.0 + 4.0 * eps * np.sin(0.5 * np.asarray(theta)) ** 2)


# ---------------------------------------------------------------------------
# the Dirichlet half chain's sine basis, cut to the light cone

# share of the datum's l^2 norm that the flow on the cut chain may miss
_CUT_LOG_TOL = -104.0 * math.log(2.0)


def _cone(states: list[LatticeState], eps: float, t: float) -> int:
    """Number M <= N of half-chain sites that S(tau) of the states reaches for |tau| <= t.

    K is the last half-chain site where some state's p or q is nonzero, and |x|
    is a state's l^2 norm.  The bound, with omega = sqrt(1 + 2 eps) and
    T_n(y) = sum_{m >= n} y^m / m!:

    - In the norm |(p, omega q)| the on-site flow q'' = -omega^2 q is an
      isometry, and the hopping p' += eps (q_{k-1} + q_{k+1}) has norm at most
      2 eps / omega.  Each term of the Dyson series in the hopping moves the
      support by one site, so on a chain of M sites
      |q_M(s)| <= T_{M-K}(2 eps s / omega) |x|.
    - The chain of M sites misses a longer one's field only by the force
      eps q_M on p_{M+1}.  The longer chain carries that force with its energy
      |p|^2 + <q, B q> >= |p|^2 + |q|^2, so by Duhamel's formula the two flows
      differ by at most eps int_0^|tau| T_{M-K}(2 eps s / omega) ds |x|
      = (omega / 2) T_{M-K+1}(2 eps |tau| / omega) |x|.

    With T_n(y) <= y^n / n! / (1 - y / (n + 1)) for n + 1 > y, the smallest n at
    which (omega / 2) T_n is below 2^-104 sets M = K + n - 1.  M is then rounded
    up so that the DST's transform length 2 (M + 1) is fast, and cut to N.

    ValueError for a non-finite eps, a negative one, or a non-finite t.
    """
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"the coupling must be finite and at least 0, got eps={eps!r}")
    if not math.isfinite(t):
        raise ValueError(f"the time must be finite, got t={t!r}")
    N = states[0].N
    K = max(_span((st.p[N + 1:] != 0.0) | (st.q[N + 1:] != 0.0)).stop for st in states)
    omega = math.sqrt(1.0 + 2.0 * eps)
    x = 2.0 * eps * abs(t) / omega
    n = 1
    if x > 0.0:
        def below(n):
            return (math.log(0.5 * omega) + n * math.log(x) - math.lgamma(n + 1.0)
                    - math.log1p(-x / (n + 1.0))) <= _CUT_LOG_TOL

        # below(n) holds from n = e^2 x + 73 + ln(omega) on, where x^n / n! <= e^-n,
        # and from n = N - K + 1 on the cut is the whole chain
        top = min(N - K + 1, math.e ** 2 * x + 73.0 + math.log(omega))
        n = bisect_left(range(math.ceil(top)), True, lo=math.floor(min(x, top)) + 1, key=below)
    return min(N, next_fast_len(max(K + n, 2)) - 1)


def _dst1(x: np.ndarray) -> np.ndarray:
    """Orthonormal type-1 DST along the last axis: the sine basis, its own inverse."""
    return dst(x, type=1, norm="ortho", axis=-1)


def _sine_frequencies(M: int, eps: float) -> np.ndarray:
    """nu_j = nu(pi j / (M+1)) of the Dirichlet modes sin(pi j k / (M+1)), j = 1..M."""
    return dispersion_frequency(eps, np.pi * np.arange(1, M + 1) / (M + 1))


def _modes(states: list[LatticeState], M: int) -> np.ndarray:
    """(states, 2, M): (p_hat, q_hat) of each skew state's sites k = 1..M in the sine
    basis of the Dirichlet chain of M sites.  ValueError unless each state is
    skew-symmetric to 1e-12 of its l^2 norm."""
    N = states[0].N
    half = np.empty((len(states), 2, M))
    for st, row in zip(states, half):
        # tol = 1e-12 max(1, |st|_2): the norm is needed only past the floor 1e-12
        if not (check_skew(st, tol=1e-12) or check_skew(st, tol=1e-12 * norm(st, 2))):
            raise ValueError("datum is not skew-symmetric")
        row[0], row[1] = st.p[N + 1:N + 1 + M], st.q[N + 1:N + 1 + M]
    return _dst1(half)


def _flow(modes: np.ndarray, nu: np.ndarray, t) -> np.ndarray:
    """S(t) on sine coefficients (..., 2, M), state i moved by t[i]:
    q_hat(t) = q_hat cos(nu t) + p_hat sin(nu t) / nu and
    p_hat(t) = p_hat cos(nu t) - q_hat nu sin(nu t).  A single state broadcasts
    over the times."""
    phase = np.multiply.outer(t, nu)
    c, s = np.cos(phase), np.sin(phase)
    ph, qh = modes[..., 0, :], modes[..., 1, :]
    return np.stack((ph * c - qh * (nu * s), qh * c + ph * (s / nu)), axis=-2)


def _states(N: int, modes: np.ndarray):
    """The skew states on the sites -N..N whose sites k = 1..M have the sine
    coefficients (states, 2, M) of the Dirichlet chain of M sites, and 0 past them.
    Each is made as it is read, so a reader that drops it lends its memory to the next."""
    M = modes.shape[-1]
    for x in _dst1(modes):
        whole = np.zeros((2, 2 * N + 1))
        whole[:, N + 1:N + 1 + M] = x
        whole[:, N - M:N] = -x[:, ::-1]
        yield LatticeState(N, *whole)


def propagate_whole_chain(state: LatticeState, t: float, eps: float) -> LatticeState:
    """S(t) state: the closed-form flow of the uniform linear chain on skew data, one
    transform each way on the ``_cone`` cut.

    ValueError for a non-finite eps, a negative one, or a non-finite t.
    """
    M = _cone([state], eps, t)
    return next(_states(state.N, _flow(_modes([state], M), _sine_frequencies(M, eps), t)))


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

    Needs 0 < lo < hi, at least two samples and a finite eps > 0 (ValueError
    otherwise), and rejects windows whose final time exceeds the boundary-safe
    horizon t < N/2 (conservative group-velocity guard).  The datum is
    transformed once, on the ``_cone`` cut for t up to the window's end, and
    moved to every sample time as one batch.
    """
    lo, hi = window
    if not 0 < lo < hi:
        raise ValueError(f"the decay window needs 0 < lo < hi, got {lo:g}..{hi:g}")
    if n_samples < 2:
        raise ValueError(f"a slope needs at least 2 samples, got n_samples={n_samples}")
    if not 0.0 < eps < math.inf:
        raise ValueError(f"the decay window is in eps t, so eps must be finite and positive, "
                         f"got eps={eps!r}")
    t_max = hi / eps
    if t_max >= state.N / 2:
        raise BoundaryWindowError(
            f"window end t={t_max} reaches the boundary guard N/2={state.N / 2}"
        )
    ets = np.geomspace(lo, hi, n_samples)
    M = _cone([state], eps, t_max)
    moved = _states(state.N, _flow(_modes([state], M), _sine_frequencies(M, eps), ets / eps))
    vals = np.array([norm(x, r_exp, s) for x in moved])
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

    With the times counted from t_0, the step h of the uniform grid and
    G_j = S(-t_j) F_j, the trapezoid sum is the closed form
    u_i = S(t_i) (h sum_{j <= i} G_j - (h/2) (G_0 + G_i)): one cumulative sum
    over the samples in the sine basis of the ``_cone`` cut for the union of
    the forcing supports over the grid's span, with one batch of transforms
    each way.  Forcing samples must be skew-symmetric whole-chain states on a
    uniform time grid (ValueError otherwise); the first sample's state is zero.
    ValueError for a non-finite eps, a negative one, or a non-finite span
    t_last - t_0, and one that names the first unpaired sample or the first
    sample on another chain size than sample 0's.
    """
    times = np.asarray(times, dtype=float)
    if len(times) != len(forcing):
        raise ValueError(f"forced_evolution needs one time per forcing sample, got {len(times)} "
                         f"times and {len(forcing)} samples: sample {min(len(times), len(forcing))} "
                         f"is unpaired")
    for i, F in enumerate(forcing):
        if F.N != forcing[0].N:
            raise ValueError(f"forcing sample {i} is on N = {F.N}, sample 0 on N = {forcing[0].N}")
    M = _cone(forcing, eps, float(times[-1] - times[0]))
    steps = np.diff(times)
    if steps.size and not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("forced_evolution needs a uniform time grid")
    h = steps[0] if steps.size else 0.0
    nu, t = _sine_frequencies(M, eps), times - times[0]
    u = _flow(_modes(forcing, M), nu, -t)                  # G_j = S(-t_j) F_j
    u = h * (np.cumsum(u, axis=0) - 0.5 * (u[0] + u))      # S(-t_i) u_i; frees the G batch
    return list(_states(forcing[0].N, _flow(u, nu, t)))
