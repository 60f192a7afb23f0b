"""Breathers by harmonic balance from the anti-continuum limit.

Member I is the periodic orbit at the uncoupled frequency omega0(I), each
site a cosine series q_k = sum_n a_kn cos(n omega t): the chain is
reversible, so an orbit with p = 0 on every site at t = 0 is even in t.  An
even V has an odd V', so q(t + T/2) = -q(t) passes to the residual; the
start has that symmetry and Newton keeps it, so only odd n are kept.  Any
other V keeps every n below ``_MODES``.

Newton solves the equations of motion on the harmonics at the fixed omega,
V'(q_k) collocated at ``_PHASES`` phases.  Its Jacobian is block-tridiagonal:
a dense harmonic block per site from V''(q_k(t)), -eps I between neighbours.
Block elimination over the sites solves every member at once, the members a
leading array axis.  It starts from the anti-continuum limit (MacKay & Aubry,
Nonlinearity 7, 1994), as Marin & Aubry do (Nonlinearity 9, 1996): site 0 at
q_max(E(I)) cos(omega t), the rest at rest.  A member must have its top
harmonic below 1e-13 of its largest, and a return defect ||Phi_T(x0) - x0||
below tol under the adaptive DOP853 flow, an integrator apart from the series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .integrate import tangent_steps
from .lattice import ExponentialWeight, LatticeState, coupling_force, norm, vector_field
from .potential import (ActionAngleChart, PotentialSpec, action_of_point, h0_of_action, omega0,
                        sample_orbit)

_MODES = 48             # the series keeps the harmonics n < _MODES: 24 odd ones for an even V
_PHASES = 128           # collocation phases, more than 2 n for every kept n
_TAIL = 1e-13           # the top harmonic must stay below this share of the largest


class ContinuationError(RuntimeError):
    """The series did not resolve the orbit, or the orbit did not close."""


class LocalizationError(RuntimeError):
    """Too few sites above the noise floor to fit a localization rate."""


@dataclass
class Breather:
    I_label: float
    eps: float
    period: float
    x0: LatticeState                       # section point: p = 0 on every site
    orbit: np.ndarray                      # (2, phases, sites): p and q at phi = 2 pi j / phases
    beta_hat: float
    fit_residual: float
    defect: float
    # q_k(t) = sum_n coeffs[k, n] cos(harmonics[n] 2 pi t / period); None for the seed
    harmonics: np.ndarray | None = None
    coeffs: np.ndarray | None = None


def flow_map(x: LatticeState, V: PotentialSpec, eps: float, T: float,
             rtol: float = 1e-13, t_eval=None):
    return solve_ivp(lambda _, y: vector_field(y, V, eps), (0.0, T),
                     np.concatenate([x.p, x.q]), method="DOP853", rtol=rtol, atol=1e-14,
                     t_eval=t_eval, dense_output=False)


def monodromy(x: LatticeState, V: PotentialSpec, eps: float, T: float,
              tangent: np.ndarray, dt: float = 0.01) -> np.ndarray:
    """Tangent map of the period-T flow applied to ``tangent``, by the splitting
    scheme's exact tangent.

    ``tangent`` stacks the initial tangent vectors as columns (dp; dq), 2n rows
    for the n = 2N + 1 sites; the identity gives the full monodromy matrix.
    Each rotation substep rotates (dp, dq) blocks; each kick adds
    tau (eps Delta - V''(q(t))) dq to dp with q(t) co-evolved, so the product
    is symplectic to round-off.  The state rides along as column 0 of the
    blocks P = [p | Dp] and Q = [q | Dq] (``integrate.tangent_steps``).
    """
    n = 2 * x.N + 1
    P = np.empty((n, tangent.shape[1] + 1))
    Q = np.empty_like(P)
    P[:, 0], Q[:, 0] = x.p, x.q
    P[:, 1:], Q[:, 1:] = tangent[:n], tangent[n:]
    steps = max(1, int(np.ceil(T / dt)))
    tangent_steps(P, Q, V, eps, T / steps, steps)
    return np.vstack([P[:, 1:], Q[:, 1:]])


def anti_continuum_seed(chart: ActionAngleChart, I: float, N: int = 64) -> Breather:
    """Uncoupled breather: the central oscillator on its orbit, sampled at 64
    phases by ``sample_orbit``, the rest at rest.  Its orbit is exact, so no
    return defect is measured (nan)."""
    orbit = np.zeros((2, 64, 2 * N + 1))
    _, orbit[0, :, N], orbit[1, :, N] = sample_orbit(chart, I, 64)
    x0 = LatticeState(N, np.zeros(2 * N + 1), orbit[1, 0])
    return Breather(I, 0.0, 2.0 * np.pi / omega0(chart, I), x0, orbit, beta_hat=np.inf,
                    fit_residual=0.0, defect=np.nan)


def _eliminate(D: np.ndarray, eps: float, F: np.ndarray) -> np.ndarray:
    """x with D_k x_k - eps (x_{k-1} + x_{k+1}) = F_k on the sites k, x = 0 past either end.

    D is (sites, members, H, H) and F (sites, members, H).  The forward sweep
    keeps G_k = B_k^{-1} and g_k = B_k^{-1} R_k, with B_k = D_k - eps^2 G_{k-1}
    and R_k = F_k + eps g_{k-1}; the back sweep is x_k = g_k + eps G_k x_{k+1}.
    """
    G, g = np.empty_like(D), np.empty_like(F)
    eye = np.broadcast_to(np.eye(D.shape[-1]), D.shape[1:])
    B, R = D[0], F[0]
    for k in range(len(D)):
        if k:
            B, R = D[k] - eps ** 2 * G[k - 1], F[k] + eps * g[k - 1]
        solved = np.linalg.solve(B, np.concatenate([eye, R[..., None]], axis=-1))
        G[k], g[k] = solved[..., :-1], solved[..., -1]
    for k in range(len(D) - 2, -1, -1):
        g[k] += eps * (G[k] @ g[k + 1][..., None])[..., 0]
    return g


def _harmonic_blocks(V: PotentialSpec, q: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The Newton Jacobian's harmonic blocks P diag(V''(q)) C, (sites, members,
    harmonics, harmonics), for q on the ``_PHASES`` phases: V'' collocated and
    projected back on the harmonics n.  Block entry (m, n') is
    (w_m / 2) (f_|m - n'| + f_(m + n')), with w the projection's weight (1 for
    m = 0, else 2) and f_k the mean of V''(q) cos(k phi) over the phases, so
    no product over the phase axis is formed."""
    phi = 2.0 * np.pi * np.arange(_PHASES) / _PHASES
    f = V.second_derivative(q) @ np.cos(np.outer(phi, np.arange(2 * n[-1] + 1))) / _PHASES
    D = f[..., np.abs(n[:, None] - n)]
    D += f[..., n[:, None] + n]
    D *= np.where(n == 0, 0.5, 1.0)[:, None]
    return D


def _harmonic_balance(V: PotentialSpec, omega: np.ndarray, q_max: np.ndarray, eps: float,
                      N: int) -> tuple[np.ndarray, np.ndarray]:
    """The harmonics n and the coefficients a (sites, members, n), member m at
    frequency omega[m] from q_max[m] cos(omega t) on site 0.  Newton stops once
    no member's step exceeds 1e-13 of its largest coefficient, or after 20
    steps; the caller's checks judge the result."""
    n = np.arange(_MODES)
    if all(m % 2 == 0 for m, _ in V.coefficients):
        n = n[1::2]
    C = np.cos(np.outer(2.0 * np.pi * np.arange(_PHASES) / _PHASES, n))  # values on the phases
    P = np.where(n == 0, 1.0, 2.0)[:, None] / _PHASES * C.T              # and back to harmonics
    L = 1.0 - (omega[:, None] * n) ** 2                  # d^2/dt^2 + 1 on cos(n omega t)
    a = np.zeros((2 * N + 1, omega.size, n.size))
    a[N][:, n == 1] = q_max[:, None]
    diagonal = np.eye(n.size) * (L + 2.0 * eps)[..., None]
    for _ in range(20):
        q = a @ C.T
        F = L * a + V.derivative(q) @ P.T - eps * coupling_force(a)
        D = _harmonic_blocks(V, q, n)
        D += diagonal
        da = _eliminate(D, eps, F)
        a -= da
        if np.all(np.max(np.abs(da), axis=(0, 2)) <= 1e-13 * np.max(np.abs(a), axis=(0, 2))):
            break
    return n, a


def continue_breather(chart: ActionAngleChart, I_values, eps: float, N: int,
                      tol: float = 1e-11, n_phases: int = 64) -> list[Breather]:
    """The breathers of labels I_values on the sites -N..N at coupling eps, by
    one harmonic-balance Newton, each with its orbit at n_phases phases.

    Raises ValueError, before any Newton step, for a member whose omega0(I) is
    not above the phonon band's top sqrt(1 + 4 eps), and ContinuationError,
    naming the member, when its top harmonic is not below 1e-13 of its largest
    or its return defect is not below tol.
    """
    V = chart.potential
    I_values = [float(I) for I in I_values]
    omega = np.array([omega0(chart, I) for I in I_values])
    edge = np.sqrt(1.0 + 4.0 * eps)
    for I, w in zip(I_values, omega):
        if w <= edge:
            raise ValueError(
                f"member I={I:g} has omega0(I)={w:.6g}, in the phonon band, whose top is sqrt(1 + "
                f"4 eps)={edge:.6g} at eps={eps:g}: no localized orbit has that frequency")
    q_max = np.array([chart.q_max(h0_of_action(chart, I)) for I in I_values])
    n, a = _harmonic_balance(V, omega, q_max, eps, N)
    phases = 2.0 * np.pi * np.arange(n_phases) / n_phases
    cos, sin = np.cos(np.outer(phases, n)), np.sin(np.outer(phases, n))
    breathers = []
    for m, I in enumerate(I_values):
        coeffs = a[:, m]
        tail = np.max(np.abs(coeffs[:, -1])) / np.max(np.abs(coeffs))
        if not tail < _TAIL:        # also when Newton left the finite range
            raise ContinuationError(f"member I={I:g}: harmonic {n[-1]} is {tail:.3e} of the "
                                    f"largest, not below {_TAIL:g}")
        T = 2.0 * np.pi / omega[m]
        orbit = np.stack([-(sin * (omega[m] * n)) @ coeffs.T, cos @ coeffs.T])
        x0 = LatticeState(N, np.zeros(2 * N + 1), orbit[1, 0])
        defect = orbit_defect(x0, V, eps, T)
        if defect >= tol:
            raise ContinuationError(f"member I={I:g}: full-period return defect {defect:.3e} "
                                    f"at eps={eps:g} is not below tol={tol:g}")
        beta_hat, resid = localization_rate(orbit)
        breathers.append(Breather(I, eps, T, x0, orbit, beta_hat, resid, defect, n, coeffs))
    return breathers


def orbit_defect(x: LatticeState, V: PotentialSpec, eps: float, T: float,
                 rtol: float = 1e-13) -> float:
    """l^2 periodicity defect of the point under the adaptive flow."""
    F = flow_map(x, V, eps, T, rtol=rtol).y[:, -1] - np.concatenate([x.p, x.q])
    return float(np.linalg.norm(F))


def localization_rate(orbit: np.ndarray) -> tuple[float, float]:
    """Exponential localization rate from max_t (|q_k| + |p_k|) against |k|.

    Returns (beta_hat, R^2 of the fit).  The uncoupled breather has no sites
    above the amplitude floor 1e-13 and reports the degenerate (inf, 0) case.
    """
    amp = np.max(np.abs(orbit[0]) + np.abs(orbit[1]), axis=0)
    ks = np.arange(amp.size) - amp.size // 2
    mask = (np.abs(ks) >= 1) & (amp > 1e-13)
    if np.count_nonzero(mask) == 0:
        return np.inf, 0.0
    if np.count_nonzero(mask) < 3:
        raise LocalizationError("fewer than 3 sites above the amplitude floor")
    xs = np.abs(ks[mask]).astype(float)
    ys = np.log(amp[mask])
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(-slope), float(r2)


def distance_to_unperturbed(b: Breather, chart: ActionAngleChart,
                            beta: float = 1.0) -> float:
    """d_+ distance from the breather orbit to the uncoupled family at the same label.

    Each orbit point is converted to (I, alpha, xi) via the central-site
    chart, xi being the point with its central site zeroed; the unperturbed
    family at the same label covers every phase with xi = 0, so the pointwise
    distance is max(|I - I_label|, ||xi||_+), and the orbit-to-family distance
    is the minimum over the sampled phases.
    """
    w = ExponentialWeight(beta, +1)
    per_point = []
    for p, q in zip(*b.orbit):
        s = LatticeState(b.x0.N, p, q)
        I = action_of_point(chart, float(p[s.N]), float(q[s.N]))
        per_point.append(max(abs(I - b.I_label), norm(s.transverse(), 2, w)))
    return min(per_point)


@dataclass
class FloquetResult:
    eigenvalues: np.ndarray
    trivial_pair_error: float
    max_modulus_excess: float


def floquet_spectrum(b: Breather, V: PotentialSpec, dt: float = 0.005) -> FloquetResult:
    """Monodromy spectrum with the trivial pair singled out.

    The pair at 1 sits in a Jordan block, so its numerical splitting scales
    like the square root of the monodromy error and is reported separately;
    the modulus excess is taken over the remaining (stability-relevant)
    eigenvalues.
    """
    M = monodromy(b.x0, V, b.eps, b.period, np.eye(2 * b.x0.q.size), dt=dt)
    eigs = np.linalg.eigvals(M)
    order = np.argsort(np.abs(eigs - 1.0))
    trivial_err = float(np.max(np.abs(eigs[order[:2]] - 1.0)))
    rest = eigs[order[2:]]
    excess = float(np.max(np.abs(rest)) - 1.0) if rest.size else 0.0
    return FloquetResult(eigs[np.argsort(-np.abs(eigs))], trivial_err, excess)
