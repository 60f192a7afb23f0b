"""Breather construction by Newton continuation from the uncoupled limit.

The continuation fixes the orbit period (the seed's 2 pi / omega0(I)) and
follows the periodic orbit in the coupling strength.  The lattice is
reversible under (p, q, t) -> (-p, q, -t), so an orbit with p = 0 on every
site at t = 0 and at t = T/2 is T-periodic.  Newton shoots over half a
period: the unknowns are q(0), the residual is p(T/2).  The time shift along
the orbit moves p(0) off zero, so this square system needs no bordering; it
is singular at the full period's resonances, omega_phonon = k omega_b.  The
flows use an adaptive high-order integrator, so defects are meaningful down
to 1e-12; the tangent is the splitting scheme's exact one (symplectic to
round-off).  `Breather.defect` is the full-period return defect
||Phi_T(x0) - x0||, measured by the flow that tabulates the orbit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .integrate import tangent_steps
from .lattice import ExponentialWeight, LatticeState, norm, vector_field
from .potential import ActionAngleChart, PotentialSpec, action_of_point, h0_of_action, omega0


class ContinuationError(RuntimeError):
    """Newton failed to converge, its Jacobian became singular, or the orbit did not close."""


class LocalizationError(RuntimeError):
    """Too few sites above the noise floor to fit a localization rate."""


@dataclass
class Breather:
    I_label: float
    eps: float
    period: float
    x0: LatticeState                       # section point: p = 0 on every site
    orbit: list[tuple[float, LatticeState]]
    beta_hat: float
    fit_residual: float
    defect: float


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


def _tabulate(x: LatticeState, V: PotentialSpec, eps: float, T: float, n_phases: int):
    """Orbit at n_phases equally spaced times and the return defect, from one flow over [0, T]."""
    t_eval = np.append(np.linspace(0.0, T, n_phases, endpoint=False), T)
    y = flow_map(x, V, eps, T, t_eval=t_eval).y
    orbit = [(float(t), LatticeState(x.N, *np.split(y[:, i], 2)))
             for i, t in enumerate(t_eval[:-1])]
    return orbit, float(np.linalg.norm(y[:, -1] - np.concatenate([x.p, x.q])))


def anti_continuum_seed(chart: ActionAngleChart, I: float, N: int = 64) -> Breather:
    """Uncoupled breather: the central oscillator on its orbit, tabulated at 64
    phases, the rest at rest."""
    E = h0_of_action(chart, I)
    T = 2.0 * np.pi / omega0(chart, I)
    x0 = LatticeState.zeros(N)
    x0.q[x0.index(0)] = chart.q_max(E)
    orbit, defect = _tabulate(x0, chart.potential, 0.0, T, 64)
    return Breather(I, 0.0, T, x0, orbit, beta_hat=np.inf, fit_residual=0.0,
                    defect=defect)


def _newton_polish(x: LatticeState, V: PotentialSpec, eps: float, T: float,
                   tol: float, max_newton: int) -> tuple[LatticeState, float, int]:
    """Newton for p(T/2) = 0 in the unknowns q(0), with p(0) = 0 on every site.

    Returns the point, the l^2 norm of p(T/2) and the iterations taken.
    """
    n = 2 * x.N + 1
    cur = LatticeState(x.N, np.zeros(n), x.q.copy())
    for it in range(max_newton + 1):
        F = flow_map(cur, V, eps, 0.5 * T).y[:n, -1]
        defect = float(np.linalg.norm(F))
        if defect < tol:
            return cur, defect, it
        if it == max_newton:
            break
        # dp(T/2) / dq(0): the tangent of the n q-columns, (dp; dq) = (0; I)
        J = monodromy(cur, V, eps, 0.5 * T, np.eye(2 * n, n, -n))[:n]
        try:
            cur.q = cur.q - np.linalg.solve(J, F)
        except np.linalg.LinAlgError as exc:
            raise ContinuationError(
                f"singular half-period Jacobian at eps={eps} (resonance?)") from exc
    raise ContinuationError(
        f"Newton stalled at eps={eps}: defect {defect:.3e} after {max_newton} steps")


def continue_breather(seed: Breather, V: PotentialSpec, eps_target: float,
                      eps_step: float = 0.01, tol: float = 1e-11,
                      max_newton: int = 10, n_phases: int = 64,
                      chart: ActionAngleChart | None = None) -> Breather:
    """Path-follow the fixed-period breather family from the seed to eps_target.

    The stages run from seed.eps + eps_step up to eps_target; a target equal
    to seed.eps re-polishes the seed at its own coupling.  One flow over the
    full period tabulates the orbit and measures the return defect; the
    breather is returned only when that defect is below tol.
    """
    if eps_target < seed.eps:
        raise ValueError(f"eps_target={eps_target} is below the seed's eps={seed.eps}")
    T = seed.period
    x, eps_x = seed.x0.copy(), seed.eps
    x_prev = eps_prev = None
    eps_values = np.arange(seed.eps + eps_step, eps_target + 0.5 * eps_step, eps_step)
    if eps_values.size == 0 or abs(eps_values[-1] - eps_target) > 1e-12:
        eps_values = np.append(eps_values, eps_target)
    for eps in eps_values:
        # secant predictor: extrapolate the last two solutions linearly in eps
        # (2 x_1 - x_0 on a uniform grid); the first stage starts from the seed
        guess = x
        if x_prev is not None:
            guess = x + (x - x_prev).scaled((eps - eps_x) / (eps_x - eps_prev))
        x_prev, eps_prev = x, eps_x
        x, _, _ = _newton_polish(guess, V, float(eps), T, tol, max_newton)
        eps_x = float(eps)
    orbit, defect = _tabulate(x, V, eps_target, T, n_phases)
    if defect >= tol:
        raise ContinuationError(f"full-period return defect {defect:.3e} at "
                                f"eps={eps_target} is not below tol={tol:g}")
    beta_hat, resid = localization_rate(orbit)
    I_label = seed.I_label
    if chart is not None:
        I_label = action_of_point(chart, 0.0, float(x.q[x.index(0)]))
    return Breather(I_label, eps_target, T, x, orbit, beta_hat, resid, defect)


def orbit_defect(x: LatticeState, V: PotentialSpec, eps: float, T: float,
                 rtol: float = 1e-13) -> float:
    """l^2 periodicity defect of the point under the adaptive flow."""
    F = flow_map(x, V, eps, T, rtol=rtol).y[:, -1] - np.concatenate([x.p, x.q])
    return float(np.linalg.norm(F))


def localization_rate(orbit: list[tuple[float, LatticeState]]) -> tuple[float, float]:
    """Exponential localization rate from max_t (|q_k| + |p_k|) against |k|.

    Returns (beta_hat, R^2 of the fit).  The uncoupled breather has no sites
    above the amplitude floor 1e-13 and reports the degenerate (inf, 0) case.
    """
    states = [s for _, s in orbit]
    amp = np.max([np.abs(s.q) + np.abs(s.p) for s in states], axis=0)
    ks = states[0].sites()
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
    for _, s in b.orbit:
        i0 = s.index(0)
        I = action_of_point(chart, float(s.p[i0]), float(s.q[i0]))
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
