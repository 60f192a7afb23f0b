"""Modulated-stability experiments around a breather of the family.

A perturbed breather is evolved with the splitting integrator while the
modulated action Ibar(t) is tracked by l^2-minimization over a smooth
interpolant x(I, phi) of the breather family: Gauss-Newton in (I, phi) from
the nearest tabulated (member, phase), so that the residual is orthogonal to
the family's tangent plane.  The run records the residual norms, the distance
to the moving family point in the configured norms, and the space-time
accumulations the dispersive theory bounds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .breather import continue_breather
from .csvio import write_table
from .integrate import BlowupError, check_stability, step_arrays
from .lattice import LatticeState, SpaceTimeNorm, hamiltonian, norm
from .potential import ActionAngleChart, PotentialSpec, max_action_gradient

# the space-time norm L^q_{eps t} l^r of the residual: (q, r) = (7, 14) is a
# Strichartz pair of the linear chain, whose l^inf decay is t^(-1/3), as q >= 6,
# r >= 2 and 1/q + 1/(3r) = 1/6 meets the admissibility bound 1/q + 1/(3r) <= 1/6
# (Stefanov & Kevrekidis, Nonlinearity 2005)
Q_EXP, R_EXP = 7, 14


class FamilyWindowError(RuntimeError):
    """The modulation fit left the tabulated family or did not converge."""


def _check_shape(shape: str):
    if shape not in ("localized", "uniform"):
        raise ValueError(f"unknown perturbation shape {shape!r}; use 'localized' or 'uniform'")


@dataclass
class ExperimentConfig:
    eps: float
    potential: PotentialSpec
    I_label: float
    N: int = 2048
    delta: float = 0.6
    mu: float | None = None            # defaults to eps**delta
    T: float | None = None             # defaults to 100/eps
    dt: float = 0.02
    seed: int = 1
    perturbation_shape: str = "localized"   # or "uniform"
    sample_stride: int = 50
    family_half_width: float = 0.02
    family_members: int = 9
    family_phases: int = 256
    family_window: int = 32
    N_family: int = 64
    weight_s: float = 3.0              # weighted_mixed's weight <k>^(-s); see SpaceTimeNorm

    def __post_init__(self):
        # each check fails on NaN, for which every comparison is false
        if not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be positive and finite, got eps={self.eps}")
        if not self.delta > 0.5:
            raise ValueError("need delta > 1/2")
        _check_shape(self.perturbation_shape)
        if self.mu is None:
            self.mu = self.eps ** self.delta
        if not self.mu >= 0:
            raise ValueError(f"mu is the kick's l^2 size, so at least 0; got {self.mu:g}")
        if not self.mu < self.eps ** 0.5:
            raise ValueError("mu must be below sqrt(eps) (mu < eps^delta, delta > 1/2)")
        if self.T is None:
            self.T = 100.0 / self.eps
        if not self.T < np.inf:
            raise ValueError(f"T must be finite, got T={self.T}")
        if self.sample_stride < 1:
            raise ValueError(f"sample_stride must be at least 1, got {self.sample_stride}")
        check_stability(self.dt, self.eps)
        if not self.T >= self.dt:
            raise ValueError(f"T = {self.T:g} is shorter than one step dt = {self.dt:g}")
        if not self.family_window <= self.N_family <= self.N:
            raise ValueError("need family_window <= N_family <= N, got "
                             f"{self.family_window}, {self.N_family}, {self.N}")
        # a run starts on the member at I_label: with an even count there is
        # none, and with fewer than 3 it is an end member, so that any kick
        # that lowers I leaves the family
        if self.family_members < 3:
            raise ValueError(f"family_members must be at least 3, got {self.family_members}")
        if self.family_members % 2 == 0:
            raise ValueError("family_members must be odd, so that a member sits at "
                             f"I_label; got {self.family_members}")


@dataclass
class BreatherFamily:
    """Tabulated family orbits and their smooth interpolant x(I, phi) on the window.

    x stacks (p, q) over window_sites.  In phi it is each member's own
    harmonic-balance series, cut to the harmonics above 1e-13 of the largest;
    in I it is the polynomial through the members.  ``orbits`` holds the same
    series at equally spaced phases, where the tracker starts its fit.
    """
    I_values: np.ndarray               # ascending, equispaced
    window_sites: np.ndarray           # site indices |k| <= window
    orbits: np.ndarray                 # (members, phases, 2 window): x at phi = 2 pi j / phases
    orbit_norm2: np.ndarray            # (members, phases)
    modes: np.ndarray                  # kept harmonics k
    coeffs: np.ndarray                 # (degree d, modes, 3 x 2 window): x, dx/dI, dx/dphi
                                       # = Re sum_{d,k} coeffs s^d e^(i k phi)
    sections: list[LatticeState]       # embedded at the experiment lattice size
    omega: np.ndarray
    N_big: int

    def point(self, I: float, phi: float) -> np.ndarray:
        """Rows x(I, phi), dx/dI and dx/dphi; s in [-1, 1] maps the I_values' span."""
        s = 2.0 * (I - self.I_values[0]) / (self.I_values[-1] - self.I_values[0]) - 1.0
        wave = np.exp(1j * phi * self.modes)
        return (s ** np.arange(self.I_values.size) @ (wave @ self.coeffs)).real.reshape(3, -1)


def _embed(state: LatticeState, N_big: int) -> LatticeState:
    out = LatticeState.zeros(N_big)
    sl = slice(N_big - state.N, N_big + state.N + 1)
    out.p[sl], out.q[sl] = state.p, state.q
    return out


def build_family(chart: ActionAngleChart, config: ExperimentConfig) -> BreatherFamily:
    """Solve the breather family over the action window and tabulate its orbits.

    Member m is the breather of fixed frequency omega0(I_m); one call of
    ``continue_breather`` solves them all.  Arrays are in ascending-I order.
    In phi the interpolant is each member's own series on the window,
    q = Re sum_n a_n e^(i n phi) and p = Re sum_n i n omega a_n e^(i n phi);
    its coefficients in powers of s solve the Vandermonde system of the
    members' series.
    """
    c = config
    I_values = np.linspace(c.I_label - c.family_half_width,
                           c.I_label + c.family_half_width, c.family_members)
    window = np.arange(-c.family_window, c.family_window + 1)
    members = continue_breather(chart, I_values, c.eps, c.N_family, n_phases=c.family_phases)
    idx = window + c.N_family
    orbits = np.array([np.concatenate(b.orbit[:, :, idx], axis=1) for b in members])
    omegas = np.array([2.0 * np.pi / b.period for b in members])
    harmonics = members[0].harmonics
    a = np.array([b.coeffs[idx].T for b in members])              # (members, harmonics, sites)
    spectrum = np.concatenate([1j * (omegas[:, None] * harmonics)[..., None] * a, a], axis=2)
    size = np.max(np.abs(spectrum), axis=(0, 2))
    keep = size > 1e-13 * size.max()
    modes = harmonics[keep]
    nodes = np.vander(np.linspace(-1.0, 1.0, c.family_members), increasing=True)
    poly = np.tensordot(np.linalg.inv(nodes), spectrum[:, keep], 1)   # by powers of s
    poly_I = np.zeros_like(poly)
    poly_I[:-1] = np.arange(1, c.family_members)[:, None, None] * poly[1:] / c.family_half_width
    coeffs = np.concatenate([poly, poly_I, 1j * modes[:, None] * poly], axis=2)
    return BreatherFamily(I_values, window, orbits, np.sum(orbits ** 2, axis=2), modes,
                          coeffs, [_embed(b.x0, c.N) for b in members], omegas, c.N)


def perturb(point: LatticeState, mu: float, shape: str = "localized",
            seed: int = 1) -> LatticeState:
    """Add a perturbation of exact l^2 size mu to the state."""
    _check_shape(shape)
    out = point.copy()
    if mu == 0.0:
        return out
    rng = np.random.default_rng(seed)
    ks = out.sites().astype(float)
    envelope = np.exp(-np.abs(ks) / 4.0) if shape == "localized" else np.ones_like(ks)
    dp = rng.standard_normal(ks.size) * envelope
    dq = rng.standard_normal(ks.size) * envelope
    size = np.sqrt(np.sum(dp ** 2) + np.sum(dq ** 2))
    out.p = out.p + (mu / size) * dp
    out.q = out.q + (mu / size) * dq
    return out


@dataclass
class TrackResult:
    I_bar: float
    phase: float
    dist2: float
    residual_p: np.ndarray
    residual_q: np.ndarray


def track_modulation(p: np.ndarray, q: np.ndarray, family: BreatherFamily,
                     N_big: int) -> TrackResult:
    """The family point x(I, phi) nearest the state on the window, in l^2.

    Gauss-Newton in (I, phi) from the nearest tabulated (member, phase), with
    Jacobian columns dx/dI and dx/dphi, until the next step, at the rate of
    the last two, would be below 1e-12; at the fit the residual is orthogonal
    to both.  Raises FamilyWindowError when the fit does not converge or ends
    outside [I_0, I_last].
    """
    W = family.window_sites.size
    sl = slice(N_big + family.window_sites[0], N_big + family.window_sites[-1] + 1)
    y = np.concatenate([p[sl], q[sl]])
    m, j = np.unravel_index(np.argmin(family.orbit_norm2 - 2.0 * (family.orbits @ y)),
                            family.orbit_norm2.shape)
    fit = np.array([family.I_values[m], 2.0 * np.pi * j / family.orbits.shape[1]])
    last = 0.0
    for _ in range(50):
        x, *J = family.point(*fit)
        (a, b), (_, c) = np.inner(J, J).tolist()        # the 2 x 2 normal equations
        g, h = np.inner(J, y - x).tolist()
        step = np.array([c * g - b * h, a * h - b * g]) / (a * c - b * b)
        fit += step
        size = abs(step).max()
        if size * size <= 1e-12 * last:
            break
        last = size
    else:
        raise FamilyWindowError(f"modulation fit did not converge (last step {step})")
    I_bar, phase = fit
    if not family.I_values[0] <= I_bar <= family.I_values[-1]:
        raise FamilyWindowError(f"modulation fit left the family (I={I_bar:.6g})")
    x += step @ J
    rp, rq = p.copy(), q.copy()
    rp[sl] -= x[:W]
    rq[sl] -= x[W:]
    dist2 = rp @ rp + rq @ rq
    return TrackResult(float(I_bar), float(phase % (2 * np.pi)), float(dist2), rp, rq)


@dataclass
class StabilityRecord:
    times: np.ndarray
    I_bar: np.ndarray
    phase: np.ndarray
    residual_l2: np.ndarray
    dist_lr: np.ndarray
    energy: np.ndarray
    mu: float
    eps: float
    # SpaceTimeNorm of the residual, trapezoid rule in eps dt over the samples:
    spacetime_lq_lr: float        # L^q_{eps t} l^r, (q, r) = (Q_EXP, R_EXP)
    weighted_mixed: float         # l^inf_{-s} L^2_{eps t}, weight <k>^(-s), s = weight_s
    I_drift: float
    cauchy_tails: list[tuple[float, float]]
    summary: dict


def run_stability(config: ExperimentConfig, chart: ActionAngleChart,
                  family: BreatherFamily | None = None) -> StabilityRecord:
    """Perturb, evolve, track; returns the full time series plus summaries.

    Raises FamilyWindowError up front, before any family is built, when the
    kick alone can carry the central action past the family's edge: to first
    order an l^2 kick of size mu moves I by up to mu max |grad I| on the
    I_label orbit.  Raises ValueError when the family was built for another
    lattice size than config.N.
    """
    c = config
    shift = c.mu * max_action_gradient(chart, c.I_label)
    if shift >= c.family_half_width:
        raise FamilyWindowError(
            f"a kick of size mu={c.mu:.4g} can move the central action by "
            f"mu max|grad I| = {shift:.4g}, beyond the family half-width "
            f"{c.family_half_width:g} around I_label={c.I_label:g}; "
            "lower mu or widen the family")
    if family is None:
        family = build_family(chart, c)
    if family.N_big != c.N:
        raise ValueError(f"the family was built for N = {family.N_big}, "
                         f"but the run has N = {c.N}")
    center = int(np.argmin(np.abs(family.I_values - c.I_label)))
    x0 = perturb(family.sections[center], c.mu, c.perturbation_shape, c.seed)
    p, q = x0.p.copy(), x0.q.copy()
    n_steps = int(round(c.T / c.dt))
    times, Ibars, phases_rec, res_l2, d_lr, energies = [], [], [], [], [], []
    spacetime = SpaceTimeNorm(c.eps, Q_EXP)

    def sample(t):
        if not np.all(np.isfinite(p)):
            raise BlowupError(f"non-finite state at t={t}")
        tr = track_modulation(p, q, family, c.N)
        res2_site = tr.residual_p ** 2 + tr.residual_q ** 2
        rl2 = float(np.sqrt(np.sum(res2_site)))
        rlr = norm(LatticeState(c.N, tr.residual_p, tr.residual_q), R_EXP)
        spacetime.add(t, rlr, res2_site)
        times.append(t)
        Ibars.append(tr.I_bar)
        phases_rec.append(tr.phase)
        res_l2.append(rl2)
        d_lr.append(rlr)
        st = LatticeState(c.N, p, q)
        energies.append(hamiltonian(st, c.potential, c.eps))

    sample(0.0)
    for i in range(0, n_steps, c.sample_stride):
        stride = min(c.sample_stride, n_steps - i)
        step_arrays(p, q, c.potential, c.eps, c.dt, stride)
        sample((i + stride) * c.dt)

    times_arr = np.asarray(times)
    Ibar_arr = np.asarray(Ibars)
    # Cauchy tail of Ibar over dyadic windows: |Ibar(2T') - Ibar(T')|
    tails = []
    Tp = times_arr[-1] / 2.0
    while Tp >= 8 * (times_arr[1] - times_arr[0]):
        i1 = int(np.searchsorted(times_arr, Tp))
        i2 = int(np.searchsorted(times_arr, 2 * Tp)) - 1
        tails.append((float(Tp), float(abs(Ibar_arr[i2] - Ibar_arr[i1]))))
        Tp /= 2.0
    energies_arr = np.asarray(energies)
    record = StabilityRecord(
        times=times_arr, I_bar=Ibar_arr, phase=np.asarray(phases_rec),
        residual_l2=np.asarray(res_l2), dist_lr=np.asarray(d_lr), energy=energies_arr,
        mu=c.mu, eps=c.eps,
        spacetime_lq_lr=spacetime.lq(),
        weighted_mixed=spacetime.weighted_mixed(x0.sites(), c.weight_s),
        I_drift=float(abs(Ibar_arr[-1] - Ibar_arr[0])),
        cauchy_tails=tails,
        summary={},
    )
    record.summary = {
        "mu": c.mu,
        "eps": c.eps,
        "I_drift": record.I_drift,
        "drift_bound_mu2_sqrt_eps": c.mu ** 2 / np.sqrt(c.eps),
        "max_residual_l2_over_mu": (float(np.max(record.residual_l2) / c.mu)
                                    if c.mu > 0 else float("nan")),
        f"spacetime_L{Q_EXP}_l{R_EXP}": record.spacetime_lq_lr,
        "weighted_mixed_linf_L2": record.weighted_mixed,
        "energy_rel_drift": float(np.max(np.abs(energies_arr - energies_arr[0]))
                                  / abs(energies_arr[0])),
    }
    return record


def emit_report(record: StabilityRecord, out_dir, tolerances: dict | None = None):
    """CSV time series + summary with pass/fail against configured tolerances."""
    series_path = os.path.join(out_dir, "stability_series.csv")
    write_table(series_path, ["t", "eps_t", "I_bar", "phase", "residual_l2", "dist_lr",
                              "energy"],
                zip(record.times, record.eps * record.times, record.I_bar, record.phase,
                    record.residual_l2, record.dist_lr, record.energy))
    summary_path = os.path.join(out_dir, "stability_summary.csv")
    checks = {}
    if tolerances:
        for key, bound in tolerances.items():
            val = record.summary.get(key)
            checks[f"pass_{key}"] = bool(val is not None and val <= bound)
    rows = [(k, v if isinstance(v, bool) else float(v))
            for k, v in {**record.summary, **checks}.items()]
    rows += [(f"cauchy_tail_T{Tp:g}", tail) for Tp, tail in record.cauchy_tails]
    write_table(summary_path, ["key", "value"], rows)
    return series_path, summary_path, all(checks.values()) if checks else True
