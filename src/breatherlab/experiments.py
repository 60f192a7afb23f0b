"""Modulated-stability experiments around a continued breather.

A perturbed breather is evolved with the splitting integrator while the
modulated action Ibar(t) is tracked by l^2-minimization over a tabulated
breather family (parameter x orbit phase, coarse grid plus local quadratic
refinement).  The run records the residual norms, the distance to the moving
family point in the configured norms, and the space-time accumulations the
dispersive theory bounds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .breather import Breather, continue_breather
from .csvio import write_table
from .integrate import BlowupError, IntegratorConfig, step_arrays
from .lattice import AdmissiblePair, LatticeState, SpaceTimeNorm, hamiltonian, norm
from .potential import ActionAngleChart, PotentialSpec, h0_of_action, max_action_gradient, omega0


class FamilyWindowError(RuntimeError):
    """The modulation minimizer hit the edge of the tabulated family."""


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
    pair: AdmissiblePair = field(default_factory=lambda: AdmissiblePair(7, 14))

    def __post_init__(self):
        if self.delta <= 0.5:
            raise ValueError("need delta > 1/2")
        _check_shape(self.perturbation_shape)
        if self.mu is None:
            self.mu = self.eps ** self.delta
        if self.mu >= self.eps ** 0.5:
            raise ValueError("mu must be below sqrt(eps) (mu < eps^delta, delta > 1/2)")
        if self.T is None:
            self.T = 100.0 / self.eps
        if self.sample_stride < 1:
            raise ValueError(f"sample_stride must be at least 1, got {self.sample_stride}")
        if self.T < self.dt:
            raise ValueError(f"T = {self.T:g} is shorter than one step dt = {self.dt:g}")
        IntegratorConfig(t_final=self.T, dt=self.dt).check_stability(self.eps)
        if not self.family_window <= self.N_family <= self.N:
            raise ValueError("need family_window <= N_family <= N, got "
                             f"{self.family_window}, {self.N_family}, {self.N}")
        # track_modulation needs a member on each side of its argmin
        if self.family_members < 3:
            raise ValueError(f"family_members must be at least 3, got {self.family_members}")


@dataclass
class BreatherFamily:
    I_values: np.ndarray
    phases: np.ndarray
    window_sites: np.ndarray           # site indices |k| <= window
    orbit_p: np.ndarray                # (members, phases, window)
    orbit_q: np.ndarray
    point_norm2: np.ndarray            # (members, phases)
    sections: list[LatticeState]       # embedded at the experiment lattice size
    omega: np.ndarray
    N_big: int

    def member_point(self, m: int, phase_idx: float) -> tuple[np.ndarray, np.ndarray]:
        """Orbit point of member m at a fractional phase index (periodic linear)."""
        P = self.phases.size
        j0 = int(np.floor(phase_idx)) % P
        frac = phase_idx - np.floor(phase_idx)
        j1 = (j0 + 1) % P
        p = (1 - frac) * self.orbit_p[m, j0] + frac * self.orbit_p[m, j1]
        q = (1 - frac) * self.orbit_q[m, j0] + frac * self.orbit_q[m, j1]
        return p, q


def _embed(state: LatticeState, N_big: int) -> LatticeState:
    out = LatticeState.zeros(N_big)
    sl = slice(N_big - state.N, N_big + state.N + 1)
    out.p[sl], out.q[sl] = state.p, state.q
    return out


def build_family(chart: ActionAngleChart, config: ExperimentConfig) -> BreatherFamily:
    """Continue the breather family over the action window and tabulate orbits.

    Member m is the breather of fixed period 2 pi / omega0(I_m).  Only the
    member nearest I_label is continued in eps, from its anti-continuum seed.
    The others are re-polished at eps in I order, outward on each side: the
    first neighbour starts from the centre's section moved by the uncoupled
    amplitude change q_max(E(I_m)) - q_max(E(I_centre)) on site 0, each later
    one from the secant 2 x_{m-1} - x_{m-2}.  Arrays are in ascending-I order.
    """
    c = config
    I_values = np.linspace(c.I_label - c.family_half_width,
                           c.I_label + c.family_half_width, c.family_members)
    window = np.arange(-c.family_window, c.family_window + 1)
    orbit_p = np.zeros((c.family_members, c.family_phases, window.size))
    orbit_q = np.zeros_like(orbit_p)
    sections = [None] * c.family_members
    omegas = np.zeros(c.family_members)
    centre = int(np.argmin(np.abs(I_values - c.I_label)))

    def uncoupled(m):
        x = LatticeState.zeros(c.N_family)
        x.q[x.index(0)] = chart.q_max(h0_of_action(chart, float(I_values[m])))
        return x

    def solve(m, x, eps):
        I = float(I_values[m])
        seed = Breather(I, eps, 2.0 * np.pi / omega0(chart, I), x, [], np.nan, np.nan, np.nan)
        b = continue_breather(seed, c.potential, c.eps, eps_step=0.01, n_phases=c.family_phases)
        omegas[m] = 2.0 * np.pi / b.period
        sections[m] = _embed(b.x0, c.N)
        idx = [b.x0.index(int(k)) for k in window]
        orbit_p[m] = [s.p[idx] for _, s in b.orbit]
        orbit_q[m] = [s.q[idx] for _, s in b.orbit]
        return b.x0

    x_centre = solve(centre, uncoupled(centre), 0.0)
    for side in (range(centre + 1, c.family_members), range(centre - 1, -1, -1)):
        prev, x = None, x_centre
        for m in side:
            guess = (x + uncoupled(m) - uncoupled(centre) if prev is None
                     else x + (x - prev))
            prev, x = x, solve(m, guess, c.eps)
    phases = np.linspace(0.0, 2.0 * np.pi, c.family_phases, endpoint=False)
    norm2 = np.sum(orbit_p ** 2 + orbit_q ** 2, axis=2)
    return BreatherFamily(I_values, phases, window, orbit_p, orbit_q, norm2,
                          sections, omegas, c.N)


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


def parabola_vertex(ym: float, y0: float, yp: float) -> tuple[float, float]:
    """Offset and value of the vertex of the parabola through (-1, ym), (0, y0), (1, yp).

    Returns (0, y0) unless the parabola opens upwards.
    """
    denom = ym - 2 * y0 + yp
    if denom <= 0:
        return 0.0, y0
    off = 0.5 * (ym - yp) / denom
    return off, y0 - 0.25 * (ym - yp) * off


def track_modulation(p: np.ndarray, q: np.ndarray, family: BreatherFamily,
                     N_big: int) -> TrackResult:
    """argmin over (family member, phase) of the l^2 distance, refined quadratically."""
    c0 = N_big + family.window_sites[0]
    sl = slice(c0, c0 + family.window_sites.size)
    pw, qw = p[sl], q[sl]
    out2 = np.sum(p ** 2) + np.sum(q ** 2) - np.sum(pw ** 2) - np.sum(qw ** 2)
    cross = np.einsum("mjw,w->mj", family.orbit_p, pw) \
        + np.einsum("mjw,w->mj", family.orbit_q, qw)
    win2 = np.sum(pw ** 2) + np.sum(qw ** 2)
    d2 = win2 - 2.0 * cross + family.point_norm2   # distance^2 within the window
    m0, j0 = np.unravel_index(np.argmin(d2), d2.shape)
    if m0 in (0, family.I_values.size - 1):
        raise FamilyWindowError(
            f"modulation minimizer at the family edge (I={family.I_values[m0]})")
    P = family.phases.size

    def refine_phase(m):
        j = int(np.argmin(d2[m]))
        off, val = parabola_vertex(d2[m, (j - 1) % P], d2[m, j], d2[m, (j + 1) % P])
        return j + off, val

    js, vals = zip(*(refine_phase(m) for m in (m0 - 1, m0, m0 + 1)))
    moff = float(np.clip(parabola_vertex(*vals)[0], -1.0, 1.0))
    dI = family.I_values[1] - family.I_values[0]
    I_bar = family.I_values[m0] + moff * dI
    # interpolate the family point linearly in the member direction
    if moff >= 0:
        ma, mb, frac = m0, m0 + 1, moff
        ja, jb = js[1], js[2]
    else:
        ma, mb, frac = m0 - 1, m0, 1.0 + moff
        ja, jb = js[0], js[1]
    pa, qa = family.member_point(ma, ja)
    pb, qb = family.member_point(mb, jb)
    fp = (1 - frac) * pa + frac * pb
    fq = (1 - frac) * qa + frac * qb
    rp = p.copy()
    rq = q.copy()
    rp[sl] -= fp
    rq[sl] -= fq
    dist2 = out2 + np.sum((pw - fp) ** 2) + np.sum((qw - fq) ** 2)
    phase = (2.0 * np.pi / P) * ((1 - frac) * ja + frac * jb)
    return TrackResult(float(I_bar), float(phase % (2 * np.pi)), float(dist2), rp, rq)


@dataclass
class StabilityRecord:
    times: np.ndarray
    I_bar: np.ndarray
    phase: np.ndarray
    residual_l2: np.ndarray
    dist_l2: np.ndarray
    dist_lr: np.ndarray
    energy: np.ndarray
    mu: float
    eps: float
    # SpaceTimeNorm of the residual, trapezoid rule in eps dt over the samples:
    spacetime_lq_lr: float        # L^q_{eps t} l^r, (q, r) = config.pair
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
    I_label orbit.
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
    center = int(np.argmin(np.abs(family.I_values - c.I_label)))
    x0 = perturb(family.sections[center], c.mu, c.perturbation_shape, c.seed)
    p, q = x0.p.copy(), x0.q.copy()
    n_steps = int(round(c.T / c.dt))
    times, Ibars, phases_rec, res_l2, d_l2, d_lr, energies = [], [], [], [], [], [], []
    q_exp, r_exp = c.pair.q_exp, c.pair.r_exp
    spacetime = SpaceTimeNorm(c.eps, q_exp)

    def sample(t):
        if not np.all(np.isfinite(p)):
            raise BlowupError(f"non-finite state at t={t}")
        tr = track_modulation(p, q, family, c.N)
        res2_site = tr.residual_p ** 2 + tr.residual_q ** 2
        rl2 = float(np.sqrt(np.sum(res2_site)))
        rlr = norm(LatticeState(c.N, tr.residual_p, tr.residual_q), r_exp)
        spacetime.add(t, rlr, res2_site)
        times.append(t)
        Ibars.append(tr.I_bar)
        phases_rec.append(tr.phase)
        res_l2.append(rl2)
        d_l2.append(np.sqrt(tr.dist2))
        d_lr.append(rlr)
        st = LatticeState(c.N, p, q)
        energies.append(hamiltonian(st, c.potential, c.eps))

    sample(0.0)
    for i in range(1, n_steps + 1):
        step_arrays(p, q, c.potential, c.eps, c.dt)
        if i % c.sample_stride == 0 or i == n_steps:
            sample(i * c.dt)

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
        residual_l2=np.asarray(res_l2), dist_l2=np.asarray(d_l2),
        dist_lr=np.asarray(d_lr), energy=energies_arr, mu=c.mu, eps=c.eps,
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
        "spacetime_L%g_l%g" % (q_exp, r_exp): record.spacetime_lq_lr,
        "weighted_mixed_linf_L2": record.weighted_mixed,
        "energy_rel_drift": float(np.max(np.abs(energies_arr - energies_arr[0]))
                                  / abs(energies_arr[0])),
    }
    return record


def emit_report(record: StabilityRecord, out_dir, tolerances: dict | None = None,
                basename: str = "stability"):
    """CSV time series + summary with pass/fail against configured tolerances."""
    series_path = os.path.join(out_dir, f"{basename}_series.csv")
    write_table(series_path, ["t", "eps_t", "I_bar", "phase", "residual_l2",
                              "dist_l2", "dist_lr", "energy"],
                zip(record.times, record.eps * record.times, record.I_bar, record.phase,
                    record.residual_l2, record.dist_l2, record.dist_lr, record.energy))
    summary_path = os.path.join(out_dir, f"{basename}_summary.csv")
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
