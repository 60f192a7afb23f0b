"""The three benchmark workloads: set-up, one timed round, and the output checks.

Every call into breatherlab goes through the module attribute
(``normalform.normalize``, ``experiments.build_family``, ...), so that the
traced run's wrappers see it.  Inputs are passed explicitly, with the values
of the matching subcommand's defaults except where the README says why not.
"""

from __future__ import annotations

import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np

from breatherlab import experiments, normalform, potential, propagator
from breatherlab.lattice import LatticeState

import reference as ref

V_COEFFS = ((8, 1.0),)
CHART = dict(I_min=0.05, I_max=0.8, n_grid=256, quad_rtol=1e-12)


def _potential():
    return potential.PotentialSpec(V_COEFFS, 8)


def _slope(x, y):
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


class Check:
    """One pass/fail with its measured value and bound."""

    def __init__(self, name, value, bound, passed):
        self.name, self.value, self.bound, self.passed = name, float(value), bound, bool(passed)

    def __str__(self):
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.value:.4g} (bound {self.bound})"


def at_most(name, value, bound):
    return Check(name, value, bound, value <= bound)


class Workload:
    """Base: counts operations; ``attempt`` turns an exception into a failed operation."""

    setup_reps = 7

    def __init__(self, seed: int):
        self.seed = seed
        self.failed = 0

    def attempt(self, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None


class NormalForm(Workload):
    """Lie-series normal form near the breather: ``normalform`` does the work."""

    name = "normal-form"
    EPS = (0.00625, 0.0125, 0.025, 0.05)
    R_MAX = 2
    CONTEXT = dict(N=8, D=4, M=24, I_span=(0.32, 0.48), n_nodes=12,
                   n_orbit_samples=256, tail_tol=1e-10, beta=1.0)
    NORMALIZE = dict(r_max=R_MAX, lie_order=8, lie_stop=3e-8, divisor_floor=1e-3,
                     drop_threshold=np.inf)
    ops_per_round = len(EPS)

    def setup(self):
        V = _potential()
        self.chart = potential.build_chart(V, **CHART)
        self.ctx = normalform.make_context(self.chart, V, **self.CONTEXT)

    def run_round(self):
        t0 = time.perf_counter()
        self.results = {}
        for eps in self.EPS:
            def one(eps=eps):
                init = normalform.build_initial(self.ctx, eps)
                return init, normalform.normalize(init, **self.NORMALIZE)
            out = self.attempt(one)
            if out is not None:
                self.results[eps] = out
        return {"run_s": time.perf_counter() - t0}

    def log_lines(self):
        for eps, (_, res) in self.results.items():
            yield (f"eps={eps}: residual " + " ".join(f"{r.residual_norm:.4g}" for r in res.records)
                   + ", dropped " + " ".join(f"{r.dropped:.4g}" for r in res.records))

    def checks(self):
        out = []
        eps = np.array(sorted(self.results))
        for step in range(1, self.R_MAX + 1):
            resid = [self.results[e][1].records[step - 1].residual_norm for e in eps]
            slope = _slope(eps, resid)
            target = (step + 1) / 2.0
            out.append(Check(f"step {step} residual slope vs eps (target {target})",
                             slope, f"{target} +- 0.15", abs(slope - target) <= 0.15))
        worst = max(g.conjugation_defect() / max(1.0, g.max_coeff())
                    for _, res in self.results.values() for g in res.generators)
        out.append(at_most("generator reality defect / max coeff", worst, 1e-12))
        out.extend(self._initial_matches_chain())
        return out

    def _initial_matches_chain(self):
        """build_initial against the chain Hamiltonian at real states of shrinking radius.

        Everything but V on the transverse sites is kept exactly by the jet, so
        the mismatch must fall by 2^(D+1) or more per halving of the radius,
        until it reaches the floor set by the chart and the Fourier tail.
        """
        ctx = self.ctx
        N, D = ctx.N, ctx.D
        rng = np.random.default_rng([self.seed, 1])
        radii = 0.8 / 2.0 ** np.arange(6)
        floor = 1e-10
        worst_ratio, worst_floor = 0.0, 0.0
        for eps, (init, _) in self.results.items():
            total = init.total()
            for _ in range(3):
                g = int(rng.integers(1, ctx.I_nodes.size - 1))
                I = float(ctx.I_nodes[g])
                alpha = float(rng.uniform(0.0, 2.0 * np.pi))
                omega = potential.omega0(ctx.chart, I)
                p0, q0 = ref.oscillator_point(V_COEFFS, float(ctx.hs0[g]), alpha / omega)
                direction = rng.standard_normal((2, 2 * N))
                direction /= np.linalg.norm(direction)
                mismatch = []
                for r in radii:
                    pt, qt = r * direction
                    p = np.concatenate([pt[:N], [p0], pt[N:]])
                    q = np.concatenate([qt[:N], [q0], qt[N:]])
                    z = (pt - 1j * qt) / np.sqrt(2.0)     # order of ctx.sites
                    graded = total.evaluate(I, alpha, z).real
                    chain = ref.chain_hamiltonian(p, q, V_COEFFS, eps)
                    mismatch.append(abs(graded - chain) / abs(chain))
                for big, small in zip(mismatch, mismatch[1:]):
                    if small > floor:
                        worst_ratio = max(worst_ratio, small / big * 2.0 ** (D + 1))
                worst_floor = max(worst_floor, mismatch[-1])
        return [at_most(f"initial vs chain H: shrink per halving x 2^{D + 1} (above {floor:g})",
                        worst_ratio, 1.0),
                at_most("initial vs chain H: relative mismatch at the smallest radius",
                        worst_floor, floor)]


@contextmanager
def sampled_states(store):
    """Keep a copy of the state at each of run_stability's energy samples."""
    inner = experiments.hamiltonian

    def sample(state, V, eps):
        store.append((state.p.copy(), state.q.copy()))
        return inner(state, V, eps)

    experiments.hamiltonian = sample
    try:
        yield
    finally:
        experiments.hamiltonian = inner


class Stability(Workload):
    """Breather family by continuation, then an ensemble of perturbed evolutions."""

    name = "stability"
    EPS = 0.05
    MU = 0.01
    KICKS = 3
    EXPERIMENT = dict(eps=EPS, I_label=0.4, N=2048, delta=0.6, T=100.0, dt=0.02,
                      perturbation_shape="localized", sample_stride=50,
                      family_half_width=0.06, family_members=3, family_phases=256,
                      family_window=16, N_family=16, weight_s=3.0)
    ops_per_round = 1 + 1 + KICKS

    def __init__(self, seed):
        super().__init__(seed)
        V = _potential()
        kick_seeds = np.random.SeedSequence(seed).generate_state(self.KICKS)
        self.configs = [experiments.ExperimentConfig(potential=V, mu=0.0, seed=0,
                                                     **self.EXPERIMENT)]
        self.configs += [experiments.ExperimentConfig(potential=V, mu=self.MU, seed=int(s),
                                                      **self.EXPERIMENT)
                         for s in kick_seeds]

    def setup(self):
        self.chart = potential.build_chart(_potential(), **CHART)

    def run_round(self):
        t0 = time.perf_counter()
        self.family = self.attempt(experiments.build_family, self.chart, self.configs[0])
        t1 = time.perf_counter()
        self.runs = []
        site_steps = 0
        for cfg in self.configs:
            if self.family is None:
                self.failed += 1
                continue
            states = []
            with sampled_states(states), np.errstate(divide="ignore", invalid="ignore"):
                # the mu = 0 run divides by mu in its summary
                rec = self.attempt(experiments.run_stability, cfg, self.chart, self.family)
            if rec is not None:
                self.runs.append((cfg, rec, states))
                site_steps += (2 * cfg.N + 1) * int(round(cfg.T / cfg.dt))
        t2 = time.perf_counter()
        return {"run_s": t2 - t0, "family_build_s": t1 - t0,
                "evolve_site_steps_per_s": site_steps / (t2 - t1)}

    def log_lines(self):
        for cfg, rec, _ in self.runs:
            yield (f"mu={cfg.mu} seed={cfg.seed}: I_bar in [{rec.I_bar.min():.5f}, "
                   f"{rec.I_bar.max():.5f}], I_drift {rec.I_drift:.3g}, max residual "
                   f"{rec.residual_l2.max():.3g}, program energy drift "
                   f"{rec.summary['energy_rel_drift']:.3g}")

    def checks(self):
        fam, c0 = self.family, self.configs[0]
        Nf, N = c0.N_family, c0.N
        near = slice(N - Nf, N + Nf + 1)
        defects, p0s, outside, rates, monotone = [], [], [], [], True
        for m, sec in enumerate(fam.sections):
            p0s.append(abs(sec.p[N]))
            far = np.ones(sec.p.size, dtype=bool)
            far[near] = False
            outside.append(max(np.max(np.abs(sec.p[far])), np.max(np.abs(sec.q[far]))))
            p, q = sec.p[near], sec.q[near]
            pT, qT = ref.chain_flow(p, q, V_COEFFS, c0.eps, 2.0 * np.pi / fam.omega[m])
            defects.append(np.sqrt(np.sum((pT - p) ** 2 + (qT - q) ** 2)))
            amp = np.hypot(p, q)
            for side in (amp[Nf + 1:], amp[:Nf][::-1]):   # |k| = 1, 2, ...
                live = side[side > 1e-13]
                monotone &= bool(np.all(np.diff(live) < 0))
                rates.append(-np.polyfit(np.arange(1, live.size + 1), np.log(live), 1)[0])
        out = [
            at_most("family sections: |p_0|", max(p0s), 0.0),
            at_most("family sections: return defect after one period (reference flow)",
                    max(defects), 1e-9),
            at_most("family sections: amplitude outside the continued lattice", max(outside), 0.0),
            Check("family sections: amplitudes fall with |k| on both sides", float(monotone),
                  "1", monotone),
            Check("family sections: smallest exponential decay rate", min(rates), ">= 1",
                  min(rates) >= 1.0),
        ]
        drifts, agree, windows = [], [], []
        for cfg, rec, states in self.runs:
            energies = np.array([ref.chain_hamiltonian(p, q, V_COEFFS, cfg.eps)
                                 for p, q in states])
            drifts.append(np.max(np.abs(energies - energies[0])) / abs(energies[0]))
            agree.append(np.max(np.abs(energies - rec.energy)) / abs(energies[0]))
            (p_a, q_a), (p_b, q_b) = states[0], states[1]
            p_r, q_r = ref.chain_flow(p_a, q_a, V_COEFFS, cfg.eps, rec.times[1] - rec.times[0],
                                      rtol=1e-11)
            windows.append(max(np.max(np.abs(p_r - p_b)), np.max(np.abs(q_r - q_b))))
        out += [
            at_most("runs: relative energy drift (reference Hamiltonian)", max(drifts), 2e-6),
            at_most("runs: reference vs program energy, relative", max(agree), 1e-12),
            # yoshida4's own error over one window at dt = 0.02 is 4.7e-7 and falls
            # 16-fold per halving of dt; a wrong force term misses by far more
            at_most("runs: first sampling window vs reference flow, max abs", max(windows), 2e-6),
        ]
        return out


class Dispersion(Workload):
    """Oscillatory-integral decay, l^inf decay fit and Duhamel forcing: ``propagator``."""

    name = "dispersion"
    EPS = 0.1
    LAMS = (1e3, 1e4)
    DECAY_N = 8192
    DATUM = ((1, 1.0), (2, 0.6), (3, 0.25))
    FORCED_N = 1024
    FORCED_TIMES = np.linspace(0.0, 50.0, 400)
    ops_per_round = 3
    setup_reps = 15   # a set-up takes about 0.1 s

    def __init__(self, seed):
        super().__init__(seed)
        rng = np.random.default_rng([seed, 3])
        self.G = ref.skew_datum(rng, self.FORCED_N, 8)
        self.wide = ref.skew_datum(rng, self.FORCED_N, self.FORCED_N)

    def setup(self):
        datum = LatticeState.zeros(self.DECAY_N)
        for k, v in self.DATUM:
            datum.q[datum.index(k)], datum.q[datum.index(-k)] = v, -v
            datum.p[datum.index(k)], datum.p[datum.index(-k)] = 0.5 * v, -0.5 * v
        self.datum = datum
        G = LatticeState(self.FORCED_N, *self.G)
        self.forcing = [propagator.propagate_whole_chain(G, float(t), self.EPS)
                        for t in self.FORCED_TIMES]

    def run_round(self):
        t0 = time.perf_counter()
        self.vdc = self.attempt(propagator.van_der_corput_check, self.EPS, np.array(self.LAMS),
                                split="consistent")
        self.decay = self.attempt(propagator.measure_decay, self.datum, self.EPS, np.inf, None,
                                  (10.0, 300.0), n_samples=30)
        self.forced = self.attempt(propagator.forced_evolution, self.FORCED_TIMES, self.forcing,
                                   self.EPS)
        return {"run_s": time.perf_counter() - t0}

    def log_lines(self):
        yield f"vdc slopes {self.vdc.slope_I1:.4f} {self.vdc.slope_I2:.4f}"
        yield f"l^inf decay slope {self.decay.slope:.4f}"

    def checks(self):
        chain = ref.DirichletChain(self.FORCED_N, self.EPS)
        worst, scale = 0.0, 0.0
        for t, u in zip(self.FORCED_TIMES, self.forced):
            p, q = chain.propagate(*self.G, t)
            worst = max(worst, np.max(np.abs(u.p - t * p)), np.max(np.abs(u.q - t * q)))
            scale = max(scale, t * np.max(np.abs(q)))
        t = float(self.FORCED_TIMES[-1])
        moved = propagator.propagate_whole_chain(
            LatticeState(self.FORCED_N, *self.wide), t, self.EPS)
        p, q = chain.propagate(*self.wide, t)
        prop_err = max(np.max(np.abs(moved.p - p)), np.max(np.abs(moved.q - q)))
        return [
            Check("vdc slope on I1 (target -1/2)", self.vdc.slope_I1, "-0.5 +- 0.05",
                  abs(self.vdc.slope_I1 + 0.5) <= 0.05),
            Check("vdc slope on I2 (target -1/3)", self.vdc.slope_I2, "-1/3 +- 0.05",
                  abs(self.vdc.slope_I2 + 1.0 / 3.0) <= 0.05),
            Check("l^inf decay slope (target -1/3)", self.decay.slope, "[-0.40, -0.28]",
                  -0.40 <= self.decay.slope <= -0.28),
            at_most("forced evolution of S(tau)G vs t S(t)G, relative", worst / scale, 1e-10),
            at_most("propagate_whole_chain vs Dirichlet eigendecomposition, max abs",
                    prop_err, 1e-10),
        ]


WORKLOADS = {w.name: w for w in (NormalForm, Stability, Dispersion)}
