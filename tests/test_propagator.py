import math

import numpy as np
import pytest
from scipy.fft import dst
from scipy.integrate import quad

from breatherlab import propagator
from breatherlab.integrate import flow
from breatherlab.lattice import LatticeState, SpaceTimeNorm, hamiltonian, norm
from breatherlab.propagator import (BoundaryWindowError, SpectralCutError, _cone,
                                    _osc_on_rho_grid, dispersion_frequency,
                                    forced_evolution, measure_decay, phase_intervals,
                                    propagate_whole_chain, resolvent_kernel,
                                    sp_temp_check, van_der_corput_check)


def skew_state(rng, N, n_active=3, scale=1.0):
    s = LatticeState.zeros(N)
    for k in range(1, n_active + 1):
        a, b = scale * rng.standard_normal(2)
        s.q[s.index(k)], s.q[s.index(-k)] = a, -a
        s.p[s.index(k)], s.p[s.index(-k)] = b, -b
    return s


def test_dispersion_endpoints():
    assert dispersion_frequency(0.3, 0.0) == 1.0
    assert dispersion_frequency(0.3, np.pi) == pytest.approx(np.sqrt(1 + 4 * 0.3))
    assert dispersion_frequency(0.25, np.pi / 2) == pytest.approx(np.sqrt(1.5))


def test_parseval(rng, V0):
    # the sine transform is orthonormal, so the flow keeps the chain's energy
    # <p;p> + <q;Bq>, which with the Dirichlet ghosts is twice the lattice
    # Hamiltonian at the zero potential
    s = skew_state(rng, 32, 8)
    eps = 0.13
    moved = propagate_whole_chain(s, 9.1, eps)
    assert 2 * hamiltonian(moved, V0, eps) == pytest.approx(2 * hamiltonian(s, V0, eps),
                                                            rel=1e-12)


def test_propagation_identity_and_rotation(rng):
    s = skew_state(rng, 16)
    out = propagate_whole_chain(s, 0.0, 0.1)
    assert np.allclose(out.p, s.p) and np.allclose(out.q, s.q)
    t = 0.7
    out = propagate_whole_chain(s, t, 0.0)  # eps = 0: per-site rotation
    c, si = np.cos(t), np.sin(t)
    assert np.allclose(out.q, c * s.q + si * s.p, atol=1e-13)
    assert np.allclose(out.p, c * s.p - si * s.q, atol=1e-13)
    # a zero datum reaches no site, and its cut keeps one
    assert not np.any(propagate_whole_chain(LatticeState.zeros(16), t, 0.0).q)


def test_propagation_rejects_non_skew(rng):
    s = LatticeState.zeros(8)
    s.q[s.index(1)] = 1.0
    with pytest.raises(ValueError):
        propagate_whole_chain(s, 1.0, 0.1)


def test_group_property(rng):
    s = skew_state(rng, 32)
    eps = 0.13
    one = propagate_whole_chain(s, 11.0, eps)
    two = propagate_whole_chain(propagate_whole_chain(s, 4.0, eps), 7.0, eps)
    assert norm(one - two, 2) < 1e-10


def test_skew_symmetry_preserved(rng):
    from breatherlab.lattice import check_skew
    s = skew_state(rng, 16)
    out = propagate_whole_chain(s, 13.0, 0.2)
    assert check_skew(out, tol=1e-12)


def test_matches_time_integrator(rng, V0):
    s = skew_state(rng, 64, 4)
    eps, t = 0.1, 50.0
    exact = propagate_whole_chain(s, t, eps)
    stepped = flow(s, V0, eps, t, dt=0.002)
    assert norm(exact - stepped, 2) < 1e-8


def _dense_chain_flow(p, q, t, eps):
    """Exact flow (p(t), q(t)) of q'' = -B q on a chain closed by zero ghosts at both ends.

    B = 1 - eps Delta is the dense tridiagonal matrix of the chain; with
    B = U diag(w^2) U^T, q(t) = U (cos(wt) a + sin(wt) b / w) and
    p(t) = U (cos(wt) b - w sin(wt) a) for a = U^T q(0), b = U^T p(0).
    """
    n = p.size
    B = (1.0 + 2.0 * eps) * np.eye(n) - eps * (np.eye(n, k=1) + np.eye(n, k=-1))
    w2, U = np.linalg.eigh(B)
    w = np.sqrt(w2)
    a, b = U.T @ q, U.T @ p
    c, s = np.cos(w * t), np.sin(w * t)
    return U @ (c * b - w * s * a), U @ (c * a + s * b / w)


def test_whole_chain_matches_dense_eigensolution(rng):
    # the 2N+1-site chain with ghosts at +-(N+1), solved by a dense eigh of B;
    # every site is active, the ends included
    N, eps, t = 24, 0.13, 7.3
    s = skew_state(rng, N, N)
    p, q = _dense_chain_flow(s.p, s.q, t, eps)
    out = propagate_whole_chain(s, t, eps)
    assert np.max(np.abs(out.p - p)) <= 1e-12 and np.max(np.abs(out.q - q)) <= 1e-12


def _uncut(monkeypatch, call, *args):
    """call(*args) with the light-cone cut at the whole chain."""
    with monkeypatch.context() as m:
        m.setattr(propagator, "_cone", lambda states, eps, t: states[0].N)
        return call(*args)


def _max_miss(a, b):
    return max(np.max(np.abs(a.p - b.p)), np.max(np.abs(a.q - b.q)))


@pytest.mark.parametrize("eps, t, N, K", [(2.0, 40.0, 400, 3), (0.1, 3000.0, 8191, 3),
                                          (0.5, 200.0, 1000, 20), (5.0, 10.0, 300, 5)])
def test_cut_flow_matches_the_whole_chain(rng, monkeypatch, eps, t, N, K):
    # data on the sites +-1..K reach M < N sites; past them the cut output is exactly 0
    s = skew_state(rng, N, K)
    M = _cone([s], eps, t)
    assert K < M < N
    cut = propagate_whole_chain(s, t, eps)
    whole = _uncut(monkeypatch, propagate_whole_chain, s, t, eps)
    assert _max_miss(cut, whole) <= 1e-13 * norm(s, np.inf)
    for x in (cut.p, cut.q):
        assert not np.any(x[N + 1 + M:]) and not np.any(x[:N - M])


def test_a_cut_at_the_front_misses(rng, monkeypatch):
    # the group velocity is below eps, yet the datum's tail past eps t is far above
    # rounding: a cut there misses by 9.8e-6 of the datum, the light cone by 2e-14
    eps, t, N, K = 0.1, 3000.0, 8191, 3
    s = skew_state(rng, N, K)
    whole = _uncut(monkeypatch, propagate_whole_chain, s, t, eps)
    monkeypatch.setattr(propagator, "_cone", lambda states, eps, t: K + math.ceil(eps * t))
    assert _max_miss(propagate_whole_chain(s, t, eps), whole) > 1e-6 * norm(s, np.inf)


def test_a_cone_past_the_chain_stops_at_its_end(rng):
    # at t = 1e300 the search for the cut ran over range(1.4e300): an OverflowError
    s = skew_state(rng, 64, 3)
    assert _cone([s], 0.1, 1e300) == s.N


def test_a_datum_that_fills_the_chain_takes_the_whole_chain(rng):
    # cut M = N: the parent's arithmetic, one DST-I pair on all N sites, bit for bit
    N, eps, t = 300, 0.3, 17.0
    s = skew_state(rng, N, N)
    assert _cone([s], eps, t) == N
    nu = dispersion_frequency(eps, np.pi * np.arange(1, N + 1) / (N + 1))
    ph, qh = dst(np.stack((s.p[N + 1:], s.q[N + 1:])), type=1, norm="ortho", axis=-1)
    c, si = np.cos(nu * t), np.sin(nu * t)
    p, q = dst(np.stack((ph * c - qh * (nu * si), qh * c + ph * (si / nu))), type=1,
               norm="ortho", axis=-1)
    out = propagate_whole_chain(s, t, eps)
    assert np.array_equal(out.p, np.concatenate((-p[::-1], [0.0], p)))
    assert np.array_equal(out.q, np.concatenate((-q[::-1], [0.0], q)))


def test_cut_decay_and_forcing_match_the_whole_chain(rng, monkeypatch):
    s = skew_state(rng, 2048, 3)
    args = (s, 0.1, np.inf, None, (5.0, 80.0), 12)
    cut, whole = measure_decay(*args), _uncut(monkeypatch, measure_decay, *args)
    assert np.max(np.abs(cut.values / whole.values - 1.0)) <= 1e-13
    times = np.linspace(0.0, 30.0, 61)
    forcing = [propagate_whole_chain(s, t, 0.1).scaled(np.cos(t)) for t in times]
    assert _cone(forcing, 0.1, 30.0) < 2048
    scale = max(norm(F, np.inf) for F in forcing)
    for a, b in zip(forced_evolution(times, forcing, 0.1),
                    _uncut(monkeypatch, forced_evolution, times, forcing, 0.1)):
        assert _max_miss(a, b) <= 1e-13 * scale


def test_decay_transforms_stay_on_the_light_cone(monkeypatch):
    # the benchmark's decay datum on 8,192 sites reaches 1,567 of them by t = 3000;
    # both DSTs, one batch each way, run there, none on the whole chain (8,192
    # takes the Bluestein path)
    lengths = []
    dst1 = propagator._dst1

    def record(x):
        lengths.append(x.shape[-1])
        return dst1(x)

    monkeypatch.setattr(propagator, "_dst1", record)
    s = LatticeState.zeros(8192)
    for k, v in ((1, 1.0), (2, 0.6), (3, 0.25)):
        s.q[s.index(k)], s.q[s.index(-k)] = v, -v
        s.p[s.index(k)], s.p[s.index(-k)] = 0.5 * v, -0.5 * v
    measure_decay(s, 0.1, np.inf, None, (10.0, 300.0), n_samples=30)
    assert len(lengths) == 2 and max(lengths) <= 2047


@pytest.mark.parametrize("eps, t, value", [(-1.0, 1.0, "eps=-1.0"), (np.nan, 1.0, "eps=nan"),
                                           (np.inf, 1.0, "eps=inf"), (0.1, np.nan, "t=nan"),
                                           (0.1, -np.inf, "t=-inf")])
def test_propagation_rejects_a_bad_coupling_or_time(rng, eps, t, value):
    # eps = -1 made nu NaN for half the modes, and the CLI's second propagation
    # then called its own output "not skew-symmetric"
    s = skew_state(rng, 16)
    with pytest.raises(ValueError, match=value):
        propagate_whole_chain(s, t, eps)
    times = np.array([0.0, t]) if np.isfinite(eps) else np.array([0.0, 1.0])
    with pytest.raises(ValueError, match=value):
        forced_evolution(times, [s, s], eps)


@pytest.mark.parametrize("eps", [-1.0, 0.0, np.nan, np.inf])
def test_decay_rejects_a_bad_coupling(rng, eps):
    # the window is in eps t; eps = -1 fitted slope=nan, eps = 0 divided by zero
    with pytest.raises(ValueError, match=f"eps={eps!r}"):
        measure_decay(skew_state(rng, 64, 2), eps, np.inf, None, window=(1.0, 3.0))


def test_l2_conservation_slope_zero(rng):
    # the l^2 norm is equivalent to the conserved modified energy norm within
    # a factor sqrt(1 + 4 eps); it oscillates in that band instead of decaying
    eps = 0.1
    s = skew_state(rng, 512, 3)
    fit = measure_decay(s, eps, 2.0, None, window=(5.0, 20.0), n_samples=12)
    assert abs(fit.slope) < 1e-2
    assert np.max(fit.values) / np.min(fit.values) < np.sqrt(1 + 4 * eps)


def test_decay_window_guard(rng):
    s = skew_state(rng, 64, 2)
    with pytest.raises(BoundaryWindowError):
        measure_decay(s, 0.1, np.inf, None, window=(10.0, 300.0))


def test_reversed_decay_window_is_rejected(rng):
    # geomspace(450, 10) runs up to eps t = 450, t = 4500 past the guard N/2 =
    # 4095.5, which a check on the window's second entry alone lets through
    s = skew_state(rng, 8191, 3)
    with pytest.raises(ValueError, match="needs 0 < lo < hi, got 450..10"):
        measure_decay(s, 0.1, np.inf, None, window=(450.0, 10.0))
    with pytest.raises(ValueError, match="at least 2 samples"):
        measure_decay(s, 0.1, np.inf, None, window=(10.0, 300.0), n_samples=1)


def test_sup_norm_decay_slope(rng):
    s = skew_state(rng, 4096, 3)
    fit = measure_decay(s, 0.1, np.inf, None, window=(10.0, 150.0), n_samples=20)
    assert -0.45 < fit.slope < -0.25


def test_weighted_decay_slope(rng):
    s = skew_state(rng, 2048, 3)
    fit = measure_decay(s, 0.1, 2.0, -3.0, window=(5.0, 80.0),
                        n_samples=20)
    assert -1.75 < fit.slope < -1.25


@pytest.mark.parametrize("interval", ["I1", "I2"])
def test_osc_on_rho_grid_matches_adaptive_quadrature(interval):
    lam, eps = 1e3, 0.1
    rho_grid = np.array([-0.14, -0.07, 0.0])   # uniform, spans the stationary points
    for a, b in phase_intervals()[interval]:
        vals = _osc_on_rho_grid(lam, eps, a, b, rho_grid)
        for rho, val in zip(rho_grid, vals):
            phase = lambda th: lam * (dispersion_frequency(eps, th) + rho * th)
            ref = [quad(lambda th: part(phase(th)), a, b, limit=1000,
                        epsabs=1e-13, epsrel=1e-12)[0] for part in (np.cos, np.sin)]
            scale = abs(complex(*ref))
            assert abs(val.real - ref[0]) <= 1e-9 * scale
            assert abs(val.imag - ref[1]) <= 1e-9 * scale


def test_interval_splittings_partition():
    for split in ("consistent", "paper"):
        pieces = phase_intervals(split)
        length = sum(b - a for a, b in pieces["I1"] + pieces["I2"])
        assert length == pytest.approx(np.pi)


def test_van_der_corput_slopes():
    lam = np.geomspace(1e2, 1e4, 9)
    res = van_der_corput_check(0.1, lam)
    assert res.slope_I1 == pytest.approx(-0.5, abs=0.05)
    assert res.slope_I2 == pytest.approx(-1.0 / 3.0, abs=0.05)


def test_van_der_corput_paper_split_documented_mismatch():
    # the historical pi/8 splitting puts the inflection of nu'' inside I1;
    # the measured exponents there are far from the -1/2 / -1/3 pattern
    lam = np.geomspace(1e2, 1e4, 7)
    res = van_der_corput_check(0.1, lam, split="paper")
    assert res.slope_I1 > -0.3          # polluted by the k=3 point
    assert res.slope_I2 < -0.38         # pure k=2 behaviour instead of k=3


def test_van_der_corput_doubling_ratio():
    # on the k=2 region, doubling lam scales the sup by about 1/sqrt(2)
    res = van_der_corput_check(0.1, np.array([2000.0, 4000.0]))
    ratio = res.sup_I1[1] / res.sup_I1[0]
    assert ratio == pytest.approx(1 / np.sqrt(2), rel=0.12)


def test_resolvent_kernel_against_dense_solve():
    n = 256
    ks = np.arange(-n // 2, n // 2)
    L = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)  # -Delta, Dirichlet
    nu_t = 2.0 + 0.5j
    A = L - nu_t * np.eye(n)
    j0 = 0
    e = np.zeros(n)
    e[np.where(ks == j0)[0][0]] = 1.0
    col = np.linalg.solve(A, e.astype(complex))
    interior = np.abs(ks) <= 40
    kernel = np.array([resolvent_kernel(nu_t, int(k), j0) for k in ks[interior]])
    assert np.max(np.abs(kernel - col[interior])) < 1e-6


def test_resolvent_kernel_decay_ratio():
    nu_t = -1.0
    g0 = resolvent_kernel(nu_t, 0, 0)
    g1 = resolvent_kernel(nu_t, 1, 0)
    g5 = resolvent_kernel(nu_t, 5, 0)
    ratio = abs(g1) / abs(g0)
    assert ratio < 1.0
    assert abs(g5) == pytest.approx(abs(g0) * ratio ** 5, rel=1e-10)
    # closed form at nu = -1: G_0 = 1/sqrt(5), decay ratio (3 - sqrt 5)/2
    assert abs(g0) == pytest.approx(1 / np.sqrt(5), rel=1e-12)
    assert ratio == pytest.approx((3 - np.sqrt(5)) / 2, rel=1e-12)


def test_resolvent_on_cut_raises():
    with pytest.raises(SpectralCutError):
        resolvent_kernel(2.0, 1, 0)


def test_limiting_absorption_cauchy():
    nu_t = 2.0
    prev = None
    for mu in (1e-3, 1e-4, 1e-5):
        val = resolvent_kernel(nu_t + 1j * mu, 3, 0)
        if prev is not None:
            assert abs(val - prev) < 20 * mu_prev
        prev, mu_prev = val, mu
    boundary = resolvent_kernel(nu_t, 3, 0, boundary=+1)
    assert abs(boundary - prev) < 1e-4


def accumulate(times, states, eps, q_exp, r_exp=2.0):
    """A SpaceTimeNorm fed every sample: its l^r norm and its site densities."""
    acc = SpaceTimeNorm(eps, q_exp)
    for t, st in zip(times, states):
        acc.add(t, norm(st, r_exp), st.p ** 2 + st.q ** 2)
    return acc


def test_spacetime_norm_trivial_and_separable(rng):
    N = 16
    zero = [LatticeState.zeros(N) for _ in range(5)]
    times = np.linspace(0, 2, 5)
    assert accumulate(times, zero, 0.1, 7, 14).lq() == 0.0
    s = skew_state(rng, N, 2)
    const = [s.copy() for _ in range(41)]
    times = np.linspace(0, 10.0, 41)
    eps = 0.2
    val = accumulate(times, const, eps, 8, 4).lq()
    assert val == pytest.approx(norm(s, 4) * (eps * 10.0) ** (1 / 8), rel=1e-12)


@pytest.mark.parametrize("q_exp", [7.0, np.inf])
def test_spacetime_norm_streams_the_trapezoid_rule(rng, q_exp):
    # a non-uniform grid: a right Riemann sum, or a uniform-step rule, misses by far;
    # amplitudes growing like <k>^s keep the weighted max off site 0, where every
    # weight is 1
    eps, s_exp = 0.3, 3.0
    times = np.sort(rng.uniform(0.0, 5.0, 23))
    grow = (1.0 + np.arange(-6, 7) ** 2) ** (s_exp / 2)
    states = [LatticeState(6, grow * rng.standard_normal(13), grow * rng.standard_normal(13))
              for _ in times]
    acc = accumulate(times, states, eps, q_exp, 14)
    vals = np.array([norm(st, 14) for st in states])
    lq = (np.max(vals) if np.isinf(q_exp)
          else np.trapezoid(vals ** q_exp, eps * times) ** (1 / q_exp))
    assert acc.lq() == pytest.approx(lq, rel=1e-13)
    ks = states[0].sites().astype(float)
    density = np.stack([st.p ** 2 + st.q ** 2 for st in states])
    l2t = np.sqrt(np.trapezoid(density, eps * times, axis=0))
    mixed = np.max((1.0 + ks ** 2) ** (-s_exp / 2) * l2t)
    assert acc.weighted_mixed(states[0].sites(), s_exp) == pytest.approx(mixed, rel=1e-13)


def test_spacetime_norm_of_a_single_sample_is_zero(rng):
    acc = accumulate([2.0], [skew_state(rng, 8)], 0.1, 7)
    assert acc.lq() == 0.0 and acc.weighted_mixed(np.arange(-8, 9), 3.0) == 0.0


def test_homogeneous_strichartz_quotient_bounded(rng):
    # || S(.) xi ||_{L^q_{eps t} l^r} / || xi ||_{l^2} stable over an ensemble
    eps = 0.1
    N = 512
    quotients = []
    for _ in range(4):
        s = skew_state(rng, N, 3)
        T = N / 2.0
        times = np.linspace(0, T, 160)
        states = [propagate_whole_chain(s, t, eps) for t in times]
        quotients.append(accumulate(times, states, eps, 7, 14).lq() / norm(s, 2))
    assert max(quotients) < 10.0
    assert max(quotients) / min(quotients) < 5.0


def test_retarded_strichartz_eps_scaling(rng):
    # || int S(t - tau) F dtau || <= (C / eps) ||F||_{dual}; C stable under halving
    Cs = []
    for eps in (0.2, 0.1):
        N = 256
        T = N / 3.0
        times = np.linspace(0, T, 80)
        base = skew_state(rng, N, 2)
        forcing = [base.scaled(np.exp(-0.05 * t)) for t in times]
        u = forced_evolution(times, forcing, eps)
        out = accumulate(times, u, eps, np.inf, 2).lq()
        # dual of (inf, 2) is (1, 2)
        fvals = np.array([norm(F, 2) for F in forcing])
        dual = np.trapezoid(fvals, eps * times)
        Cs.append(out * eps / dual)
    assert Cs[0] / Cs[1] == pytest.approx(1.0, abs=0.5)


def _forced_evolution_quadratic(times, forcing, eps):
    """u(t_i) = sum_j w_ij S(t_i - t_j) F_j with trapezoid weights, one propagation per pair."""
    dt = times[1] - times[0]
    out = []
    for i, t in enumerate(times):
        acc = LatticeState.zeros(forcing[0].N)
        for j in range(i + 1 if i > 0 else 0):
            wgt = dt if 0 < j < i else 0.5 * dt
            acc = acc + propagate_whole_chain(forcing[j], t - times[j], eps).scaled(wgt)
        out.append(acc)
    return out


def test_forced_evolution_matches_quadratic_sum(rng):
    eps, N = 0.1, 64
    times = np.linspace(0.0, 12.0, 25)
    forcing = [skew_state(rng, N, 6) for _ in times]   # no relation to the free flow
    fast = forced_evolution(times, forcing, eps)
    slow = _forced_evolution_quadratic(times, forcing, eps)
    scale = max(norm(u, np.inf) for u in slow)
    assert max(norm(a - b, np.inf) for a, b in zip(fast, slow)) <= 1e-12 * scale


def test_forced_evolution_single_sample_is_zero(rng):
    u = forced_evolution(np.array([3.0]), [skew_state(rng, 16)], 0.1)
    assert len(u) == 1 and norm(u[0], np.inf) == 0.0
    # a sample that fills the chain: one state of the chain's size, every entry 0
    u, = forced_evolution(np.array([3.0]), [skew_state(rng, 16, 16)], 0.1)
    assert u.N == 16 and not np.any(u.p) and not np.any(u.q)


def _trapezoid_recurrence(times, forcing, eps):
    """The trapezoid sum stepped sample by sample in the sine basis of the whole
    half chain: u_i = S(h) (u_{i-1} + (h/2) F_{i-1}) + (h/2) F_i, u_0 = 0."""
    N, h = forcing[0].N, times[1] - times[0]
    nu = dispersion_frequency(eps, np.pi * np.arange(1, N + 1) / (N + 1))
    c, s = np.cos(nu * h), np.sin(nu * h)
    u, prev, out = np.zeros((2, N)), None, []
    for F in forcing:
        half = (0.5 * h) * dst(np.stack((F.p[N + 1:], F.q[N + 1:])), type=1, norm="ortho")
        if prev is not None:
            ph, qh = u + prev
            u = np.stack((ph * c - qh * (nu * s), qh * c + ph * (s / nu))) + half
        prev = half
        p, q = dst(u, type=1, norm="ortho")
        out.append(LatticeState(N, np.concatenate((-p[::-1], [0.0], p)),
                                np.concatenate((-q[::-1], [0.0], q))))
    return out


def test_forced_evolution_matches_the_trapezoid_recurrence(rng):
    # the closed form counts the times from t_0, so a grid away from 0 checks that shift
    eps, N = 0.1, 64
    times = 7.3 + 0.4 * np.arange(41)
    forcing = [skew_state(rng, N, 6) for _ in times]   # no relation to the free flow
    scale = max(norm(F, np.inf) for F in forcing)
    for a, b in zip(forced_evolution(times, forcing, eps),
                    _trapezoid_recurrence(times, forcing, eps)):
        assert _max_miss(a, b) <= 1e-13 * scale


def test_vdc_check_rejects_non_uniform_rho_grid():
    # the shared phase recurrence steps by rho[1] - rho[0]; on this grid the
    # third value came out 6.5e-2 off at lambda = 1e3
    with pytest.raises(ValueError):
        van_der_corput_check(0.1, [1e3, 2e3], rho_grid=[-0.14, -0.13, 0.0])


def test_forced_evolution_rejects_non_uniform_grid(rng):
    times = np.array([0.0, 1.0, 2.5, 3.0])
    with pytest.raises(ValueError):
        forced_evolution(times, [skew_state(rng, 16) for _ in times], 0.1)


def test_forced_evolution_rejects_a_non_skew_sample(rng):
    # q_1 alone, with no -q_1 at site -1, is not a datum of the Dirichlet half chain
    bad = LatticeState.zeros(8)
    bad.q[bad.index(1)] = 1.0
    forcing = [skew_state(rng, 8), bad, skew_state(rng, 8)]
    with pytest.raises(ValueError, match="not skew-symmetric"):
        forced_evolution(np.array([0.0, 0.5, 1.0]), forcing, 0.1)


def test_forced_evolution_checks_each_sample_against_its_own_norm(rng):
    # a small sample off skew by 1e-9 sits among samples of size 1e4; a tolerance
    # from the whole batch's norm, at least 1e-8, would let it through
    bad = skew_state(rng, 8).scaled(1e-6)
    bad.q[bad.index(2)] += 1e-9
    forcing = [skew_state(rng, 8).scaled(1e4) for _ in range(5)]
    forcing[2] = bad
    with pytest.raises(ValueError, match="not skew-symmetric"):
        forced_evolution(np.linspace(0.0, 2.0, 5), forcing, 0.1)


@pytest.mark.parametrize("sizes, n_times, message", [
    # the 32-site sample was read from the first 16 sites of its chain
    ((16, 32, 16), 3, "forcing sample 1 is on N = 32, sample 0 on N = 16"),
    ((32, 16, 32), 3, "forcing sample 1 is on N = 16, sample 0 on N = 32"),
    ((16, 16, 16, 8), 4, "forcing sample 3 is on N = 8, sample 0 on N = 16"),
    # two times with one sample returned two states
    ((16,), 2, "got 2 times and 1 samples: sample 1 is unpaired"),
    ((16, 16, 16), 2, "got 2 times and 3 samples: sample 2 is unpaired"),
], ids=["16-32-16", "32-16-32", "last-sample", "two-times-one-sample", "short-times"])
def test_forced_evolution_names_the_first_mismatched_sample(rng, sizes, n_times, message):
    forcing = [skew_state(rng, N) for N in sizes]
    with pytest.raises(ValueError, match=message):
        forced_evolution(np.linspace(0.0, 1.0, n_times), forcing, 0.1)


def test_weighted_retarded_bound_quotient(rng):
    # || int S(t-tau) F dtau ||_{l^inf_{-s} L^2_{eps t}} <= (C/eps) ||F||_{l^1_s L^2_{eps t}}
    s_exp = 3.0
    Cs = []
    for eps in (0.2, 0.1):
        N = 256
        T = N / 3.0
        times = np.linspace(0, T, 80)
        base = skew_state(np.random.default_rng(7), N, 2)
        forcing = [base.scaled(np.cos(0.9 * t)) for t in times]
        u = forced_evolution(times, forcing, eps)
        lhs = accumulate(times, u, eps, 2).weighted_mixed(base.sites(), s_exp)
        ks = base.sites().astype(float)
        w = (1 + ks ** 2) ** (s_exp / 2)
        per_site = np.stack([np.sqrt(F.p ** 2 + F.q ** 2) for F in forcing])
        l2t = np.sqrt(np.trapezoid(per_site ** 2, eps * times, axis=0))
        rhs = np.sum(w * l2t)
        Cs.append(lhs * eps / rhs)
    assert Cs[0] / Cs[1] == pytest.approx(1.0, abs=0.6)


def test_sp_temp_inequality(rng):
    N = 256
    s = skew_state(rng, N, 3)
    eps = 0.1
    times = np.linspace(0, 300.0, 150)
    states = [propagate_whole_chain(s, t, eps) for t in times]
    ok, ratio, const = sp_temp_check(times, states, 3.0, 2.0, eps)
    assert ok
    assert ratio <= np.sqrt(const)
    with pytest.raises(ValueError):
        sp_temp_check(times, states, 2.0, 1.8, eps)


def test_sp_temp_single_site():
    N = 8
    s = LatticeState.zeros(N)
    s.q[s.index(2)] = 1.0
    s.q[s.index(-2)] = -1.0
    times = np.linspace(0, 1, 4)
    states = [s.copy() for _ in times]
    ok, ratio, _ = sp_temp_check(times, states, 3.0, 2.0)
    # one active site: sup equals the sum, ratio is the weight ratio <k>^{-(s-s')}
    assert ok
    assert ratio == pytest.approx((1 + 4.0) ** (-0.5), rel=1e-12)
