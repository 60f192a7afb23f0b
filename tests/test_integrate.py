import numpy as np
import pytest
from scipy.integrate import solve_ivp

from breatherlab import integrate
from breatherlab.experiments import perturb
from breatherlab.integrate import _KICKS, _ROTATIONS, check_stability, flow, step_arrays
from breatherlab.lattice import LatticeState, coupling_force, hamiltonian, norm, vector_field
from breatherlab.potential import PotentialSpec


def random_state(rng, N=16, scale=0.3):
    return LatticeState(N, scale * rng.standard_normal(2 * N + 1),
                        scale * rng.standard_normal(2 * N + 1))


def reference_flow(state, V, eps, t, rtol=1e-13):
    sol = solve_ivp(lambda _, y: vector_field(y, V, eps), (0, t),
                    np.concatenate([state.p, state.q]), method="DOP853", rtol=rtol,
                    atol=1e-14)
    return LatticeState(state.N, *np.split(sol.y[:, -1], 2))


def test_exact_rotation_when_uncoupled(rng, V0):
    s = random_state(rng, N=4)
    dt = 0.3
    out = flow(s, V0, 0.0, dt, dt)
    c, si = np.cos(dt), np.sin(dt)
    assert np.allclose(out.p, c * s.p - si * s.q, atol=1e-15)
    assert np.allclose(out.q, si * s.p + c * s.q, atol=1e-15)


def test_reversibility(rng, V8):
    s = random_state(rng, N=8, scale=0.4)
    out = flow(flow(s, V8, 0.1, 0.05, 0.05), V8, 0.1, -0.05, -0.05)
    assert np.allclose(out.p, s.p, atol=1e-14)
    assert np.allclose(out.q, s.q, atol=1e-14)


@pytest.mark.parametrize("t, dt, steps", [
    (-0.05, -0.05, [-0.05]),
    (0.2, 0.05, [0.05] * 4),
    (0.2, -0.05, [0.05] * 4),
    (-0.2, 0.05, [-0.05] * 4),
])
def test_flow_steps_toward_t_whatever_the_sign_of_dt(rng, V8, monkeypatch, t, dt, steps):
    # with dt < 0 < t the count ceil(t / dt) was below 1, and the flow took one
    # step of size t
    taken = []
    monkeypatch.setattr(integrate, "step_arrays", lambda p, q, V, eps, h: taken.append(h))
    flow(random_state(rng, N=2), V8, 0.1, t, dt)
    assert taken == pytest.approx(steps, rel=1e-15)


@pytest.mark.parametrize("dt", [0.0, -0.0, float("nan")])
def test_flow_rejects_a_step_of_no_size(rng, V8, dt):
    with pytest.raises(ValueError, match="need a nonzero step"):
        flow(random_state(rng, N=2), V8, 0.1, 1.0, dt)


def test_matches_reference_integration(rng, V8):
    s = random_state(rng, N=64, scale=0.3)
    eps, t = 0.1, 10.0
    ref = reference_flow(s, V8, eps, t)
    out = flow(s, V8, eps, t, dt=0.0025)
    assert norm(out - ref, 2) < 1e-8


def test_convergence_orders(rng, V8):
    s = random_state(rng, N=8, scale=0.3)
    eps, t = 0.1, 5.0
    ref = reference_flow(s, V8, eps, t)
    dts = np.array([0.1, 0.05, 0.025, 0.0125])
    errs = np.array([norm(flow(s, V8, eps, t, dt=dt) - ref, 2) for dt in dts])
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope == pytest.approx(4.0, rel=0.10)


def test_symplecticity_full_jacobian_small_lattice(rng, V8):
    # N = 1 gives a 6-dimensional phase space; the full one-step Jacobian of a
    # symplectic map has determinant 1
    s = random_state(rng, N=1, scale=0.3)
    eps, dt, h = 0.15, 0.05, 1e-6
    y0 = np.concatenate([s.p, s.q])
    J = np.zeros((6, 6))
    for j in range(6):
        yp, ym = y0.copy(), y0.copy()
        yp[j] += h
        ym[j] -= h
        outs = []
        for y in (yp, ym):
            st = LatticeState(1, y[:3], y[3:])
            out = flow(st, V8, eps, dt, dt)
            outs.append(np.concatenate([out.p, out.q]))
        J[:, j] = (outs[0] - outs[1]) / (2 * h)
    assert np.linalg.det(J) == pytest.approx(1.0, abs=1e-6)


def test_energy_conservation_long_run(V8):
    # amplitude chosen so the bounded splitting oscillation sits under the
    # 1e-8 target at dt = 0.05; the full t = 1e4 horizon runs in acceptance
    N = 16
    s = LatticeState.zeros(N)
    s.q[s.index(0)] = 0.35
    s.q[s.index(1)] = 0.07
    s.q[s.index(-1)] = 0.07
    eps = 0.05
    H = [hamiltonian(s, V8, eps)]
    for _ in range(100):        # t = 2000, sampled every 400 steps
        s = flow(s, V8, eps, 20.0, dt=0.05)
        H.append(hamiltonian(s, V8, eps))
    assert np.max(np.abs(np.array(H) - H[0])) / abs(H[0]) < 1e-8


def test_evolve_matches_linear_propagator_small_amplitude(V8):
    # O(amplitude^7) anharmonic force: tiny amplitudes follow the linear flow
    from breatherlab.propagator import propagate_whole_chain
    N = 64
    s = LatticeState.zeros(N)
    a = 1e-2
    for k, v in ((1, a), (2, 0.5 * a)):
        s.q[s.index(k)] = v
        s.q[s.index(-k)] = -v
    eps, t = 0.1, 20.0
    lin = propagate_whole_chain(s, t, eps)
    non = flow(s, V8, eps, t, dt=0.005)
    assert norm(non - lin, 2) < 10 * a ** 7 + 1e-12


def test_stability_guard():
    with pytest.raises(ValueError, match="violates the stability guard"):
        check_stability(0.6, 0.1)
    with pytest.raises(ValueError, match="need dt > 0"):
        check_stability(0.0, 0.1)


def _oracle_coupling_force(q):
    """The Laplacian built by padding the ghosts."""
    padded = np.concatenate(([0.0], q, [0.0]))
    return padded[2:] + padded[:-2] - 2.0 * padded[1:-1]


def _oracle_step_arrays(p, q, V, eps, dt):
    """The splitting step with fresh arrays per substep and a dense polyval force."""
    dV = np.polynomial.polynomial.polyder(
        np.bincount([m for m, _ in V.coefficients], [a for _, a in V.coefficients]))

    def rotate(tau):
        c, s = np.cos(tau), np.sin(tau)
        p_new = c * p - s * q
        q[:] = s * p + c * q
        p[:] = p_new

    for i, ck in enumerate(_KICKS):
        rotate(_ROTATIONS[i] * dt)
        tau = ck * dt
        p += tau * (eps * _oracle_coupling_force(q) - np.polynomial.polynomial.polyval(q, dV))
    rotate(_ROTATIONS[-1] * dt)


def _localized(rng, N):
    """Random sites under the envelope 0.3 exp(-|k|/2), down to 8e-57 at |k| = 256.

    Sites beyond |k| of about 200 lie below q_cut (8e-45 for q^8), so the
    kernel's live window ends inside the chain.
    """
    ks = np.arange(-N, N + 1)
    env = 0.3 * np.exp(-np.abs(ks) / 2.0)
    return env * rng.standard_normal(ks.size), env * rng.standard_normal(ks.size)


def test_step_arrays_matches_oracle(rng):
    V = PotentialSpec(((8, 1.0), (10, -0.3)))
    N = 8
    p, q = 0.3 * rng.standard_normal(2 * N + 1), 0.3 * rng.standard_normal(2 * N + 1)
    p_ref, q_ref = p.copy(), q.copy()
    for _ in range(100):
        step_arrays(p, q, V, 0.1, 0.05)
        _oracle_step_arrays(p_ref, q_ref, V, 0.1, 0.05)
    assert np.max(np.abs(p - p_ref)) < 1e-14
    assert np.max(np.abs(q - q_ref)) < 1e-14
    # localized states with sites on both sides of q_cut
    N = 256
    for V in (PotentialSpec.monomial(8), PotentialSpec(((8, 1.0), (10, -0.3)))):
        p, q = _localized(rng, N)
        p_ref, q_ref = p.copy(), q.copy()
        for _ in range(100):
            step_arrays(p, q, V, 0.1, 0.05)
            _oracle_step_arrays(p_ref, q_ref, V, 0.1, 0.05)
        live = np.abs(q) >= V.q_cut
        assert live.any() and not live.all()
        bound = 1e-14 * np.max(np.abs(q_ref))
        assert np.max(np.abs(p - p_ref)) < bound
        assert np.max(np.abs(q - q_ref)) < bound


def test_state_below_q_cut_steps_like_the_harmonic_chain(rng, monkeypatch):
    V = PotentialSpec(((8, 1.0), (10, -0.3)))
    N = 16
    p, q = 1e-50 * rng.standard_normal(2 * N + 1), 1e-50 * rng.standard_normal(2 * N + 1)
    p_lin, q_lin = p.copy(), q.copy()
    p_ref, q_ref = p.copy(), q.copy()

    def no_force(self, q):
        raise AssertionError("V' evaluated below q_cut")

    for _ in range(100):
        _oracle_step_arrays(p_ref, q_ref, V, 0.1, 0.05)
    monkeypatch.setattr(PotentialSpec, "derivative", no_force)
    for _ in range(100):
        step_arrays(p, q, V, 0.1, 0.05)
        step_arrays(p_lin, q_lin, PotentialSpec.zero(), 0.1, 0.05)
    assert np.max(np.abs(q)) < V.q_cut
    assert np.array_equal(p, p_lin) and np.array_equal(q, q_lin)
    bound = 1e-14 * np.max(np.abs(q_ref))
    assert np.max(np.abs(p - p_ref)) < bound
    assert np.max(np.abs(q - q_ref)) < bound


def _kicked(N, mu, shape, seed=1):
    """A central oscillator at q = 0.8 with a perturbation of l^2 size mu."""
    x = LatticeState.zeros(N)
    x.q[N] = 0.8
    x = perturb(x, mu, shape, seed)
    return x.p, x.q


def test_localized_kicked_state_stays_within_the_support_bound(V8):
    # sites below e^2 max a (e = 2^-52) are left out of the step, so after n
    # steps each site may differ from the full-chain oracle by n e^2 max a, on
    # top of the rounding that the oracle's own order of operations leaves,
    # which is relative to the site's own amplitude
    N, n = 512, 2000
    p, q = _kicked(N, 0.05, "localized")
    p_ref, q_ref = p.copy(), q.copy()
    for _ in range(n):
        step_arrays(p, q, V8, 0.05, 0.02)
        _oracle_step_arrays(p_ref, q_ref, V8, 0.05, 0.02)
    amp = np.maximum(np.abs(p_ref), np.abs(q_ref))
    assert amp[0] < 1e-40 * amp.max()      # the support ends inside the chain
    bound = 1e-12 * amp + n * np.finfo(float).eps ** 2 * amp.max()
    assert np.all(np.abs(p - p_ref) <= bound)
    assert np.all(np.abs(q - q_ref) <= bound)


def test_force_window_holds_every_site_at_or_above_q_cut(V8, monkeypatch):
    # dt at the stability guard for eps = 0.05.  Site 20 starts at p = q =
    # 0.9 q_cut and the first rotation lifts |q| above q_cut, which only the
    # growth factor foresees; site 9 starts at rest, and its neighbour's
    # coupling kick lifts it above q_cut by the second kick, which only the
    # reach foresees
    eps, dt = 0.05, 0.45
    check_stability(dt, eps)
    p, q = np.zeros(33), np.zeros(33)
    q[10] = 1000.0 * V8.q_cut
    p[20] = q[20] = 0.9 * V8.q_cut
    derivative = PotentialSpec.derivative
    live_sites = []

    def checked(self, q_window):
        # q_window is a slice of q, so it holds every live site iff it holds as many
        live = np.flatnonzero(np.abs(q) >= V8.q_cut)
        assert np.count_nonzero(np.abs(q_window) >= V8.q_cut) == live.size
        live_sites.extend(live)
        return derivative(self, q_window)

    monkeypatch.setattr(PotentialSpec, "derivative", checked)
    for _ in range(4):
        step_arrays(p, q, V8, eps, dt)
    assert {9, 20} <= set(live_sites)


def test_spread_out_or_non_finite_state_steps_every_site(V8, monkeypatch):
    sizes = []

    def recorded(q, out=None):
        sizes.append(q.size)
        return coupling_force(q, out=out)

    monkeypatch.setattr(integrate, "coupling_force", recorded)
    p, q = _kicked(256, 0.05, "uniform")
    for _ in range(10):
        step_arrays(p, q, V8, 0.05, 0.02)
    assert sizes == [p.size] * 10 * len(_KICKS)
    # one NaN in a localized state: every site is stepped, so the NaN spreads by
    # the reach of a step
    p, q = _kicked(256, 0.05, "localized")
    q[3] = np.nan
    sizes.clear()
    with np.errstate(invalid="ignore"):
        step_arrays(p, q, V8, 0.05, 0.02)
    assert sizes == [p.size] * len(_KICKS)
    assert np.isnan(p[:7]).all()


def test_step_arrays_refuses_a_strided_view(rng, V8):
    # BLAS would update a contiguous copy of the view and the step would be lost
    p, q = rng.standard_normal(34), rng.standard_normal(34)
    p0, q0 = p.copy(), q.copy()
    with pytest.raises(ValueError, match="C-contiguous"):
        step_arrays(p[::2], q[::2], V8, 0.1, 0.05)
    assert np.array_equal(p, p0) and np.array_equal(q, q0)


@pytest.mark.parametrize("N", [1, 2, 8])
def test_coupling_force_matches_oracle(rng, N):
    q = rng.standard_normal(2 * N + 1)
    assert np.allclose(coupling_force(q), _oracle_coupling_force(q), rtol=0.0, atol=1e-15)
