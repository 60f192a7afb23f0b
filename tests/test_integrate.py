import numpy as np
import pytest
from scipy.integrate import solve_ivp

from breatherlab.integrate import (_SCHEMES, BlowupError, IntegratorConfig, evolve, flow,
                                   step, step_arrays)
from breatherlab.lattice import LatticeState, coupling_force, hamiltonian, norm, vector_field
from breatherlab.potential import PotentialSpec


def random_state(rng, N=16, scale=0.3):
    return LatticeState(N, scale * rng.standard_normal(2 * N + 1),
                        scale * rng.standard_normal(2 * N + 1))


def reference_flow(state, V, eps, t, rtol=1e-13):
    sol = solve_ivp(lambda _, y: vector_field(y, V, eps, state.N), (0, t),
                    np.concatenate([state.p, state.q]), method="DOP853", rtol=rtol,
                    atol=1e-14)
    return LatticeState(state.N, *np.split(sol.y[:, -1], 2), state.include_site0)


def test_exact_rotation_when_uncoupled(rng, V0):
    s = random_state(rng, N=4)
    dt = 0.3
    out = step(s, V0, 0.0, dt, "strang2")
    c, si = np.cos(dt), np.sin(dt)
    assert np.allclose(out.p, c * s.p - si * s.q, atol=1e-15)
    assert np.allclose(out.q, si * s.p + c * s.q, atol=1e-15)


def test_reversibility(rng, V8):
    s = random_state(rng, N=8, scale=0.4)
    for scheme in ("strang2", "yoshida4"):
        out = step(step(s, V8, 0.1, 0.05, scheme), V8, 0.1, -0.05, scheme)
        assert np.allclose(out.p, s.p, atol=1e-14)
        assert np.allclose(out.q, s.q, atol=1e-14)


def test_matches_reference_integration(rng, V8):
    s = random_state(rng, N=64, scale=0.3)
    eps, t = 0.1, 10.0
    ref = reference_flow(s, V8, eps, t)
    out = flow(s, V8, eps, t, dt=0.0025, scheme="yoshida4")
    assert norm(out - ref, 2) < 1e-8


def test_convergence_orders(rng, V8):
    s = random_state(rng, N=8, scale=0.3)
    eps, t = 0.1, 5.0
    ref = reference_flow(s, V8, eps, t)
    for scheme, order in (("strang2", 2.0), ("yoshida4", 4.0)):
        dts = np.array([0.1, 0.05, 0.025, 0.0125])
        errs = np.array([norm(flow(s, V8, eps, t, dt=dt, scheme=scheme) - ref, 2)
                         for dt in dts])
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope == pytest.approx(order, rel=0.10)


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
            out = step(st, V8, eps, dt, "yoshida4")
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
    config = IntegratorConfig(t_final=2000.0, dt=0.05, scheme="yoshida4")
    rec = evolve(s, V8, eps, config, {"H": lambda st: hamiltonian(st, V8, eps)},
                 sample_stride=400)
    H = rec.observables["H"]
    assert np.max(np.abs(H - H[0])) / abs(H[0]) < 1e-8


def test_evolve_zero_state(V8):
    rec = evolve(LatticeState.zeros(4), V8, 0.1, IntegratorConfig(t_final=1.0, dt=0.05),
                 {"n2": lambda s: norm(s, 2)}, sample_stride=5)
    assert np.all(rec.observables["n2"] == 0.0)


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
    non = flow(s, V8, eps, t, dt=0.005, scheme="yoshida4")
    assert norm(non - lin, 2) < 10 * a ** 7 + 1e-12


def test_stability_guard():
    with pytest.raises(ValueError):
        IntegratorConfig(t_final=1.0, dt=0.6).check_stability(0.1)


def test_blowup_detection(V0):
    # negative quartic with large amplitude escapes to infinity
    V = PotentialSpec(((4, -1.0),), min_degree=4)
    s = LatticeState.zeros(2)
    s.q[s.index(0)] = 3.0
    with pytest.raises(BlowupError):
        evolve(s, V, 0.0, IntegratorConfig(t_final=50.0, dt=0.05), {}, sample_stride=1)


def _oracle_coupling_force(q, pinned_center, N):
    """The Laplacian built by inserting the pinned site and padding the ghosts."""
    full = np.insert(q, N, 0.0) if pinned_center else q
    padded = np.concatenate(([0.0], full, [0.0]))
    lap = padded[2:] + padded[:-2] - 2.0 * padded[1:-1]
    if pinned_center:
        keep = np.ones(full.size, dtype=bool)
        keep[N] = False
        return lap[keep]
    return lap


def _oracle_step_arrays(p, q, V, eps, dt, scheme, pinned, N):
    """The splitting step with fresh arrays per substep and a dense polyval force."""
    dV = np.polynomial.polynomial.polyder(
        np.bincount([m for m, _ in V.coefficients], [a for _, a in V.coefficients]))
    rots, kicks = _SCHEMES[scheme]

    def rotate(tau):
        c, s = np.cos(tau), np.sin(tau)
        p_new = c * p - s * q
        q[:] = s * p + c * q
        p[:] = p_new

    for i, ck in enumerate(kicks):
        rotate(rots[i] * dt)
        tau = ck * dt
        p += tau * (eps * _oracle_coupling_force(q, pinned, N)
                    - np.polynomial.polynomial.polyval(q, dV))
    rotate(rots[-1] * dt)


@pytest.mark.parametrize("pinned", [False, True], ids=["full", "pinned"])
def test_step_arrays_matches_oracle(rng, pinned):
    V = PotentialSpec(((8, 1.0), (10, -0.3)))
    N = 8
    n = 2 * N if pinned else 2 * N + 1
    p, q = 0.3 * rng.standard_normal(n), 0.3 * rng.standard_normal(n)
    p_ref, q_ref = p.copy(), q.copy()
    for _ in range(100):
        step_arrays(p, q, V, 0.1, 0.05, "yoshida4", pinned, N)
        _oracle_step_arrays(p_ref, q_ref, V, 0.1, 0.05, "yoshida4", pinned, N)
    assert np.max(np.abs(p - p_ref)) < 1e-14
    assert np.max(np.abs(q - q_ref)) < 1e-14


@pytest.mark.parametrize("N", [1, 2, 8])
def test_coupling_force_matches_oracle(rng, N):
    for pinned in (False, True):
        q = rng.standard_normal(2 * N if pinned else 2 * N + 1)
        assert np.allclose(coupling_force(q, pinned, N),
                           _oracle_coupling_force(q, pinned, N), rtol=0.0, atol=1e-15)
    # the pinned site exerts no force at all: the two half-chains decouple
    q = np.zeros(2 * N)
    q[:N] = rng.standard_normal(N)
    assert np.all(coupling_force(q, True, N)[N:] == 0.0)
