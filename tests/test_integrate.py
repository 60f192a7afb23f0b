import tracemalloc

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
    # step of size t; the whole run is one kernel call
    calls = []
    monkeypatch.setattr(integrate, "step_arrays",
                        lambda p, q, V, eps, h, n: calls.append((h, n)))
    flow(random_state(rng, N=2), V8, 0.1, t, dt)
    assert len(calls) == 1
    (h, n), = calls
    assert [h] * n == pytest.approx(steps, rel=1e-15)


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

    Sites beyond |k| of about 150 lie below e^2 max a (e = 2^-52), so the
    kernel's stepped support ends inside the chain.
    """
    ks = np.arange(-N, N + 1)
    env = 0.3 * np.exp(-np.abs(ks) / 2.0)
    return env * rng.standard_normal(ks.size), env * rng.standard_normal(ks.size)


def test_step_arrays_matches_oracle(rng):
    V = PotentialSpec(((8, 1.0), (10, -0.3)))
    N = 8
    p, q = 0.3 * rng.standard_normal(2 * N + 1), 0.3 * rng.standard_normal(2 * N + 1)
    p_ref, q_ref = p.copy(), q.copy()
    step_arrays(p, q, V, 0.1, 0.05, 100)
    for _ in range(100):
        _oracle_step_arrays(p_ref, q_ref, V, 0.1, 0.05)
    assert np.max(np.abs(p - p_ref)) < 1e-14
    assert np.max(np.abs(q - q_ref)) < 1e-14
    # localized states whose support ends inside the chain
    N = 256
    for V in (PotentialSpec.monomial(8), PotentialSpec(((8, 1.0), (10, -0.3)))):
        p, q = _localized(rng, N)
        p_ref, q_ref = p.copy(), q.copy()
        step_arrays(p, q, V, 0.1, 0.05, 100)
        for _ in range(100):
            _oracle_step_arrays(p_ref, q_ref, V, 0.1, 0.05)
        amp = np.maximum(np.abs(p), np.abs(q))
        assert amp[0] < np.finfo(float).eps ** 2 * amp.max()
        bound = 1e-14 * np.max(np.abs(q_ref))
        assert np.max(np.abs(p - p_ref)) < bound
        assert np.max(np.abs(q - q_ref)) < bound


def test_state_below_q_cut_steps_like_the_harmonic_chain(rng):
    V = PotentialSpec(((8, 1.0), (10, -0.3)))
    N = 16
    p, q = 1e-50 * rng.standard_normal(2 * N + 1), 1e-50 * rng.standard_normal(2 * N + 1)
    p_lin, q_lin = p.copy(), q.copy()
    p_ref, q_ref = p.copy(), q.copy()
    for _ in range(100):
        _oracle_step_arrays(p_ref, q_ref, V, 0.1, 0.05)
    # V' of 1e-50 underflows to exactly 0, so the kicks leave p as V = 0 does
    step_arrays(p, q, V, 0.1, 0.05, 100)
    step_arrays(p_lin, q_lin, PotentialSpec.zero(), 0.1, 0.05, 100)
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
    # sites below e^2 max a (e = 2^-52) are left out of the steps, so after n
    # steps each site may differ from the full-chain oracle by n e^2 max a, on
    # top of the rounding that the oracle's own order of operations leaves,
    # which is relative to the site's own amplitude.  That holds for one call
    # of n steps, blocks and all, and for n calls of one step each
    N, n = 512, 2000
    p, q = _kicked(N, 0.05, "localized")
    p_ref, q_ref = p.copy(), q.copy()
    p_one, q_one = p.copy(), q.copy()
    step_arrays(p, q, V8, 0.05, 0.02, n)
    for _ in range(n):
        step_arrays(p_one, q_one, V8, 0.05, 0.02, 1)
        _oracle_step_arrays(p_ref, q_ref, V8, 0.05, 0.02)
    amp = np.maximum(np.abs(p_ref), np.abs(q_ref))
    assert amp[0] < 1e-40 * amp.max()      # the support ends inside the chain
    bound = 1e-12 * amp + n * np.finfo(float).eps ** 2 * amp.max()
    for p_got, q_got in ((p, q), (p_one, q_one)):
        assert np.all(np.abs(p_got - p_ref) <= bound)
        assert np.all(np.abs(q_got - q_ref) <= bound)
    assert np.all(np.abs(p - p_one) <= bound)
    assert np.all(np.abs(q - q_one) <= bound)


def test_a_block_carries_a_value_as_far_as_the_full_chain_does(V8):
    # one site of 513 excited and the rest exactly zero: the oracle carries the
    # value 3 sites per step, so a block of k steps must step 3k sites on each
    # side of it; after 100 steps the 4th neighbour holds 5.7e-8 and the 12th
    # 3.6e-32
    N, n = 256, 100
    p, q = np.zeros(2 * N + 1), np.zeros(2 * N + 1)
    q[N] = 0.5
    p_ref, q_ref = p.copy(), q.copy()
    step_arrays(p, q, V8, 0.05, 0.02, n)
    for _ in range(n):
        _oracle_step_arrays(p_ref, q_ref, V8, 0.05, 0.02)
    amp = np.maximum(np.abs(p_ref), np.abs(q_ref))
    bound = 1e-12 * amp + n * np.finfo(float).eps ** 2 * amp.max()
    assert np.all(np.abs(p - p_ref) <= bound)
    assert np.all(np.abs(q - q_ref) <= bound)


def _count_scans(monkeypatch):
    """Record the (steps, support) of every scan of the chain."""
    scan = integrate._scan
    scans = []

    def recorded(p, q, k):
        support = scan(p, q, k)
        scans.append((k, support))
        return support

    monkeypatch.setattr(integrate, "_scan", recorded)
    return scans


def _rotated_sizes(monkeypatch):
    """Record the number of sites of every rotation, which is the stepped support."""
    drot = integrate.drot
    sizes = []

    def recorded(x, y, c, s, n, *args):
        sizes.append(n)
        return drot(x, y, c, s, n, *args)

    monkeypatch.setattr(integrate, "drot", recorded)
    return sizes


def _where(x):
    """The first address and the size of an array, which fix a slice of a chain."""
    return x.__array_interface__["data"][0], x.size


@pytest.mark.parametrize("state", ["kicked", "below-1e-13"])
def test_v_prime_acts_on_the_slice_the_rotations_step(V8, monkeypatch, state):
    # at every kick V' is raised on the slice of q that the rotation before it
    # stepped.  The second state's largest amplitude, 1e-20, is below
    # q_cut / (sqrt(2) e^2) = 1.2e-13 for q^8 (e = 2^-52), and its site 20, at
    # 1e-48, lies between e^2 max a = 4.9e-52 and q_cut / sqrt(2) = 5.9e-45, at
    # the left end of the support's core
    if state == "kicked":
        p, q = _kicked(512, 0.05, "localized")
    else:
        p, q = np.zeros(257), np.zeros(257)
        q[128], q[20] = 1e-20, 1e-48
    drot, derivative_factors = integrate.drot, PotentialSpec.derivative_factors
    rotated, raised = [], []

    def rotate(x, y, c, s, n, *args):
        rotated.append(_where(x))
        return drot(x, y, c, s, n, *args)

    def raise_v_prime(self, q_slice, work):
        raised.append((rotated[-1], _where(q_slice)))
        return derivative_factors(self, q_slice, work)

    monkeypatch.setattr(integrate, "drot", rotate)
    monkeypatch.setattr(PotentialSpec, "derivative_factors", raise_v_prime)
    scans = _count_scans(monkeypatch)
    n = 40
    step_arrays(p, q, V8, 0.05, 0.02, n)
    assert len(raised) == len(_KICKS) * n
    assert all(stepped == argument for stepped, argument in raised)
    assert all(support.stop - support.start < p.size for _, support in scans)
    if state != "kicked":
        assert all(support.start <= 20 for _, support in scans)


@pytest.mark.parametrize("V", [PotentialSpec.zero(), PotentialSpec(((8, 1.0), (8, -1.0)))],
                         ids=["zero", "cancelling"])
def test_zero_potential_steps_without_v_prime(V, monkeypatch):
    def no_force(self, q, work):
        raise AssertionError("V' raised for V = 0")

    monkeypatch.setattr(PotentialSpec, "derivative_factors", no_force)
    p, q = _kicked(64, 0.05, "localized")
    p_lin, q_lin = p.copy(), q.copy()
    step_arrays(p, q, V, 0.05, 0.02, 50)
    step_arrays(p_lin, q_lin, PotentialSpec.zero(), 0.05, 0.02, 50)
    assert np.array_equal(p, p_lin) and np.array_equal(q, q_lin)
    assert not np.array_equal(q, _kicked(64, 0.05, "localized")[1])


def test_spread_out_or_non_finite_state_steps_every_site(V8, monkeypatch):
    sizes = _rotated_sizes(monkeypatch)
    p, q = _kicked(256, 0.05, "uniform")
    step_arrays(p, q, V8, 0.05, 0.02, 10)
    assert len(sizes) == 10 * len(_ROTATIONS) and set(sizes) == {p.size}
    # one NaN in a localized state: every site is stepped, so the NaN spreads by
    # the reach of a step
    p, q = _kicked(256, 0.05, "localized")
    q[3] = np.nan
    sizes.clear()
    with np.errstate(invalid="ignore"):
        step_arrays(p, q, V8, 0.05, 0.02, 1)
    assert sizes == [p.size] * len(_ROTATIONS)
    assert np.isnan(p[:7]).all()


def test_a_call_scans_the_chain_once_per_block(V8, monkeypatch):
    # a localized state: the blocks are several steps long, each stepping a
    # support widened by its own reach
    scans = _count_scans(monkeypatch)
    sizes = _rotated_sizes(monkeypatch)
    n = 200
    p, q = _kicked(512, 0.05, "localized")
    step_arrays(p, q, V8, 0.05, 0.02, n)
    steps = [k for k, _ in scans]
    assert sum(steps) == n and len(scans) < n / 4
    assert max(sizes) < p.size
    assert len(sizes) == len(_ROTATIONS) * n


@pytest.mark.parametrize("n", [0, -1, 1.5, 2.0, "2", None])
def test_step_arrays_rejects_a_step_count_that_is_not_a_positive_integer(V8, n):
    p, q = _kicked(8, 0.05, "localized")
    p0, q0 = p.copy(), q.copy()
    with pytest.raises(ValueError, match="whole number of steps"):
        step_arrays(p, q, V8, 0.05, 0.02, n)
    assert np.array_equal(p, p0) and np.array_equal(q, q0)


def test_a_block_allocates_a_few_support_sized_arrays(V8, monkeypatch):
    # the scan makes chain-sized temporaries; between scans a block holds its
    # three V' work rows and a few views, so its peak is set by the support,
    # not by the number of steps, and a kick that allocates shows as one more
    # array
    scan = integrate._scan
    started, blocks = [], []        # blocks: (support sites, peak bytes of the block)

    def end_block():
        if started:
            sites, held = started.pop()
            blocks.append((sites, tracemalloc.get_traced_memory()[1] - held))

    def scan_then_reset(*args):
        end_block()
        support = scan(*args)
        tracemalloc.reset_peak()
        started.append((support.stop - support.start, tracemalloc.get_traced_memory()[0]))
        return support

    monkeypatch.setattr(integrate, "_scan", scan_then_reset)
    p, q = _kicked(2048, 0.05, "localized")
    step_arrays(p, q, V8, 0.05, 0.02, 20)       # warm up the interpreter's caches
    tracemalloc.start()
    try:
        for n in (20, 1000):
            step_arrays(p, q, V8, 0.05, 0.02, n)
            end_block()
    finally:
        tracemalloc.stop()
    assert len(blocks) > 20
    for sites, peak in blocks:
        assert sites < p.size / 2
        assert peak <= 3 * 8 * sites + 2048, (sites, peak)


def test_step_arrays_refuses_a_strided_view(rng, V8):
    # BLAS would update a contiguous copy of the view and the step would be lost
    p, q = rng.standard_normal(34), rng.standard_normal(34)
    p0, q0 = p.copy(), q.copy()
    with pytest.raises(ValueError, match="C-contiguous"):
        step_arrays(p[::2], q[::2], V8, 0.1, 0.05, 1)
    assert np.array_equal(p, p0) and np.array_equal(q, q0)


@pytest.mark.parametrize("N", [1, 2, 8])
def test_coupling_force_matches_oracle(rng, N):
    q = rng.standard_normal(2 * N + 1)
    assert np.allclose(coupling_force(q), _oracle_coupling_force(q), rtol=0.0, atol=1e-15)
