from dataclasses import replace

import numpy as np
import pytest

from breatherlab import breather as br
from breatherlab import integrate as tint
from breatherlab.breather import (anti_continuum_seed, continue_breather,
                                  distance_to_unperturbed, floquet_spectrum,
                                  localization_rate, monodromy, orbit_defect)
from breatherlab.lattice import LatticeState, norm, vector_field
from breatherlab.potential import h0_of_action, nonresonance_margin, omega0, period_of_energy


@pytest.fixture(scope="module")
def seed(chart8):
    return anti_continuum_seed(chart8, 0.4, N=24)


@pytest.fixture(scope="module")
def breather005(seed, V8, chart8):
    return continue_breather(seed, V8, 0.05, eps_step=0.01, chart=chart8)


def test_seed_structure(seed, chart8, V8):
    x = seed.x0
    ks = x.sites()
    off = ks != 0
    assert np.all(x.q[off] == 0.0) and np.all(x.p[off] == 0.0)
    assert x.p[x.index(0)] == 0.0
    assert seed.period == pytest.approx(2 * np.pi / omega0(chart8, 0.4), rel=1e-12)
    # period from the independent quadrature
    E = h0_of_action(chart8, 0.4)
    assert seed.period == pytest.approx(period_of_energy(V8, E), rel=1e-10)
    # decoupled flow: defect of the seed vanishes
    assert orbit_defect(x, V8, 0.0, seed.period) < 1e-11


def test_harmonic_seed_is_resonant(chart0):
    s = anti_continuum_seed(chart0, 0.4, N=8)
    assert nonresonance_margin(chart0, 0.35, 0.45, 4) == pytest.approx(0.0, abs=1e-12)
    assert s.period == pytest.approx(2 * np.pi)


def test_continue_to_zero_returns_seed(seed, V8, chart8):
    b = continue_breather(seed, V8, 0.0, chart=chart8)
    assert b.defect < 1e-11
    assert norm(b.x0 - seed.x0, 2) < 1e-12


def test_continuation_converges(breather005, V8):
    assert breather005.defect < 1e-10
    assert breather005.eps == 0.05
    # defect re-evaluated at tighter tolerance (DOP853's floor, 100 machine
    # epsilons) stays at the converged level
    d2 = orbit_defect(breather005.x0, V8, 0.05, breather005.period,
                      rtol=100 * np.finfo(float).eps)
    assert abs(d2 - breather005.defect) < 1e-10


def test_continuation_smooth_in_eps(seed, V8, chart8):
    b1 = continue_breather(seed, V8, 0.02, chart=chart8)
    b2 = continue_breather(seed, V8, 0.03, chart=chart8)
    b3 = continue_breather(seed, V8, 0.04, chart=chart8)
    d12 = norm(b2.x0 - b1.x0, 2)
    d23 = norm(b3.x0 - b2.x0, 2)
    assert d23 == pytest.approx(d12, rel=0.5)  # linear in delta eps


def test_first_neighbor_linear_response(seed, V8, chart8):
    bs = {eps: continue_breather(seed, V8, eps, chart=chart8) for eps in (0.02, 0.04)}
    amps = {}
    for eps, b in bs.items():
        x = b.x0
        off = np.abs(x.sites()) == 1
        amps[eps] = np.max(np.abs(x.q[off]))
    assert amps[0.04] / amps[0.02] == pytest.approx(2.0, rel=0.25)


def test_localization(breather005):
    beta, r2 = localization_rate(breather005.orbit)
    assert beta > 0
    assert r2 > 0.99


def test_localization_strengthens_as_coupling_shrinks(seed, V8, chart8):
    betas = []
    for eps in (0.08, 0.04, 0.02):
        b = continue_breather(seed, V8, eps, chart=chart8)
        betas.append(localization_rate(b.orbit)[0])
    assert betas[0] < betas[1] < betas[2]


def test_localization_degenerate_at_zero(seed):
    beta, _ = localization_rate(seed.orbit)
    assert np.isinf(beta)


def test_distance_to_unperturbed_zero_coupling(seed, chart8):
    assert distance_to_unperturbed(seed, chart8) < 1e-10


def test_distance_scaling(seed, V8, chart8):
    # the distance tracks sqrt(eps) within a factor 2 per eps-doubling (the
    # measured scaling is slightly above linear in eps, i.e. well inside the
    # sqrt(eps) bound, so the ratio drifts downward as eps shrinks)
    ratios = []
    for eps in (0.02, 0.04, 0.08):
        b = continue_breather(seed, V8, eps, chart=chart8)
        ratios.append(distance_to_unperturbed(b, chart8) / np.sqrt(eps))
    for lo, hi in zip(ratios, ratios[1:]):
        assert 0.5 < hi / lo < 2.0


def test_distance_finite_in_plus_weight_below_localization(breather005, chart8):
    beta_hat = breather005.beta_hat
    d = distance_to_unperturbed(breather005, chart8, beta=min(1.0, 0.5 * beta_hat))
    assert np.isfinite(d)


def test_floquet_uncoupled(seed, V8):
    res = floquet_spectrum(seed, V8, dt=0.002)
    # Jordan pair at 1 splits like sqrt(monodromy error)
    assert res.trivial_pair_error < 1e-3
    # rest sites rotate by the period: eigenvalues e^{+-iT}
    target = np.exp(1j * seed.period)
    others = res.eigenvalues[np.abs(res.eigenvalues - 1.0) > 1e-4]
    dist = np.minimum(np.abs(others - target), np.abs(others - np.conj(target)))
    assert np.max(dist) < 1e-8


def test_floquet_symplectic_symmetry(breather005, V8):
    res = floquet_spectrum(breather005, V8)
    eigs = res.eigenvalues
    # spectrum invariant under lambda -> 1/lambda
    for lam in eigs[:: len(eigs) // 8]:
        assert np.min(np.abs(eigs - 1.0 / lam)) < 1e-7
    assert res.max_modulus_excess < 1e-6


def test_monodromy_symplectic(breather005, V8):
    M = monodromy(breather005.x0, V8, 0.05, breather005.period, dt=0.01)
    n = (M.shape[0]) // 2
    J = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    err = M.T @ J @ M - J
    assert np.max(np.abs(err)) < 1e-6


@pytest.fixture(scope="module")
def breather16(chart8, V8):
    return continue_breather(anti_continuum_seed(chart8, 0.4, N=16), V8, 0.05, eps_step=0.01)


def _oracle_monodromy(x, V, eps, T, dt=0.01):
    """Two-block tangent map: state and (Dp, Dq) stepped apart, dense polyval forces."""
    poly = np.polynomial.polynomial
    c = np.bincount([m for m, _ in V.coefficients], [a for _, a in V.coefficients])
    dV, ddV = poly.polyder(c), poly.polyder(c, 2)
    n = 2 * x.N + 1
    p, q = x.p.copy(), x.q.copy()
    Dp = np.zeros((n, 2 * n))
    Dq = np.zeros((n, 2 * n))
    Dp[:, :n] = np.eye(n)
    Dq[:, n:] = np.eye(n)
    steps = max(1, int(np.ceil(T / dt)))
    h = T / steps
    rots, kicks = tint._ROTATIONS, tint._KICKS

    def lap_cols(A):
        out = -2.0 * A
        out[:-1] += A[1:]
        out[1:] += A[:-1]
        return out

    for _ in range(steps):
        for i, ck in enumerate(kicks):
            c, s = np.cos(rots[i] * h), np.sin(rots[i] * h)
            p, q = c * p - s * q, s * p + c * q
            Dp, Dq = c * Dp - s * Dq, s * Dp + c * Dq
            tau = ck * h
            qp = np.concatenate(([0.0], q, [0.0]))
            lap = qp[2:] + qp[:-2] - 2.0 * q
            p = p + tau * (eps * lap - poly.polyval(q, dV))
            Dp = Dp + tau * (eps * lap_cols(Dq) - poly.polyval(q, ddV)[:, None] * Dq)
        c, s = np.cos(rots[-1] * h), np.sin(rots[-1] * h)
        p, q = c * p - s * q, s * p + c * q
        Dp, Dq = c * Dp - s * Dq, s * Dp + c * Dq
    return np.vstack([Dp, Dq])


def test_monodromy_matches_two_block_oracle(breather16, V8):
    b = breather16
    M = monodromy(b.x0, V8, b.eps, b.period)
    M_ref = _oracle_monodromy(b.x0, V8, b.eps, b.period)
    assert M.shape == M_ref.shape == (66, 66)
    assert np.max(np.abs(M - M_ref)) <= 1e-12 * np.max(np.abs(M_ref))


def _oracle_newton_polish(x, V, eps, T, tol, max_newton):
    """Full-period Newton for Phi_T(x) - x = 0 on the section p_0 = 0, bordered by the flow."""
    N = x.N
    n = 2 * N + 1
    d = 2 * n
    cur = x.copy()
    cur.p[cur.index(0)] = 0.0
    for it in range(max_newton + 1):
        y = np.concatenate([cur.p, cur.q])
        F = br.flow_map(cur, V, eps, T).y[:, -1] - y
        defect = float(np.linalg.norm(F))
        if defect < tol:
            return cur, defect, it
        M = br.monodromy(cur, V, eps, T)
        v = vector_field(y, V, eps)
        # border with the energy gradient (v_q, -v_p): the left kernel of
        # (M - I) is J v, which is orthogonal to v itself (Hamiltonian Jordan
        # block at 1) but not to grad H, so this keeps the system regular
        A = np.zeros((d + 1, d + 1))
        A[:d, :d] = M - np.eye(d)
        A[:d, d] = np.concatenate([v[n:], -v[:n]])
        A[d, N] = 1.0
        delta = np.linalg.solve(A, np.concatenate([-F, [0.0]]))[:d]
        cur = LatticeState(N, *np.split(y + delta, 2))
        cur.p[cur.index(0)] = 0.0
    raise AssertionError(f"oracle Newton stalled: defect {defect:.3e}")


@pytest.fixture(scope="module")
def kicked_guess(breather16):
    """The continued section with every p and q moved off the orbit by about 1e-5."""
    rng = np.random.default_rng(7)
    x = breather16.x0
    return LatticeState(x.N, x.p + 1e-5 * rng.standard_normal(x.p.size),
                        x.q + 1e-5 * rng.standard_normal(x.q.size))


def test_half_period_solve_matches_the_bordered_oracle(breather16, kicked_guess, V8):
    b = breather16
    x, defect, _ = br._newton_polish(kicked_guess, V8, b.eps, b.period, 1e-11, 10)
    x_ref, _, _ = _oracle_newton_polish(kicked_guess, V8, b.eps, b.period, 1e-11, 10)
    assert defect < 1e-11
    assert np.max(np.abs(x.q - x_ref.q)) < 1e-12
    assert np.max(np.abs(x.p - x_ref.p)) < 1e-12


def test_half_period_solve_puts_every_p_at_zero(breather16, kicked_guess, V8):
    x, _, _ = br._newton_polish(kicked_guess, V8, breather16.eps, breather16.period, 1e-11, 10)
    assert np.all(x.p == 0.0)
    assert np.all(breather16.x0.p == 0.0)


def test_defect_is_the_full_period_return_defect(breather16, V8):
    b = breather16
    assert abs(b.defect - orbit_defect(b.x0, V8, b.eps, b.period)) < 1e-13
    assert b.defect < 1e-11


def test_unclosed_orbit_is_rejected(breather16, kicked_guess, V8, monkeypatch):
    # a Newton that reports success on a point off the orbit
    monkeypatch.setattr(br, "_newton_polish", lambda x, *args: (x, 0.0, 0))
    with pytest.raises(br.ContinuationError, match="full-period return defect"):
        continue_breather(replace(breather16, x0=kicked_guess), V8, 0.05)


def test_secant_predictor_needs_two_newton_steps(chart8, V8, monkeypatch):
    seed = anti_continuum_seed(chart8, 0.4, N=16)
    # zero-order continuation on the same grid: each stage starts from the last
    zero_order = seed.x0
    for eps in np.arange(0.01, 0.055, 0.01):
        zero_order, _, _ = br._newton_polish(zero_order, V8, float(eps), seed.period,
                                             1e-11, 10)
    iterations = []
    polish = br._newton_polish

    def counting(*args, **kwargs):
        out = polish(*args, **kwargs)
        iterations.append(out[2])
        return out

    monkeypatch.setattr(br, "_newton_polish", counting)
    b = continue_breather(seed, V8, 0.05, eps_step=0.01)
    assert len(iterations) == 5
    assert max(iterations[1:]) <= 2, iterations
    assert np.max(np.abs(b.x0.p - zero_order.p)) < 1e-12
    assert np.max(np.abs(b.x0.q - zero_order.q)) < 1e-12


def test_continuation_starts_from_the_seed_eps(breather16, chart8, V8, monkeypatch):
    scratch = continue_breather(anti_continuum_seed(chart8, 0.4, N=16), V8, 0.06,
                                eps_step=0.01)
    stages = []
    polish = br._newton_polish

    def counting(*args, **kwargs):
        stages.append(args[2])
        return polish(*args, **kwargs)

    monkeypatch.setattr(br, "_newton_polish", counting)
    b = continue_breather(breather16, V8, 0.06, eps_step=0.01)
    assert stages == [pytest.approx(0.06, abs=1e-15)]
    assert np.max(np.abs(b.x0.p - scratch.x0.p)) < 1e-12
    assert np.max(np.abs(b.x0.q - scratch.x0.q)) < 1e-12


def test_continuation_below_the_seed_eps_is_rejected(breather16, V8):
    with pytest.raises(ValueError, match="below the seed's eps"):
        continue_breather(breather16, V8, 0.04)
