import numpy as np
import pytest

from breatherlab import breather as br
from breatherlab import integrate as tint
from breatherlab.breather import (continue_breather, floquet_spectrum, localization_rate,
                                  monodromy, orbit_defect)
from breatherlab.lattice import LatticeState, norm, vector_field
from breatherlab.potential import (PotentialSpec, build_chart, h0_of_action, omega0,
                                   period_of_energy, sample_orbit)


@pytest.fixture(scope="module")
def seed(chart8):
    """The eps = 0 member: the anti-continuum breather, site 0 alone on its orbit."""
    return continue_breather(chart8, [0.4], 0.0, 24)[0]


@pytest.fixture(scope="module")
def breather005(chart8):
    return continue_breather(chart8, [0.4], 0.05, 24)[0]


def test_seed_structure(seed, chart8, V8):
    x = seed.x0
    ks = x.sites()
    off = ks != 0
    assert np.all(seed.orbit[:, :, off] == 0.0)
    assert x.p[x.index(0)] == 0.0
    # site 0 is the uncoupled oscillator's orbit at every phase, flowed by DOP853
    # at a tolerance below the bound
    _, p, q = sample_orbit(chart8, 0.4, 64, rtol=1e-13)
    assert np.max(np.abs(seed.orbit[0, :, x.index(0)] - p)) < 1e-12
    assert np.max(np.abs(seed.orbit[1, :, x.index(0)] - q)) < 1e-12
    assert seed.period == pytest.approx(2 * np.pi / omega0(chart8, 0.4), rel=1e-12)
    # period from the independent quadrature
    E = h0_of_action(chart8, 0.4)
    assert seed.period == pytest.approx(period_of_energy(V8, E), rel=1e-10)
    # decoupled flow: defect of the seed vanishes
    assert orbit_defect(x, V8, 0.0, seed.period) < 1e-11


def test_continue_to_zero_returns_seed(seed, chart8):
    # the member at eps = 0 closes, and its section is the uncoupled oscillator's
    # turning point on site 0 with every other site at rest
    assert seed.defect < 1e-11
    x = LatticeState.zeros(24)
    x.q[x.index(0)] = sample_orbit(chart8, 0.4, 1)[2][0]
    assert norm(seed.x0 - x, 2) < 1e-12


def test_continuation_converges(breather005, V8):
    assert breather005.defect < 1e-10
    assert breather005.eps == 0.05
    # defect re-evaluated at tighter tolerance (DOP853's floor, 100 machine
    # epsilons) stays at the converged level
    d2 = orbit_defect(breather005.x0, V8, 0.05, breather005.period,
                      rtol=100 * np.finfo(float).eps)
    assert abs(d2 - breather005.defect) < 1e-10


def test_continuation_smooth_in_eps(chart8):
    b1, = continue_breather(chart8, [0.4], 0.02, 24)
    b2, = continue_breather(chart8, [0.4], 0.03, 24)
    b3, = continue_breather(chart8, [0.4], 0.04, 24)
    d12 = norm(b2.x0 - b1.x0, 2)
    d23 = norm(b3.x0 - b2.x0, 2)
    assert d23 == pytest.approx(d12, rel=0.5)  # linear in delta eps


def test_first_neighbor_linear_response(chart8):
    bs = {eps: continue_breather(chart8, [0.4], eps, 24)[0] for eps in (0.02, 0.04)}
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


def test_localization_strengthens_as_coupling_shrinks(chart8):
    betas = []
    for eps in (0.08, 0.04, 0.02):
        b, = continue_breather(chart8, [0.4], eps, 24)
        betas.append(localization_rate(b.orbit)[0])
    assert betas[0] < betas[1] < betas[2]


def test_localization_degenerate_at_zero(seed):
    beta, _ = localization_rate(seed.orbit)
    assert np.isinf(beta)


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
    M = monodromy(breather005.x0, V8, 0.05, breather005.period,
                  np.eye(2 * breather005.x0.q.size), dt=0.01)
    n = (M.shape[0]) // 2
    J = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    err = M.T @ J @ M - J
    assert np.max(np.abs(err)) < 1e-6


@pytest.fixture(scope="module")
def breather16(chart8):
    return continue_breather(chart8, [0.4], 0.05, 16)[0]


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
    M = monodromy(b.x0, V8, b.eps, b.period, np.eye(66))
    M_ref = _oracle_monodromy(b.x0, V8, b.eps, b.period)
    assert M.shape == M_ref.shape == (66, 66)
    assert np.max(np.abs(M - M_ref)) <= 1e-12 * np.max(np.abs(M_ref))
    # the columns are stepped apart, so a block of them is the same map
    np.testing.assert_array_equal(monodromy(b.x0, V8, b.eps, b.period, np.eye(66, 33, -33)),
                                  M[:, 33:])


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
        M = br.monodromy(cur, V, eps, T, np.eye(d))
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
    # the full-period shooting Newton by DOP853 and the splitting tangent, from
    # a kicked section, lands on the section of the cosine series, whose
    # coefficients fix the orbit from its half period alone
    b = breather16
    x_ref, _, _ = _oracle_newton_polish(kicked_guess, V8, b.eps, b.period, 1e-11, 10)
    assert np.max(np.abs(b.x0.q - x_ref.q)) < 1e-12
    assert np.max(np.abs(b.x0.p - x_ref.p)) < 1e-12


def test_half_period_solve_puts_every_p_at_zero(breather16):
    # the series is even in t, so every p is zero at t = 0 and again at t = T/2
    b = breather16
    half = b.orbit.shape[1] // 2
    assert np.all(b.x0.p == 0.0)
    assert np.all(b.orbit[0, 0] == 0.0)
    assert np.max(np.abs(b.orbit[0, half])) < 1e-12 * np.max(np.abs(b.orbit[0]))


def test_defect_is_the_full_period_return_defect(breather16, V8):
    b = breather16
    assert abs(b.defect - orbit_defect(b.x0, V8, b.eps, b.period)) < 1e-13
    assert b.defect < 1e-11


def test_unclosed_orbit_is_rejected(breather16, kicked_guess, chart8, monkeypatch):
    # a solve that reports convergence on the kicked section's coefficients
    b = breather16
    a = b.coeffs.copy()
    a[:, 0] += kicked_guess.q - b.x0.q
    monkeypatch.setattr(br, "_harmonic_balance", lambda *args: (b.harmonics, a[:, None]))
    with pytest.raises(br.ContinuationError,
                       match="member I=0.4: full-period return defect"):
        continue_breather(chart8, [0.4], 0.05, 16)


@pytest.mark.parametrize("eps", [0.02, 0.05, 0.08])
def test_tabulated_orbit_follows_the_adaptive_flow(chart8, V8, eps):
    b, = continue_breather(chart8, [0.4], eps, 16, n_phases=16)
    times = b.period * np.arange(16) / 16
    p, q = np.split(br.flow_map(b.x0, V8, eps, times[-1], t_eval=times).y.T, 2, axis=1)
    assert b.orbit.shape == (2, 16, 33)
    assert np.max(np.abs(b.orbit[0] - p)) < 1e-11
    assert np.max(np.abs(b.orbit[1] - q)) < 1e-11


def test_series_cut_below_its_tail_floor_is_rejected(chart8, monkeypatch):
    # with 16 odd harmonics the top one is 3e-14 of the largest at I = 0.35,
    # but 3.7e-13 at I = 0.45
    monkeypatch.setattr(br, "_MODES", 32)
    with pytest.raises(br.ContinuationError, match=r"member I=0.45: harmonic 31 is 3\.7\d\de-13"):
        continue_breather(chart8, [0.35, 0.45], 0.05, 16)


def test_members_in_the_phonon_band_are_rejected_before_newton(chart8, monkeypatch):
    # omega0(0.18) = 1.0812 lies below sqrt(1 + 4 * 0.05) = 1.0954
    def no_solve(*args):
        raise AssertionError("Newton ran before the band check")

    monkeypatch.setattr(br, "_harmonic_balance", no_solve)
    with pytest.raises(ValueError, match=r"member I=0.18 has omega0\(I\)=1.0812.*"
                                         r"sqrt\(1 \+ 4 eps\)=1.09545"):
        continue_breather(chart8, [0.3, 0.18], 0.05, 16)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_harmonic_member_at_eps_0_is_rejected_before_newton(chart0, monkeypatch):
    # omega0 = 1 at every action, the band's top at eps = 0; the chart reads 1 + 2^-52,
    # which passed the band check, and Newton ran to NaN after a divide warning
    def no_solve(*args):
        raise AssertionError("Newton ran before the band check")

    monkeypatch.setattr(br, "_harmonic_balance", no_solve)
    with pytest.raises(ValueError, match=r"member I=0.4 has omega0\(I\)=1, in the phonon band, "
                                         r"whose top is sqrt\(1 \+ 4 eps\)=1 at eps=0"):
        continue_breather(chart0, [0.4], 0.0, 8)


def test_localization_error_names_the_member_and_eps(chart8):
    # at eps = 1e-9 only sites +-1 rise above 1e-13 on 25 sites: the orbit closes,
    # so the solver keeps it, and only the rate's fit, which needs 3 sites, fails
    member, = continue_breather(chart8, [0.4], 1e-9, 12)
    assert member.defect < 1e-11
    with pytest.raises(br.LocalizationError,
                       match=r"^fewer than 3 sites above the amplitude floor: 2 of the sites "
                             r"k != 0 above 1e-13$"):
        localization_rate(member.orbit)


def test_odd_potential_keeps_every_harmonic():
    V = PotentialSpec(((8, 1.0), (9, 0.5)))
    chart = build_chart(V, 0.3, 0.5, n_grid=64)
    b, = continue_breather(chart, [0.4], 0.05, 12)
    assert np.array_equal(b.harmonics, np.arange(48))
    assert b.defect < 1e-11
    assert np.max(np.abs(b.coeffs[:, 2])) > 1e-3 * np.max(np.abs(b.coeffs))


@pytest.mark.parametrize("coefficients, harmonics", [
    (((8, 1.0),), np.arange(1, br._MODES, 2)),
    (((8, 1.0), (9, 0.5)), np.arange(br._MODES)),
], ids=["q8-odd-harmonics", "q8-q9-every-harmonic"])
def test_harmonic_blocks_match_the_collocation_product(rng, coefficients, harmonics):
    # the Jacobian's blocks from V'''s cosine means against P diag(V'') C, the
    # collocated V'' projected back on the harmonics, on orbit-like coefficients
    V = PotentialSpec(coefficients)
    C = np.cos(np.outer(2.0 * np.pi * np.arange(br._PHASES) / br._PHASES, harmonics))
    P = np.where(harmonics == 0, 1.0, 2.0)[:, None] / br._PHASES * C.T
    a = 0.4 * rng.standard_normal((5, 3, harmonics.size)) * 0.6 ** np.arange(harmonics.size)
    q = a @ C.T
    want = (P * V.second_derivative(q)[..., None, :]) @ C
    got = br._harmonic_blocks(V, q, harmonics)
    assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))
