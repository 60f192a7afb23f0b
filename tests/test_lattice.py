import numpy as np
import pytest

from breatherlab import lattice
from breatherlab.csvio import read_state, write_table
from breatherlab.lattice import (ExponentialWeight, LatticeState, PolynomialWeight,
                                 hamiltonian, norm, vector_field)
from breatherlab.potential import PotentialSpec


def random_state(rng, N=32, scale=0.3):
    n = 2 * N + 1
    return LatticeState(N, scale * rng.standard_normal(n), scale * rng.standard_normal(n))


def test_hamiltonian_zero_state(V0):
    s = LatticeState.zeros(8)
    assert hamiltonian(s, V0, 0.3) == 0.0


def test_hamiltonian_single_site(V0):
    s = LatticeState.zeros(8)
    s.q[s.index(0)] = 1.0
    # two coupling bonds contribute (eps/2)(1 + 1)
    assert hamiltonian(s, V0, 0.1) == pytest.approx(0.5 + 0.1, abs=1e-15)


def test_hamiltonian_matches_naive_sum(rng, V8):
    s = random_state(rng)
    eps = 0.17
    total = 0.0
    ks = s.sites()
    qd = {int(k): s.q[s.index(int(k))] for k in ks}
    pd = {int(k): s.p[s.index(int(k))] for k in ks}
    for k in range(-s.N, s.N + 1):
        total += 0.5 * (pd[k] ** 2 + qd[k] ** 2) + qd[k] ** 8
    for k in range(-s.N - 1, s.N + 1):  # bonds, Dirichlet ghosts
        total += 0.5 * eps * (qd.get(k + 1, 0.0) - qd.get(k, 0.0)) ** 2
    assert hamiltonian(s, V8, eps) == pytest.approx(total, rel=1e-12)


def test_hamiltonian_of_a_localized_state_skips_only_the_far_field(rng, V8, monkeypatch):
    # V is evaluated only on the slice holding every |q| >= q_cut; outside it
    # each term is below tiny * |q|
    N = 128
    ks = np.arange(-N, N + 1)
    env = 10.0 ** (-200.0 * np.abs(ks) / N)
    s = LatticeState(N, env * rng.standard_normal(ks.size), env * rng.standard_normal(ks.size))
    qp = np.concatenate(([0.0], s.q, [0.0]))
    total = (0.5 * np.sum(s.p ** 2 + s.q ** 2) + np.sum(s.q ** 8)
             + 0.5 * 0.1 * np.sum(np.diff(qp) ** 2))
    assert hamiltonian(s, V8, 0.1) == pytest.approx(total, rel=1e-15)
    call = PotentialSpec.__call__
    sizes = []

    def recorded(self, q):
        sizes.append(q.size)
        return call(self, q)

    monkeypatch.setattr(PotentialSpec, "__call__", recorded)
    hamiltonian(s, V8, 0.1)
    live = np.flatnonzero(np.abs(s.q) >= V8.q_cut)
    assert sizes == [live[-1] + 1 - live[0]] and sizes[0] < ks.size


def packed(state):
    return np.concatenate([state.p, state.q])


def test_vector_field_zero_and_harmonic(rng, V0):
    f = vector_field(np.zeros(18), V0, 0.2)
    assert np.all(f == 0)
    s = random_state(rng, N=4)
    f = vector_field(packed(s), V0, 0.0)
    assert np.allclose(f[:9], -s.q) and np.allclose(f[9:], s.p)


def test_vector_field_is_symplectic_gradient(rng, V8):
    eps = 0.12
    h = 1e-6
    for _ in range(5):
        s = random_state(rng, N=8, scale=0.2)
        f = vector_field(packed(s), V8, eps)
        n = 2 * s.N + 1
        i = rng.integers(0, n)
        sp, sm = s.copy(), s.copy()
        sp.q[i] += h
        sm.q[i] -= h
        dHdq = (hamiltonian(sp, V8, eps) - hamiltonian(sm, V8, eps)) / (2 * h)
        assert f[i] == pytest.approx(-dHdq, rel=1e-5, abs=1e-8)
        sp, sm = s.copy(), s.copy()
        sp.p[i] += h
        sm.p[i] -= h
        dHdp = (hamiltonian(sp, V8, eps) - hamiltonian(sm, V8, eps)) / (2 * h)
        assert f[n + i] == pytest.approx(dHdp, rel=1e-5, abs=1e-8)


def test_norm_unit_impulse_polynomial():
    s = LatticeState.zeros(5)
    s.q[s.index(0)] = 1.0
    for r in (1.0, 2.0, np.inf):
        assert norm(s, r, PolynomialWeight(3.0)) == pytest.approx(1.0)


def test_norm_unit_impulse_exponential():
    s = LatticeState.zeros(5)
    s.q[s.index(1)] = 1.0
    beta = 0.7
    assert norm(s, 2, ExponentialWeight(beta, +1)) == pytest.approx(np.exp(beta / 2))


def test_norm_matches_direct_sum(rng):
    s = random_state(rng, N=16)
    ks = s.sites().astype(float)
    w = (1.0 + ks ** 2) ** 3.0  # (rs with r=2, s=3)
    expected = np.sqrt(np.sum(w * np.abs(s.p) ** 2) + np.sum(w * np.abs(s.q) ** 2))
    assert norm(s, 2, PolynomialWeight(3.0)) == pytest.approx(expected, rel=1e-12)


def _pow_formula_norm(s, r, wf):
    """The l^r norm summed with numpy's float power, as it was written before."""
    if np.isinf(r):
        return float(max(np.max(np.abs(s.p) * wf), np.max(np.abs(s.q) * wf)))
    return float((np.sum((np.abs(s.p) * wf) ** r) + np.sum((np.abs(s.q) * wf) ** r)) ** (1 / r))


def test_integral_r_by_multiplication_matches_float_power(rng):
    # a localized state whose far field runs down to 1e-200: its 14th powers
    # underflow, and the sum must still agree with pow() to rounding
    N = 128
    ks = np.arange(-N, N + 1)
    env = 10.0 ** (-200.0 * np.abs(ks) / N)
    s = LatticeState(N, env * rng.standard_normal(ks.size), env * rng.standard_normal(ks.size))
    ones = np.ones(ks.size)
    assert norm(s, 14) == pytest.approx(_pow_formula_norm(s, 14.0, ones), rel=1e-14)
    wf = (1.0 + ks.astype(float) ** 2) ** 1.5
    for r in (1, 2, np.inf, 14):
        assert norm(s, r, PolynomialWeight(0.0)) == norm(s, r)
    for r in (1, 2, np.inf):
        assert norm(s, r) == _pow_formula_norm(s, r, ones)
        assert norm(s, r, PolynomialWeight(3.0)) == _pow_formula_norm(s, r, wf)
    assert norm(s, 2.5) == _pow_formula_norm(s, 2.5, ones)


def test_integral_r_above_two_skips_the_subnormal_far_field(rng, monkeypatch):
    # for r > 2 the power chain runs on the slice of entries whose r-th power
    # is normal; for r <= 2 its one product is no dearer than finding the slice
    N = 128
    ks = np.arange(-N, N + 1)
    env = 10.0 ** (-200.0 * np.abs(ks) / N)
    s = LatticeState(N, env * rng.standard_normal(ks.size), env * rng.standard_normal(ks.size))
    power = lattice._power
    sizes = []

    def recorded(x, k):
        sizes.append(x.size)
        return power(x, k)

    monkeypatch.setattr(lattice, "_power", recorded)
    cut = np.finfo(float).tiny ** (1 / 14)
    norm(s, 14)
    normal = [np.count_nonzero(np.abs(x) >= cut) for x in (s.p, s.q)]
    assert all(n <= size < ks.size for n, size in zip(normal, sizes))
    sizes.clear()
    norm(s, 2)
    assert sizes == [ks.size, ks.size]


def test_lr_monotonicity(rng):
    s = random_state(rng, N=16)
    assert norm(s, np.inf) <= norm(s, 2.0) + 1e-12
    assert norm(s, 2.0) <= norm(s, 1.0) + 1e-12


def test_embedding_chain(rng):
    beta = 0.5
    N = 16
    n_sites = 2 * N + 1
    # || . ||_- <= C1 || . ||_{l^r} and || . ||_{l^r} <= C2 || . ||_+
    ks = np.arange(-N, N + 1).astype(float)
    C1 = np.sqrt(np.sum(np.exp(-beta * np.abs(ks))))
    for r in (2.0, 7.0, np.inf):
        C2 = 1.0 if np.isinf(r) else (2 * n_sites) ** (1.0 / r)
        for _ in range(20):
            s = random_state(rng, N=N)
            n_minus = norm(s, 2, ExponentialWeight(beta, -1))
            n_plus = norm(s, 2, ExponentialWeight(beta, +1))
            n_r = norm(s, r)
            assert n_minus <= np.sqrt(2) * C1 * n_r + 1e-12
            assert n_r <= C2 * n_plus + 1e-12


def test_csv_round_trip(tmp_path, rng):
    path = tmp_path / "state.csv"

    def write(ks, state, comment=None):
        sel = np.isin(state.sites(), ks)
        write_table(path, ["k", "p_k", "q_k"], zip(ks, state.p[sel], state.q[sel]), comment)

    s = random_state(rng, N=5)
    write(s.sites(), s)
    s2 = read_state(path)
    assert s2.N == s.N
    assert np.array_equal(s2.p, s.p) and np.array_equal(s2.q, s.q)
    # a table without a row for site 0 reads back as xi, its central site zero
    t = random_state(rng, N=4)
    write(t.sites()[t.sites() != 0], t, comment="transverse part")
    assert path.read_text().startswith("# transverse part\nk,p_k,q_k\n")
    t2, xi = read_state(path), t.transverse()
    assert t2.N == t.N and t2.p[t.N] == t2.q[t.N] == 0.0
    assert np.array_equal(t2.p, xi.p) and np.array_equal(t2.q, xi.q)
