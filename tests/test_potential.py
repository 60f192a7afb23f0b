import math

import numpy as np
import pytest

from breatherlab.potential import (ChartRangeError, LevelSetError, PotentialSpec,
                                   _NODE_COUNTS, _orbit_quadrature, _turning_points, action_of_energy,
                                   build_chart, from_cartesian, gauss_legendre,
                                   h0_of_action, max_action_gradient, nonresonance_margin,
                                   omega0, period_of_energy, sample_orbit, to_cartesian)


def test_eval_potential_zero_of_order_eight(V8):
    assert V8(0.0) == 0.0
    assert V8(1.0) == 1.0


def test_eval_potential_matches_direct_summation():
    V = PotentialSpec(((8, 0.5), (10, 0.1)))
    q = 0.5
    expected = 0.5 * q**8 + 0.1 * q**10  # independent direct summation
    assert V(q) == pytest.approx(expected, rel=0, abs=1e-16)
    # derivative against the same oracle
    expected_d = 8 * 0.5 * q**7 + 10 * 0.1 * q**9
    assert V.derivative(q) == pytest.approx(expected_d, rel=1e-15)


EVALUATOR_CASES = [
    PotentialSpec(((8, 1.0), (10, -0.3), (12, 0.05))),
    PotentialSpec(((4, 1.0), (6, 2.0)), min_degree=4),
    PotentialSpec.zero(),
    PotentialSpec(((8, 1.0), (10, 0.5), (8, 0.25), (10, -0.5))),   # merged to 1.25 q^8
]
EVALUATOR_INPUTS = [
    0.7,
    np.float64(-0.45),
    np.array(0.9),
    np.linspace(-1.2, 1.2, 33),
    np.linspace(-0.8, 0.8, 12).reshape(3, 4),
]


def _direct_sum(V, q, order):
    """sum of a_m (m)_order q^(m - order), one term at a time from math.pow."""
    q = np.asarray(q, dtype=float)
    out = np.zeros(q.shape)
    for m, a in V.coefficients:
        falling = float(np.prod(np.arange(m - order + 1, m + 1)))
        out = out + a * falling * np.vectorize(lambda x: math.pow(x, m - order))(q)
    return out


@pytest.mark.parametrize("V", EVALUATOR_CASES, ids=["8-10-12", "4-6", "zero", "merged"])
@pytest.mark.parametrize("q", EVALUATOR_INPUTS, ids=["float", "float64", "0d", "1d", "2d"])
def test_evaluator_matches_direct_summation(V, q):
    for order, f in enumerate((V, V.derivative, V.second_derivative)):
        got = f(q)
        expected = _direct_sum(V, q, order)
        assert np.shape(got) == np.shape(q)
        if np.ndim(q) == 0:
            assert np.isscalar(got)
        scale = np.maximum(np.abs(expected), 1e-300)
        assert np.all(np.abs(got - expected) <= 1e-14 * scale), (order, got, expected)


@pytest.mark.parametrize("V", [V for V in EVALUATOR_CASES if V.coefficients],
                         ids=["8-10-12", "4-6", "merged"])
@pytest.mark.parametrize("q", EVALUATOR_INPUTS[3:], ids=["1d", "2d"])
def test_in_place_derivative_is_the_fresh_one_to_the_bit(V, q):
    # the splitting kernel raises V' in work rows; the lattice vector field and
    # the chart raise it in fresh arrays, by the same operations
    work = np.full((3,) + q.shape, np.nan)
    c, x = V.derivative_factors(q, work)
    assert np.array_equal(c * x, V.derivative(q))
    assert any(np.shares_memory(x, row) for row in work)


def test_potential_spec_rejects_low_degree():
    with pytest.raises(ValueError):
        PotentialSpec(((3, 1.0),), min_degree=4)
    with pytest.raises(ValueError):
        PotentialSpec(((6, 1.0),), min_degree=8)


def test_action_of_energy_harmonic(V0):
    assert action_of_energy(V0, 0.3) == pytest.approx(0.3, abs=1e-12)


def test_action_of_energy_harmonic_limit(V8):
    E = 1e-6
    assert action_of_energy(V8, E) / E == pytest.approx(1.0, abs=1e-4)


def test_action_of_energy_refinement_oracle(V8):
    adaptive = action_of_energy(V8, 0.5)
    frozen = action_of_energy(V8, 0.5, n_nodes=4096)
    assert adaptive == pytest.approx(frozen, abs=1e-11)


@pytest.mark.parametrize("n", [64, 1024])
def test_gauss_legendre_matches_numpy_rule(n):
    x, w = gauss_legendre(n)
    x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - x_ref)) <= 1e-14
    # at n = 1024 the end weights of the two rules differ by up to 2.2e-14,
    # so there only the exactness below is checked
    if n == 64:
        assert np.max(np.abs(w - w_ref)) <= 1e-14
    # the rule integrates the Legendre polynomials P_k, k < 2n, exactly:
    # to 2 for k = 0 and to 0 beyond, up to the rounding of the sums
    assert w.sum() == pytest.approx(2.0, rel=0, abs=1e-14)
    p_prev, p = np.ones(n), x
    worst = abs(w @ p)
    for k in range(1, 2 * n - 1):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        worst = max(worst, abs(w @ p))
    assert worst <= 1e-13


def test_action_strictly_increasing(V8):
    Es = np.linspace(0.05, 1.5, 40)
    Is = [action_of_energy(V8, e) for e in Es]
    assert np.all(np.diff(Is) > 0)


def test_level_set_rejection():
    V = PotentialSpec(((4, -0.1),), min_degree=4)
    # hump of q^2/2 - 0.1 q^4 is at q^2 = 2.5, U = 0.625
    assert action_of_energy(V, 0.3) > 0
    with pytest.raises(LevelSetError):
        action_of_energy(V, 0.7)


def test_h0_round_trip(chart8, V8):
    for I in (0.1, 0.4, 0.7):
        E = h0_of_action(chart8, I)
        assert action_of_energy(V8, E) == pytest.approx(I, abs=5e-11)


def test_h0_harmonic(chart0):
    assert h0_of_action(chart0, 0.3) == pytest.approx(0.3, abs=1e-10)
    assert omega0(chart0, 0.3) == pytest.approx(1.0, abs=1e-10)


def test_omega_matches_period_and_derivative(chart8, V8):
    I = 0.4
    E = h0_of_action(chart8, I)
    assert omega0(chart8, I) == pytest.approx(2 * np.pi / period_of_energy(V8, E), rel=1e-10)
    h = 1e-4
    fd = (h0_of_action(chart8, I + h) - h0_of_action(chart8, I - h)) / (2 * h)
    assert omega0(chart8, I) == pytest.approx(fd, rel=1e-6)


def test_omega_hard_potential_above_one(chart8):
    # q^8 stiffens the well, so the frequency exceeds the harmonic value
    assert omega0(chart8, 0.1) > 1.0
    assert omega0(chart8, 0.4) > omega0(chart8, 0.1)


def test_to_cartesian_reference_point(chart8):
    p, q = to_cartesian(chart8, 0.4, 0.0)
    assert p == 0.0
    assert q == pytest.approx(chart8.q_max(h0_of_action(chart8, 0.4)), rel=1e-12)


def test_to_cartesian_harmonic(chart0):
    I, a = 0.3, 1.1
    p, q = to_cartesian(chart0, I, a)
    assert p == pytest.approx(-np.sqrt(2 * I) * np.sin(a), abs=1e-10)
    assert q == pytest.approx(np.sqrt(2 * I) * np.cos(a), abs=1e-10)


def test_from_cartesian_harmonic(chart0):
    I, a = from_cartesian(chart0, 0.0, 1.0)
    assert I == pytest.approx(0.5, abs=1e-10)
    assert a == pytest.approx(0.0, abs=1e-10)


def test_round_trip_grid(chart8):
    Is = np.linspace(0.1, 0.7, 16)
    alphas = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    worst = 0.0
    for I in Is:
        for a in alphas:
            p, q = to_cartesian(chart8, I, a)
            I2, a2 = from_cartesian(chart8, p, q)
            da = abs((a2 - a + np.pi) % (2 * np.pi) - np.pi)
            worst = max(worst, abs(I2 - I), da)
    assert worst < 1e-10


def test_to_cartesian_energy_consistency(chart8, V8):
    I, a = 0.55, 2.7
    p, q = to_cartesian(chart8, I, a)
    E = 0.5 * (p * p + q * q) + V8(q)
    assert E == pytest.approx(h0_of_action(chart8, I), rel=1e-11)


def test_from_cartesian_matches_orbit_samples(chart8):
    alphas, ps, qs = sample_orbit(chart8, 0.4, 8)
    for a, p, q in zip(alphas[1:], ps[1:], qs[1:]):
        I2, a2 = from_cartesian(chart8, p, q)
        assert I2 == pytest.approx(0.4, abs=1e-10)
        assert a2 == pytest.approx(a, abs=1e-9)


def test_chart_range_errors(chart8):
    with pytest.raises(ChartRangeError):
        h0_of_action(chart8, 0.9)
    with pytest.raises(ChartRangeError):
        from_cartesian(chart8, 0.0, 5.0)


def test_nonresonance_harmonic_is_resonant(chart0):
    assert nonresonance_margin(chart0, 0.1, 0.7, 8) == pytest.approx(0.0, abs=1e-12)


def test_nonresonance_margin_positive_interval(chart8):
    margin = nonresonance_margin(chart8, 0.3, 0.6, 64, n_grid=256)
    dense = nonresonance_margin(chart8, 0.3, 0.6, 64, n_grid=1024)
    assert margin > 0
    assert margin == pytest.approx(dense, rel=1e-3)
    # hard potential: omega > 1, so the margin is omega(I_lo) - 1
    assert margin == pytest.approx(omega0(chart8, 0.3) - 1.0, rel=1e-6)


def test_nonresonance_margin_vanishes_at_small_action(V8):
    chart = build_chart(V8, 1e-4, 0.1, n_grid=64)
    assert nonresonance_margin(chart, 1e-4, 1e-3, 4) < 1e-2


def test_max_action_gradient_matches_orbit_samples(chart8, V8):
    # |grad I| = |grad H0| / omega0 at points sampled along the orbit itself
    _, p, q = sample_orbit(chart8, 0.4, 4096)
    sampled = np.max(np.hypot(p, q + V8.derivative(q))) / omega0(chart8, 0.4)
    assert max_action_gradient(chart8, 0.4) == pytest.approx(sampled, rel=1e-6)


def test_max_action_gradient_harmonic(chart0):
    # circles of radius sqrt(2I): |grad H0| = sqrt(2I) everywhere, omega0 = 1
    assert max_action_gradient(chart0, 0.3) == pytest.approx(np.sqrt(0.6), rel=1e-9)


@pytest.mark.parametrize("V", [PotentialSpec.monomial(8),
                               PotentialSpec(((6, 0.5), (8, 1.0)), min_degree=4)],
                         ids=["q8", "q6+q8"])
def test_array_chart_matches_one_energy_at_a_time(V):
    # the chart's array passes against the scalar view at a fixed 2048-node
    # rule, one energy at a time; q6 + q8 deflates more than one coefficient
    chart = build_chart(V, 0.05, 0.8, 256)
    for j in range(0, 256, 16):
        E = chart.E_values[j]
        assert abs(action_of_energy(V, E, n_nodes=2048) - chart.I_grid[j]) <= 1e-12
        omega = 2 * np.pi / period_of_energy(V, E, n_nodes=2048)
        assert abs(omega / chart.omega_values[j] - 1) <= 1e-12


def test_turning_points_converge_where_u_is_nearly_flat():
    # U = q^2/2 - q^4/4 + b q^6 rises everywhere, but U' nearly vanishes at
    # q^2 = 1/(12 b); there rounding noise in U - E can bounce Newton across
    # the root, and each energy must still settle at the rounding floor of U
    b = 1 / (24 * 0.95)
    V = PotentialSpec(((4, -0.25), (6, b)), min_degree=4)
    q_flat = np.sqrt(1 / (12 * b))
    E = (0.5 * q_flat**2 + V(q_flat)) * np.linspace(0.5, 2.0, 301)
    for side in (-1, 1):
        q = _turning_points(V, E, side)
        assert np.all(np.sign(q) == side)
        assert np.max(np.abs(0.5 * q * q + V(q) - E) / E) <= 1e-14


def test_turning_points_stop_at_the_first_crossing_before_a_hump():
    # U = q^2/2 - q^4/10 rises from 0 to its hump U = 0.625 at q^2 = 5/2 and
    # then falls for good; doubling out from sqrt(2E) lands past the hump, where
    # U < E again, so the span must be searched for the crossing it jumped over
    V = PotentialSpec(((4, -0.1),), min_degree=4)
    exact = {0.5: np.sqrt((5 - np.sqrt(5)) / 2), 0.6: np.sqrt(2.0)}
    for side in (-1, 1):
        assert np.allclose(_turning_points(V, np.array(list(exact)), side),
                           side * np.array(list(exact.values())), rtol=0, atol=1e-14)
        with pytest.raises(LevelSetError, match="does not close"):
            _turning_points(V, 0.7, side)


def test_build_chart_rejects_a_level_set_that_does_not_close():
    V = PotentialSpec(((4, -0.1),), min_degree=4)
    with pytest.raises(LevelSetError, match="does not close"):
        build_chart(V, 0.05, 0.8)


@pytest.mark.parametrize("V, bad, message", [
    (PotentialSpec(((4, -0.1),), min_degree=4), 0.7, "does not close"),
    # U = q^2/2 - q^4/4 + q^6/50 falls from 0.275 at q = 1.08 and closes again
    (PotentialSpec(((4, -0.25), (6, 0.02)), min_degree=4), 0.5, "non-convex"),
], ids=["open", "non-convex"])
def test_one_bad_energy_among_good_ones_raises(V, bad, message):
    good = np.array([0.05, 0.1, 0.15])
    assert np.all(np.isfinite(_orbit_quadrature(V, good)))
    with pytest.raises(LevelSetError) as err:
        _orbit_quadrature(V, np.insert(good, 2, bad))
    assert message in str(err.value) and f"E={bad} " in str(err.value)


def test_each_integral_keeps_its_first_converged_node_count():
    # the action and the period of one energy are read off one turning-point
    # solve, but each stops at the first count that agrees with the one
    # before it, as if it were computed alone
    # before it, as if it were computed alone.  U = q^2/2 - q^4/4 + b q^6 is
    # nearly flat at q^2 = 1/(12 b), and just above that level the period
    # integrand peaks there and needs more nodes than the action's
    b = 1 / (24 * 0.99)
    V = PotentialSpec(((4, -0.25), (6, b)), min_degree=4)
    x = 1 / (12 * b)
    E = (1 + np.array([3e-2, 1e-2, 1e-3])) * (x / 2 - x * x / 4 + b * x ** 3)
    both = _orbit_quadrature(V, E)
    fixed = np.array([_orbit_quadrature(V, E, n_nodes=n) for n in _NODE_COUNTS])
    agree = np.abs(fixed[1:] - fixed[:-1]) <= 1e-12 * np.abs(fixed[1:]) + 1e-15
    first = np.argmax(agree, axis=0) + 1
    assert agree.any(axis=0).all() and np.any(first[0] != first[1])
    np.testing.assert_array_equal(both, np.take_along_axis(fixed, first[None], 0)[0])


def test_action_of_energy_rejects_a_non_positive_energy(V8):
    with pytest.raises(ChartRangeError, match="need E > 0, got 0.0"):
        action_of_energy(V8, 0.0)
    with pytest.raises(ChartRangeError, match="need E > 0, got -0.1"):
        period_of_energy(V8, np.array([0.2, -0.1, 0.3]))


def test_batched_orbit_samples_match_one_orbit_at_a_time(chart8):
    Is = np.linspace(0.1, 0.7, 7)
    alphas, p, q = sample_orbit(chart8, Is, 256, rtol=1e-13)
    assert alphas.shape == (256,) and p.shape == q.shape == (7, 256)
    for i, I in enumerate(Is):
        a1, p1, q1 = sample_orbit(chart8, I, 256, rtol=1e-13)
        assert a1.shape == p1.shape == q1.shape == (256,)
        np.testing.assert_array_equal(a1, alphas)
        assert np.max(np.abs(p1 - p[i])) <= 1e-12
        assert np.max(np.abs(q1 - q[i])) <= 1e-12
    with pytest.raises(ChartRangeError, match="I=0.9 "):
        sample_orbit(chart8, np.array([0.4, 0.9]), 8)


def test_from_cartesian_start_just_before_the_section(chart8):
    # p a hair above 0 at maximal elongation: the first crossing of the section
    # comes within 1e-12 of a period, so the start lies on it and reads angle 0
    qm = chart8.q_max(h0_of_action(chart8, 0.4))
    I, a = from_cartesian(chart8, 1e-15, qm)
    assert I == pytest.approx(0.4, abs=1e-10)
    assert a == 0.0
