"""Single anharmonic oscillator H = (p^2 + q^2)/2 + V(q).

The on-site potential is a finite polynomial with a high-order zero at the
origin.  This module provides the potential itself, the action-angle chart
(action/energy/frequency maps built by turning-point quadrature and tabulated
on an action grid), and the cartesian <-> action-angle conversions.

The chart layer works on arrays: ``_turning_points``, ``_orbit_quadrature``
and ``sample_orbit`` take an array of energies or actions and treat them all
in one pass, and ``build_chart`` runs each of its sweeps as one such pass.
``_orbit_quadrature`` returns the action and the period together, from one
turning-point solve.
``action_of_energy``, ``period_of_energy``, ``ActionAngleChart.q_max`` and
``max_action_gradient`` are views of the same routines for one value.

Conventions: the angle origin is alpha = 0 at the point of maximal elongation
(p = 0, q = q_max(E)), and alpha advances at rate omega0(I) along the flow.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq
from scipy.special import roots_legendre


class ChartRangeError(ValueError):
    """Requested action or energy lies outside the tabulated chart."""


class LevelSetError(ValueError):
    """Energy level set is not a closed curve enclosing only the origin."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge."""


@dataclass(frozen=True)
class PotentialSpec:
    """Polynomial on-site potential V(q) = sum_m a_m q^m.

    ``coefficients`` is a sequence of (degree, coefficient) pairs; every degree
    must be >= ``min_degree``.  ``min_degree`` is 8 for the stability
    experiments and may be relaxed to 4 for normal-form-only runs.

    ``q_cut`` is (tiny / sum |m a_m|)^(1 / (m0 - 1)), capped at 1, where tiny
    is the smallest normal double and m0 the lowest degree (inf for V = 0).
    For |q| < q_cut every power q^(m-1) is at most q^(m0-1), so
    |V'(q)| < tiny: about 8e-45 for q^8.  It serves ``hamiltonian`` alone,
    which evaluates V only where |q| >= q_cut; the splitting kernel evaluates
    V' on its whole stepped support (see ``integrate``).
    """

    coefficients: tuple[tuple[int, float], ...]
    min_degree: int = 8

    def __post_init__(self):
        if self.min_degree not in (4, 8):
            raise ValueError(f"min_degree must be 4 or 8, got {self.min_degree}")
        coeffs = tuple((int(m), float(a)) for m, a in self.coefficients)
        for m, a in coeffs:
            if m < self.min_degree:
                raise ValueError(
                    f"degree {m} below min_degree {self.min_degree}"
                )
            if not np.isfinite(a):
                raise ValueError(f"non-finite coefficient for degree {m}")
        object.__setattr__(self, "coefficients", coeffs)
        merged = {}
        for m, a in coeffs:
            merged[m] = merged.get(m, 0.0) + a
        terms = tuple((m, a) for m, a in sorted(merged.items()) if a != 0.0)
        deg = max((m for m, _ in coeffs), default=0)
        c = np.zeros(deg + 1)
        for m, a in terms:
            c[m] = a
        object.__setattr__(self, "_poly", c)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_dterms", tuple((m - 1, m * a) for m, a in terms))
        q_cut = np.inf
        if terms:
            weight = sum(abs(m * a) for m, a in terms)
            q_cut = min(1.0, (np.finfo(float).tiny / weight) ** (1.0 / (terms[0][0] - 1)))
        object.__setattr__(self, "q_cut", q_cut)
        object.__setattr__(self, "_ddterms",
                           tuple((m - 2, m * (m - 1) * a) for m, a in terms))

    def __call__(self, q):
        return _sum_powers(self._terms, q)

    def derivative(self, q):
        """V'(q)."""
        return _sum_powers(self._dterms, q)

    def derivative_factors(self, q, work):
        """(c, x) with V'(q) = c x, for a float array q and V != 0, in place in ``work``.

        ``work`` is three float arrays of q's shape (say the rows of one
        array); x is made in one of them, by the operations of ``derivative``
        in the same order, so that c x is ``derivative(q)`` to the bit and
        nothing is allocated.  For a one-term V', c is its coefficient and x
        the power of q, so that a caller scaling V' anyway folds c into its
        own factor; else c = 1 and x = V'(q).
        """
        return _factored_sum(self._dterms, q, *work)

    def second_derivative(self, q):
        """V''(q)."""
        return _sum_powers(self._ddterms, q)

    @classmethod
    def monomial(cls, degree: int):
        """V = q^degree, with min_degree 8 from degree 8 up and 4 below."""
        return cls(((degree, 1.0),), 8 if degree >= 8 else 4)

    @classmethod
    def zero(cls):
        """V = 0 (harmonic oscillator); useful for exactly solvable checks."""
        return cls((), 4)


def _power(q, k: int, out=None, squares=None):
    """q^k for k >= 1 by repeated squaring.

    A chain of multiplications: ``q ** k`` on an array goes through the
    generic power loop and is some fifty times slower at a few thousand sites.
    The products go to ``out`` and the squares to ``squares``; where these
    are None, each product is a fresh array, made by the operator.  With both
    given, the chain allocates nothing.  Returns the array holding q^k: q
    itself for k = 1, else a fresh array or one of the two.
    """
    acc = None
    while True:
        if k & 1 and acc is None:
            acc = q
        elif k & 1:
            acc = acc * q if out is None else np.multiply(acc, q, out=out)
        k >>= 1
        if not k:
            return acc
        if squares is None:
            q = q * q       # the operator: a ufunc call costs ten times more on a scalar
        else:
            if acc is squares:
                out, squares = squares, out     # the first factor is a square: keep it
            q = np.multiply(q, q, out=squares)


def _sum_powers(terms, q):
    """sum of a q^m over the (m, a) pairs of ``terms``, ascending in m.

    Horner over the exponent gaps: q^m1 (a1 + q^(m2-m1) (a2 + ...)).  Every
    exponent is at least 2 (``min_degree`` is 4 or 8), so no power is q^0.
    Each operation makes a fresh array.
    """
    q = np.asarray(q, dtype=float)
    if not terms:
        return q * 0.0
    c, x = _factored_sum(terms, q, None, None, None)
    return x if len(terms) > 1 else c * x


def _factored_sum(terms, q, out, powers, squares):
    """(c, x) with c x the sum of ``_sum_powers`` over one or more terms, by its
    operations but the last product: for one term, c is its coefficient and x
    the power of q; for more, c = 1 and x the sum.  The sum is made in
    ``out`` and the powers in ``powers`` and ``squares`` (``_power``), or in
    fresh arrays where these are None."""
    m, acc = terms[-1]
    for m_lo, a in terms[-2::-1]:
        power = _power(q, m - m_lo, powers, squares)
        acc = (a + power * acc if out is None
               else np.add(a, np.multiply(power, acc, out=out), out=out))
        m = m_lo
    power = _power(q, m, powers, squares)
    if len(terms) == 1:
        return acc, power
    return 1.0, acc * power if out is None else np.multiply(acc, power, out=out)


def oscillator_energy(V: PotentialSpec, p, q):
    """Single-oscillator energy (p^2 + q^2)/2 + V(q)."""
    return 0.5 * (np.asarray(p) ** 2 + np.asarray(q) ** 2) + V(q)


def _effective_potential(V: PotentialSpec, q):
    return 0.5 * np.asarray(q) ** 2 + V(q)


def _turning_points(V: PotentialSpec, E, side: int) -> np.ndarray:
    """Roots of q^2/2 + V(q) = E on the given side (+1 right, -1 left), one per energy.

    ``E`` is a scalar or an array, and the roots have its shape.  Each root is
    the first crossing of U = E going out from 0.  It is bracketed by doubling
    out from sqrt(2E) (exact for V = 0, a lower bound for V >= 0); a doubled
    span whose far end has U < E is scanned on a 64-point grid, and cut at its
    first point with U >= E, so that a hump of U is not jumped over.  The root
    is then found to a few ulps by safeguarded Newton.

    Raises LevelSetError when a level set fails to close or the effective
    potential is not monotone out to the turning point (non-convex level set).
    """
    E = np.asarray(E, dtype=float)
    shape, E = E.shape, E.ravel()
    # U(inner) < E <= U(outer), both on the side's half-line
    outer = side * np.sqrt(2.0 * E)
    inner = np.zeros_like(outer)
    for _ in range(200):
        low = _effective_potential(V, outer) < E
        if low.any():
            i = np.flatnonzero(low)
            grid = np.linspace(inner[i], outer[i], 65)[1:]
            high = _effective_potential(V, grid) >= E[i]
            first, hit = np.argmax(high, axis=0), high.any(axis=0)
            outer[i[hit]] = grid[first[hit], hit]
            low[i[hit]] = False
        if not low.any():
            break
        inner = np.where(low, outer, inner)
        outer = np.where(low, np.where(np.abs(outer) > 1e-12, 2.0 * outer, side * 1e-6), outer)
    else:
        raise LevelSetError(f"level set at E={E[low][0]} does not close on side {side}")
    # safeguarded Newton: a bisection step wherever Newton would leave the
    # bracket or would not be shorter than the step before, as when rounding
    # noise in U - E bounces it across the root; an energy stops once its step
    # is within a few ulps
    q, dx = outer, np.abs(outer - inner)
    active = np.ones(E.shape, dtype=bool)
    for _ in range(100):
        f = _effective_potential(V, q) - E
        inner = np.where(f < 0, q, inner)
        outer = np.where(f < 0, outer, q)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = f / (q + V.derivative(q))
            fast = ((q - newton - inner) * (q - newton - outer) <= 0) & (np.abs(newton) < np.abs(dx))
        step = np.where(f == 0, 0.0, np.where(fast, newton, q - 0.5 * (inner + outer)))
        dx = np.where(active, step, 0.0)
        q = q - dx
        active &= np.abs(dx) > 4.0 * np.finfo(float).eps * np.abs(q)
        if not active.any():
            break
    else:
        raise RuntimeError(f"turning point search did not converge on side {side}")
    # monotonicity scan: U must increase from 0 out to each turning point
    rises = np.diff(_effective_potential(V, np.linspace(0.0, q, 65)), axis=0)
    bad = np.any(rises < -1e-13 * np.maximum(E, 1.0), axis=0)
    if bad.any():
        raise LevelSetError(f"non-convex level set at E={E[bad][0]} on side {side}")
    return q.reshape(shape)


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], computed once per n.

    The arrays are shared by every caller and therefore read-only.
    """
    x, w = roots_legendre(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


# node counts of the adaptive rule: each energy takes the first that agrees
# with the one before it
_NODE_COUNTS = (64, 96, 128, 192, 256, 384, 512, 768, 1024)


def _orbit_quadrature(V: PotentialSpec, E, rtol: float = 1e-12,
                      n_nodes: int | None = None) -> np.ndarray:
    """Action and half-period integrals by Gauss-Legendre quadrature between the
    turning points: rows 0 and 1 of the result, one column per energy.

    ``E`` is a scalar or an array, and each row has its shape.  With
    q = c + h sin(phi) and the polynomial U - E deflated by its turning point
    roots, E - U(q) = h^2 cos^2(phi) W(q) exactly, so both integrands
    (sqrt(2(E-U)) dq for the action, dq/sqrt(2(E-U)) for the period) are
    analytic in phi and free of endpoint cancellation.  The turning points are
    found once, and both integrands are evaluated on one (nodes, energies)
    grid.  Without ``n_nodes``, each integral of each energy keeps its value at
    the first node count of ``_NODE_COUNTS`` that agrees with the count before
    it to ``rtol``; only the energies with an integral not yet converged go on
    to the next count.
    """
    E = np.asarray(E, dtype=float)
    shape, E = E.shape, E.ravel()
    qm = _turning_points(V, E, -1)
    qp = _turning_points(V, E, +1)
    c, h = 0.5 * (qp + qm), 0.5 * (qp - qm)
    # U - E = (q - qm)(q - qp) W with W > 0 inside the well: deflate the
    # coefficients of U (highest first) by synthetic division at qm, then at
    # qp, one column per energy.  The constant -E enters only the remainders,
    # which vanish, and is left out.
    U = np.zeros(max(len(V._poly), 3))
    U[:len(V._poly)] = V._poly
    U[2] += 0.5
    W = list(U[::-1])
    for root in (qm, qp):
        quotient = [W[0]]
        for a in W[1:-1]:
            quotient.append(a + root * quotient[-1])
        W = quotient
    W = np.array([np.broadcast_to(a, E.shape) for a in W])

    def evaluate(n, idx):
        x, w = gauss_legendre(n)
        phi = 0.5 * np.pi * x[:, None]
        q = c[idx] + h[idx] * np.sin(phi)
        Wq = np.zeros_like(q)
        for a in W[:, idx]:
            Wq = Wq * q + a
        Wq = np.clip(Wq, 1e-300, None)
        root = np.sqrt(2.0 * Wq)
        action = h[idx] ** 2 * np.cos(phi) ** 2 * root
        return 0.5 * np.pi * np.stack([w @ action, w @ (1.0 / root)])

    if n_nodes is not None:
        return evaluate(n_nodes, slice(None)).reshape(2, *shape)
    out = np.empty((2, E.size))
    pending = np.ones((2, E.size), dtype=bool)
    todo = np.arange(E.size)
    prev = evaluate(_NODE_COUNTS[0], todo)
    for n in _NODE_COUNTS[1:]:
        cur = evaluate(n, todo)
        done = np.abs(cur - prev) <= rtol * np.maximum(np.abs(cur), 1e-300) + 1e-15
        # an integral still pending takes this count's value, and keeps it once done
        out[:, todo] = np.where(pending[:, todo], cur, out[:, todo])
        pending[:, todo] &= ~done
        keep = pending[:, todo].any(axis=0)
        todo, prev = todo[keep], cur[:, keep]
        if not todo.size:
            return out.reshape(2, *shape)
    kind = "action" if pending[0, todo[0]] else "period"
    raise QuadratureError(f"orbit quadrature ({kind}) did not converge at E={E[todo[0]]}")


def _positive_energy(E) -> np.ndarray:
    E = np.asarray(E, dtype=float)
    if not np.all(E > 0):
        raise ChartRangeError(f"need E > 0, got {E[~(E > 0)][0]}")
    return E


def _action_and_period(V: PotentialSpec, E, rtol: float = 1e-12,
                       n_nodes: int | None = None):
    """Action I(E) and period T(E) from one turning-point solve, for a scalar or an array of E."""
    action, half_period = _orbit_quadrature(V, _positive_energy(E), rtol, n_nodes)
    return action[()] / np.pi, 2.0 * half_period[()]


def action_of_energy(V: PotentialSpec, E, rtol: float = 1e-12,
                     n_nodes: int | None = None):
    """Action I(E) = (1/2pi) * (area enclosed by the level set), for a scalar or an array of E.

    Computed as (1/pi) * integral of sqrt(2(E - U(q))) between turning points.
    """
    return _action_and_period(V, E, rtol, n_nodes)[0]


def period_of_energy(V: PotentialSpec, E, rtol: float = 1e-12,
                     n_nodes: int | None = None):
    """Orbit period T(E) = 2 * integral of dq / sqrt(2(E - U(q))), for a scalar or an array of E."""
    return _action_and_period(V, E, rtol, n_nodes)[1]


def _oscillator_rhs(V: PotentialSpec):
    """Hamilton's equations (p', q') for y = (p, q) of one oscillator, or for a
    (2, k) array y = [p; q] of k oscillators."""
    def rhs(t, y):
        p, q = y
        return (-q - V.derivative(q), p)
    return rhs


@dataclass
class ActionAngleChart:
    """Tabulated action-angle chart for one oscillator.

    ``E_of_I`` and ``omega_of_I`` are cubic interpolants through values
    computed by turning-point quadrature on ``I_grid``; the energy->action
    inverse is a bracketed root-find on the same interpolant, so round trips
    cancel the tabulation error.
    """

    potential: PotentialSpec
    I_grid: np.ndarray
    E_values: np.ndarray
    omega_values: np.ndarray
    _E_spline: CubicSpline = field(init=False, repr=False)
    _omega_spline: CubicSpline = field(init=False, repr=False)

    def __post_init__(self):
        self._E_spline = CubicSpline(self.I_grid, self.E_values)
        self._omega_spline = CubicSpline(self.I_grid, self.omega_values)
        if np.any(np.diff(self.E_values) <= 0):
            raise ValueError("E_of_I is not strictly increasing")
        if np.any(self.omega_values <= 0):
            raise ValueError("omega_of_I is not positive")

    @property
    def I_min(self) -> float:
        return float(self.I_grid[0])

    @property
    def I_max(self) -> float:
        return float(self.I_grid[-1])

    def _check_I(self, I: float):
        if not (self.I_min - 1e-12 <= I <= self.I_max + 1e-12):
            raise ChartRangeError(
                f"I={I} outside chart range [{self.I_min}, {self.I_max}]"
            )

    def q_max(self, E: float) -> float:
        return float(_turning_points(self.potential, E, +1))


def build_chart(V: PotentialSpec, I_min: float, I_max: float,
                n_grid: int = 512, quad_rtol: float = 1e-12) -> ActionAngleChart:
    """Tabulate the chart on ``n_grid`` equally spaced actions in [I_min, I_max].

    The coarse energy table, each of the three Newton sweeps E <- E - (I(E) - I)
    / (T(E) / 2pi) and the final omega = 2pi / T(E) are each one array pass
    over all the energies.
    """
    if not (0 < I_min < I_max):
        raise ValueError("need 0 < I_min < I_max")
    # bracket the energies of the endpoint actions; I(E) <= E for V >= 0 but
    # grows monotonically, so doubling always brackets
    E_hi = max(I_max, 1e-8)
    for _ in range(200):
        if action_of_energy(V, E_hi, quad_rtol) >= I_max:
            break
        E_hi *= 2.0
    # coarse energy table -> spline inverse -> three Newton sweeps
    E_coarse = np.geomspace(min(I_min * 0.5, E_hi * 1e-6), E_hi, 160)
    inv = CubicSpline(action_of_energy(V, E_coarse, quad_rtol), E_coarse)
    I_grid = np.linspace(I_min, I_max, n_grid)
    E = inv(I_grid)
    for _ in range(3):
        I, T = _action_and_period(V, E, quad_rtol)
        E = E - (I - I_grid) / (T / (2.0 * np.pi))
    omega = 2.0 * np.pi / period_of_energy(V, E, quad_rtol)
    return ActionAngleChart(V, I_grid, E, omega)


def h0_of_action(chart: ActionAngleChart, I: float) -> float:
    """Oscillator energy as a function of the action (inverse of I(E))."""
    chart._check_I(I)
    return float(chart._E_spline(I))


def omega0(chart: ActionAngleChart, I: float) -> float:
    """Frequency omega0(I) = dE/dI = 2pi / T(E(I))."""
    chart._check_I(I)
    return float(chart._omega_spline(I))


def action_of_point(chart: ActionAngleChart, p: float, q: float) -> float:
    """Action of a cartesian point, via the chart's own energy interpolant."""
    E = float(oscillator_energy(chart.potential, p, q))
    E_lo = float(chart._E_spline(chart.I_min))
    E_hi = float(chart._E_spline(chart.I_max))
    if not (E_lo - 1e-12 <= E <= E_hi + 1e-12):
        raise ChartRangeError(f"energy {E} outside chart range [{E_lo}, {E_hi}]")
    E_cl = min(max(E, E_lo), E_hi)
    return float(brentq(lambda I: float(chart._E_spline(I)) - E_cl,
                        chart.I_min, chart.I_max, xtol=1e-15, rtol=8.9e-16))


def to_cartesian(chart: ActionAngleChart, I: float, alpha: float) -> tuple[float, float]:
    """Cartesian point at action I and angle alpha.

    Flows the oscillator from the reference point (0, q_max(E)) for time
    alpha / omega0(I).
    """
    chart._check_I(I)
    E = h0_of_action(chart, I)
    qm = chart.q_max(E)
    a = float(alpha) % (2.0 * np.pi)
    if a == 0.0:
        return 0.0, qm
    t = a / omega0(chart, I)
    sol = solve_ivp(_oscillator_rhs(chart.potential), (0.0, t), [0.0, qm],
                    method="DOP853", rtol=1e-12, atol=1e-14)
    return float(sol.y[0, -1]), float(sol.y[1, -1])


def from_cartesian(chart: ActionAngleChart, p: float, q: float) -> tuple[float, float]:
    """Action-angle coordinates of a cartesian point (left inverse of to_cartesian).

    The angle is read off from the flight time back to the reference section
    p = 0 with q > 0; the section crossing with descending p identifies the
    maximal-elongation point uniquely for a single-well effective potential.
    The flow stops at its second crossing, which measures the true period.
    """
    I = action_of_point(chart, p, q)
    E = float(oscillator_energy(chart.potential, p, q))
    qm = chart.q_max(E)
    if p == 0.0 and abs(q - qm) <= 1e-13 * max(1.0, qm):
        return I, 0.0
    omega = omega0(chart, I)
    T_est = 2.0 * np.pi / omega

    def section(t, y):
        return y[0]
    section.direction = -1
    section.terminal = 2

    sol = solve_ivp(_oscillator_rhs(chart.potential), (0.0, 2.5 * T_est), [p, q],
                    method="DOP853", rtol=1e-12, atol=1e-14, events=section,
                    dense_output=False)
    hits = sol.t_events[0]
    if len(hits) < 2:
        raise RuntimeError("section crossings not found; integration window too short")
    if hits[0] <= 1e-12 * T_est:
        # the start lies on the section, as in the exact check above
        return I, 0.0
    T_true = hits[1] - hits[0]
    alpha = (omega * (T_true - hits[0])) % (2.0 * np.pi)
    return I, float(alpha)


def sample_orbit(chart: ActionAngleChart, I, n_samples: int,
                 rtol: float = 1e-12) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Samples (alpha_j, p_j, q_j) of the orbit of action I at the angles alpha_j = 2pi j / n.

    ``I`` is a scalar or a 1-D array of actions; p and q have the shape
    I.shape + (n_samples,), and alpha is shared.  Equivalent to to_cartesian at
    each angle, but every orbit is integrated in one DOP853 system over one
    period in the angle time s = omega0(I) t, from (0, q_max(E(I))) over
    [0, 2pi], sampled at s = alpha_j.
    """
    I = np.asarray(I, dtype=float)
    chart._check_I(float(I.min()))
    chart._check_I(float(I.max()))
    qm = _turning_points(chart.potential, chart._E_spline(I.ravel()), +1)
    omega = np.tile(chart._omega_spline(I.ravel()), 2)
    field = _oscillator_rhs(chart.potential)

    def rhs(s, y):     # d/ds = (1 / omega) d/dt on the state [p..., q...]
        return np.concatenate(field(s, y.reshape(2, -1))) / omega

    # the step control takes the RMS error over all 2k components: rtol / sqrt(k)
    # holds each orbit to the error of a solve on its own (down to DOP853's floor)
    rtol = max(rtol / np.sqrt(I.size), 100 * np.finfo(float).eps)
    alphas = np.arange(n_samples) * (2.0 * np.pi / n_samples)
    sol = solve_ivp(rhs, (0.0, 2.0 * np.pi), np.concatenate((np.zeros_like(qm), qm)),
                    method="DOP853", rtol=rtol, atol=1e-14, t_eval=alphas)
    p, q = sol.y.reshape(2, *I.shape, n_samples)
    return alphas, p, q


def max_action_gradient(chart: ActionAngleChart, I: float) -> float:
    """max over the orbit of action I of |grad I| = |grad H0| / omega0(I).

    On the level set E = h0(I), p^2 = 2(E - U(q)) with U = q^2/2 + V(q), so
    |grad H0|^2 = p^2 + U'(q)^2 is a function of q alone between the turning
    points, maximised here on 2049 equally spaced q.
    """
    E = h0_of_action(chart, I)
    V = chart.potential
    q = np.linspace(_turning_points(V, E, -1), _turning_points(V, E, +1), 2049)
    grad2 = 2.0 * (E - _effective_potential(V, q)) + (q + V.derivative(q)) ** 2
    return float(np.sqrt(np.max(grad2))) / omega0(chart, I)
