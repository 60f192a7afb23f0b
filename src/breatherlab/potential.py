"""Single anharmonic oscillator H = (p^2 + q^2)/2 + V(q).

The on-site potential is a finite polynomial with a high-order zero at the
origin.  This module provides the potential itself, the action-angle chart
(action/energy/frequency maps built by turning-point quadrature and tabulated
on an action grid), the cartesian <-> action-angle conversions, and the
nonresonance margin used by the continuation and normal-form machinery.

Conventions: the angle origin is alpha = 0 at the point of maximal elongation
(p = 0, q = q_max(E)), and alpha advances at rate omega0(I) along the flow.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq


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
    |V'(q)| < tiny: about 8e-45 for q^8.  The splitting kernel skips V' on
    such sites.
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

    def second_derivative(self, q):
        """V''(q)."""
        return _sum_powers(self._ddterms, q)

    @classmethod
    def monomial(cls, degree: int, coefficient: float = 1.0, min_degree: int | None = None):
        if min_degree is None:
            min_degree = 8 if degree >= 8 else 4
        return cls(((degree, coefficient),), min_degree)

    @classmethod
    def zero(cls, min_degree: int = 4):
        """V = 0 (harmonic oscillator); useful for exactly solvable checks."""
        return cls((), min_degree)


def _power(q, k: int):
    """q^k for k >= 1 by repeated squaring.

    A chain of multiplications: ``q ** k`` on an array goes through the
    generic power loop and is some fifty times slower at a few thousand sites.
    """
    out = None
    while True:
        if k & 1:
            out = q if out is None else out * q
        k >>= 1
        if not k:
            return out
        q = q * q


def _sum_powers(terms, q):
    """sum of a q^m over the (m, a) pairs of ``terms``, ascending in m.

    Horner over the exponent gaps: q^m1 (a1 + q^(m2-m1) (a2 + ...)).  Every
    exponent is at least 2 (``min_degree`` is 4 or 8), so no power is q^0.
    """
    q = np.asarray(q, dtype=float)
    if not terms:
        return q * 0.0
    m, acc = terms[-1]
    for m_lo, a in reversed(terms[:-1]):
        acc = a + _power(q, m - m_lo) * acc
        m = m_lo
    return acc * _power(q, m)


def oscillator_energy(V: PotentialSpec, p, q):
    """Single-oscillator energy (p^2 + q^2)/2 + V(q)."""
    return 0.5 * (np.asarray(p) ** 2 + np.asarray(q) ** 2) + V(q)


def _effective_potential(V: PotentialSpec, q):
    return 0.5 * np.asarray(q) ** 2 + V(q)


def _turning_point(V: PotentialSpec, E: float, side: int) -> float:
    """Root of q^2/2 + V(q) = E on the given side (+1 right, -1 left).

    Raises LevelSetError when the level set fails to close or the effective
    potential is not monotone out to the turning point (non-convex level set).
    """
    U = lambda q: _effective_potential(V, q)
    q = side * np.sqrt(2.0 * E)  # exact for V = 0, a lower bound for V >= 0
    q0 = 0.0
    for _ in range(200):
        if U(q) >= E:
            break
        q0, q = q, 2.0 * q if abs(q) > 1e-12 else side * 1e-6
    else:
        raise LevelSetError(f"level set at E={E} does not close on side {side}")
    if U(q) == E:
        qt = q
    else:
        qt = brentq(lambda x: U(x) - E, q0, q, xtol=1e-15, rtol=8.9e-16)
    # monotonicity scan: U must increase from 0 out to the turning point
    s = np.linspace(0.0, qt, 65)
    if np.any(np.diff(U(s)) < -1e-13 * max(E, 1.0)):
        raise LevelSetError(f"non-convex level set at E={E} on side {side}")
    return qt


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], computed once per n.

    The arrays are shared by every caller and therefore read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _orbit_quadrature(V: PotentialSpec, E: float, kind: str, rtol: float = 1e-12,
                      n_nodes: int | None = None) -> float:
    """Gauss-Legendre quadrature between turning points.

    With q = c + h sin(phi) and the polynomial U - E deflated by its turning
    point roots, E - U(q) = h^2 cos^2(phi) W(q) exactly, so both integrands
    (sqrt(2(E-U)) dq for the action, dq/sqrt(2(E-U)) for the period) are
    analytic in phi and free of endpoint cancellation.
    """
    qm = _turning_point(V, E, -1)
    qp = _turning_point(V, E, +1)
    c, h = 0.5 * (qp + qm), 0.5 * (qp - qm)
    # deflate P = U - E at the turning points: P = (q - qm)(q - qp) W, W > 0
    # inside the well, and E - U = h^2 cos^2(phi) W(c + h sin phi) exactly
    U_coeffs = npoly.polyadd(np.asarray(V._poly) if len(V._poly) else np.zeros(1),
                             np.array([-E, 0.0, 0.5]))
    W, _ = npoly.polydiv(U_coeffs, npoly.polyfromroots([qm, qp]))

    def evaluate(n):
        x, w = gauss_legendre(n)
        phi = 0.5 * np.pi * x
        q = c + h * np.sin(phi)
        cos2 = np.cos(phi) ** 2
        Wq = np.clip(npoly.polyval(q, W), 1e-300, None)
        if kind == "action":
            f = h * h * cos2 * np.sqrt(2.0 * Wq)
        else:
            f = 1.0 / np.sqrt(2.0 * Wq)
        return 0.5 * np.pi * np.dot(w, f)

    if n_nodes is not None:
        return evaluate(n_nodes)
    prev = evaluate(64)
    for n in (96, 128, 192, 256, 384, 512, 768, 1024):
        cur = evaluate(n)
        if abs(cur - prev) <= rtol * max(abs(cur), 1e-300) + 1e-15:
            return cur
        prev = cur
    raise QuadratureError(f"orbit quadrature ({kind}) did not converge at E={E}")


def action_of_energy(V: PotentialSpec, E: float, rtol: float = 1e-12,
                     n_nodes: int | None = None) -> float:
    """Action I(E) = (1/2pi) * (area enclosed by the level set).

    Computed as (1/pi) * integral of sqrt(2(E - U(q))) between turning points.
    """
    if E <= 0:
        raise ChartRangeError(f"need E > 0, got {E}")
    return _orbit_quadrature(V, E, "action", rtol, n_nodes) / np.pi


def period_of_energy(V: PotentialSpec, E: float, rtol: float = 1e-12,
                     n_nodes: int | None = None) -> float:
    """Orbit period T(E) = 2 * integral of dq / sqrt(2(E - U(q)))."""
    if E <= 0:
        raise ChartRangeError(f"need E > 0, got {E}")
    return 2.0 * _orbit_quadrature(V, E, "period", rtol, n_nodes)


def _oscillator_rhs(V: PotentialSpec):
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
    _E_spline: CubicSpline = field(repr=False, default=None)
    _omega_spline: CubicSpline = field(repr=False, default=None)

    def __post_init__(self):
        if self._E_spline is None:
            self._E_spline = CubicSpline(self.I_grid, self.E_values)
        if self._omega_spline is None:
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
        return _turning_point(self.potential, E, +1)


def build_chart(V: PotentialSpec, I_min: float, I_max: float,
                n_grid: int = 512, quad_rtol: float = 1e-12) -> ActionAngleChart:
    """Tabulate the chart on ``n_grid`` equally spaced actions in [I_min, I_max]."""
    if not (0 < I_min < I_max):
        raise ValueError("need 0 < I_min < I_max")
    # bracket the energies of the endpoint actions; I(E) <= E for V >= 0 but
    # grows monotonically, so doubling always brackets
    E_hi = max(I_max, 1e-8)
    for _ in range(200):
        if action_of_energy(V, E_hi, quad_rtol) >= I_max:
            break
        E_hi *= 2.0
    # coarse energy table -> spline inverse -> one Newton polish per node
    E_coarse = np.geomspace(min(I_min * 0.5, E_hi * 1e-6), E_hi, 160)
    I_coarse = np.array([action_of_energy(V, e, quad_rtol) for e in E_coarse])
    inv = CubicSpline(I_coarse, E_coarse)
    I_grid = np.linspace(I_min, I_max, n_grid)
    E_values = np.empty(n_grid)
    omega_values = np.empty(n_grid)
    for j, I in enumerate(I_grid):
        E = float(inv(I))
        for _ in range(3):
            T = period_of_energy(V, E, quad_rtol)
            E -= (action_of_energy(V, E, quad_rtol) - I) / (T / (2.0 * np.pi))
        E_values[j] = E
        omega_values[j] = 2.0 * np.pi / period_of_energy(V, E, quad_rtol)
    return ActionAngleChart(V, I_grid, E_values, omega_values)


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


def to_cartesian(chart: ActionAngleChart, I: float, alpha: float,
                 rtol: float = 1e-12) -> tuple[float, float]:
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
                    method="DOP853", rtol=rtol, atol=1e-14)
    return float(sol.y[0, -1]), float(sol.y[1, -1])


def from_cartesian(chart: ActionAngleChart, p: float, q: float,
                   rtol: float = 1e-12) -> tuple[float, float]:
    """Action-angle coordinates of a cartesian point (left inverse of to_cartesian).

    The angle is read off from the flight time back to the reference section
    p = 0 with q > 0; the section crossing with descending p identifies the
    maximal-elongation point uniquely for a single-well effective potential.
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

    sol = solve_ivp(_oscillator_rhs(chart.potential), (0.0, 2.5 * T_est), [p, q],
                    method="DOP853", rtol=rtol, atol=1e-14, events=section,
                    dense_output=False)
    hits = sol.t_events[0]
    hits = hits[hits > 1e-12 * T_est]
    if len(hits) < 2:
        raise RuntimeError("section crossings not found; integration window too short")
    T_true = hits[1] - hits[0]
    alpha = (omega * (T_true - hits[0])) % (2.0 * np.pi)
    return I, float(alpha)


def sample_orbit(chart: ActionAngleChart, I: float, n_samples: int,
                 rtol: float = 1e-12) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Samples (alpha_j, p_j, q_j) of the orbit at uniform angles 2pi j / n.

    Equivalent to to_cartesian at each angle but integrates a single period
    with dense sampling.
    """
    chart._check_I(I)
    E = h0_of_action(chart, I)
    qm = chart.q_max(E)
    omega = omega0(chart, I)
    T = 2.0 * np.pi / omega
    t_eval = np.arange(n_samples) * (T / n_samples)
    sol = solve_ivp(_oscillator_rhs(chart.potential), (0.0, T), [0.0, qm],
                    method="DOP853", rtol=rtol, atol=1e-14, t_eval=t_eval)
    alphas = omega * t_eval
    return alphas, sol.y[0], sol.y[1]


def max_action_gradient(chart: ActionAngleChart, I: float) -> float:
    """max over the orbit of action I of |grad I| = |grad H0| / omega0(I).

    On the level set E = h0(I), p^2 = 2(E - U(q)) with U = q^2/2 + V(q), so
    |grad H0|^2 = p^2 + U'(q)^2 is a function of q alone between the turning
    points, maximised here on 2049 equally spaced q.
    """
    E = h0_of_action(chart, I)
    V = chart.potential
    q = np.linspace(_turning_point(V, E, -1), _turning_point(V, E, +1), 2049)
    grad2 = 2.0 * (E - _effective_potential(V, q)) + (q + V.derivative(q)) ** 2
    return float(np.sqrt(np.max(grad2))) / omega0(chart, I)


def nonresonance_margin(chart: ActionAngleChart, I_lo: float, I_hi: float,
                        n_max: int, n_grid: int = 256) -> float:
    """min over the action grid and 1 <= |n| <= n_max of |omega0(I) - 1/n|."""
    chart._check_I(I_lo)
    chart._check_I(I_hi)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    Is = np.linspace(I_lo, I_hi, n_grid)
    om = chart._omega_spline(Is)
    ns = np.arange(1, n_max + 1, dtype=float)
    targets = np.concatenate([1.0 / ns, -1.0 / ns])
    return float(np.min(np.abs(om[:, None] - targets[None, :])))
