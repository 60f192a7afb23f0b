"""Independent reference physics for the benchmark's correctness checks.

Nothing here imports breatherlab: the chain Hamiltonian, its vector field,
the adaptive flow and the linear Dirichlet-chain propagator are written out
again so that a check compares the program against separate code, not
against itself.

Sites are k = -N..N with zero ghosts at +-(N+1); the on-site potential is
the sum of a q^m over the (m, a) pairs given.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq


def onsite_force(q, coeffs):
    """V'(q) for V = sum a q^m."""
    return sum(m * a * q ** (m - 1) for m, a in coeffs)


def chain_hamiltonian(p, q, coeffs, eps):
    """sum (p^2 + q^2)/2 + V(q) + (eps/2) sum (q_{k+1} - q_k)^2, zero ghosts."""
    onsite = 0.5 * (np.dot(p, p) + np.dot(q, q))
    onsite += sum(a * np.sum(q ** m) for m, a in coeffs)
    bonds = np.diff(np.concatenate(([0.0], q, [0.0])))
    return float(onsite + 0.5 * eps * np.dot(bonds, bonds))


def chain_flow(p, q, coeffs, eps, t, rtol=1e-12):
    """(p, q) after time t of the full chain flow, by adaptive DOP853."""
    n = p.size

    def field(_, y):
        qq = y[n:]
        padded = np.concatenate(([0.0], qq, [0.0]))
        lap = padded[2:] + padded[:-2] - 2.0 * qq
        return np.concatenate([-qq - onsite_force(qq, coeffs) + eps * lap, y[:n]])

    sol = solve_ivp(field, (0.0, t), np.concatenate([p, q]), method="DOP853",
                    rtol=rtol, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"reference flow failed: {sol.message}")
    return sol.y[:n, -1], sol.y[n:, -1]


def oscillator_point(coeffs, E, t):
    """One oscillator at energy E, started at maximal elongation (0, q_max), after time t."""
    q_max = brentq(lambda x: 0.5 * x * x + sum(a * x ** m for m, a in coeffs) - E,
                   0.0, np.sqrt(2.0 * E), xtol=1e-16)
    if t == 0.0:
        return 0.0, q_max
    sol = solve_ivp(lambda _, y: [-y[1] - onsite_force(y[1], coeffs), y[0]],
                    (0.0, t), [0.0, q_max], method="DOP853", rtol=1e-13, atol=1e-15)
    return float(sol.y[0, -1]), float(sol.y[1, -1])


class DirichletChain:
    """Linear chain q'' = -(1 - eps Delta) q on k = -N..N by eigendecomposition."""

    def __init__(self, N, eps):
        n = 2 * N + 1
        lam, self.U = eigh_tridiagonal(np.full(n, 2.0), np.full(n - 1, -1.0))
        self.nu = np.sqrt(1.0 + eps * lam)

    def propagate(self, p, q, t):
        ph, qh = self.U.T @ p, self.U.T @ q
        c, s = np.cos(self.nu * t), np.sin(self.nu * t)
        return (self.U @ (ph * c - qh * self.nu * s),
                self.U @ (qh * c + ph * s / self.nu))


def skew_datum(rng, N, support):
    """Random (p, q) on sites 1..support, mirrored with opposite sign to -k."""
    p, q = np.zeros(2 * N + 1), np.zeros(2 * N + 1)
    for arr in (p, q):
        vals = rng.standard_normal(support)
        arr[N + 1:N + 1 + support] = vals
        arr[N - support:N] = -vals[::-1]
    return p, q
