"""Structure-preserving time integration of the full nonlinear lattice flow.

The splitting rotates every site exactly under its unit-frequency harmonic
part and applies the coupling + anharmonic force as a kick, so the step size
is limited only by the O(eps) and anharmonic terms.  There is one scheme,
yoshida4: the standard triple composition of the symmetric second-order
(Strang) step, fourth order.  It steps the one lattice layout, sites -N..N,
with the central site free, as in the real dynamics.

The kernel updates p and q in place through BLAS.  A rotation is one
``drot``; a kick adds tau eps (Delta q) to p by one ``daxpy`` and subtracts
tau V'(q) by another.  f2py hands BLAS a copy of any array that is not
C-contiguous float64, and the update to that copy is lost, so the kernel
raises ValueError on such arrays (and on read-only or mismatched ones)
instead of stepping them.

The anharmonic force is evaluated only on the smallest slice of sites that
holds every |q| >= ``V.q_cut``.  Outside it |V'(q)| is below the smallest
normal double (see ``PotentialSpec``), so leaving it out moves p by less
than tau times that double per kick, while evaluating the power chain there
would run through subnormal numbers at many times the normal cost.  A
localized state, such as a breather and its spreading perturbation, keeps
the slice to a small part of the chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy, drot

from .lattice import LatticeState, coupling_force
from .potential import PotentialSpec

_Y_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_Y_W0 = 1.0 - 2.0 * _Y_W1

# yoshida4's rotation angles and kick sizes per step, as fractions of dt,
# fused so that adjacent rotations merge
_ROTATIONS = [0.5 * _Y_W1, 0.5 * (_Y_W1 + _Y_W0), 0.5 * (_Y_W0 + _Y_W1), 0.5 * _Y_W1]
_KICKS = [_Y_W1, _Y_W0, _Y_W1]


class BlowupError(RuntimeError):
    """Trajectory left the finite range (NaN / overflow)."""


@dataclass(frozen=True)
class IntegratorConfig:
    t_final: float
    dt: float = 0.05

    def __post_init__(self):
        if self.dt <= 0 or self.t_final < 0:
            raise ValueError("need dt > 0 and t_final >= 0")

    def check_stability(self, eps: float):
        """Guard dt * max frequency <= 0.5, max frequency sqrt(1 + 4 eps)."""
        if self.dt * np.sqrt(1.0 + 4.0 * abs(eps)) > 0.5 + 1e-12:
            raise ValueError(
                f"dt={self.dt} violates the stability guard for eps={eps}"
            )


def _check_inplace(p: np.ndarray, q: np.ndarray):
    """Raise ValueError unless BLAS can update both arrays in place."""
    if not (p.flags.carray and q.flags.carray and p.dtype == q.dtype == np.float64
            and p.shape == q.shape):
        raise ValueError(
            "the splitting kernel updates p and q in place and needs writeable, aligned, "
            f"C-contiguous float64 arrays of one shape; got {p.dtype} {p.shape} "
            f"(C-contiguous {p.flags.c_contiguous}, writeable {p.flags.writeable}) and "
            f"{q.dtype} {q.shape} (C-contiguous {q.flags.c_contiguous}, "
            f"writeable {q.flags.writeable})")


def _rotate(p: np.ndarray, q: np.ndarray, tau: float):
    """(p, q) <- (c p - s q, s p + c q) in place, as one BLAS drot."""
    _check_inplace(p, q)
    # n, offx, incx, offy, incy, overwrite_x, overwrite_y passed by position:
    # f2py parses keywords at about a microsecond per call
    drot(q.ravel(), p.ravel(), math.cos(tau), math.sin(tau), p.size, 0, 1, 0, 1, 1, 1)


def _axpy(y: np.ndarray, a: float, x: np.ndarray):
    """y += a x in place, as one BLAS daxpy; y is C-contiguous float64."""
    daxpy(x.ravel(), y.ravel(), a=a)


def _live_window(q: np.ndarray, q_cut: float, out: np.ndarray) -> slice | None:
    """Smallest slice holding every site with |q| >= q_cut, or None when none is.

    |q| goes to ``out``, the kick's own buffer, so no array is allocated for it.
    """
    live = (np.abs(q, out=out) >= q_cut).nonzero()[0]
    return slice(live[0], live[-1] + 1) if live.size else None


def _kick(p: np.ndarray, q: np.ndarray, tau: float, V: PotentialSpec,
          eps: float, scratch: np.ndarray):
    _axpy(p, tau * eps, coupling_force(q, out=scratch))
    w = _live_window(q, V.q_cut, scratch)
    if w is not None:
        _axpy(p[w], -tau, V.derivative(q[w]))


def step_arrays(p: np.ndarray, q: np.ndarray, V: PotentialSpec, eps: float, dt: float):
    """One splitting step in place on raw arrays (C-contiguous float64, else ValueError)."""
    scratch = np.empty(p.shape)
    for i, ck in enumerate(_KICKS):
        _rotate(p, q, _ROTATIONS[i] * dt)
        _kick(p, q, ck * dt, V, eps, scratch)
    _rotate(p, q, _ROTATIONS[-1] * dt)


def step(state: LatticeState, V: PotentialSpec, eps: float, dt: float) -> LatticeState:
    """One splitting step of the lattice flow."""
    out = state.copy()
    step_arrays(out.p, out.q, V, eps, dt)
    return out


def flow(state: LatticeState, V: PotentialSpec, eps: float, t: float,
         dt: float = 0.05) -> LatticeState:
    """Evolve for time t with a whole number of steps of size <= dt."""
    if t == 0:
        return state.copy()
    n = max(1, int(np.ceil(abs(t) / dt)))
    h = t / n
    out = state.copy()
    for _ in range(n):
        step_arrays(out.p, out.q, V, eps, h)
    return out


@dataclass
class TrajectoryRecord:
    times: np.ndarray
    observables: dict[str, np.ndarray]


def evolve(state: LatticeState, V: PotentialSpec, eps: float,
           config: IntegratorConfig, observers: dict | None = None,
           sample_stride: int = 1) -> TrajectoryRecord:
    """Repeated stepping with sampled observers.

    ``observers`` maps a name to a callable LatticeState -> float; samples are
    taken every ``sample_stride`` steps (and at t = 0 and t_final).  Aborts
    with BlowupError when the state stops being finite.
    """
    config.check_stability(eps)
    observers = observers or {}
    n_steps = int(round(config.t_final / config.dt))
    cur = state.copy()
    times = []
    obs = {name: [] for name in observers}

    def sample(t):
        if not (np.all(np.isfinite(cur.p)) and np.all(np.isfinite(cur.q))):
            raise BlowupError(f"non-finite state at t={t}")
        times.append(t)
        for name, fn in observers.items():
            obs[name].append(float(fn(cur)))

    sample(0.0)
    for i in range(1, n_steps + 1):
        step_arrays(cur.p, cur.q, V, eps, config.dt)
        if i % sample_stride == 0 or i == n_steps:
            sample(i * config.dt)
    return TrajectoryRecord(np.asarray(times), {k: np.asarray(v) for k, v in obs.items()})
