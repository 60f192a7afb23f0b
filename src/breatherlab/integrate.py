"""Structure-preserving time integration of the full nonlinear lattice flow.

The splitting rotates every site exactly under its unit-frequency harmonic
part and applies the coupling + anharmonic force as a kick, so the step size
is limited only by the O(eps) and anharmonic terms.  strang2 is the symmetric
second-order composition; yoshida4 the standard triple composition of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeState, coupling_force
from .potential import PotentialSpec

_Y_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_Y_W0 = 1.0 - 2.0 * _Y_W1

# per-step (rotation angles, kick sizes) as fractions of dt, fused so that
# adjacent rotations merge
_SCHEMES = {
    "strang2": ([0.5, 0.5], [1.0]),
    "yoshida4": ([0.5 * _Y_W1, 0.5 * (_Y_W1 + _Y_W0), 0.5 * (_Y_W0 + _Y_W1), 0.5 * _Y_W1],
                 [_Y_W1, _Y_W0, _Y_W1]),
}


class BlowupError(RuntimeError):
    """Trajectory left the finite range (NaN / overflow)."""


@dataclass(frozen=True)
class IntegratorConfig:
    t_final: float
    dt: float = 0.05
    scheme: str = "yoshida4"

    def __post_init__(self):
        if self.dt <= 0 or self.t_final < 0:
            raise ValueError("need dt > 0 and t_final >= 0")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")

    def check_stability(self, eps: float):
        """Guard dt * max frequency <= 0.5, max frequency sqrt(1 + 4 eps)."""
        if self.dt * np.sqrt(1.0 + 4.0 * abs(eps)) > 0.5 + 1e-12:
            raise ValueError(
                f"dt={self.dt} violates the stability guard for eps={eps}"
            )


def _rotate(p: np.ndarray, q: np.ndarray, tau: float, scratch: np.ndarray):
    """(p, q) <- (c p - s q, s p + c q) in place; ``scratch`` is (2,) + p.shape."""
    c, s = math.cos(tau), math.sin(tau)
    sp, sq = scratch
    np.multiply(p, s, out=sp)
    np.multiply(q, s, out=sq)
    p *= c
    p -= sq
    q *= c
    q += sp


def _kick(p: np.ndarray, q: np.ndarray, tau: float, V: PotentialSpec,
          eps: float, pinned: bool, N: int, scratch: np.ndarray):
    force = coupling_force(q, pinned, N, out=scratch)
    force *= eps
    force -= V.derivative(q)
    force *= tau
    p += force


def step_arrays(p: np.ndarray, q: np.ndarray, V: PotentialSpec, eps: float,
                dt: float, scheme: str, pinned: bool, N: int):
    """One splitting step in place on raw arrays."""
    rots, kicks = _SCHEMES[scheme]
    scratch = np.empty((2,) + p.shape)
    for i, ck in enumerate(kicks):
        _rotate(p, q, rots[i] * dt, scratch)
        _kick(p, q, ck * dt, V, eps, pinned, N, scratch[0])
    _rotate(p, q, rots[-1] * dt, scratch)


def step(state: LatticeState, V: PotentialSpec, eps: float, dt: float,
         scheme: str = "strang2") -> LatticeState:
    """One splitting step of the lattice flow (site 0 pinned if absent)."""
    out = state.copy()
    step_arrays(out.p, out.q, V, eps, dt, scheme, not state.include_site0, state.N)
    return out


def flow(state: LatticeState, V: PotentialSpec, eps: float, t: float,
         dt: float = 0.05, scheme: str = "yoshida4") -> LatticeState:
    """Evolve for time t with a whole number of steps of size <= dt."""
    if t == 0:
        return state.copy()
    n = max(1, int(np.ceil(abs(t) / dt)))
    h = t / n
    out = state.copy()
    pinned = not state.include_site0
    for _ in range(n):
        step_arrays(out.p, out.q, V, eps, h, scheme, pinned, state.N)
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
    pinned = not state.include_site0
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
        step_arrays(cur.p, cur.q, V, eps, config.dt, config.scheme, pinned, state.N)
        if i % sample_stride == 0 or i == n_steps:
            sample(i * config.dt)
    return TrajectoryRecord(np.asarray(times), {k: np.asarray(v) for k, v in obs.items()})
