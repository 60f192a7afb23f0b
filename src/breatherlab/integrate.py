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
flat C-contiguous float64, and the update to that copy is lost, so the kernel
raises ValueError on such arrays (and on read-only or mismatched ones)
instead of stepping them.

Each step reads the amplitude a_k = max(|p_k|, |q_k|) once and takes two
slices of the chain from it.  A step's three coupling kicks carry a value at
most three sites (its reach), and every widening below is by the reach.

- The stepped support S is the smallest slice holding every site with
  a_k >= e^2 max a, e = 2^-52, widened by the reach.  The rotations and the
  kicks act on p[S] and q[S] only; the sites outside S keep their values for
  the step, and the coupling kick sees them as zero.  A site left out of S is
  off by at most twice its amplitude, 2 e^2 max a, and a site at an end of S
  misses at most |c_k dt eps| times that per kick.  So after n steps the state
  is within about n e^2 max a of the full-chain step: below one rounding of
  the largest entry, e max a, for every n below 1/e (4.5e15 steps).  A
  localized state, such as a breather and its spreading perturbation, keeps
  S to a small part of the chain; a spread-out one has S the whole chain, as
  has a state that is not finite, so that the blow-up still shows.
- The force window W, inside S, is where V' is evaluated at every kick: the
  smallest slice holding every site with a_k >= q_cut / G, widened by the
  reach, with G = sqrt(2) prod_k (1 + 4 |c_k dt eps|) over the kick sizes
  c_k dt.  Rotations keep r_k = sqrt(p_k^2 + q_k^2), which starts at most
  sqrt(2) a_k, and a coupling kick raises r_k by at most 4 |c_k dt eps|
  times the largest r within one site; so at every kick of the step |q_k| is
  at most G times the largest a within the reach of k.  Outside W, |q| thus
  stays below ``V.q_cut``, |V'(q)| is below the smallest normal double (see
  ``PotentialSpec``), and leaving it out moves p by less than tau times that
  double, while evaluating the power chain there would run through
  subnormal numbers at many times the normal cost.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import daxpy, drot

from .lattice import LatticeState, _span, coupling_force
from .potential import PotentialSpec

_Y_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_Y_W0 = 1.0 - 2.0 * _Y_W1

# yoshida4's rotation angles and kick sizes per step, as fractions of dt,
# fused so that adjacent rotations merge
_ROTATIONS = [0.5 * _Y_W1, 0.5 * (_Y_W1 + _Y_W0), 0.5 * (_Y_W0 + _Y_W1), 0.5 * _Y_W1]
_KICKS = [_Y_W1, _Y_W0, _Y_W1]
# a step's reach (each coupling kick carries a value one site) and the stepped
# support's floor relative to the largest amplitude
_REACH = len(_KICKS)
_EPS2 = np.finfo(float).eps ** 2


class BlowupError(RuntimeError):
    """Trajectory left the finite range (NaN / overflow)."""


def check_stability(dt: float, eps: float):
    """Guard dt > 0 and dt * max frequency <= 0.5, max frequency sqrt(1 + 4 eps)."""
    if dt <= 0:
        raise ValueError(f"need dt > 0, got dt={dt}")
    if dt * np.sqrt(1.0 + 4.0 * abs(eps)) > 0.5 + 1e-12:
        raise ValueError(f"dt={dt} violates the stability guard for eps={eps}")


def _check_inplace(p: np.ndarray, q: np.ndarray):
    """Raise ValueError unless BLAS can update both arrays in place."""
    if not (p.flags.carray and q.flags.carray and p.dtype == q.dtype == np.float64
            and p.ndim == 1 and p.shape == q.shape):
        raise ValueError(
            "the splitting kernel updates p and q in place and needs writeable, aligned, "
            f"C-contiguous float64 arrays of one flat shape; got {p.dtype} {p.shape} "
            f"(C-contiguous {p.flags.c_contiguous}, writeable {p.flags.writeable}) and "
            f"{q.dtype} {q.shape} (C-contiguous {q.flags.c_contiguous}, "
            f"writeable {q.flags.writeable})")


def _rotate(p: np.ndarray, q: np.ndarray, tau: float):
    """(p, q) <- (c p - s q, s p + c q) in place, as one BLAS drot; both flat C-contiguous float64."""
    # every argument after s passed by position, here and in _axpy: f2py
    # parses keywords at about a microsecond per call
    drot(q, p, math.cos(tau), math.sin(tau), p.size, 0, 1, 0, 1, 1, 1)


def _axpy(y: np.ndarray, a: float, x: np.ndarray):
    """y += a x in place, as one BLAS daxpy; y is flat C-contiguous float64."""
    daxpy(x, y, x.size, a)


def step_arrays(p: np.ndarray, q: np.ndarray, V: PotentialSpec, eps: float, dt: float):
    """One splitting step in place on raw arrays (flat C-contiguous float64, else ValueError).

    Only the stepped support is stepped, and V' is evaluated on the force
    window alone; see the module docstring for both rules and the bound.
    """
    _check_inplace(p, q)
    amp = np.maximum(np.abs(p), np.abs(q))
    top = amp[amp.argmax()]     # the largest entry, or the first NaN; a faster pass than max
    support = _span(amp >= _EPS2 * top, _REACH) if math.isfinite(top) else slice(0, amp.size)
    growth = math.sqrt(2.0) * math.prod([1.0 + 4.0 * abs(ck * dt * eps) for ck in _KICKS])
    force = _span(amp[support] >= V.q_cut / growth, _REACH)
    p, q = p[support], q[support]
    p_force, q_force = p[force], q[force]
    lap = np.empty(p.shape)
    for i, ck in enumerate(_KICKS):
        _rotate(p, q, _ROTATIONS[i] * dt)
        _axpy(p, ck * dt * eps, coupling_force(q, out=lap))
        if q_force.size:
            _axpy(p_force, -ck * dt, V.derivative(q_force))
    _rotate(p, q, _ROTATIONS[-1] * dt)


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
