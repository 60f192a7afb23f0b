"""Structure-preserving time integration of the full nonlinear lattice flow.

The splitting rotates every site exactly under its unit-frequency harmonic
part and applies the coupling + anharmonic force as a kick, so the step size
is limited only by the O(eps) and anharmonic terms.  There is one scheme,
yoshida4: the standard triple composition of the symmetric second-order
(Strang) step, fourth order.  It steps the one lattice layout, sites -N..N,
with the central site free, as in the real dynamics.

The kernel updates p and q in place through BLAS, and within a block of
steps (below) it allocates nothing.  A rotation is one ``drot``.  A kick
adds tau eps (Delta q) to p by three ``daxpy`` calls on offset views of q
(-2 q_k, q_(k+1) and q_(k-1)), so that no Laplacian is formed, and
subtracts tau V'(q) by a fourth, with V' raised in place in work rows and
its coefficient folded into the ``daxpy`` factor
(``PotentialSpec.derivative_factors``).  The work rows are made once per
block; the rotations' cosines and sines and the kick sizes once per call.
f2py hands BLAS a copy of any array that is not flat C-contiguous float64,
and the update to that copy is lost, so the kernel raises ValueError on such
arrays (and on read-only or mismatched ones) instead of stepping them.

A call of n steps goes in blocks of k steps, k = floor(sqrt(C) / 4) on a
chain of C sites (at least 1, at most the steps left): 8 on 1,025 sites, 16
on 4,097.  Each block reads the amplitude a_k = max(|p_k|, |q_k|) once, over
the whole chain, and takes one slice of the chain from it, the stepped
support S.  A step's three coupling kicks carry a value at most three sites
(its reach), so a block carries one at most 3k sites, and S is widened by
3k.  Per step, the scan then reads C / k = 4 sqrt(C) sites and the widening
steps 6k = 1.5 sqrt(C) more, both small beside the C sites of a full-chain
step.

- S is the smallest slice holding every site with a_k >= e^2 max a
  (e = 2^-52), widened by 3k.  The rotations and every kick, V' included,
  act on p[S] and q[S] only; the sites outside S keep their values for the
  block, and the coupling kick sees them as zero.  Over a block a site's
  r_k = sqrt(p_k^2 + q_k^2) stays below G_k times the largest a within 3k
  sites of k, with G_k = sqrt(2) g^k and g = prod_j (1 + 4 |c_j dt eps|)
  over the kick sizes c_j dt of a step: rotations keep r_k, which starts at
  most sqrt(2) a_k, a coupling kick raises it by at most 4 |c_j dt eps|
  times the largest r within one site, and V' of a q that small is far below
  the q's rounding.  So a site left out of S is off by at most twice its
  amplitude grown over the block, 2 G_k e^2 max a, once per block, and a
  site at an end of S misses at most |c_j dt eps| times that per kick.
  After n steps the state is within about n e^2 max a of the full-chain
  steps, whatever the blocks: below one rounding of the largest entry,
  e max a, for every n below 1/e (4.5e15 steps).  A localized state, such as
  a breather and its spreading perturbation, keeps S to a small part of the
  chain; a spread-out one has S the whole chain, as has a state that is not
  finite, so that the blow-up still shows at the next sample.
- For V = 0 (no term in V', as for ``PotentialSpec.zero()`` or coefficients
  that cancel) the kicks are the coupling alone, and V' is never called.
"""

from __future__ import annotations

import math
import numbers

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
    if not dt > 0:
        raise ValueError(f"need dt > 0, got dt={dt}")
    if not dt * np.sqrt(1.0 + 4.0 * abs(eps)) <= 0.5 + 1e-12:
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


def _scan(p: np.ndarray, q: np.ndarray, k: int) -> slice:
    """One scan of the whole chain: the stepped support S of a block of k
    steps (module docstring)."""
    amp = np.maximum(np.abs(p), np.abs(q))
    top = amp[amp.argmax()]     # the largest entry, or the first NaN; a faster pass than max
    if not math.isfinite(top):
        return slice(0, amp.size)
    return _span(amp >= _EPS2 * top, k * _REACH)


def step_arrays(p: np.ndarray, q: np.ndarray, V: PotentialSpec, eps: float, dt: float,
                n: int):
    """n splitting steps in place on raw arrays (flat C-contiguous float64, else ValueError).

    The steps go in blocks, one scan of the chain per block; a block steps its
    support alone, the rotations, the coupling and V' on one slice.  See the
    module docstring for the block length, the support and its bound.
    """
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError(f"need a whole number of steps n >= 1, got n={n!r}")
    _check_inplace(p, q)
    turns = [(math.cos(r * dt), math.sin(r * dt)) for r in _ROTATIONS]
    kicks = [(ck * dt * eps, -2.0 * ck * dt * eps, -ck * dt) for ck in _KICKS]
    anharmonic = bool(V._dterms)        # V' has a term: V != 0
    block = max(1, math.isqrt(p.size) // 4)
    while n:
        k = min(n, block)
        n -= k
        support = _scan(p, q, k)
        ps, qs = p[support], q[support]
        m = ps.size
        work = tuple(np.empty((3, m)))
        for _ in range(k):
            for (a, a2, tau), (c, s) in zip(kicks, turns):     # all but the last turn
                drot(qs, ps, c, s, m, 0, 1, 0, 1, 1, 1)
                # p += a (Delta q), the sites outside the support read as zero
                daxpy(qs, ps, m, a2)
                daxpy(qs, ps, m - 1, a, 1, 1, 0, 1)
                daxpy(qs, ps, m - 1, a, 0, 1, 1, 1)
                if anharmonic:
                    lead, x = V.derivative_factors(qs, work)      # V' = lead x
                    daxpy(x, ps, m, tau * lead)
            drot(qs, ps, *turns[-1], m, 0, 1, 0, 1, 1, 1)


def tangent_steps(P: np.ndarray, Q: np.ndarray, V: PotentialSpec, eps: float, dt: float,
                  n: int):
    """n splitting steps in place of a state and its tangent vectors, by the
    scheme's exact tangent map.

    P = [p | Dp] and Q = [q | Dq] are C-contiguous (sites, 1 + m) blocks: the
    state rides along as column 0.  Each rotation rotates the stacked blocks
    as one BLAS rotation; each kick adds tau (eps Delta - V''(q)) Dq to Dp and
    tau (eps Delta q - V'(q)) to p, by two BLAS updates of P, by the
    Laplacian and by the force derivative, in buffers allocated once.
    """
    lap = np.empty_like(Q)
    dV = np.empty_like(Q)                    # [V'(q) | V''(q) Dq]
    P_flat, Q_flat, lap_flat, dV_flat = P.ravel(), Q.ravel(), lap.ravel(), dV.ravel()
    for _ in range(n):
        for i, ck in enumerate(_KICKS):
            _rotate(P_flat, Q_flat, _ROTATIONS[i] * dt)
            q = Q[:, 0]
            np.multiply(Q, V.second_derivative(q)[:, None], out=dV)
            dV[:, 0] = V.derivative(q)
            coupling_force(Q, out=lap)
            _axpy(P_flat, ck * dt * eps, lap_flat)
            _axpy(P_flat, -ck * dt, dV_flat)
        _rotate(P_flat, Q_flat, _ROTATIONS[-1] * dt)


def flow(state: LatticeState, V: PotentialSpec, eps: float, t: float,
         dt: float = 0.05) -> LatticeState:
    """Evolve for time t, forward or back, with a whole number of equal steps of
    size at most |dt|; the sign of dt plays no part."""
    if not abs(dt) > 0:
        raise ValueError(f"need a nonzero step, got dt={dt}")
    if t == 0:
        return state.copy()
    n = max(1, int(np.ceil(abs(t) / abs(dt))))
    h = t / n
    out = state.copy()
    step_arrays(out.p, out.q, V, eps, h, n)
    return out
