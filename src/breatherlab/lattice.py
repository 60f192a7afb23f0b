"""Lattice state, the chain Hamiltonian and its vector field, weighted norms.

Every state holds the sites k = -N..N in ascending order, in one layout.  The
coupling uses Dirichlet closure: the ghost sites +-(N+1) are held at zero,
which preserves the half-chain decoupling of the pinned linear system.  The
paper's transverse variable xi lives on the sites k != 0; here it is a state
whose central site is zero (``LatticeState.transverse``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .potential import PotentialSpec, _power


@dataclass
class LatticeState:
    N: int
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        n_expected = 2 * self.N + 1
        if self.p.shape != (n_expected,) or self.q.shape != (n_expected,):
            raise ValueError(
                f"expected arrays of length {n_expected}, got p {self.p.shape}, q {self.q.shape}"
            )

    @classmethod
    def zeros(cls, N: int):
        return cls(N, np.zeros(2 * N + 1), np.zeros(2 * N + 1))

    def sites(self) -> np.ndarray:
        return np.arange(-self.N, self.N + 1)

    def index(self, k: int) -> int:
        if abs(k) > self.N:
            raise IndexError(f"site {k} not present")
        return k + self.N

    def copy(self):
        return LatticeState(self.N, self.p.copy(), self.q.copy())

    def transverse(self):
        """xi, the transverse part: a copy with the central site set to zero."""
        out = self.copy()
        out.p[self.N] = out.q[self.N] = 0.0
        return out

    def __add__(self, other):
        self._compat(other)
        return replace(self.copy(), p=self.p + other.p, q=self.q + other.q)

    def __sub__(self, other):
        self._compat(other)
        return replace(self.copy(), p=self.p - other.p, q=self.q - other.q)

    def scaled(self, a: float):
        return replace(self.copy(), p=a * self.p, q=a * self.q)

    def _compat(self, other):
        if self.N != other.N:
            raise ValueError("incompatible lattice states")


@dataclass(frozen=True)
class PolynomialWeight:
    """Weight <k>^s, <k> = sqrt(1 + k^2)."""
    s: float = 0.0


@dataclass(frozen=True)
class ExponentialWeight:
    """Weight e^{sign * beta |k|} inside the squared sum; beta is fixed per experiment."""
    beta: float
    sign: int = +1

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")


WeightSpec = PolynomialWeight | ExponentialWeight


@dataclass(frozen=True)
class AdmissiblePair:
    """Strichartz exponent pair (q, r), admissible when q >= 6, r >= 2 and 1/q + 1/(3r) <= 1/6."""
    q_exp: float
    r_exp: float


def _span(mask: np.ndarray, reach: int = 0) -> slice:
    """Smallest slice holding every True entry of ``mask``, widened by ``reach``
    entries on each side and cut to the array; empty when no entry is True."""
    flags = mask.tobytes()      # one byte per entry, so find and rfind scan it in C
    first = flags.find(1)
    if first < 0:
        return slice(0, 0)
    return slice(max(first - reach, 0), min(flags.rfind(1) + 1 + reach, len(flags)))


def hamiltonian(state: LatticeState, V: PotentialSpec, eps: float) -> float:
    """Full chain energy: on-site oscillators + V + (eps/2) sum (q_{k+1}-q_k)^2.

    V is evaluated only on the smallest slice holding every |q| >= ``V.q_cut``;
    below q_cut, |V(q)| < |q| times the smallest normal double (see
    ``PotentialSpec``), so the far field of a localized state adds nothing and
    its powers are never raised.
    """
    q = state.q
    onsite = 0.5 * np.sum(state.p ** 2 + q ** 2) + np.sum(V(q[_span(np.abs(q) >= V.q_cut)]))
    qp = np.concatenate(([0.0], q, [0.0]))  # Dirichlet ghosts
    coupling = 0.5 * eps * np.sum(np.diff(qp) ** 2)
    return float(onsite + coupling)


def coupling_force(q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Discrete Laplacian with Dirichlet ghosts.

    Sites run along axis 0, so ``q`` may carry trailing columns (tangent
    vectors); the result goes to ``out`` when given.
    """
    lap = np.multiply(q, -2.0, out=out)
    lap[:-1] += q[1:]
    lap[1:] += q[:-1]
    return lap


def vector_field(y: np.ndarray, V: PotentialSpec, eps: float) -> np.ndarray:
    """Hamiltonian vector field on the packed vector y = (p, q).

    dp_k = eps (Delta q)_k - q_k - V'(q_k) and dq_k = p_k.
    """
    n = y.size // 2
    p, q = y[:n], y[n:]
    out = np.empty_like(y)
    dp = coupling_force(q, out=out[:n])
    dp *= eps
    dp -= q
    dp -= V.derivative(q)
    out[n:] = p
    return out


def _site_factors(weight: PolynomialWeight, ks: np.ndarray) -> np.ndarray:
    return (1.0 + ks.astype(float) ** 2) ** (weight.s / 2.0)


def norm(state: LatticeState, r_exp: float, weight: WeightSpec | None = None) -> float:
    """Norm of the pair (p, q): l^r with polynomial weight, or the exponential l^2 form.

    The direct sum convention is (|p|_r^r + |q|_r^r)^(1/r); exponential weights
    always use the squared form (sum over both components).  An integral r is
    raised by a chain of multiplications.  For r > 2 the chain runs only on
    the smallest slice holding every entry at or above tiny^(1/r), tiny the
    smallest normal double: below it the r-th power is subnormal, adds less
    than tiny to the sum, and its products cost many times normal ones.  For
    r <= 2 the chain has at most one product, which costs no more than the
    scan that finds the slice.  A fractional r is raised by ``**``.
    """
    if isinstance(weight, ExponentialWeight):
        w = np.exp(weight.sign * weight.beta * np.abs(state.sites()))
        return float(np.sqrt(np.sum(w * (state.p ** 2 + state.q ** 2))))
    if r_exp < 1:
        raise ValueError("r_exp must be >= 1")
    xs = (np.abs(state.p), np.abs(state.q))
    if weight is not None:
        wf = _site_factors(weight, state.sites())
        xs = (xs[0] * wf, xs[1] * wf)
    if np.isinf(r_exp):
        return float(max(np.max(x, initial=0.0) for x in xs))
    if float(r_exp).is_integer():
        if r_exp > 2:
            cut = np.finfo(float).tiny ** (1.0 / r_exp)
            xs = tuple(x[_span(x >= cut)] for x in xs)
        s = sum(np.sum(_power(x, int(r_exp))) for x in xs)
    else:
        s = sum(np.sum(x ** r_exp) for x in xs)
    return float(s ** (1.0 / r_exp))


class SpaceTimeNorm:
    """Space-time norms of a sampled trajectory, accumulated one sample at a time.

    A sample at time t brings ``value``, its spatial norm (``norm(x, r)``), and
    ``density``, the per-site p_k^2 + q_k^2.  Every time integral is the
    trapezoid rule over the sample times in the measure eps dt, and the weight
    is <k>^(-s) = (1 + k^2)^(-s/2), that of ``PolynomialWeight(-s)``:

    - ``lq()`` = (int value^q eps dt)^(1/q), the L^q_{eps t} l^r norm; the max
      over the samples for q = inf;
    - ``weighted_mixed(ks, s)`` = max_k <k>^(-s) (int density_k eps dt)^(1/2),
      the l^inf_{-s} L^2_{eps t} norm.

    These are the norms in which Bambusi (Comm. Math. Phys. 2013, the published
    arXiv:1209.1012) controls the perturbation; the discrete Strichartz
    estimates are Stefanov & Kevrekidis, Nonlinearity 2005.  Neither the time
    rule nor the weight is an option.  One sample spans no time and gives 0.
    """

    def __init__(self, eps: float, q_exp: float):
        self.eps = eps
        self.q_exp = q_exp
        self._integral = 0.0    # int value^q eps dt
        self._peak = 0.0        # max value
        self._per_site = 0.0    # int density_k eps dt
        self._last = None       # (t, value^q, density) of the previous sample

    def add(self, t: float, value: float, density: np.ndarray):
        power = value ** self.q_exp if np.isfinite(self.q_exp) else 0.0
        density = np.array(density, dtype=float)
        if self._last is not None:
            t0, power0, density0 = self._last
            half = 0.5 * self.eps * (t - t0)
            self._integral += half * (power0 + power)
            self._per_site = self._per_site + half * (density0 + density)
        self._peak = max(self._peak, value)
        self._last = (t, power, density)

    def lq(self) -> float:
        if np.isinf(self.q_exp):
            return float(self._peak)
        return float(self._integral ** (1.0 / self.q_exp))

    def weighted_mixed(self, ks: np.ndarray, s: float) -> float:
        w = _site_factors(PolynomialWeight(-s), ks)
        return float(np.max(w * np.sqrt(self._per_site)))


def check_skew(state: LatticeState, tol: float = 0.0) -> bool:
    """True iff p_k = -p_{-k} and q_k = -q_{-k} within tol (exactly by default)."""
    return bool(np.all(np.abs(state.p + state.p[::-1]) <= tol)
                and np.all(np.abs(state.q + state.q[::-1]) <= tol))
