"""Lattice state, the chain Hamiltonian and its vector field, weighted norms.

Sites are indexed k = -N..N.  The coupling uses Dirichlet closure: the ghost
sites +-(N+1) are held at zero, which preserves the half-chain decoupling of
the pinned linear system.  States may exclude the central site (k = 0), in
which case the arrays hold the sites -N..-1, 1..N in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .potential import PotentialSpec


@dataclass
class LatticeState:
    N: int
    p: np.ndarray
    q: np.ndarray
    include_site0: bool = True

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        n_expected = 2 * self.N + 1 if self.include_site0 else 2 * self.N
        if self.p.shape != (n_expected,) or self.q.shape != (n_expected,):
            raise ValueError(
                f"expected arrays of length {n_expected}, got p {self.p.shape}, q {self.q.shape}"
            )

    @classmethod
    def zeros(cls, N: int, include_site0: bool = True):
        n = 2 * N + 1 if include_site0 else 2 * N
        return cls(N, np.zeros(n), np.zeros(n), include_site0)

    def sites(self) -> np.ndarray:
        ks = np.arange(-self.N, self.N + 1)
        return ks if self.include_site0 else ks[ks != 0]

    def index(self, k: int) -> int:
        if abs(k) > self.N or (k == 0 and not self.include_site0):
            raise IndexError(f"site {k} not present")
        if self.include_site0:
            return k + self.N
        return k + self.N if k < 0 else k + self.N - 1

    def copy(self):
        return LatticeState(self.N, self.p.copy(), self.q.copy(), self.include_site0)

    def drop_site0(self):
        """Transverse part: the state with the central site removed."""
        if not self.include_site0:
            return self.copy()
        keep = np.ones(2 * self.N + 1, dtype=bool)
        keep[self.N] = False
        return LatticeState(self.N, self.p[keep], self.q[keep], include_site0=False)

    def with_site0(self, p0: float = 0.0, q0: float = 0.0):
        if self.include_site0:
            out = self.copy()
            out.p[self.N], out.q[self.N] = p0, q0
            return out
        p = np.insert(self.p, self.N, p0)
        q = np.insert(self.q, self.N, q0)
        return LatticeState(self.N, p, q, include_site0=True)

    def __add__(self, other):
        self._compat(other)
        return replace(self.copy(), p=self.p + other.p, q=self.q + other.q)

    def __sub__(self, other):
        self._compat(other)
        return replace(self.copy(), p=self.p - other.p, q=self.q - other.q)

    def scaled(self, a: float):
        return replace(self.copy(), p=a * self.p, q=a * self.q)

    def _compat(self, other):
        if self.N != other.N or self.include_site0 != other.include_site0:
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
    """Strichartz exponent pair (q, r); admissibility is checked by is_admissible."""
    q_exp: float
    r_exp: float


def is_admissible(pair: AdmissiblePair) -> bool:
    """True iff q >= 6, r >= 2 and 1/q + 1/(3r) <= 1/6 (with inf allowed)."""
    q, r = pair.q_exp, pair.r_exp
    if q < 6 or r < 2:
        return False
    inv = (0.0 if np.isinf(q) else 1.0 / q) + (0.0 if np.isinf(r) else 1.0 / (3.0 * r))
    return inv <= 1.0 / 6.0 + 1e-15


def hamiltonian(state: LatticeState, V: PotentialSpec, eps: float) -> float:
    """Full chain energy: on-site oscillators + V + (eps/2) sum (q_{k+1}-q_k)^2."""
    if not state.include_site0:
        raise ValueError("hamiltonian needs the full state including site 0")
    onsite = 0.5 * np.sum(state.p ** 2 + state.q ** 2) + np.sum(V(state.q))
    qp = np.concatenate(([0.0], state.q, [0.0]))  # Dirichlet ghosts
    coupling = 0.5 * eps * np.sum(np.diff(qp) ** 2)
    return float(onsite + coupling)


def coupling_force(q: np.ndarray, pinned_center: bool, N: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Discrete Laplacian with Dirichlet ghosts; optionally with site 0 pinned.

    Without site 0 the arrays hold -N..-1, 1..N, so pinning q_0 = 0 amounts to
    cutting the bond between the array neighbours N - 1 and N.  Sites run
    along axis 0, so ``q`` may carry trailing columns (tangent vectors); the
    result goes to ``out`` when given.
    """
    lap = np.multiply(q, -2.0, out=out)
    if pinned_center:
        lap[:N - 1] += q[1:N]
        lap[1:N] += q[:N - 1]
        lap[N:-1] += q[N + 1:]
        lap[N + 1:] += q[N:-1]
    else:
        lap[:-1] += q[1:]
        lap[1:] += q[:-1]
    return lap


def vector_field(y: np.ndarray, V: PotentialSpec, eps: float, N: int) -> np.ndarray:
    """Hamiltonian vector field on the packed vector y = (p, q).

    dp_k = eps (Delta q)_k - q_k - V'(q_k) and dq_k = p_k.  When each half of
    y holds the 2N sites without the central one, site 0 is pinned to zero.
    """
    n = y.size // 2
    p, q = y[:n], y[n:]
    out = np.empty_like(y)
    dp = coupling_force(q, n == 2 * N, N, out=out[:n])
    dp *= eps
    dp -= q
    dp -= V.derivative(q)
    out[n:] = p
    return out


def _site_factors(weight: WeightSpec | None, ks: np.ndarray) -> np.ndarray:
    if weight is None:
        return np.ones_like(ks, dtype=float)
    if isinstance(weight, PolynomialWeight):
        return (1.0 + ks.astype(float) ** 2) ** (weight.s / 2.0)
    return np.exp(0.5 * weight.sign * weight.beta * np.abs(ks))


def norm(state: LatticeState, r_exp: float, weight: WeightSpec | None = None) -> float:
    """Norm of the pair (p, q): l^r with polynomial weight, or the exponential l^2 form.

    The direct sum convention is (|p|_r^r + |q|_r^r)^(1/r); exponential weights
    always use the squared form (sum over both components).
    """
    ks = state.sites()
    if isinstance(weight, ExponentialWeight):
        w = np.exp(weight.sign * weight.beta * np.abs(ks))
        return float(np.sqrt(np.sum(w * (state.p ** 2 + state.q ** 2))))
    if r_exp < 1:
        raise ValueError("r_exp must be >= 1")
    wf = _site_factors(weight, ks)
    if np.isinf(r_exp):
        return float(max(np.max(np.abs(state.p) * wf, initial=0.0),
                         np.max(np.abs(state.q) * wf, initial=0.0)))
    s = np.sum((np.abs(state.p) * wf) ** r_exp) + np.sum((np.abs(state.q) * wf) ** r_exp)
    return float(s ** (1.0 / r_exp))


def circle_distance(a: float, b: float) -> float:
    """Shortest-arc distance between angles."""
    d = (a - b) % (2.0 * np.pi)
    return float(min(d, 2.0 * np.pi - d))


def distance(zeta: tuple[float, float, LatticeState],
             zeta_p: tuple[float, float, LatticeState],
             r_exp: float = 2.0, weight: WeightSpec | None = None) -> float:
    """max of |I - I'|, the circle distance of the angles, and ||xi - xi'||."""
    I, a, xi = zeta
    Ip, ap, xip = zeta_p
    return float(max(abs(I - Ip), circle_distance(a, ap), norm(xi - xip, r_exp, weight)))


def skew_symmetrize(state: LatticeState) -> LatticeState:
    """Antisymmetric part x_k -> (x_k - x_{-k})/2 (site 0 goes to zero)."""
    if not state.include_site0:
        raise ValueError("skew operations need the full state including site 0")
    p = 0.5 * (state.p - state.p[::-1])
    q = 0.5 * (state.q - state.q[::-1])
    return LatticeState(state.N, p, q, include_site0=True)


def check_skew(state: LatticeState, tol: float = 0.0) -> bool:
    """True iff p_k = -p_{-k} and q_k = -q_{-k} within tol (exactly by default)."""
    if not state.include_site0:
        raise ValueError("skew operations need the full state including site 0")
    return bool(np.all(np.abs(state.p + state.p[::-1]) <= tol)
                and np.all(np.abs(state.q + state.q[::-1]) <= tol))
