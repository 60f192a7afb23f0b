"""Finite-order normal form around the uncoupled breather.

The Hamiltonian is represented as a graded sum of terms

    c(I) * e^{i n alpha} * prod_k z_k^{a_k} w_k^{b_k},

with the transverse sites k = -N..-1, 1..N carrying complex coordinates
z_k = (p_k - i q_k)/sqrt(2), w_k = (p_k + i q_k)/sqrt(2) (so w = conj(z) on
real states and the on-site energy is z_k w_k).  Coefficient functions of I
live as values on a Chebyshev grid over the configured action interval;
products are pointwise and d/dI is the spectral differentiation matrix, which
is exact on polynomial data and spectrally accurate on the chart functions.

Bracket and flow conventions (fixed once, used everywhere):

    {f,g} = dI f da g - da f dI g + i sum_k (dz_k f dw_k g - dw_k f dz_k g)

with Hamiltonian flow xdot = {H, x}, i.e. the vector field of H is

    X_I = -da H,  X_alpha = dI H,  X_z = -i dw H,  X_w = +i dz H.

With these choices the angle advances at rate dI hs(I), the cohomological
equation {hs(I) + sum z_k w_k, chi} = Psi diagonalizes in Fourier modes with
divisors i n w(I), i (n w(I) - 1), i (n w(I) + 1) on the xi^0, z and w parts,
and the identity H(graded) = H(lattice) holds on real states.

Truncation is by total transverse degree D and Fourier cutoff M.  Products
and brackets return exactly the degree <= D, |n| <= M part (the jet) of their
result on the given operands; ``lie_transform`` runs its series beyond the
jet so that the terms it truncates cannot change the jet either.  Everything
beyond the jet goes into the result's ``dropped`` tally.  Jets of the operands
can fix less than the jet of the result: a bracket with a degree-1 term fixes
only degrees <= D - 1.

Storage.  A ``GradedHamiltonian`` keeps its terms in three arrays: the
exponent matrix ``E`` (terms x 2 n_sites, int8; column 2s holds the power of
z and column 2s + 1 that of w at transverse site s), the Fourier modes ``n``
and the coefficient block ``C`` (terms x grid nodes).  A term is keyed by its
(monomial, n).  Monomials are numbered as in Giorgilli & Sansottera, *Methods
of algebraic manipulation in perturbation theory* (arXiv:1303.7398): an
exponent vector of degree <= D is ranked by its degree, then by the rank of
its tail, which a table of binomials gives from the suffix sums of the row.
Rank and mode fold into one int64 per term (into several only when the
lattice is so large that one would overflow).  Rows are unique and kept
sorted by key, and equal keys are summed by a sort and ``np.add.reduceat``.
``terms`` is a read-only (mono tuple, n) -> values mapping, decoded from the
arrays on first lookup; its length needs no decoding.

The bracket pairs monomials first and numbers the output monomials in key
order.  A monomial's modes lie on a lattice, lowest mode plus stride times
slot (mostly all odd or all even), and each output monomial owns a window of
rows: the lattice through the modes of its pairs, cut to |n| <= M.  The pairs
that share an f-monomial, a kind of part and a g-stride form a group, and
reach distinct output monomials.  For each pair the group sums its parts over
the modes of both operands as one convolution, a Toeplitz matrix product per
grid node: the f rows at their mode shifts against the g rows held dense over
each g-monomial's lattice.  Each pair's sums are added once into its
monomial's rows, and the parts that reach a row make it a term, so the terms
come out in key order with no sort of the parts.  ``_CHUNK_ROWS`` bounds the
work arrays: the output rows are summed in chunks of whole output monomials
of about that many rows, a group is cut so that its pairs times its widest
span of sums stay within it, and the Toeplitz matrices are built for as many
grid nodes at a time as fit in the entries of a chunk.  Beyond the output
(twice, while the chunks are joined), a few copies of the operands and the
index arrays of the pairs, memory so stays within a few chunks; only one
node's Toeplitz matrix can pass a chunk, at few grid nodes and with modes
that span most of |n| <= M.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from .lattice import LatticeState
from .potential import (ActionAngleChart, PotentialSpec, from_cartesian, sample_orbit,
                        to_cartesian)


class ResonanceError(RuntimeError):
    """A small divisor fell below the configured floor."""

    def __init__(self, n: int, value: float):
        super().__init__(f"small divisor for Fourier mode n={n}: |den|={value:.3e}")
        self.n = n
        self.value = value


class FourierTailError(RuntimeError):
    """The central-orbit Fourier tail beyond the cutoff is not negligible."""


# ---------------------------------------------------------------------------
# Chebyshev grid utilities

def cheb_nodes(n: int, a: float, b: float) -> np.ndarray:
    """Chebyshev-Gauss-Lobatto nodes on [a, b], ascending."""
    x = np.cos(np.pi * np.arange(n) / (n - 1))
    return 0.5 * (a + b) + 0.5 * (b - a) * x[::-1]


def cheb_diff_matrix(n: int, a: float, b: float) -> np.ndarray:
    """Spectral differentiation matrix on the CGL nodes (ascending order)."""
    x = np.cos(np.pi * np.arange(n) / (n - 1))
    c = np.ones(n)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n)
    X = np.tile(x, (n, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(n))
    D -= np.diag(D.sum(axis=1))
    # permute to ascending nodes and rescale to [a, b]
    return D[::-1, ::-1] * (2.0 / (b - a))


def _bary_weights(n: int) -> np.ndarray:
    w = (-1.0) ** np.arange(n)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _bary_row(nodes: np.ndarray, x: float) -> np.ndarray:
    """Weights that interpolate values on the CGL nodes at x (one-hot on a node)."""
    diff = x - nodes
    hit = np.where(np.abs(diff) < 1e-14)[0]
    if hit.size:
        row = np.zeros(nodes.size)
        row[hit[0]] = 1.0
        return row
    w = _bary_weights(nodes.size) / diff
    return w / np.sum(w)


# ---------------------------------------------------------------------------
# context and graded terms

@dataclass
class NormalFormContext:
    chart: ActionAngleChart
    V: PotentialSpec
    N: int
    D: int
    M: int
    I_nodes: np.ndarray
    Dmat: np.ndarray
    sites: np.ndarray
    hs0: np.ndarray
    q0hat: np.ndarray          # shape (2M+1, G), row index n + M
    beta: float = 1.0

    @property
    def n_sites(self) -> int:
        return self.sites.size

    def site_index(self, k: int) -> int:
        hits = np.where(self.sites == k)[0]
        if hits.size == 0:
            raise IndexError(f"site {k} not in the transverse lattice")
        return int(hits[0])

    def z_var(self, k: int) -> int:
        return 2 * self.site_index(k)

    def w_var(self, k: int) -> int:
        return 2 * self.site_index(k) + 1

    def q0_fourier(self, n: int) -> np.ndarray:
        if abs(n) > self.M:
            return np.zeros_like(self.hs0, dtype=complex)
        return self.q0hat[n + self.M]

    def with_truncation(self, D: int, M: int) -> "NormalFormContext":
        """The same grids truncated at degree D and Fourier cutoff M.

        The central-orbit data is cut, or padded with the zero modes that the
        tail check vouches for, to the new cutoff.
        """
        pad = M - self.M
        if pad >= 0:
            q0hat = np.pad(self.q0hat, ((pad, pad), (0, 0)))
        else:
            q0hat = self.q0hat[-pad:pad]
        return replace(self, D=D, M=M, q0hat=q0hat)


def make_context(chart: ActionAngleChart, V: PotentialSpec, N: int = 8,
                 D: int = 4, M: int = 32, I_span: tuple[float, float] = (0.3, 0.5),
                 n_nodes: int = 16, n_orbit_samples: int = 256,
                 tail_tol: float = 1e-12, beta: float = 1.0) -> NormalFormContext:
    """Grids plus the central-orbit Fourier data shared by all eps."""
    if n_nodes < 2:
        raise ValueError(f"the action grid needs at least 2 Chebyshev nodes, got nodes={n_nodes}")
    a, b = I_span
    nodes = cheb_nodes(n_nodes, a, b)
    Dmat = cheb_diff_matrix(n_nodes, a, b)
    hs0 = chart._E_spline(nodes)
    S = n_orbit_samples
    if 2 * M >= S:
        raise ValueError(f"n_orbit_samples = {S} resolves the modes |n| <= {(S - 1) // 2}, "
                         f"not the cutoff M = {M}")
    _, _, qs = sample_orbit(chart, nodes, S, rtol=1e-13)
    coeffs = np.fft.fft(qs) / S       # q(alpha) at node g = sum_n coeffs[g, n] e^{i n alpha}
    freqs = np.fft.fftfreq(S, d=1.0 / S).astype(int)
    tail = np.max(np.abs(coeffs[:, np.abs(freqs) > M]), axis=1, initial=0.0)
    if np.any(tail > tail_tol):
        g = int(np.argmax(tail > tail_tol))
        raise FourierTailError(
            f"central orbit Fourier tail {tail[g]:.2e} beyond |n|={M} at I={nodes[g]}")
    q0hat = coeffs[:, np.arange(-M, M + 1) % S].T.copy()
    sites = np.concatenate([np.arange(-N, 0), np.arange(1, N + 1)])
    return NormalFormContext(chart, V, N, D, M, nodes, Dmat, sites, hs0, q0hat,
                             beta=beta)


# ---------------------------------------------------------------------------
# monomial index and keyed sums

# output rows a bracket sums per chunk, beyond that only to finish a monomial
_CHUNK_ROWS = 1 << 15


@functools.cache
def _rank_tables(m: int, D: int, K: int) -> tuple:
    """Column groups of the monomial index, each with its table of binomials.

    A group of r exponent columns whose entries sum to at most D ranks as
    sum_j table[j, s_j], with s_j the suffix sums of the row and
    table[j, s] = C(s + r - j - 1, r - j): its place in the order by degree,
    then by the same rank of the tail.  A group spans as many columns as keep
    its ranks times K (the modes fold into the last group) below 2^62.
    """
    groups = []
    start = 0
    while start < m:
        r = 1
        while start + r < m and math.comb(r + 1 + D, D) * K < 2 ** 62:
            r += 1
        table = np.array([[math.comb(s + r - j - 1, r - j) for s in range(D + 1)]
                          for j in range(r)], dtype=np.int64)
        groups.append((start, start + r, table))
        start += r
    return tuple(groups)


def _keys(ctx: NormalFormContext, E: np.ndarray, n: np.ndarray | None = None):
    """Sort keys (words, rows) of exponent rows of degree <= ctx.D, and modes n.

    The columns order lexicographically by monomial, then by n; equal
    (monomial, n) give equal columns.
    """
    K = 2 * ctx.M + 1
    words = []
    for a, b, table in _rank_tables(E.shape[1], ctx.D, K):
        suffix = np.cumsum(E[:, a:b][:, ::-1], axis=1, dtype=np.int64)[:, ::-1]
        words.append(table[np.arange(b - a), suffix].sum(axis=1))
    if n is not None:
        words[-1] = words[-1] * K + (n + ctx.M)
    return np.stack(words)


def _group(keys: np.ndarray):
    """(order sorting the key columns, mask of the first of each run of equals)."""
    if keys.shape[0] == 1:
        order = np.argsort(keys[0], kind="stable")
    else:
        order = np.lexsort(keys[::-1])
    sk = keys[:, order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(sk[:, 1:] != sk[:, :-1], axis=0)
    return order, first


def _sort_reduce(keys: np.ndarray, C: np.ndarray):
    """(row of each distinct key, in key order; sum of the rows of C with that key)."""
    if not C.shape[0]:
        return np.zeros(0, dtype=np.int64), C
    order, first = _group(keys)
    starts = np.flatnonzero(first)
    return order[starts], np.add.reduceat(C[order], starts, axis=0)


def _summed(ctx: NormalFormContext, E, n, C):
    """(E, n, C) with the rows of equal key summed, in key order."""
    first, C = _sort_reduce(_keys(ctx, E, n), C)
    return E[first], n[first], C


def _ranges(count: np.ndarray) -> np.ndarray:
    """Concatenation of arange(c) for c in count."""
    return np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)


def _monomial_runs(E: np.ndarray):
    """(first row, row count, exponents) of each monomial of key-sorted rows."""
    first = np.ones(E.shape[0], dtype=bool)
    first[1:] = np.any(E[1:] != E[:-1], axis=1)
    start = np.flatnonzero(first)
    return start, np.diff(np.append(start, E.shape[0])), E[start]


def _lattices(n: np.ndarray, start: np.ndarray, count: np.ndarray):
    """(lowest mode, stride, slot of each row) per monomial run of key-sorted rows.

    A monomial's modes are lowest + stride * slot, with the stride their
    greatest common step (0 for a single mode).
    """
    lowest = n[start]
    step = n - np.repeat(lowest, count)
    stride = np.gcd.reduceat(step, start)
    return lowest, stride, step // np.repeat(np.maximum(stride, 1), count)


def _windows(lo_p, hi_p, stride_p, order, first, M: int):
    """(lowest mode, stride, row count) of the output rows of each output monomial.

    Pair p reaches modes lo_p + stride_p * k up to hi_p.  A monomial's rows
    are the lattice through the modes of all its pairs (the runs of
    ``order`` that ``first`` marks), cut to |n| <= M.
    """
    start = np.flatnonzero(first)
    lo_p, hi_p, stride_p = lo_p[order], hi_p[order], stride_p[order]
    lo = np.minimum.reduceat(lo_p, start)
    hi = np.maximum.reduceat(hi_p, start)
    stride = np.gcd(stride_p, lo_p - lo[np.cumsum(first) - 1])
    stride = np.maximum(np.gcd.reduceat(stride, start), 1)
    lo += stride * -(np.minimum(lo + M, 0) // stride)
    return lo, stride, np.maximum((np.minimum(hi, M) - lo) // stride + 1, 0)


def _mode_convolution(F: np.ndarray, shift: np.ndarray, X: np.ndarray,
                      occupied: np.ndarray, r: int):
    """Sums over the modes of one f-monomial times each g-monomial of a group.

    F (f-modes, kinds, G) holds the f rows, mode m at output offset shift[m];
    X (G, kinds, slots, pairs) the g rows, slot t at offset r t, with
    ``occupied`` (slots, pairs) marking the slots that hold a term.  The
    offsets of a pair form a Toeplitz matrix over the slots, so the sum is
    one matrix product per grid node; the matrices are built for as many
    nodes at a time as fit in the entries of ``_CHUNK_ROWS`` output rows.
    Returns the sums (G, offsets, pairs) and the count of parts at each
    (offset, pair).
    """
    t = np.arange(X.shape[2])
    at = shift[:, None] + r * t
    span = int(at[-1, -1]) + 1
    kinds, G = F.shape[1:]
    F = F.transpose(0, 2, 1)[:, None]
    X = X.reshape(G, kinds * t.size, -1)
    acc = np.empty((G, span, X.shape[2]), dtype=complex)
    nodes = max(_CHUNK_ROWS * G // (span * kinds * t.size), 1)
    for g in range(0, G, nodes):
        toeplitz = np.zeros((min(nodes, G - g), span, kinds, t.size), dtype=complex)
        toeplitz[:, at, :, t] = F[:, :, g:g + nodes]
        acc[g:g + nodes] = toeplitz.reshape(-1, span, kinds * t.size) @ X[g:g + nodes]
    spread = np.zeros((span, t.size))
    spread[at, t] = 1.0
    return acc, spread @ occupied


def _pairs_up_to(df: np.ndarray, dg: np.ndarray, cap: int):
    """All (a, b) with df[a] + dg[b] <= cap."""
    order = np.argsort(dg, kind="stable")
    count = np.searchsorted(dg[order], cap - df, side="right")
    return np.repeat(np.arange(df.size), count), order[_ranges(count)]


def _transverse_triples(Uf, Ug, df, dg, cap: int):
    """All (a, b, v) with Uf[a, v] > 0, Ug[b, v ^ 1] > 0 and df[a] + dg[b] - 2 <= cap."""
    a, v = np.nonzero(Uf)
    b, u = np.nonzero(Ug)
    width = int(dg.max()) + 1
    gkey = (u ^ 1) * width + dg[b]          # g's entries by the f-variable they pair
    order = np.argsort(gkey, kind="stable")
    gkey = gkey[order]
    lo = np.searchsorted(gkey, v * width, side="left")
    hi = np.searchsorted(gkey, v * width + np.clip(cap + 2 - df[a], -1, width - 1),
                         side="right")
    count = np.maximum(hi - lo, 0)
    pick = np.repeat(np.arange(a.size), count)
    return a[pick], b[order[np.repeat(lo, count) + _ranges(count)]], v[pick]


def _mode_degree_mass(n, d, a):
    """(distinct modes, sum of a per mode and degree)."""
    modes, inv = np.unique(n, return_inverse=True)
    mass = np.zeros((modes.size, int(d.max()) + 1))
    np.add.at(mass, (inv, d), a)
    return modes, mass


def _lost_mass(f: "GradedHamiltonian", g: "GradedHamiltonian") -> float:
    """Sum of max|c1| max|c2| over the parts of pairs cut by the cutoff or the cap."""
    D, M = f.ctx.D, f.ctx.M
    mf, A = _mode_degree_mass(f.n, f.degrees, np.abs(f.C).max(axis=1))
    mg, B = _mode_degree_mass(g.n, g.degrees, np.abs(g.C).max(axis=1))
    inside = np.abs(mf[:, None] + mg[None, :]) <= M
    both_zero = (mf[:, None] == 0) & (mg[None, :] == 0)
    d1 = np.arange(A.shape[1])[:, None]
    d2 = np.arange(B.shape[1])[None, :]

    def mass(pairs):
        return A.T @ pairs.astype(float) @ B

    lost = mass(~inside).sum()
    # the action-angle part vanishes only for n1 = n2 = 0
    lost += mass(inside & ~both_zero)[d1 + d2 > D].sum()
    lost += mass(inside)[(d1 > 0) & (d2 > 0) & (d1 + d2 - 2 > D)].sum()
    return float(lost)


class _TermView(Mapping):
    """(mono, n) -> values, mono = ((v, e), ...) by increasing v; decoded on first lookup."""

    def __init__(self, gh: "GradedHamiltonian"):
        self._gh = gh
        self._items = None

    def __len__(self):
        return self._gh.n.size

    def _decoded(self) -> dict:
        if self._items is None:
            E, n, C = self._gh.E, self._gh.n, self._gh.C
            rows, cols = np.nonzero(E)
            exps = E[rows, cols].tolist()
            bounds = np.searchsorted(rows, np.arange(n.size + 1)).tolist()
            cols = cols.tolist()
            monos = [tuple(zip(cols[a:b], exps[a:b]))
                     for a, b in zip(bounds[:-1], bounds[1:])]
            self._items = dict(zip(zip(monos, n.tolist()), C))
        return self._items

    def __getitem__(self, key):
        return self._decoded()[key]

    def __iter__(self):
        return iter(self._decoded())


class GradedHamiltonian:
    """Sparse graded polynomial-Fourier Hamiltonian over the I grid.

    Term r is C[r](I) e^{i n[r] alpha} prod_v x_v^E[r, v] with x the z and w
    variables interleaved.  Rows are unique and sorted by key.  The arrays
    are never written in place, so results share them freely; arithmetic
    returns new objects and tallies truncated mass in ``dropped``.
    """

    def __init__(self, ctx: NormalFormContext, dropped: float = 0.0):
        self.ctx = ctx
        self.dropped = dropped
        self._E = np.zeros((0, 2 * ctx.n_sites), dtype=np.int8)
        self._n = np.zeros(0, dtype=np.int64)
        self._C = np.zeros((0, ctx.I_nodes.size), dtype=complex)
        self._added = []          # add_term input not yet merged into the arrays

    @classmethod
    def _of(cls, ctx, E, n, C, dropped=0.0, summed=True) -> "GradedHamiltonian":
        """From arrays; unless ``summed``, equal keys are summed and rows sorted."""
        out = cls(ctx, dropped)
        out._E, out._n, out._C = (E, n, C) if summed else _summed(ctx, E, n, C)
        return out

    # -- construction -------------------------------------------------------

    def add_term(self, mono: tuple, n: int, coeff) -> "GradedHamiltonian":
        """Add coeff(I) e^{i n alpha} prod x_v^e for mono = ((v, e), ...).

        A repeated v multiplies.  A term beyond the degree cap or the Fourier
        cutoff goes to ``dropped``.
        """
        coeff = np.asarray(coeff, dtype=complex)
        if coeff.ndim == 0:
            coeff = coeff * np.ones(self.ctx.I_nodes.size, dtype=complex)
        if abs(n) > self.ctx.M or sum(e for _, e in mono) > self.ctx.D:
            self.dropped += float(np.max(np.abs(coeff)))
            return self
        self._added.append((mono, n, coeff))
        return self

    def _merge_added(self):
        if not self._added:
            return
        rows = np.zeros((len(self._added), self._E.shape[1]), dtype=np.int8)
        for r, (mono, _, _) in enumerate(self._added):
            for v, e in mono:
                rows[r, v] += e
        n = [t[1] for t in self._added]
        C = [t[2] for t in self._added]
        self._added = []
        self._E, self._n, self._C = _summed(
            self.ctx, np.concatenate([self._E, rows]), np.concatenate([self._n, n]),
            np.concatenate([self._C, C]))

    @property
    def E(self) -> np.ndarray:
        self._merge_added()
        return self._E

    @property
    def n(self) -> np.ndarray:
        self._merge_added()
        return self._n

    @property
    def C(self) -> np.ndarray:
        self._merge_added()
        return self._C

    @property
    def terms(self) -> Mapping:
        return _TermView(self)

    @property
    def degrees(self) -> np.ndarray:
        return self.E.sum(axis=1)

    def _rows(self, keep: np.ndarray, dropped: float = 0.0) -> "GradedHamiltonian":
        return GradedHamiltonian._of(self.ctx, self.E[keep], self.n[keep], self.C[keep],
                                     dropped)

    # -- linear algebra -----------------------------------------------------

    def __add__(self, other: "GradedHamiltonian") -> "GradedHamiltonian":
        return GradedHamiltonian._of(
            self.ctx, np.concatenate([self.E, other.E]), np.concatenate([self.n, other.n]),
            np.concatenate([self.C, other.C]), self.dropped + other.dropped, summed=False)

    def __sub__(self, other: "GradedHamiltonian") -> "GradedHamiltonian":
        return self + other.scale(-1.0)

    def scale(self, a: complex) -> "GradedHamiltonian":
        return GradedHamiltonian._of(self.ctx, self.E, self.n, a * self.C,
                                     abs(a) * self.dropped)

    def prune(self, floor: float) -> "GradedHamiltonian":
        size = np.abs(self.C).max(axis=1)
        keep = size > floor
        return self._rows(keep, self.dropped + float(size[~keep].sum()))

    def max_coeff(self) -> float:
        return float(np.abs(self.C).max(initial=0.0))

    # -- structure ----------------------------------------------------------

    def part_of_degree(self, degree: int) -> "GradedHamiltonian":
        return self._rows(self.degrees == degree)

    def _mean_row(self) -> np.ndarray:
        return (self.degrees == 0) & (self.n == 0)

    def mean_action(self) -> np.ndarray:
        """The alpha-mean of the xi-degree-0 part, as values on the I grid."""
        row = self._mean_row()
        if row.any():
            return self.C[row][0].copy()
        return np.zeros(self.ctx.I_nodes.size, dtype=complex)

    def without_mean(self) -> "GradedHamiltonian":
        return self._rows(~self._mean_row(), self.dropped)

    def conjugation_defect(self) -> float:
        """Reality defect: max |c(mono, n) - conj(c(conj mono, -n))|."""
        swap = np.arange(self.E.shape[1]) ^ 1
        mirror = GradedHamiltonian._of(self.ctx, self.E[:, swap], -self.n,
                                       -np.conj(self.C), summed=False)
        return (self + mirror).max_coeff()

    # -- calculus -----------------------------------------------------------

    def d_I(self) -> "GradedHamiltonian":
        return GradedHamiltonian._of(self.ctx, self.E, self.n, self.C @ self.ctx.Dmat.T)

    def d_alpha(self) -> "GradedHamiltonian":
        keep = self.n != 0
        return GradedHamiltonian._of(self.ctx, self.E[keep], self.n[keep],
                                     1j * self.n[keep, None] * self.C[keep])

    def poisson(self, other: "GradedHamiltonian") -> "GradedHamiltonian":
        """{self, other} in the fixed bracket convention.

        Each part of a pair of terms (action-angle, transverse) that lands
        beyond the Fourier cutoff or the degree cap adds max|c1| * max|c2| to
        the ``dropped`` tally.  Pairs are formed per pair of monomials; each
        pair's parts are summed as one convolution over the Fourier modes, a
        Toeplitz matrix product per grid node, into chunks of whole output
        monomials (see the module docstring).
        """
        ctx = self.ctx
        D, M = ctx.D, ctx.M
        dropped = self.dropped + other.dropped
        if not self.n.size or not other.n.size:
            return GradedHamiltonian(ctx, dropped)
        dropped += _lost_mass(self, other)
        sf, cf, Uf = _monomial_runs(self.E)
        sg, cg, Ug = _monomial_runs(other.E)
        df, dg = Uf.sum(axis=1), Ug.sum(axis=1)
        # monomial pairs: action-angle part dI f da g - da f dI g up to degree D
        aa_a, aa_b = _pairs_up_to(df, dg, D)
        # transverse part i sum_k (dz f dw g - dw f dz g), one part per z-w match
        tr_a, tr_b, tr_v = _transverse_triples(Uf, Ug, df, dg, D)
        if not aa_a.size + tr_a.size:
            return GradedHamiltonian(ctx, dropped)
        tr_rows = Uf[tr_a] + Ug[tr_b]
        k = np.arange(tr_v.size)
        tr_rows[k, tr_v] -= 1
        tr_rows[k, tr_v ^ 1] -= 1
        factor = np.where(tr_v & 1, -1j, 1j) * Uf[tr_a, tr_v] * Ug[tr_b, tr_v ^ 1]
        # the pairs (action-angle, then transverse) numbered by output
        # monomial in key order
        rows = np.concatenate([Uf[aa_a] + Ug[aa_b], tr_rows])
        order, first = _group(_keys(ctx, rows))
        monomials = rows[order[first]]
        pid = np.empty(order.size, dtype=np.int64)
        pid[order] = np.cumsum(first) - 1
        pa, pb = np.concatenate([aa_a, tr_a]), np.concatenate([aa_b, tr_b])
        pv = np.concatenate([np.full(aa_a.size, -1), tr_v])    # -1: action-angle
        factor = np.concatenate([np.ones(aa_a.size), factor])

        nf, ng = self.n, other.n
        lo_f, st_f, _ = _lattices(nf, sf, cf)
        lo_g, st_g, slot_g = _lattices(ng, sg, cg)
        Lg = slot_g[sg + cg - 1] + 1
        hi_f, hi_g = nf[sf + cf - 1], ng[sg + cg - 1]
        lo, step, width = _windows(lo_f[pa] + lo_g[pb], hi_f[pa] + hi_g[pb],
                                   np.gcd(st_f[pa], st_g[pb]), order, first, M)
        row0 = np.cumsum(width) - width
        # chunks of whole output monomials: one starts at each monomial that
        # starts past another _CHUNK_ROWS rows
        opens = np.diff(row0 // _CHUNK_ROWS, prepend=-1) > 0
        chunk = (np.cumsum(opens) - 1)[pid]
        bounds = np.append(row0[opens], width.sum())

        # the rows each kind of part multiplies: (i n Cg, dI Cg) with
        # (dI Cf, -i n Cf) for the action-angle part, Cg with Cf for the
        # transverse part; g grid node first, with a zero column last
        Cf, Cg = self.C, other.C
        G = Cf.shape[1]
        f_rows = np.stack([Cf @ ctx.Dmat.T, -1j * nf[:, None] * Cf, Cf], axis=1)
        g_aa = np.zeros((G, 2, ng.size + 1), dtype=complex)
        g_aa[:, 0, :-1] = (1j * ng[:, None] * Cg).T
        g_aa[:, 1, :-1] = (Cg @ ctx.Dmat.T).T
        g_tr = np.zeros((G, 1, ng.size + 1), dtype=complex)
        g_tr[:, 0, :-1] = Cg.T
        # one group per chunk, f-monomial, kind of part and g-stride: the
        # pairs of a group reach distinct output monomials.  A pair's sums
        # lie ``so`` modes apart over the span of f's modes plus g's
        gs = np.where(Lg[pb] > 1, st_g[pb], st_f[pa])
        so = np.maximum(np.gcd(st_f[pa], gs), 1)
        span = (hi_f[pa] - lo_f[pa] + hi_g[pb] - lo_g[pb]) // so + 1
        seq = np.lexsort((span, gs, pv, pa, chunk))
        key = np.stack([chunk, pa, pv, gs])[:, seq]
        cut = np.flatnonzero(np.any(key[:, 1:] != key[:, :-1], axis=0)) + 1
        # a group, by growing span, is cut where pairs times its widest span
        # would pass _CHUNK_ROWS, so that its sums stay within one chunk
        groups = []
        for p in np.split(seq, cut):
            while p.size:
                size = span[p] * np.arange(1, p.size + 1)
                take = max(int(np.searchsorted(size, _CHUNK_ROWS, side="right")), 1)
                groups.append(p[:take])
                p = p[take:]
        edges = np.searchsorted(chunk[[p[0] for p in groups]], np.arange(bounds.size))
        out_rows, out_C = [], []
        for c in range(bounds.size - 1):
            buf = np.zeros((bounds[c + 1] - bounds[c], G), dtype=complex)
            reached = np.zeros(buf.shape[0], dtype=bool)
            for p in groups[edges[c]:edges[c + 1]]:
                a, b = pa[p[0]], pb[p]
                aa = pv[p[0]] < 0
                s = int(so[p[0]])
                r = int(gs[p[0]]) // s
                # the g terms at (slot, pair); empty slots read the zero column
                j = np.repeat(sg[b], cg[b]) + _ranges(cg[b])
                idx = np.full((Lg[b].max(), b.size), ng.size)
                idx[slot_g[j], np.repeat(np.arange(b.size), cg[b])] = j
                X = np.take(g_aa if aa else g_tr, idx, axis=2)
                if not aa:
                    X *= factor[p]
                fr = np.arange(sf[a], sf[a] + cf[a])
                shift = (nf[fr] - lo_f[a]) // s
                kinds = slice(0, 2) if aa else slice(2, 3)
                acc, count = _mode_convolution(f_rows[fr, kinds], shift, X,
                                               idx < ng.size, r)
                # the action-angle part of modes n_f = n_g = 0 vanishes and
                # makes no term
                if aa and np.any(nf[fr] == 0):
                    t0, p0 = np.nonzero(np.append(ng, 1)[idx] == 0)
                    count[shift[nf[fr] == 0] + r * t0, p0] -= 1.0
                # into the output rows of each pair's monomial
                q = np.broadcast_to(pid[p], count.shape).ravel()
                at = (lo_f[a] + lo_g[b] + s * np.arange(count.shape[0])[:, None]).ravel() - lo[q]
                keep = np.flatnonzero((count.ravel() > 0.5) & (at >= 0)
                                      & (at < step[q] * width[q]))
                row = (row0[q] - bounds[c] + at // step[q])[keep]
                buf[row] += acc.reshape(G, -1).T[keep]
                reached[row] = True
            out_rows.append(bounds[c] + np.flatnonzero(reached))
            out_C.append(buf[reached])
        out_rows = np.concatenate(out_rows)
        mono = np.searchsorted(row0, out_rows, side="right") - 1
        return GradedHamiltonian._of(ctx, monomials[mono],
                                     lo[mono] + step[mono] * (out_rows - row0[mono]),
                                     np.concatenate(out_C), dropped)

    # -- evaluation ---------------------------------------------------------

    def _at_point(self, I: float, alpha: float, z):
        """Value and field at (I, alpha, z) on the real subspace w = conj(z)."""
        row = _bary_row(self.ctx.I_nodes, I)
        C = self.C
        z = np.asarray(z)
        fields = _field_on_grid(self, (C @ row)[:, None],
                                (C @ (self.ctx.Dmat.T @ row))[:, None],
                                np.array([float(alpha)]), z[None, :], np.conj(z)[None, :])
        return [x[0, 0, 0] for x in fields]

    def evaluate(self, I: float, alpha: float, z: np.ndarray) -> complex:
        return self._at_point(I, alpha, z)[0]

    def field_at(self, I: float, alpha: float, z: np.ndarray):
        """Hamiltonian vector field (X_I, X_alpha, X_z, X_w) at a real phase point."""
        return tuple(self._at_point(I, alpha, z)[1:])


def _field_on_grid(gh: GradedHamiltonian, cI: np.ndarray, dcI: np.ndarray,
                   alphas: np.ndarray, z: np.ndarray, w: np.ndarray):
    """Value and vector field of gh on the grid (I points) x alphas x (z, w) points.

    cI and dcI hold the coefficients and their d/dI at the I points, shape
    (terms, nI); alphas has shape (nA,), z and w (nP, n_sites).  Returns H,
    X_I and X_alpha of shape (nI, nA, nP) and X_z, X_w of shape
    (nI, nA, nP, n_sites).
    """
    E, n = gh.E, gh.n
    T, m = E.shape
    x = np.ones((z.shape[0], m + 1), dtype=complex)     # column m: unused slots
    x[:, 0:m:2] = z
    x[:, 1:m:2] = w
    # each term's variables and powers in L slots
    rows, cols = np.nonzero(E)
    per_term = np.bincount(rows, minlength=T)
    L = max(int(per_term.max(initial=0)), 1)
    slot = _ranges(per_term)
    var = np.full((T, L), m)
    power = np.zeros((T, L), dtype=np.int64)
    var[rows, slot] = cols
    power[rows, slot] = E[rows, cols]
    base = x[:, var]                                      # (nP, T, L)
    factors = base ** power
    mono = factors.prod(axis=2)                           # (nP, T)
    # d mono / d x_var: the slot's derivative times the other slots' factors
    others = np.ones_like(factors)
    others[..., 1:] = np.cumprod(factors[..., :-1], axis=2)
    others[..., :-1] *= np.cumprod(factors[..., :0:-1], axis=2)[..., ::-1]
    slope = power * base ** np.maximum(power - 1, 0) * others
    grad = np.zeros((z.shape[0], T, m + 1), dtype=complex)
    grad[:, np.arange(T)[:, None], var] = slope           # a term's variables differ
    phase = np.exp(1j * np.outer(n, alphas))              # (T, nA)
    shape = (cI.shape[1], alphas.size, z.shape[0])
    cp = (cI[:, :, None] * phase[:, None, :]).reshape(T, shape[0] * shape[1])
    dp = (dcI[:, :, None] * phase[:, None, :]).reshape(T, shape[0] * shape[1])
    H = (cp.T @ mono.T).reshape(shape)
    X_I = ((-1j * n[:, None] * cp).T @ mono.T).reshape(shape)
    X_a = (dp.T @ mono.T).reshape(shape)
    dH = np.tensordot(cp, grad[:, :, :m], axes=(0, 1)).reshape(shape + (m,))
    return H, X_I, X_a, -1j * dH[..., 1::2], 1j * dH[..., 0::2]


def constant_hamiltonian(ctx: NormalFormContext, values: np.ndarray) -> GradedHamiltonian:
    gh = GradedHamiltonian(ctx)
    gh.add_term((), 0, np.asarray(values, dtype=complex))
    return gh


def transverse_core(ctx: NormalFormContext) -> GradedHamiltonian:
    """sum_k z_k w_k."""
    gh = GradedHamiltonian(ctx)
    ones = np.ones(ctx.I_nodes.size, dtype=complex)
    for k in ctx.sites:
        gh.add_term(((ctx.z_var(int(k)), 1), (ctx.w_var(int(k)), 1)), 0, ones)
    return gh


# ---------------------------------------------------------------------------
# initial decomposition

_SQRT2 = np.sqrt(2.0)


def _q_factors(ctx: NormalFormContext, k: int):
    """q_k = (i/sqrt2) z_k - (i/sqrt2) w_k as [(var, coefficient)]."""
    return [(ctx.z_var(k), 1j / _SQRT2), (ctx.w_var(k), -1j / _SQRT2)]


def _add_q_product(gh: GradedHamiltonian, ctx, ksites: list[int], coeff):
    """Add coeff * prod q_k for the listed sites (with multiplicity), at mode 0."""
    stack = [((), coeff)]
    for k in ksites:
        stack = [(m + ((v, 1),), c * a) for m, c in stack for v, a in _q_factors(ctx, k)]
    for mono, c in stack:
        gh.add_term(mono, 0, c)


@dataclass
class InitialDecomposition:
    """H = hs0(I) + core + Z2 + linear_residual + angular_residual."""
    ctx: NormalFormContext
    eps: float
    hs0: np.ndarray
    core: GradedHamiltonian
    Z2: GradedHamiltonian
    linear_residual: GradedHamiltonian      # -eps q0(I,alpha)(q_-1 + q_1)
    angular_residual: GradedHamiltonian     # eps q0(I,alpha)^2

    def total(self) -> GradedHamiltonian:
        return (constant_hamiltonian(self.ctx, self.hs0) + self.core + self.Z2
                + self.linear_residual + self.angular_residual)


def build_initial(ctx: NormalFormContext, eps: float) -> InitialDecomposition:
    """Assemble the graded pieces of the chain Hamiltonian at coupling eps.

    The transverse coupling keeps the bond-by-bond regrouping of the full
    Hamiltonian: bonds not touching the center, pinning terms (eps/2) q_{+-1}^2,
    and Dirichlet boundary terms (eps/2) q_{+-N}^2.
    """
    N = ctx.N
    core = transverse_core(ctx)

    Z2 = GradedHamiltonian(ctx)
    for k in range(-N, N):
        if k in (-1, 0):
            continue
        # (eps/2)(q_{k+1} - q_k)^2
        _add_q_product(Z2, ctx, [k + 1, k + 1], 0.5 * eps)
        _add_q_product(Z2, ctx, [k, k], 0.5 * eps)
        _add_q_product(Z2, ctx, [k, k + 1], -eps)
    for k in (-1, 1):          # pinning from the bonds that touched the center
        _add_q_product(Z2, ctx, [k, k], 0.5 * eps)
    for k in (-N, N):          # Dirichlet closure bonds to the zero ghosts
        _add_q_product(Z2, ctx, [k, k], 0.5 * eps)
    for m, a in ctx.V.coefficients:
        for k in ctx.sites:
            if m <= ctx.D:
                _add_q_product(Z2, ctx, [int(k)] * m, a)
            else:
                Z2.dropped += abs(a)

    lin = GradedHamiltonian(ctx)
    for n in range(-ctx.M, ctx.M + 1):
        c = ctx.q0_fourier(n)
        if np.max(np.abs(c)) < 1e-16:
            continue
        for k in (-1, 1):
            for v, a in _q_factors(ctx, k):
                lin.add_term(((v, 1),), n, -eps * a * c)

    ang = GradedHamiltonian(ctx)
    M = ctx.M
    conv = np.zeros((2 * M + 1, ctx.I_nodes.size), dtype=complex)
    for n1 in range(-M, M + 1):
        c1 = ctx.q0hat[n1 + M]
        if np.max(np.abs(c1)) < 1e-16:
            continue
        for n2 in range(-M, M + 1):
            n = n1 + n2
            if abs(n) > M:
                continue
            c2 = ctx.q0hat[n2 + M]
            conv[n + M] += c1 * c2
    for n in range(-M, M + 1):
        if np.max(np.abs(conv[n + M])) > 1e-16:
            ang.add_term((), n, eps * conv[n + M])

    return InitialDecomposition(ctx, eps, ctx.hs0.astype(float), core, Z2, lin, ang)


# ---------------------------------------------------------------------------
# cohomological equation and Lie transforms

def solve_cohomological(ctx: NormalFormContext, hs_vals: np.ndarray,
                        psi: GradedHamiltonian,
                        divisor_floor: float = 1e-3) -> GradedHamiltonian:
    """Solve {hs(I) + sum z_k w_k, chi} = psi mode by mode.

    psi must consist of a mean-free xi^0 part and a xi^1 part.  Divisors:
    i n w(I) on xi^0 modes, i (n w(I) - 1) on z terms, i (n w(I) + 1) on w
    terms, with w = d hs/dI on the grid.  The smallest |divisor| over the
    grid and the terms is kept on the result as ``min_divisor`` (inf when psi
    has no terms to remove).
    """
    deg = psi.degrees
    if np.any(deg > 1):
        raise ValueError("psi must have transverse degree <= 1")
    mean = psi._mean_row()
    if np.max(np.abs(psi.C[mean]), initial=0.0) > 1e-14:
        raise ValueError("psi has a nonzero alpha-mean at xi = 0")
    E, n, C = psi.E[~mean], psi.n[~mean], psi.C[~mean]
    omega = (ctx.Dmat @ np.asarray(hs_vals)).real
    # w-degree minus z-degree: -1 on z terms, +1 on w terms, 0 on xi^0 terms
    shift = E[:, 1::2].sum(axis=1) - E[:, 0::2].sum(axis=1)
    den = 1j * (n[:, None] * omega + shift[:, None])
    small = np.abs(den).min(axis=1, initial=np.inf)
    if np.any(small < divisor_floor):
        r = int(np.argmin(small))
        raise ResonanceError(int(n[r]), float(small[r]))
    chi = GradedHamiltonian._of(ctx, E, n, C / den)
    chi.min_divisor = float(small.min(initial=np.inf))
    return chi


def _lowering_variables(chi: GradedHamiltonian) -> np.ndarray:
    """Mask of the variables whose powers a term can spend on degree-lowering brackets.

    Only the transverse bracket with a degree-1 term x of chi lowers the
    degree, by differentiating in conj(x).  The transverse bracket with a
    higher-degree term x*y*... trades conj(x) for y*... without losing degree,
    so conj(x) joins the set once a traded-for variable is in it.  Along any
    chain of brackets with chi, (degree - D) minus the powers of these
    variables never decreases: a term whose degree exceeds D by more than its
    powers of them can never come back to degree <= D.
    """
    E, deg = chi.E, chi.degrees
    swap = np.arange(E.shape[1]) ^ 1
    found = (E[deg == 1] > 0).any(axis=0)[swap]
    U = E[deg >= 2]
    present = U > 0
    while True:
        # a power of v can be traded when the monomial keeps a found variable
        held = (present & found).sum(axis=1)[:, None] - (found & (U == 1))
        grown = found | (present & (held > 0)).any(axis=0)[swap]
        if np.array_equal(grown, found):
            return found
        found = grown


def lie_transform(H: GradedHamiltonian, chi: GradedHamiltonian, order: int = 8,
                  stop_tol: float = 1e-15) -> GradedHamiltonian:
    """Truncated Lie series H o Phi^1_chi = sum_l ad_chi^l H / l!, jet-exact.

    The degree <= D, |n| <= M part of the result does not depend on where the
    series is truncated (down to the per-term floor).  Terms beyond that jet
    still feed it: the transverse bracket with a degree-1 part of chi lowers
    the degree by one, and chi's Fourier modes move n back towards 0.  So the
    series runs at a working degree D + order - 1 (D when chi's lowest degree
    is not 1) and cutoff M + (order - 1) max|n_chi|.  A working term that
    needs k more brackets to reach the jet is kept while the bound on its
    contribution along the shortest such chain, a * growth^k / (l + k)! at
    stage l, is at least ``stop_tol`` relative to H; the growth per bracket
    comes from the pair bound of ``poisson``.  Terms inside the jet are
    pruned below max(1e-16, 1e-3 ``stop_tol``) relative to H.  Terms that
    cannot reach the jet within ``order`` brackets (see
    ``_lowering_variables``) are cut outright.  Everything cut goes into the
    ``dropped`` tally.

    Only degrees <= D - 1 of a bracket of two such D-jets are determined when
    either has a degree-1 part: the degree-1 terms bracket with degree D + 1
    terms, which the jets do not hold, down to degree D.

    The series stops at ``order`` or once no kept term can contribute
    ``stop_tol`` relative to H; the estimated size of the first omitted term
    goes into the ``dropped`` tally.
    """
    ctx = H.ctx
    D, M = ctx.D, ctx.M
    scale = max(H.max_coeff(), 1.0)
    # per-term truncation three decades under the series stop level keeps
    # the aggregate truncation comfortably below stop_tol
    prune_floor = max(1e-16, 1e-3 * stop_tol) * scale
    chi_d = chi.degrees
    chi_n = np.abs(chi.n)
    chi_a = np.abs(chi.C).max(axis=1)
    chi_da = np.abs(chi.C @ ctx.Dmat.T).max(axis=1)
    degree_one = bool(np.any(chi_d == 1))
    reach = int(chi_n.max(initial=0))
    raise_max = int(chi_d.max(initial=0))
    work = ctx.with_truncation(D + (order - 1) * degree_one, M + (order - 1) * reach)
    # one bracket with chi grows a term of degree d and mode n by at most
    # a1 * d if it lowers the degree, and by p + q |n| + r d otherwise (the
    # pair bound of ``poisson``, with chi's d/dI growth standing in for the
    # term's)
    a1 = float(chi_a[chi_d == 1].sum())
    p = float((chi_n * chi_da).sum())
    q = float(chi_da.sum())
    r = float((chi_d * chi_a).sum())
    lowering = _lowering_variables(chi)
    comb = np.array([[math.comb(k, e) for e in range(order + 1)] for k in range(order + 1)],
                    dtype=float)
    factorial = np.array([math.factorial(i) for i in range(order + 1)], dtype=float)
    chi_w = GradedHamiltonian._of(work, chi.E, chi.n, chi.C, summed=False)
    term = GradedHamiltonian._of(work, H.E, H.n, H.C, summed=False)
    out = H
    fact = 1.0
    for l in range(1, order + 1):
        bracket = chi_w.poisson(term)
        fact *= l
        lost = bracket.dropped / fact
        a = np.abs(bracket.C).max(axis=1)
        d = bracket.degrees
        n_abs = np.abs(bracket.n)
        e = np.maximum(d - D, 0)
        k = np.maximum(e, -(-np.maximum(n_abs - M, 0) // max(reach, 1)))
        unreachable = (e > 0) & (e > bracket.E[:, lowering].sum(axis=1))
        cut = unreachable | (l + k > order)
        lost += float((a[cut] / fact).sum())
        bound = a / fact
        floor = np.full(a.size, prune_floor)
        far = ~cut & (k > 0)
        if far.any():
            # along k brackets the degree stays <= dk and the mode <= nk
            kf, ef = k[far], e[far]
            dk = d[far] + raise_max * kf
            nk = n_abs[far] + reach * kf
            bound[far] = (a[far] * comb[kf, ef] * (a1 * dk) ** ef
                          * (p + q * nk + r * dk) ** (kf - ef) / factorial[l + kf])
            floor[far] = stop_tol * scale
        small = ~cut & (bound < floor)
        lost += float(bound[small].sum())
        keep = ~(cut | small)
        size = float(bound[keep].max(initial=0.0))
        term = bracket._rows(keep)
        jet = keep & (k == 0)
        out = out + GradedHamiltonian._of(ctx, bracket.E[jet], bracket.n[jet],
                                          bracket.C[jet] / fact, summed=False)
        out.dropped += lost
        if size < stop_tol * scale:
            return out
    # crude remainder estimate: the last kept term again contracted by chi
    out.dropped += term.max_coeff() * max(chi.max_coeff(), 1e-300) / (fact * (order + 1))
    return out


def flow_generator(chi: GradedHamiltonian, I: float, alpha: float,
                   z: np.ndarray, steps: int = 32):
    """Time-1 flow of the generator's vector field from a real point.

    Integrates (I, alpha, z) with w = conj(z) enforced (the real subspace is
    invariant for generators with the reality symmetry); classic RK4.
    """
    h = 1.0 / steps
    y_I, y_a, y_z = float(I), float(alpha), np.asarray(z, dtype=complex).copy()

    def rhs(cI, ca, cz):
        X_I, X_a, X_z, _ = chi.field_at(cI, ca, cz)
        return X_I.real, X_a.real, X_z

    for _ in range(steps):
        k1 = rhs(y_I, y_a, y_z)
        k2 = rhs(y_I + 0.5 * h * k1[0], y_a + 0.5 * h * k1[1], y_z + 0.5 * h * k1[2])
        k3 = rhs(y_I + 0.5 * h * k2[0], y_a + 0.5 * h * k2[1], y_z + 0.5 * h * k2[2])
        k4 = rhs(y_I + h * k3[0], y_a + h * k3[1], y_z + h * k3[2])
        y_I += (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y_a += (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        y_z += (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    return y_I, y_a, y_z


# ---------------------------------------------------------------------------
# the normalization driver

@dataclass
class StepRecord:
    step: int
    residual_norm: float
    h_norm: float
    Z_norm: float
    min_divisor: float
    dropped: float


@dataclass
class NormalFormResult:
    ctx: NormalFormContext
    eps: float
    hs: np.ndarray
    core: GradedHamiltonian
    Z: GradedHamiltonian
    residual: GradedHamiltonian
    generators: list[GradedHamiltonian]
    records: list[StepRecord]


def _resplit(ctx, total: GradedHamiltonian):
    """(hs values, Z, R) with the unit transverse core removed from Z."""
    hs = total.mean_action().real
    E, n, C, deg = total.E, total.n, total.C, total.degrees
    R = total._rows(((deg == 0) & (n != 0)) | (deg == 1))
    core = (deg == 2) & (n == 0) & ((E[:, 0::2] == 1) & (E[:, 1::2] == 1)).any(axis=1)
    C = C - core[:, None]
    keep = (deg >= 2) & (np.abs(C).max(axis=1) > 0.0)
    Z = GradedHamiltonian._of(ctx, E[keep], n[keep], C[keep], total.dropped)
    return hs, Z, R


def measure_scaled_norm(gh: GradedHamiltonian, eps: float) -> float:
    """Sampled vector-field norm with the sqrt(eps)-scaled transverse radius.

    max over samples of max(|X_I|, |X_alpha|, ||X_xi||_2 / R_xi) with xi drawn
    from 4 directions of a fixed seeded ensemble, normalized to ||xi||_2 = R_xi
    = sqrt(eps); I runs over the Chebyshev nodes, alpha over 6 uniform angles.
    Only eps-scaling slopes of this number are ever asserted.
    """
    ctx = gh.ctx
    R_xi = np.sqrt(max(eps, 1e-300))
    rng = np.random.default_rng(1234)
    ns = ctx.n_sites
    dirs = rng.standard_normal((4, ns)) + 1j * rng.standard_normal((4, ns))
    dirs /= np.sqrt(2.0 * np.sum(np.abs(dirs) ** 2, axis=1))[:, None]
    z = R_xi * dirs                      # (nD, ns); w = conj(z) on the real subspace
    ig = np.arange(ctx.I_nodes.size)[:: max(1, ctx.I_nodes.size // 8)]
    alphas = np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)
    _, X_I, X_a, X_z, X_w = _field_on_grid(gh, gh.C[:, ig], gh.C @ ctx.Dmat[ig].T,
                                           alphas, z, np.conj(z))
    xi_norm = np.sqrt(np.sum(np.abs(X_z) ** 2 + np.abs(X_w) ** 2, axis=-1))
    return float(max(np.max(np.abs(X_I), initial=0.0), np.max(np.abs(X_a), initial=0.0),
                     np.max(xi_norm, initial=0.0) / R_xi))


def normalize(init: InitialDecomposition, r_max: int = 2, lie_order: int = 8,
              lie_stop: float = 3e-8, divisor_floor: float = 1e-3,
              drop_threshold: float = np.inf) -> NormalFormResult:
    """Run r_max normalization steps.

    Step 1 removes the xi-linear residual (generator chi^(1)), step 2 the
    angle-dependent xi^0 residual (chi^(0)), later steps both at once; the
    frequency map is recomputed from the accumulated hs before every solve.
    After each Lie transform the full Hamiltonian is re-split exactly, so the
    residual history reflects everything not yet in normal form.  Terms below
    lie_stop relative to the Hamiltonian scale are truncated (and tallied);
    only eps-scalings far above that floor are ever measured.

    Step 1 regenerates an O(eps^2) xi-linear residue through {chi1, Z2} and
    {chi1, angular residual}; step 2 leaves it alone and step 3 removes it.
    So with r_max = 2 the xi-linear residual is O(eps / smallest divisor)
    relative to the initial one, not smaller.
    """
    ctx = init.ctx
    eps = init.eps
    total = init.total()
    scale0 = max(total.max_coeff(), 1.0)
    hs, Z, R = _resplit(ctx, total)
    generators: list[GradedHamiltonian] = []
    records: list[StepRecord] = []
    hs_start = init.hs0.copy()
    for step in range(1, r_max + 1):
        if step == 1:
            psi = R.part_of_degree(1)
        elif step == 2:
            psi = R.part_of_degree(0).without_mean()
        else:
            psi = R.without_mean()
        psi = psi.prune(0.1 * lie_stop * scale0)
        chi = solve_cohomological(ctx, hs, psi, divisor_floor)
        total = lie_transform(total, chi, order=lie_order, stop_tol=lie_stop)
        total = total.prune(0.01 * lie_stop * scale0)
        if total.dropped > drop_threshold:
            raise RuntimeError(f"truncation mass {total.dropped:.2e} above threshold")
        hs, Z, R = _resplit(ctx, total)
        generators.append(chi)
        # step-1 bookkeeping follows the two-step lemma: the xi-linear residue
        # regenerated at order eps^{3/2} belongs to the *next* residual, so the
        # step-1 residual is the xi^0 content awaiting step 2
        measured = R.part_of_degree(0) if step == 1 else R
        records.append(StepRecord(
            step=step,
            residual_norm=measure_scaled_norm(measured, eps),
            # cumulative action-Hamiltonian correction hs_r - hs_0 (~ eps)
            h_norm=measure_scaled_norm(
                constant_hamiltonian(ctx, hs - hs_start), eps),
            Z_norm=measure_scaled_norm(Z, eps),
            min_divisor=chi.min_divisor,
            dropped=total.dropped,
        ))
    return NormalFormResult(ctx, eps, hs, transverse_core(ctx), Z, R,
                            generators, records)


def invariant_manifold_check(result: NormalFormResult) -> float:
    """max over the grid of I nodes x 64 angles of the transverse field magnitude at xi = 0.

    Only the xi-linear residual contributes: X_z = -i (w-coefficients),
    X_w = +i (z-coefficients) evaluated at xi = 0.
    """
    ctx = result.ctx
    lin = result.residual.part_of_degree(1)
    alphas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    origin = np.zeros((1, ctx.n_sites), dtype=complex)
    _, _, _, X_z, X_w = _field_on_grid(lin, lin.C, lin.C @ ctx.Dmat.T, alphas,
                                       origin, origin)
    return float(np.max(np.sqrt(np.sum(np.abs(X_z) ** 2 + np.abs(X_w) ** 2, axis=-1))))


def nf_point_to_state(ctx: NormalFormContext, chart: ActionAngleChart,
                      I: float, alpha: float, z: np.ndarray) -> LatticeState:
    """(I, alpha, z) with w = conj(z) mapped to a real lattice state."""
    state = LatticeState.zeros(ctx.N)
    p0, q0 = to_cartesian(chart, I, alpha % (2.0 * np.pi))
    state.p[state.index(0)] = p0
    state.q[state.index(0)] = q0
    p = _SQRT2 * z.real
    q = -_SQRT2 * z.imag
    for s, k in enumerate(ctx.sites):
        i = state.index(int(k))
        state.p[i] = p[s]
        state.q[i] = q[s]
    return state


def state_to_nf_point(ctx: NormalFormContext, chart: ActionAngleChart,
                      state: LatticeState):
    """Inverse of nf_point_to_state on real states."""
    i0 = state.index(0)
    I, alpha = from_cartesian(chart, float(state.p[i0]), float(state.q[i0]))
    z = np.empty(ctx.n_sites, dtype=complex)
    for s, k in enumerate(ctx.sites):
        i = state.index(int(k))
        z[s] = (state.p[i] - 1j * state.q[i]) / _SQRT2
    return I, alpha, z
