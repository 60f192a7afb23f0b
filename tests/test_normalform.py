import collections
import itertools
import warnings

import numpy as np
import pytest

from breatherlab import normalform
from breatherlab.lattice import hamiltonian as lattice_hamiltonian
from breatherlab.normalform import (GradedHamiltonian, ResonanceError, _bary_row,
                                    build_initial, cheb_diff_matrix, cheb_nodes,
                                    constant_hamiltonian, flow_generator,
                                    invariant_manifold_check, lie_transform,
                                    make_context, measure_scaled_norm,
                                    nf_point_to_state, normalize, solve_cohomological,
                                    state_to_nf_point, transverse_core)
from breatherlab.potential import PotentialSpec, build_chart


@pytest.fixture(scope="module")
def V4():
    return PotentialSpec(((4, 0.08),), min_degree=4)


@pytest.fixture(scope="module")
def chart4(V4):
    return build_chart(V4, 0.2, 0.7, n_grid=128)


@pytest.fixture(scope="module")
def ctx4(chart4, V4):
    return make_context(chart4, V4, N=4, D=4, M=16, I_span=(0.3, 0.5), n_nodes=12)


@pytest.fixture(scope="module")
def ctx4_fine(chart4, V4):
    # Fourier cutoff that holds the tail of a transformed bracket below 1e-11
    return make_context(chart4, V4, N=4, D=4, M=36, I_span=(0.3, 0.5), n_nodes=12)


@pytest.fixture(scope="module")
def ctx4_deep(chart4, V4):
    # degree cap whose remainder is negligible at a transverse radius of 0.05
    return make_context(chart4, V4, N=4, D=6, M=32, I_span=(0.3, 0.5), n_nodes=12)


@pytest.fixture(scope="module")
def ctx8(chart8, V8):
    # coarse Fourier cutoff keeps the unit tests quick; the tail (~1e-9) only
    # floors the residuals far below anything asserted here
    return make_context(chart8, V8, N=4, D=4, M=20, I_span=(0.32, 0.48),
                        n_nodes=12, tail_tol=1e-7)


@pytest.fixture(scope="module")
def ctx8_wide(chart8, V8):
    # spec-default Fourier cutoff for the tail statement itself
    return make_context(chart8, V8, N=2, D=2, M=32, I_span=(0.36, 0.44), n_nodes=6)


def test_cheb_derivative_exact_on_polynomials():
    nodes = cheb_nodes(12, 0.3, 0.5)
    D = cheb_diff_matrix(12, 0.3, 0.5)
    f = nodes ** 3 - 2 * nodes
    assert np.allclose(D @ f, 3 * nodes ** 2 - 2, atol=1e-11)
    assert f @ _bary_row(nodes, 0.412) == pytest.approx(0.412 ** 3 - 2 * 0.412, abs=1e-13)


def _poly_coeff(ctx, rng, deg=2):
    c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    return np.polyval(c, ctx.I_nodes)


def _random_graded(ctx, rng, n_terms=6, max_deg=2, max_n=3):
    gh = GradedHamiltonian(ctx)
    all_vars = list(range(2 * ctx.n_sites))
    for _ in range(n_terms):
        deg = rng.integers(0, max_deg + 1)
        vs = rng.choice(all_vars, size=deg, replace=True)
        mono = {}
        for v in vs:
            mono[int(v)] = mono.get(int(v), 0) + 1
        gh.add_term(tuple(sorted(mono.items())), int(rng.integers(-max_n, max_n + 1)),
                    _poly_coeff(ctx, rng))
    return gh


def _merge_mono(m1: tuple, m2: tuple) -> tuple:
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _mono_degree(mono: tuple) -> int:
    return sum(e for _, e in mono)


def _transverse_parts(m1: tuple, m2: tuple) -> list:
    """[(monomial, factor)] of i sum_k (dz m1 dw m2 - dw m1 dz m2)."""
    map2 = dict(m2)
    parts = []
    for v1, e1 in m1:
        e2 = map2.get(v1 ^ 1)
        if e2 is None:
            continue
        v2 = v1 ^ 1
        sign = 1.0 if (v1 & 1) == 0 else -1.0  # +i for dz f dw g
        red1 = tuple((v, e - 1 if v == v1 else e) for v, e in m1
                     if not (v == v1 and e == 1))
        red2 = tuple((v, e - 1 if v == v2 else e) for v, e in m2
                     if not (v == v2 and e == 1))
        parts.append((_merge_mono(red1, red2), sign * 1j * e1 * e2))
    return parts


def _reference_poisson(f, g):
    """The pair-loop bracket {f, g}: (terms dict, dropped), the oracle for ``poisson``.

    Screening is vectorized over g per term of f, with site bitmasks (Python
    ints beyond 62 sites); kept pair-parts are summed one dict entry at a time.
    The d/dI of each term is read from ``d_I``, the matrix product ``poisson``
    also uses: a matrix-vector product rounds differently by up to ~1e-13 of
    the bracket, which is the spectral derivative's noise, not the bracket's.
    """
    ctx = f.ctx
    acc = {}
    dropped = f.dropped + g.dropped
    M, D = ctx.M, ctx.D

    def prep(gh):
        rows = []
        derivative = gh.d_I().terms
        for (m, n), c in gh.terms.items():
            zmask = wmask = 0
            for v, _ in m:
                if v & 1:
                    wmask |= 1 << (v >> 1)
                else:
                    zmask |= 1 << (v >> 1)
            rows.append((m, _mono_degree(m), n, c, derivative[(m, n)],
                         float(np.max(np.abs(c))), zmask, wmask))
        return rows

    fprep = prep(f)
    gprep = prep(g)
    if not fprep or not gprep:
        return acc, dropped
    cols = list(zip(*gprep))
    g_mono = cols[0]
    g_d = np.array(cols[1])
    g_n = np.array(cols[2])
    g_c = np.array(cols[3])
    g_dc = np.array(cols[4])
    g_a = np.array(cols[5])
    mask_type = np.int64 if ctx.n_sites <= 62 else object
    g_z = np.array(cols[6], dtype=mask_type)
    g_w = np.array(cols[7], dtype=mask_type)
    g_nz = g_n != 0
    for m1, d1, n1, c1, Dc1, a1, z1, w1 in fprep:
        n_out = n1 + g_n
        inside = np.abs(n_out) <= M
        lost = a1 * g_a[~inside].sum()
        aa = inside & (g_nz | (n1 != 0))
        aa_keep = aa & (g_d <= D - d1)
        lost += a1 * g_a[aa & ~aa_keep].sum()
        tr_keep = None
        if d1:
            tr = inside & (g_d > 0)
            tr_keep = tr & (g_d <= D + 2 - d1)
            lost += a1 * g_a[tr & ~tr_keep].sum()
            tr_keep &= ((g_w & z1) | (g_z & w1)) != 0
        dropped += float(lost)
        for j in np.flatnonzero(aa_keep):
            val = 1j * g_n[j] * (Dc1 * g_c[j]) - 1j * n1 * (c1 * g_dc[j])
            key = (_merge_mono(m1, g_mono[j]), int(n_out[j]))
            acc[key] = acc[key] + val if key in acc else val
        if tr_keep is None:
            continue
        for j in np.flatnonzero(tr_keep):
            for mono, factor in _transverse_parts(m1, g_mono[j]):
                key = (mono, int(n_out[j]))
                val = factor * (c1 * g_c[j])
                acc[key] = acc[key] + val if key in acc else val
    return acc, dropped


def _random_operand(ctx, rng, n_monos, variables, modes=3):
    """Monomials over a few variables, each with ``modes`` Fourier modes.

    Degrees and modes reach the caps, so pairs overflow both.
    """
    gh = GradedHamiltonian(ctx)
    for _ in range(n_monos):
        deg = int(rng.integers(0, ctx.D + 1))
        mono = {}
        for v in rng.choice(variables, size=deg):
            mono[int(v)] = mono.get(int(v), 0) + 1
        for n in rng.choice(np.arange(-ctx.M, ctx.M + 1), size=modes, replace=False):
            gh.add_term(tuple(sorted(mono.items())), int(n), _poly_coeff(ctx, rng))
    return gh


def _assert_matches_reference(f, g):
    ref, ref_dropped = _reference_poisson(f, g)
    br = f.poisson(g)
    assert set(br.terms) == set(ref)
    size = max(float(np.max(np.abs(c))) for c in ref.values())
    worst = max(float(np.max(np.abs(br.terms[key] - c))) for key, c in ref.items())
    assert worst <= 1e-13 * size
    assert br.dropped == pytest.approx(ref_dropped, rel=1e-12)


@pytest.mark.parametrize("D, M", [(4, 16), (3, 5), (2, 3)])
def test_poisson_matches_pair_loop_reference(ctx4, rng, D, M):
    ctx = ctx4.with_truncation(D, M)
    variables = np.arange(8)          # z and w at four sites: many z-w matches
    for _ in range(3):
        small = _random_operand(ctx, rng, 4, variables)
        large = _random_operand(ctx, rng, 25, variables)
        _assert_matches_reference(small, large)
        _assert_matches_reference(large, small)


def test_poisson_matches_reference_beyond_62_sites(chart4, V4, rng):
    ctx = make_context(chart4, V4, N=32, D=3, M=16, I_span=(0.3, 0.5),
                       n_nodes=6).with_truncation(3, 5)
    assert ctx.n_sites > 62
    # sites on both sides of bit 62 of the old site bitmasks
    variables = np.concatenate([np.arange(116, 2 * ctx.n_sites), np.arange(4)])
    small = _random_operand(ctx, rng, 4, variables)
    large = _random_operand(ctx, rng, 25, variables)
    _assert_matches_reference(small, large)
    _assert_matches_reference(large, small)


def test_poisson_matches_reference_on_single_mode_monomials(ctx4, rng):
    # an f-monomial of one Fourier mode makes a diagonal Toeplitz matrix,
    # against g-monomials of one mode or of several
    ctx = ctx4.with_truncation(3, 5)
    variables = np.arange(8)
    single = _random_operand(ctx, rng, 8, variables, modes=1)
    other_single = _random_operand(ctx, rng, 8, variables, modes=1)
    several = _random_operand(ctx, rng, 25, variables)
    for f, g in ((single, several), (several, single), (single, other_single)):
        _assert_matches_reference(f, g)


@pytest.mark.parametrize("chunk", [1, 7])
def test_poisson_blocks_hold_whole_output_monomials(ctx4, rng, monkeypatch, chunk):
    # chunks of 1 or 7 output rows end after nearly every output monomial;
    # the sums of each chunk must be final, so no key may come out twice
    monkeypatch.setattr(normalform, "_CHUNK_ROWS", chunk)
    ctx = ctx4.with_truncation(4, 16)
    variables = np.arange(8)
    small = _random_operand(ctx, rng, 4, variables)
    large = _random_operand(ctx, rng, 25, variables)
    for f, g in ((small, large), (large, small)):
        _assert_matches_reference(f, g)
        br = f.poisson(g)
        keys = normalform._keys(ctx, br.E, br.n)
        assert np.array_equal(np.lexsort(keys[::-1]), np.arange(br.n.size))
        assert np.unique(keys, axis=1).shape[1] == br.n.size


def test_poisson_groups_stay_within_one_chunk(ctx4, rng, monkeypatch):
    # modes -M and M on both sides: each pair's sums span n = -2M, 0, 2M, of
    # which only n = 0 is an output row, so a chunk of 64 rows holds about
    # 64 output monomials, and a group of their pairs is cut to keep its
    # pairs times its span within 64 rows
    monkeypatch.setattr(normalform, "_CHUNK_ROWS", 64)
    convolve = normalform._mode_convolution
    sizes = []

    def recorded(F, shift, X, occupied, r):
        acc, count = convolve(F, shift, X, occupied, r)
        sizes.append(acc.shape[1:])
        return acc, count

    monkeypatch.setattr(normalform, "_mode_convolution", recorded)
    ctx = ctx4.with_truncation(4, 16)
    f, g = GradedHamiltonian(ctx), GradedHamiltonian(ctx)
    for n in (-ctx.M, ctx.M):
        f.add_term(((ctx.z_var(1), 1),), n, _poly_coeff(ctx, rng))
        for degree in (1, 2, 3):
            for vs in itertools.combinations_with_replacement(range(8), degree):
                mono = tuple(sorted(collections.Counter(vs).items()))
                g.add_term(mono, n, _poly_coeff(ctx, rng))
    _assert_matches_reference(f, g)
    assert any(pairs > 1 for _, pairs in sizes)
    assert all(span * pairs <= 64 for span, pairs in sizes if pairs > 1)


def test_poisson_sums_every_part_that_reaches_one_term(ctx4, rng):
    # z^2 w^2 e^{2 i alpha} is reached by the action-angle pairs (z w, z w)
    # and (z^2, w^2), by the z-w and the w-z transverse part of (z^2 w, z w^2),
    # and by three pairs of modes in each
    z, w = ctx4.z_var(1), ctx4.w_var(1)
    f, g = GradedHamiltonian(ctx4), GradedHamiltonian(ctx4)
    for mono_f, mono_g in ((((z, 1), (w, 1)), ((z, 1), (w, 1))),
                           (((z, 2),), ((w, 2),)),
                           (((z, 2), (w, 1)), ((z, 1), (w, 2)))):
        for n in (-1, 1, 3):
            f.add_term(mono_f, n, _poly_coeff(ctx4, rng))
            g.add_term(mono_g, 2 - n, _poly_coeff(ctx4, rng))
    assert (((z, 2), (w, 2)), 2) in f.poisson(g).terms
    _assert_matches_reference(f, g)
    _assert_matches_reference(g, f)


def test_poisson_keys_skip_vanishing_action_angle_parts(ctx4):
    # {z, w e^{i n alpha}} for n = 0, 2: the action-angle part of modes 0 and
    # 0 vanishes and makes no z w term at n = 0; the transverse part's
    # constant at n = 0 is a term
    z, w = ctx4.z_var(1), ctx4.w_var(1)
    f = GradedHamiltonian(ctx4).add_term(((z, 1),), 0, ctx4.I_nodes)
    g = GradedHamiltonian(ctx4)
    for n in (0, 2):
        g.add_term(((w, 1),), n, 1.0 + ctx4.I_nodes ** 2)
    assert set(f.poisson(g).terms) == {((), 0), ((), 2), (((z, 1), (w, 1)), 2)}
    _assert_matches_reference(f, g)
    _assert_matches_reference(g, f)


def test_bracket_convention_action_angle(ctx4):
    # {I, e^{i alpha}} = i e^{i alpha}: the angle advances at rate dI
    I_fun = constant_hamiltonian(ctx4, ctx4.I_nodes)
    g = GradedHamiltonian(ctx4).add_term((), 1, np.ones(ctx4.I_nodes.size))
    br = I_fun.poisson(g)
    assert set(br.terms) == {((), 1)}
    assert np.allclose(br.terms[((), 1)], 1j, atol=1e-12)


def test_bracket_convention_transverse(ctx4):
    # {z_k w_k, z_k} = -i z_k under the fixed convention
    k = int(ctx4.sites[0])
    zw = GradedHamiltonian(ctx4).add_term(
        tuple(sorted(((ctx4.z_var(k), 1), (ctx4.w_var(k), 1)))), 0, 1.0)
    z = GradedHamiltonian(ctx4).add_term(((ctx4.z_var(k), 1),), 0, 1.0)
    br = zw.poisson(z)
    key = (((ctx4.z_var(k), 1),), 0)
    assert set(br.terms) == {key}
    assert np.allclose(br.terms[key], -1j)


def test_bracket_antisymmetry_and_jacobi(ctx4, rng):
    for _ in range(4):
        f = _random_graded(ctx4, rng)
        g = _random_graded(ctx4, rng)
        h = _random_graded(ctx4, rng)
        anti = f.poisson(g) + g.poisson(f)
        assert anti.max_coeff() < 1e-10
        double = [f.poisson(g.poisson(h)),
                  g.poisson(h.poisson(f)),
                  h.poisson(f.poisson(g))]
        jac = double[0] + double[1] + double[2]
        # the residual is round-off of the twice-applied spectral d/dI, so it
        # scales with the double brackets (up to ~1e3 here)
        assert jac.max_coeff() < 1e-12 * max(1.0, max(b.max_coeff() for b in double))


def _realize(ctx, rng, gh=None):
    """Random real-symmetric graded function (reality-preserving test input)."""
    gh = GradedHamiltonian(ctx)
    for _ in range(5):
        deg = int(rng.integers(0, 3))
        vs = [int(v) for v in rng.choice(2 * ctx.n_sites, size=deg, replace=True)]
        mono = {}
        for v in vs:
            mono[v] = mono.get(v, 0) + 1
        mono = tuple(sorted(mono.items()))
        n = int(rng.integers(-3, 4))
        c = _poly_coeff(ctx, rng)
        gh.add_term(mono, n, c)
        conj_mono = tuple(sorted((v ^ 1, e) for v, e in mono))
        gh.add_term(conj_mono, -n, np.conj(c))
    return gh


def test_reality_preserved_by_bracket(ctx4, rng):
    f = _realize(ctx4, rng)
    g = _realize(ctx4, rng)
    assert f.conjugation_defect() < 1e-12
    br = f.poisson(g)
    assert br.conjugation_defect() < 1e-12 * max(1.0, br.max_coeff())


def test_q0_fourier_single_pair_for_harmonic(chart0, V0):
    ctx = make_context(chart0, V0, N=2, D=2, M=8, I_span=(0.2, 0.6), n_nodes=8)
    mags = np.max(np.abs(ctx.q0hat), axis=1)
    active = np.where(mags > 1e-12)[0] - ctx.M
    assert set(active.tolist()) == {-1, 1}
    # q0 = sqrt(2 I) cos(alpha): coefficients sqrt(2I)/2
    I = ctx.I_nodes[3]
    assert abs(ctx.q0hat[ctx.M + 1, 3]) == pytest.approx(np.sqrt(2 * I) / 2, rel=1e-9)


def test_q0_fourier_tail_small(ctx8_wide):
    # hard potential at the spec-default cutoff M = 32: tail below 1e-12
    mags = np.max(np.abs(ctx8_wide.q0hat), axis=1)
    assert mags[-1] < 1e-12 and mags[0] < 1e-12


def test_split_parts(ctx4):
    # the unit transverse core is one z_k w_k term per site, with no alpha-mean
    core = transverse_core(ctx4)
    assert not core.part_of_degree(0).terms and not core.part_of_degree(1).terms
    assert len(core.part_of_degree(2).terms) == ctx4.n_sites
    assert np.allclose(core.mean_action(), 0.0)
    # a constant Hamiltonian is all alpha-mean
    g = constant_hamiltonian(ctx4, ctx4.hs0)
    assert not g.part_of_degree(1).terms and not g.part_of_degree(2).terms
    assert np.allclose(g.mean_action(), ctx4.hs0)


def test_initial_decomposition_structure(ctx8):
    init = build_initial(ctx8, 0.05)
    # every term of the linear residual has xi-degree 1, and so no alpha-mean
    lin = init.linear_residual
    assert len(lin.part_of_degree(1).terms) == len(lin.terms)
    assert np.allclose(lin.mean_action(), 0)
    # every term of the angular residual has xi-degree 0
    ang = init.angular_residual
    assert len(ang.part_of_degree(0).terms) == len(ang.terms)
    # angular residual carries modes up to twice the q0 bandwidth (within M)
    ns = {abs(n) for (_, n) in init.angular_residual.terms}
    base = {abs(n) for (_, n) in init.linear_residual.terms}
    assert max(ns) >= max(base)


def test_graded_matches_lattice_hamiltonian(ctx4, chart4, V4, rng):
    init = build_initial(ctx4, 0.07)
    total = init.total()
    for _ in range(4):
        I = float(rng.uniform(0.32, 0.48))
        alpha = float(rng.uniform(0, 2 * np.pi))
        z = 0.1 * (rng.standard_normal(ctx4.n_sites)
                   + 1j * rng.standard_normal(ctx4.n_sites))
        state = nf_point_to_state(ctx4, chart4, I, alpha, z)
        lhs = total.evaluate(I, alpha, z).real
        rhs = lattice_hamiltonian(state, V4, 0.07)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-11)


def _term_by_term_field(gh, alphas, z, w):
    """H, X_I, X_alpha, X_z, X_w of gh at every (I node, alpha, point), one term at a time."""
    ctx = gh.ctx
    nI, nA, nP = ctx.I_nodes.size, alphas.size, z.shape[0]
    H, X_I, X_a = (np.zeros((nI, nA, nP), dtype=complex) for _ in range(3))
    dz, dw = (np.zeros((nI, nA, nP, ctx.n_sites), dtype=complex) for _ in range(2))
    x = np.empty((nP, 2 * ctx.n_sites), dtype=complex)
    x[:, 0::2], x[:, 1::2] = z, w
    for (mono, n), c in gh.terms.items():
        wave = c[:, None, None] * np.exp(1j * n * alphas)[None, :, None]
        dwave = (ctx.Dmat @ c)[:, None, None] * np.exp(1j * n * alphas)[None, :, None]
        value = np.ones(nP, dtype=complex)
        for v, e in mono:
            value = value * x[:, v] ** e
        H += wave * value
        X_I += -1j * n * wave * value
        X_a += dwave * value
        for v, e in mono:
            slope = np.full(nP, float(e), dtype=complex)
            for u, f in mono:
                slope = slope * x[:, u] ** (f - 1 if u == v else f)
            (dz if v % 2 == 0 else dw)[..., v // 2] += wave * slope
    return H, X_I, X_a, -1j * dw, 1j * dz


def test_field_on_grid_matches_term_by_term_evaluation(ctx4, rng):
    # powers up to 4 on a few variables, a degree-0 term, and independent z
    # and w (off the real subspace); then the empty operand
    gh = _random_operand(ctx4, rng, 12, np.arange(6))
    gh.add_term((), 3, _poly_coeff(ctx4, rng))
    gh.add_term(((ctx4.z_var(1), 4),), -2, _poly_coeff(ctx4, rng))
    assert max(e for mono, _ in gh.terms for _, e in mono) >= 2
    assert any(not mono for mono, _ in gh.terms)
    alphas = np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False)
    shape = (3, ctx4.n_sites)
    z = 0.7 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    w = 0.7 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    for operand in (gh, GradedHamiltonian(ctx4)):
        got = normalform._field_on_grid(operand, operand.C, operand.C @ ctx4.Dmat.T,
                                        alphas, z, w)
        want = _term_by_term_field(operand, alphas, z, w)
        for g, r in zip(got, want):
            size = max(1.0, np.max(np.abs(r), initial=0.0))
            assert g.shape == r.shape
            assert np.max(np.abs(g - r), initial=0.0) <= 1e-12 * size


def _in_key_order(gh):
    """Whether the rows of gh are unique and sorted by ``_keys``."""
    keys = normalform._keys(gh.ctx, gh.E, gh.n)
    ahead = np.any(keys[:, 1:] != keys[:, :-1], axis=0)
    order = np.lexsort(keys[::-1])
    return bool(np.all(ahead) and np.array_equal(order, np.arange(gh.n.size)))


def test_lie_transform_and_total_keep_unique_rows_in_key_order(ctx4, rng):
    # ``_of(..., summed=True)`` takes its rows as they are, so every series
    # must come out with unique rows in key order
    chi = _realize(ctx4, rng).scale(0.02)
    f = _realize(ctx4, rng)
    for out in (lie_transform(f, chi, 6), build_initial(ctx4, 0.05).total()):
        assert out.n.size > 1 and _in_key_order(out)


def test_nf_point_round_trip(ctx4, chart4, rng):
    I, alpha = 0.41, 1.3
    z = 0.05 * (rng.standard_normal(ctx4.n_sites)
                + 1j * rng.standard_normal(ctx4.n_sites))
    state = nf_point_to_state(ctx4, chart4, I, alpha, z)
    I2, a2, z2 = state_to_nf_point(ctx4, chart4, state)
    assert I2 == pytest.approx(I, abs=1e-10)
    assert a2 == pytest.approx(alpha, abs=1e-9)
    assert np.max(np.abs(z2 - z)) < 1e-12


def test_cohomological_single_mode(ctx4):
    # Psi = cos(alpha) with constant omega: chi = sin(alpha)/omega
    omega_const = 1.3
    hs = omega_const * ctx4.I_nodes
    psi = GradedHamiltonian(ctx4)
    psi.add_term((), 1, 0.5)
    psi.add_term((), -1, 0.5)
    chi = solve_cohomological(ctx4, hs, psi)
    # sin(alpha)/omega = (e^{ia} - e^{-ia}) / (2i omega)
    assert np.allclose(chi.terms[((), 1)], 0.5 / (1j * omega_const))
    assert np.allclose(chi.terms[((), -1)], 0.5 / (-1j * omega_const))


def test_cohomological_zero_linear_part(ctx4):
    hs = 1.3 * ctx4.I_nodes
    psi = GradedHamiltonian(ctx4).add_term((), 2, 1.0)
    chi = solve_cohomological(ctx4, hs, psi)
    assert all(len(mono) == 0 for (mono, _) in chi.terms)


def test_cohomological_back_substitution(ctx4, rng):
    hs = 1.3 * ctx4.I_nodes
    H_lin = constant_hamiltonian(ctx4, hs) + transverse_core(ctx4)
    for _ in range(10):
        psi = GradedHamiltonian(ctx4)
        for _ in range(4):
            n = int(rng.integers(1, 6)) * int(rng.choice([-1, 1]))
            psi.add_term((), n, rng.standard_normal() + 1j * rng.standard_normal())
            v = int(rng.integers(0, 2 * ctx4.n_sites))
            psi.add_term(((v, 1),), int(rng.integers(-5, 6)),
                         rng.standard_normal() + 1j * rng.standard_normal())
        chi = solve_cohomological(ctx4, hs, psi)
        resid = H_lin.poisson(chi) - psi
        assert resid.max_coeff() < 1e-10


def test_cohomological_resonance_error(ctx4):
    hs = 1.0 * ctx4.I_nodes  # omega = 1: divisor n*omega - 1 vanishes at n = 1
    psi = GradedHamiltonian(ctx4).add_term(((ctx4.z_var(1), 1),), 1, 1.0)
    with pytest.raises(ResonanceError):
        solve_cohomological(ctx4, hs, psi)


def test_lie_transform_identity_and_termination(ctx4):
    H = constant_hamiltonian(ctx4, ctx4.hs0) + transverse_core(ctx4)
    out = lie_transform(H, GradedHamiltonian(ctx4), order=5)
    assert (out - H).max_coeff() < 1e-15
    # chi = chi(alpha): the series for H = I terminates after one bracket,
    # I o Phi = I - d_alpha chi (flow convention xdot = {chi, x}); beyond L = 1
    # only spectral-differentiation round-off is generated
    I_fun = constant_hamiltonian(ctx4, ctx4.I_nodes)
    chi = GradedHamiltonian(ctx4).add_term((), 1, 0.2).add_term((), -1, 0.2)
    expected = I_fun + chi.d_alpha().scale(-1.0)
    out1 = lie_transform(I_fun, chi, order=1)
    assert (out1 - expected).max_coeff() < 1e-13
    out6 = lie_transform(I_fun, chi, order=6)
    assert (out6 - expected).max_coeff() < 1e-7


def _moved(gh, ctx):
    """gh in another context (terms beyond its jet are dropped)."""
    out = GradedHamiltonian(ctx)
    for (mono, n), c in gh.terms.items():
        out.add_term(mono, n, c)
    return out


def test_lie_transform_jet_independent_of_truncation(ctx4, rng):
    # chi's degree-1 part lowers the degree and its Fourier modes shift n, so
    # terms beyond the jet feed it: the jet must come out the same when the
    # whole series is run at a higher degree and cutoff
    small = ctx4.with_truncation(3, 10)
    large = ctx4.with_truncation(5, 16)
    chi = _realize(small, rng).scale(0.02)
    f = _realize(small, rng)
    jet = lie_transform(f, chi, 6)
    ref = _moved(lie_transform(_moved(f, large), _moved(chi, large), 6), small)
    assert (jet - ref).max_coeff() < 1e-12 * max(1.0, ref.max_coeff())


def test_lie_transform_canonicity(ctx4_fine, rng):
    # {f o Phi, g o Phi} = {f, g} o Phi.  chi has a degree-1 part, so the
    # bracket of two D-jets fixes only the degrees <= D - 1: compare those
    ctx = ctx4_fine
    chi = _realize(ctx, rng).scale(0.01)
    f = _realize(ctx, rng)
    g = _realize(ctx, rng)
    lhs = lie_transform(f, chi, 10).poisson(lie_transform(g, chi, 10))
    rhs = lie_transform(f.poisson(g), chi, 10)
    diff = lhs - rhs
    worst = max(diff.part_of_degree(d).max_coeff() for d in range(ctx.D))
    assert worst < 1e-8 * max(1.0, rhs.max_coeff())


def test_generator_flow_agrees_with_lie_series(ctx4_deep, rng):
    # the series holds f o Phi up to degree D; at |z| ~ 0.05 the degree >= 5
    # remainder of f o Phi exceeds the bound, so D = 6 is used
    ctx = ctx4_deep
    chi = _realize(ctx, rng).scale(0.01)
    f = _realize(ctx, rng)
    transformed = lie_transform(f, chi, 10)
    for _ in range(3):
        I = float(rng.uniform(0.35, 0.45))
        a = float(rng.uniform(0, 2 * np.pi))
        z = 0.05 * (rng.standard_normal(ctx.n_sites)
                    + 1j * rng.standard_normal(ctx.n_sites))
        moved = flow_generator(chi, I, a, z, steps=64)
        direct = f.evaluate(*moved)
        series = transformed.evaluate(I, a, z)
        assert abs(direct - series) < 1e-8 * max(1.0, abs(direct))


def test_normalize_kills_targeted_parts(ctx8):
    eps = 0.05
    init = build_initial(ctx8, eps)
    res = normalize(init, r_max=2)
    # step 1 removes the xi-linear part up to the O(eps^2) residue it
    # regenerates through {chi1, Z2} and {chi1, angular residual}, which is
    # left to step 3: relative to the start it is O(eps / smallest divisor).
    # Step 2 removes the angle-dependent xi^0 part.
    r0 = res.residual.part_of_degree(0).max_coeff()
    r1 = res.residual.part_of_degree(1).max_coeff()
    lin0 = init.linear_residual.max_coeff()
    ang0 = init.angular_residual.without_mean().max_coeff()
    assert r1 <= 2 * eps * lin0 / res.records[0].min_divisor
    assert r0 < 1e-1 * ang0
    assert len(res.generators) == 2
    assert res.records[0].min_divisor > 1e-3


def test_normalize_residual_slopes(ctx8):
    eps_grid = np.array([0.0125, 0.025, 0.05])
    r1 = []
    r2 = []
    defects = []
    h2 = []
    for eps in eps_grid:
        res = normalize(build_initial(ctx8, float(eps)), r_max=2)
        r1.append(res.records[0].residual_norm)
        r2.append(res.records[1].residual_norm)
        h2.append(res.records[1].h_norm)
        defects.append(invariant_manifold_check(res))
    s1 = np.polyfit(np.log(eps_grid), np.log(r1), 1)[0]
    s2 = np.polyfit(np.log(eps_grid), np.log(r2), 1)[0]
    sh = np.polyfit(np.log(eps_grid), np.log(h2), 1)[0]
    sd = np.polyfit(np.log(eps_grid), np.log(defects), 1)[0]
    assert s1 == pytest.approx(1.0, abs=0.2)
    assert s2 == pytest.approx(1.5, abs=0.2)
    assert sh == pytest.approx(1.0, abs=0.25)
    assert sd >= 1.4


def test_normalize_preserves_reality(ctx8):
    res = normalize(build_initial(ctx8, 0.05), r_max=2)
    assert res.residual.conjugation_defect() < 1e-12
    assert res.Z.conjugation_defect() < 1e-12
    for chi in res.generators:
        assert chi.conjugation_defect() < 1e-12


def test_quadratic_core_intact_through_step_2(ctx8):
    eps_grid = np.array([0.025, 0.1])
    diffs = []
    for eps in eps_grid:
        init = build_initial(ctx8, float(eps))
        res = normalize(init, r_max=2)
        delta = res.Z.part_of_degree(2) - init.Z2.part_of_degree(2)
        diffs.append(max(measure_scaled_norm(delta, float(eps)), 1e-300))
    slope = np.log(diffs[1] / diffs[0]) / np.log(eps_grid[1] / eps_grid[0])
    assert slope >= 1.4


def test_invariant_manifold_defect_zero_at_zero_coupling(ctx8):
    res = normalize(build_initial(ctx8, 0.0), r_max=2)
    assert invariant_manifold_check(res) < 1e-14


def test_higher_steps_keep_shrinking(ctx8):
    res = normalize(build_initial(ctx8, 0.05), r_max=4)
    norms = [r.residual_norm for r in res.records]
    assert norms[2] < norms[1]
    assert norms[3] < 3 * norms[2]


def test_make_context_rejects_a_cutoff_the_orbit_samples_cannot_resolve(chart4, V4):
    with pytest.raises(ValueError, match="n_orbit_samples = 64"):
        make_context(chart4, V4, N=2, D=2, M=32, n_nodes=4, n_orbit_samples=64)


def test_make_context_names_the_first_action_with_a_long_fourier_tail(chart4, V4):
    with pytest.raises(normalform.FourierTailError) as err:
        make_context(chart4, V4, N=2, D=2, M=2, n_nodes=4, tail_tol=1e-300)
    assert f"at I={cheb_nodes(4, 0.3, 0.5)[0]}" in str(err.value)


def test_make_context_rejects_one_node_before_dividing_by_zero(chart4, V4):
    # one Chebyshev-Gauss-Lobatto node would put n - 1 = 0 under cos(pi k / (n - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="at least 2 Chebyshev nodes, got nodes=1"):
            make_context(chart4, V4, N=2, D=2, M=8, n_nodes=1)
