from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import sympy

import sturmtrace as st
from sturmtrace.jacobi import (
    JacobiParams,
    TridiagonalSpec,
    decoupled_block_spectrum,
    dirichlet_restriction,
    eigen_count_below,
    eigen_count_below_grid,
    initial_conditions_grid,
    initial_invariant,
    invariant_slope,
    m_form_transfer,
    transfer_unimodular,
    word_transfer,
)
from sturmtrace.jacobi import (_HALF_PI, _block_count_below, _lift_compose, _lift_count,
                               _lift_site, _reduce)
from sturmtrace.spectrum import default_energy_range
from sturmtrace.substitution import (FIBONACCI, _image_prefix_blocks, _prefix_blocks,
                                     fixed_point_prefix, parse_substitution, periodic_word)


def test_params_validation():
    for p, q in ((0.0, 1.0), (np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, -np.inf)):
        with pytest.raises(ValueError):
            JacobiParams(p, q)
    p = JacobiParams(2.0, -1.0)
    assert p.hopping("1") == 2.0 and p.hopping("0") == 1.0
    assert p.potential("1") == -1.0 and p.potential("0") == 0.0


def test_transfer_schrodinger_site():
    t = transfer_unimodular(JacobiParams(2.0, 3.0), "0", "0", 1.7)
    assert np.allclose(t, [[1.7, -1.0], [1.0, 0.0]])


def test_transfer_letter_one_site():
    p, q, E = 0.7, -1.3, 0.4
    t = transfer_unimodular(JacobiParams(p, q), "1", "1", E)
    assert np.allclose(t, [[(E - q) / p, -1.0 / p], [p, 0.0]])


def test_transfer_determinant_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        params = JacobiParams(rng.uniform(0.3, 3.0), rng.uniform(-2, 2))
        t = transfer_unimodular(params, rng.choice(["0", "1"]),
                                rng.choice(["0", "1"]), rng.uniform(-3, 3))
        assert abs(np.linalg.det(t) - 1.0) < 1e-12


def test_word_transfer_single_site_and_period2():
    assert np.allclose(word_transfer(JacobiParams(1.0, 0.0), "0", 1.1),
                       [[1.1, -1.0], [1.0, 0.0]])
    # period-2 Schrodinger chain: hand product with cyclic successor
    V, E = 0.7, 0.25
    params = JacobiParams(1.0, V)
    t1 = np.array([[E, -1.0], [1.0, 0.0]])        # site 1: letter 0, next 1
    t2 = np.array([[E - V, -1.0], [1.0, 0.0]])    # site 2: letter 1, next 0 (cyclic)
    assert np.allclose(word_transfer(params, "01", E), t2 @ t1)


def test_word_transfer_unimodular_long_words():
    rng = np.random.default_rng(1)
    word = fixed_point_prefix(FIBONACCI, 200)
    for _ in range(10):
        params = JacobiParams(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
        m = word_transfer(params, word, rng.uniform(-2, 2))
        # true matrix is unimodular, so sigma_min = 1/sigma_max and the
        # condition number is sigma_max^2 <= frobenius^2
        cond = np.sum(m * m)
        assert abs(abs(np.linalg.det(m)) - 1.0) <= 1e-9 * cond


def test_initial_conditions_values():
    assert initial_conditions_grid(JacobiParams(1.0, 0.0), 0.0) == (-1.0, 0.0, 0.0)
    p = JacobiParams(1.0, 2.0)
    for E in (-1.0, 0.3, 2.2):
        assert abs(st.fricke_vogt(initial_conditions_grid(p, E)) - 1.0) < 1e-12  # V^2/4 = 1


def test_initial_invariant_closed_form():
    rng = np.random.default_rng(2)
    for _ in range(200):
        params = JacobiParams(rng.uniform(0.3, 3.0) * rng.choice([-1, 1]),
                              rng.uniform(-3, 3))
        E = rng.uniform(-4, 4)
        lhs = st.fricke_vogt(initial_conditions_grid(params, E))
        assert abs(lhs - initial_invariant(params, E)) < 1e-12 * (1 + abs(lhs))


def test_invariant_slope_symbolic():
    E, pp, qq = sympy.symbols("E p q")
    lx = (E ** 2 - qq * E - pp ** 2 - 1) / (2 * pp)
    ly = (E - qq) / (2 * pp)
    lz = E / 2
    I = lx ** 2 + ly ** 2 + lz ** 2 - 2 * lx * ly * lz - 1
    slope = sympy.simplify(sympy.diff(I, E) - qq * (pp ** 2 - 1) / (4 * pp ** 2))
    assert slope == 0
    for p_val, q_val in ((2, 1), (sympy.Rational(1, 2), 3), (3, sympy.Rational(-2, 7))):
        got = invariant_slope(JacobiParams(float(p_val), float(q_val)))
        exact = sympy.Rational(q_val) * (sympy.Rational(p_val) ** 2 - 1) / (4 * sympy.Rational(p_val) ** 2)
        assert abs(got - float(exact)) < 1e-15 * max(1.0, abs(float(exact)))
    assert invariant_slope(JacobiParams(1.0, 5.0)) == 0.0
    assert invariant_slope(JacobiParams(2.0, 0.0)) == 0.0
    assert invariant_slope(JacobiParams(2.0, 1.0)) == 3.0 / 16.0


def test_schrodinger_specialization_after_inverse_map():
    # when p = 1, l(E) is one Fibonacci step past the classic Schrodinger
    # line ((E - q)/2, E/2, 1): its inverse image under t_1
    from sturmtrace.tracemap import t_factor
    q = 0.8
    for E in (-1.5, 0.0, 2.4):
        pt = t_factor(1, ((E - q) / 2.0, E / 2.0, 1.0))
        assert np.allclose(pt, initial_conditions_grid(JacobiParams(1.0, q), E), atol=1e-12)


def test_dirichlet_restriction_structures():
    params = JacobiParams(2.0, 5.0)
    free = dirichlet_restriction(JacobiParams(2.0, 0.0), "000")
    assert free.diag == (0.0, 0.0, 0.0)
    assert free.offdiag == (1.0, 1.0, 1.0)
    alt = dirichlet_restriction(params, "0101")
    assert alt.diag == (0.0, 5.0, 0.0, 5.0)
    assert alt.offdiag == (1.0, 2.0, 1.0, 2.0)
    word = fixed_point_prefix(FIBONACCI, 13)
    spec = dirichlet_restriction(params, word)
    assert sum(1 for d in spec.diag if d == 5.0) == word.count("1") == 5
    with pytest.raises(ValueError):
        dirichlet_restriction(params, "")


def test_tridiagonal_spec_keeps_a_copy_of_its_data():
    diag, offdiag = [0.0, 0.0, 0.0], np.ones(3)
    spec = TridiagonalSpec(diag, offdiag)
    diag.append(0.0)
    offdiag[1] = 5.0
    assert spec.diag == (0.0, 0.0, 0.0) and spec.offdiag == (1.0, 1.0, 1.0)
    assert all(type(v) is float for v in spec.diag + spec.offdiag)
    assert eigen_count_below_grid(spec, [-10.0]).tolist() == [0]
    assert eigen_count_below_grid(spec, [10.0]).tolist() == [3]


def test_eigen_count_free_block():
    spec = dirichlet_restriction(JacobiParams(1.0, 0.0), "000")
    # eigenvalues -sqrt2, 0, sqrt2
    assert eigen_count_below(spec, 3.0) == 3
    assert eigen_count_below(spec, 0.0) == 2  # counts <= E (0 included)
    assert eigen_count_below(spec, -0.1) == 1
    assert eigen_count_below(spec, -10.0) == 0


def test_eigen_count_gershgorin_and_saturation():
    params = JacobiParams(1.4, -2.0)
    spec = dirichlet_restriction(params, fixed_point_prefix(FIBONACCI, 40))
    bound = 1.0 + 3.0 * max(2.0, abs(params.q) + 2 * abs(params.p))
    assert eigen_count_below(spec, -bound) == 0
    assert eigen_count_below(spec, bound) == 40


def test_eigen_count_against_dense_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        params = JacobiParams(rng.uniform(0.3, 2.0), rng.uniform(-2, 2))
        L = int(rng.integers(2, 13))
        spec = dirichlet_restriction(params, fixed_point_prefix(FIBONACCI, L))
        evals = np.linalg.eigvalsh(spec.dense())
        for E in rng.uniform(-4, 4, size=8):
            assert eigen_count_below(spec, E) == int((evals <= E).sum())


def test_eigen_count_monotone_in_energy():
    spec = dirichlet_restriction(JacobiParams(0.8, 1.0), fixed_point_prefix(FIBONACCI, 55))
    grid = np.linspace(-4, 4, 400)
    counts = eigen_count_below_grid(spec, grid)
    assert (np.diff(counts) >= 0).all()


def test_eigen_count_zero_offdiag_block_split():
    spec = TridiagonalSpec((1.0, 1.0, -1.0, -1.0), (1.0, 0.0, 1.0, 0.0))
    # two decoupled 2x2 blocks; compare against dense with the zeros kept
    evals = np.linalg.eigvalsh(spec.dense())
    for E in (-2.0, -0.5, 0.0, 0.5, 2.0):
        assert eigen_count_below(spec, E) == int((evals <= E).sum())


def test_m_form_solution_recursion_consistent():
    # propagate a solution by the M-form and check the T-form conjugation
    # Theta_n = (theta_n, p_n theta_{n-1}) reproduces it
    rng = np.random.default_rng(5)
    params = JacobiParams(1.7, -0.6)
    word = fixed_point_prefix(FIBONACCI, 12)
    E = 0.9
    theta = [0.3, 1.1]  # theta_0, theta_1
    for n in range(1, len(word)):
        m = m_form_transfer(params, word[n - 1], word[n], E)
        nxt = m @ np.array([theta[-1], theta[-2]])
        theta.append(float(nxt[0]))
    ps = [params.hopping(c) for c in word]
    Theta = np.array([theta[1], ps[0] * theta[0]])
    for n in range(1, len(word)):
        t = transfer_unimodular(params, word[n - 1], word[n], E)
        Theta = t @ Theta
        assert abs(Theta[0] - theta[n + 1]) < 1e-9 * max(1.0, abs(theta[n + 1]))


def test_decoupled_blocks_match_dense_p_zero():
    # independent oracle: dense diagonalization of a long chain with p = 0
    word = fixed_point_prefix(FIBONACCI, 300)
    q = 1.0
    ref = decoupled_block_spectrum(word, q)
    diag = [q if c == "1" else 0.0 for c in word]
    off = [0.0 if c == "1" else 1.0 for c in word]
    m = np.diag(diag)
    for i in range(1, len(word)):
        m[i - 1, i] = m[i, i - 1] = off[i]
    dense = np.linalg.eigvalsh(m)
    # every dense eigenvalue lies near the reference set (boundary block aside)
    dists = np.min(np.abs(dense[:, None] - ref[None, :]), axis=1)
    assert np.quantile(dists, 0.98) < 1e-9
    assert len(ref) == 5  # blocks 10 and 100 for the Fibonacci sequence


def _sturm_oracle(spec, E):
    """The per-step allocating Sturm loop the in-place kernel replaced."""
    E = np.asarray(E, dtype=float)
    diag = np.asarray(spec.diag, dtype=float)
    off = np.asarray(spec.offdiag, dtype=float)
    count = np.zeros(E.shape, dtype=np.int64)
    tiny = 1e-300
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = diag[0] - E
        d = np.where(d == 0.0, -tiny, d)
        count += (d < 0).astype(np.int64)
        for i in range(1, len(diag)):
            b2 = off[i] * off[i]
            if b2 == 0.0:
                d = diag[i] - E
            else:
                d = (diag[i] - E) - b2 / d
            d = np.where(np.isnan(d), -tiny, d)
            d = np.where(d == 0.0, -tiny, d)
            count += (d < 0).astype(np.int64)
    return count


def _assert_same_counts(spec, E):
    got = eigen_count_below_grid(spec, E)
    assert got.dtype == np.int64 and got.shape == np.shape(E)
    assert np.array_equal(got, _sturm_oracle(spec, E))


def test_eigen_count_matches_oracle_on_random_truncations():
    rng = np.random.default_rng(11)
    metal = st.parse_substitution("0->001;1->0")
    for s in (FIBONACCI, metal):
        for _ in range(12):
            params = JacobiParams(rng.uniform(0.3, 2.5) * rng.choice([-1, 1]),
                                  rng.uniform(-3, 3))
            spec = dirichlet_restriction(params, fixed_point_prefix(s, int(rng.integers(1, 501))))
            hull = 1.0 + abs(params.q) + 2 * max(1.0, abs(params.p))
            E = np.concatenate([rng.uniform(-hull, hull, 300),
                                np.linspace(-hull, hull, 101),
                                [0.0, params.q]])  # first pivot exactly zero
            _assert_same_counts(spec, E)
            _assert_same_counts(spec, E[:7].reshape(7, 1))  # shape kept


def test_eigen_count_matches_oracle_on_block_split_and_exact_hits():
    split = TridiagonalSpec((1.0, 1.0, -1.0, -1.0, 0.5), (1.0, 0.0, 1.0, 0.0, 0.0))
    _assert_same_counts(split, np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0]))
    free = dirichlet_restriction(JacobiParams(1.0, 0.0), "000")
    E = np.array([-np.sqrt(2.0), -1.0, 0.0, -0.0, 1.0, np.sqrt(2.0)])
    _assert_same_counts(free, E)
    assert eigen_count_below_grid(free, E)[1:5].tolist() == [1, 2, 2, 2]  # E = 0 lands on "<="


def test_eigen_count_matches_oracle_far_outside_gershgorin():
    params = JacobiParams(-1.7, 2.2)
    spec = dirichlet_restriction(params, fixed_point_prefix(FIBONACCI, 377))
    E = np.array([-1e300, -1e12, -50.0, 50.0, 1e12, 1e300, -np.inf, np.inf])
    _assert_same_counts(spec, E)
    assert eigen_count_below_grid(spec, E).tolist() == [0, 0, 0, 377, 377, 377, 0, 377]


def _lifted_word(params, word, E, cuts):
    """Block of a word composed from pieces cut at the given sites, last piece first."""
    pieces = [word[a:b] for a, b in zip([0] + cuts, cuts + [len(word)])]
    blocks = []
    for piece in pieces:
        sites = [_lift_site(params.potential(c), abs(params.hopping(c)), E) for c in piece]
        block = sites[0]
        for site in sites[1:]:
            block = _lift_compose(site, block)
        blocks.append(block)
    out = blocks.pop()
    while blocks:  # right to left: out = out o (previous piece)
        out = _lift_compose(out, blocks.pop())
    return out


def _block_matrix(block):
    """The matrices (-1)^k R(t1) diag(e^x, e^-x) R(t2) of a block, one per energy."""
    k, t1, x, t2 = np.broadcast_arrays(*block)

    def rot(t):
        return np.stack([np.stack([np.cos(t), -np.sin(t)], -1),
                         np.stack([np.sin(t), np.cos(t)], -1)], -2)

    stretch = np.zeros(x.shape + (2, 2))
    stretch[..., 0, 0], stretch[..., 1, 1] = np.exp(x), np.exp(-x)
    return np.where(k % 2, -1.0, 1.0)[..., None, None] * (rot(t1) @ stretch @ rot(t2))


def _site_matrix(a, b, E):
    """F / b = [[a - E, -b^2], [1, 0]] / b at each energy."""
    m = np.zeros(E.shape + (2, 2))
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0] = a - E, -b * b, 1.0
    return m / b


def _norm(m):
    return np.linalg.norm(m, axis=(-2, -1))


@pytest.mark.parametrize("p, q", [(1.0, 1.0), (-0.5, 24.0)])
def test_lift_blocks_equal_their_matrix_products(p, q):
    # the lift is an angle form of the transfer product: a site's block is
    # F / b, and a composed block is the product of its parts' matrices
    params = JacobiParams(p, q)
    rng = np.random.default_rng(13)
    hull = 1.0 + abs(q) + 2 * max(1.0, abs(p))
    # E = 0 and E = q (with b = 1 at p = 1) make blocks with x = 0
    E = np.concatenate([rng.uniform(-hull, hull, 200), [0.0, q, -hull, hull]])
    sites = {c: (params.potential(c), abs(params.hopping(c))) for c in "01"}
    for c, (a, b) in sites.items():
        want = _site_matrix(a, b, E)
        assert (_norm(_block_matrix(_lift_site(a, b, E)) - want) / _norm(want)).max() < 1e-13
    assert (_lift_site(0.0, 1.0, np.array([0.0]))[2] == 0.0).all()
    for _ in range(30):
        word = "".join(rng.choice(["0", "1"], int(rng.integers(1, 9))))
        want, scale = np.broadcast_to(np.eye(2), E.shape + (2, 2)), 1.0
        for c in word:  # the first site acts first
            m = _site_matrix(*sites[c], E)
            want, scale = m @ want, scale * _norm(m)
        # near an eigenvalue the product cancels: its double value is good
        # to eps times the product of its factors' norms
        cuts = sorted(set(rng.integers(1, len(word), size=3).tolist())) if len(word) > 1 else []
        got = _block_matrix(_lifted_word(params, word, E, cuts))
        assert (_norm(got - want) / scale).max() < 1e-13


def test_lift_compose_equals_the_matrix_product_at_the_wrap_edges():
    # hand-made blocks whose middle angle r = t2A + t1B is exactly -pi/2
    # after the wrap (from -pi/2 and from +pi/2), with x = 0 among them.
    # At |r| = pi/2 B's stretched direction goes onto A's contracted one,
    # so M_A M_B is far smaller than |M_A| |M_B|, and the product in double
    # is only good to eps |M_A| |M_B|: errors are measured on that scale.
    # A block's k is a float and its outer angles t1A and t2B are not reduced:
    # they carry whole half-turns here, and the other lanes' r does too.
    rng = np.random.default_rng(14)
    n = 400
    A = [rng.integers(-3, 4, n).astype(float), rng.uniform(-_HALF_PI, _HALF_PI, n),
         rng.uniform(0.0, 6.0, n), rng.uniform(-_HALF_PI, _HALF_PI, n)]
    B = [rng.integers(-3, 4, n).astype(float), rng.uniform(-_HALF_PI, _HALF_PI, n),
         rng.uniform(0.0, 6.0, n), rng.uniform(-_HALF_PI, _HALF_PI, n)]
    edges = [(-_HALF_PI, 0.0), (0.0, -_HALF_PI), (-0.5 * _HALF_PI, -0.5 * _HALF_PI),
             (0.5 * _HALF_PI, 0.5 * _HALF_PI), (_HALF_PI - 0.25, 0.25)]
    for i, (t2A, t1B) in enumerate(edges):
        lanes = slice(40 * i, 40 * (i + 1))
        A[3][lanes], B[1][lanes] = t2A, t1B
        A[2][lanes][::2], B[2][lanes][::4] = 0.0, 0.0
    A[1] += np.pi * rng.integers(-3, 4, n)
    B[3] += np.pi * rng.integers(-3, 4, n)
    A[3][200:] += np.pi * rng.integers(-3, 4, 200)
    r, _ = _reduce(A[3][:200] + B[1][:200], np.zeros(200))
    assert (r == -_HALF_PI).sum() >= 160
    got = _block_matrix(_lift_compose(tuple(A), tuple(B)))
    MA, MB = _block_matrix(A), _block_matrix(B)
    assert (_norm(got - MA @ MB) / (_norm(MA) * _norm(MB))).max() < 1e-13


def _one_half_turn(t, k):
    """The one-step reduction of angles in [-3pi/2, 3pi/2): one half-turn by exact comparisons."""
    m = (t >= _HALF_PI).astype(float) - (t < -_HALF_PI)
    return t - np.pi * m, k + m


def test_reduce_is_the_one_step_reduction_on_the_site_angles():
    # _lift_site reduces angles in [-pi, pi]: its t1 lies in (0, pi] and its
    # t2 in (-pi/2, pi/2).  There the floor step of _reduce and its exact
    # last half-turn give the one-step reduction bit for bit, also within
    # 2000 ulps of every multiple of pi/2 in range
    ulps = []
    for c in (-np.pi, -_HALF_PI, 0.0, _HALF_PI, np.pi):
        up, down = [c], [c]
        for _ in range(2000):
            up.append(np.nextafter(up[-1], np.inf))
            down.append(np.nextafter(down[-1], -np.inf))
        ulps += up + down[1:]
    t = np.concatenate([np.linspace(-np.pi, np.pi, 1_000_001), ulps, [-0.0]])
    t = t[(t >= -np.pi) & (t <= np.pi)]
    k = np.random.default_rng(35).integers(-40, 40, t.size).astype(float)
    want_t, want_k = _one_half_turn(t, k)
    got_t, got_k = _reduce(t.copy(), k.copy())
    assert got_t.tobytes() == want_t.tobytes() and got_k.tobytes() == want_k.tobytes()
    assert got_k.dtype == np.float64 and np.signbit(got_t[-1])


def test_reduce_moves_whole_half_turns_to_the_float_k():
    # exact hits of (m + 1/2) pi go to -pi/2, as the exact last half-turn puts them
    below = np.nextafter(1.5 * np.pi, 0.0)
    t = np.array([_HALF_PI, -_HALF_PI, 3 * _HALF_PI, -3 * _HALF_PI, below, -below, -0.0, 0.0,
                  1.0, -2.0, 2.0, 100.0, -100.0, 7 * np.pi, 1e3 + 0.5])
    k = np.arange(t.size) - 4.0
    got_t, got_k = _reduce(t.copy(), k.copy())
    assert got_k.dtype == np.float64 and np.array_equal(got_k, np.round(got_k))
    assert np.all((got_t >= -_HALF_PI) & (got_t < _HALF_PI))
    assert np.abs(got_t + np.pi * (got_k - k) - t).max() <= 1e-12
    assert got_t[0] == got_t[1] == got_t[2] == got_t[3] == -_HALF_PI
    assert (got_k - k)[:4].tolist() == [1, 0, 2, -1] and np.signbit(got_t[6])


def test_lifted_blocks_count_like_sturm_in_any_grouping():
    rng = np.random.default_rng(29)
    for i in range(40):
        L = int(rng.integers(1, 120))
        word = "".join(rng.choice(["0", "1"], L))
        params = JacobiParams(rng.uniform(0.05, 3.0) * rng.choice([-1, 1]), rng.uniform(-30, 30))
        hull = 1.0 + abs(params.q) + 2 * max(1.0, abs(params.p))
        E = np.concatenate([rng.uniform(-hull, hull, 200), [0.0, params.q]])
        want = eigen_count_below_grid(dirichlet_restriction(params, word), E)
        cuts = sorted(set(rng.integers(1, L, size=min(L - 1, 6)).tolist())) if L > 1 else []
        # the readout counts all sites but the last: one more letter is lifted
        extra = "01"[i % 2]
        assert np.array_equal(_lift_count(_lifted_word(params, word + extra, E, cuts)), want)


def test_lifted_count_resolves_strong_coupling_clusters():
    # at V = 34 the blocks s^j(0) of the Fibonacci chain contract by up to
    # 1e26; a normalized F-product loses that and miscounts at energies
    # 1e-9 from eigenvalues, the lifted angles do not
    params = JacobiParams(1.0, 34.0)
    s, L = FIBONACCI, 1597
    spec = dirichlet_restriction(params, fixed_point_prefix(s, L))
    eig = scipy.linalg.eigvalsh_tridiagonal(np.array(spec.diag), np.array(spec.offdiag[1:]))
    rng = np.random.default_rng(8)
    E = np.concatenate([eig + 10.0 ** rng.uniform(-10.5, -8, eig.size),
                        eig - 10.0 ** rng.uniform(-10.5, -8, eig.size)])
    sp, blocks = _prefix_blocks(s, L)
    got = _block_count_below(params, sp, blocks + [(0, "0")], L, E)
    assert np.array_equal(got, eigen_count_below_grid(spec, E))
    assert np.array_equal(got, np.searchsorted(eig, E, side="right"))


def _window_counts(params, s, k, E):
    """The window count of w = s^k(star) read off w's lift, and off the lift of w[:-1] + "0"."""
    star = st.recipe_from_substitution(s).star
    L = len(periodic_word(s, k)) - 1
    return (_block_count_below(params, s, [(k, star)], L, E),
            _block_count_below(params, s, _image_prefix_blocks(s, star, k, L) + [(0, "0")], L, E))


@pytest.mark.parametrize("text, p, q, k", [
    ("0->01;1->0", 1.0, 34.0, 15),         # strong coupling: clusters of eigenvalues
    ("0->001;1->0", 76.2516, 8.156, 8),    # |p| >> 1: counted on H / |p|
    ("0->1;1->10", 1.0, 2.1, 12),          # the period is s^k(1)
    ("0->0001;1->0", 0.5, 1.3, 5),
])
def test_window_count_read_off_the_whole_period(text, p, q, k):
    # floor(theta / pi) after all q sites counts the first q - 1; energies
    # within 1 ulp of an eigenvalue are left out, where either lifted count
    # can take either side
    s, params = parse_substitution(text), JacobiParams(p, q)
    window = dirichlet_restriction(params, periodic_word(s, k)[:-1])
    eig = scipy.linalg.eigvalsh_tridiagonal(np.array(window.diag), np.array(window.offdiag[1:]))
    lo, hi = default_energy_range(params)
    rng = np.random.default_rng(k)
    E = np.concatenate([rng.uniform(lo, hi, 1000),
                        eig + 10.0 ** rng.uniform(-10.5, -8, eig.size),
                        eig - 10.0 ** rng.uniform(-10.5, -8, eig.size),
                        [-np.inf, np.inf, np.nan]])
    whole, blocks = _window_counts(params, s, k, E)
    assert np.array_equal(whole, blocks)
    assert np.array_equal(whole, eigen_count_below_grid(window, E))


def test_window_count_puts_free_chain_hits_on_the_le_side():
    # the free chain on q - 1 sites has the eigenvalues 2 cos(pi m / q), 0 < m < q,
    # so E = 2 cos(pi t) is one when t q is an integer; at q = 144 all five are
    # (sqrt(2) up to its rounding), and each counts as <= E
    params = JacobiParams(1.0, 0.0)
    E = np.array([0.0, 1.0, -1.0, np.sqrt(2.0), -np.sqrt(2.0)])
    t = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4)]
    for text, k in (("0->01;1->0", 10), ("0->1;1->10", 10), ("0->100;1->10", 5),
                    ("0->0001;1->0", 1), ("0->0001;1->0", 4)):
        s = parse_substitution(text)
        word = periodic_word(s, k)
        q = len(word)
        want = [sum(Fraction(m, q) >= tm for m in range(1, q)) for tm in t]
        whole, blocks = _window_counts(params, s, k, E)
        assert whole.tolist() == blocks.tolist() == want
        # the Sturm loop agrees on the exact hits; -sqrt(2) rounds 1e-16 below
        # its eigenvalue, which the loop then counts strictly
        assert eigen_count_below_grid(dirichlet_restriction(params, word[:-1]),
                                      E[:3]).tolist() == want[:3]


EXTREME_E = np.array([1e10, -1e10, 1e20, -1e20, 1e100, -1e100, 1e300, -1e300,
                      np.inf, -np.inf, np.nan])


@pytest.mark.parametrize("text", ["0->01;1->0", "0->001;1->0", "0->1;1->10"])
@pytest.mark.parametrize("p, q", [(1.0, 2.0), (-0.4, 1.3), (3.0, -24.0)])
def test_lifted_counts_at_extreme_energies(text, p, q):
    # above E of about 1e12 max(1, |p|) every pivot is negative, and the angle
    # after the one site read but not counted lies within _TIE_ANGLE below
    # (L + 1) pi: without the clamp at L the count took that site too
    s, params = parse_substitution(text), JacobiParams(p, q)
    star = st.recipe_from_substitution(s).star
    for k in range(1, 6):
        word = periodic_word(s, k)
        L = len(word) - 1
        window = _block_count_below(params, s, [(k, star)], L, EXTREME_E)  # the band search's
        want = eigen_count_below_grid(dirichlet_restriction(params, word[:-1]), EXTREME_E)
        assert window.tolist() == want.tolist()
        for n in (L, L + 1):
            want = eigen_count_below_grid(dirichlet_restriction(params, fixed_point_prefix(s, n)),
                                          EXTREME_E)
            assert st.ids_counter(s, params, n)(EXTREME_E).tolist() == (want / n).tolist()


def test_decoupled_blocks_without_a_letter_one_or_with_one_cut():
    # no letter 1: free sites only, the one value 0
    assert decoupled_block_spectrum("0000", 2.0).tolist() == [0.0]
    # one cut: the trailing block "100" is the only pattern
    want = np.linalg.eigvalsh(np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    assert np.allclose(decoupled_block_spectrum("00100", 2.0), want, rtol=0, atol=1e-14)
    assert decoupled_block_spectrum("1", 2.0).tolist() == [2.0]


def test_empty_and_misaligned_words_are_refused():
    with pytest.raises(ValueError, match="nonempty word"):
        word_transfer(JacobiParams(1.0, 1.0), "", 0.3)
    with pytest.raises(ValueError, match="empty word"):
        TridiagonalSpec((), ())
    with pytest.raises(ValueError, match="must align"):
        TridiagonalSpec((1.0, 2.0), (1.0,))
