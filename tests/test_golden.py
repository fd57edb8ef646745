"""Golden digests: results pinned to the bit, one sha256 per case.

Each case runs a fixed library computation and compares the sha256 of
``repr`` of its result (of the raw array bytes, for the surface rasters)
with a recorded digest.  The cases are the band solves, scans and DOS
computations of the benchmark's bands-deep, scan-shallow and dos-sturm
workloads at seed 72, with their inputs copied here, so the benchmark
can change without moving these pins, the escape classifier's probe
verdicts and surface rasters at the CLI's sizes, and band solves of two
substitutions whose trace-map blocks have a 0 factor.
Floats repr to 17 significant digits, so a digest moves with any bit of
any result.  A change that means to move a result updates its digest
and says why; a digest is never updated to hide a defect.  Digests are
of float reprs on x86-64 Linux with numpy's bundled OpenBLAS, as the
other pins are.  A digest says only that a result did not move, so
every band level is also checked against the trace map run in mpmath.
"""

import hashlib
import warnings

import mpmath
import numpy as np
import pytest

from sturmtrace import dos, fractal, spectrum
from sturmtrace.jacobi import JacobiParams
from sturmtrace.substitution import parse_substitution, periodic_word
from sturmtrace.tracemap import recipe_from_substitution, surface_section

FIB, METAL_MEAN, SWAPPED = "0->01;1->0", "0->001;1->0", "0->1;1->10"
GOLDEN_RATIO_ALPHA = 0.6180339887498949
STRONG_TOL, STRONG_MERGE_TOL = 3e-14, 2e-13
SCAN_L = 1597


def _digest(result):
    return hashlib.sha256(repr(result).encode()).hexdigest()


def _case_id(text, p, q, k):
    return "%s p=%r q=%r k=%d" % (text, p, q, k)


# (substitution, p, q, k, tol, digest): floquet_bands, box_dimension, thickness
BANDS = [
    (METAL_MEAN, 1.5, 1.0, 10, None,
     "7de8e303010d56afa6be94bc488a7283350aadb9c4245941eb9499fdbe16c0ac"),
    (FIB, 1.0, 0.1, 16, 1e-13,
     "e2b52c49981a5a69f15dc9bcb212d6e447d6bf6addadb66e945be182afa2f483"),
    (METAL_MEAN, 1.0, 0.5287, 7, None,
     "435a3c29d38d2f548daf4850d3829808a5ad664d34b8c51d0afac3ab9313c774"),
    (FIB, 0.9112, 2.1556, 15, None,
     "e028a019fe5ee32f136131349ffc1e1378153e75be324d25c74d2af07950078a"),
    (FIB, 0.934, 2.162, 15, None,
     "d4a828ea36772c6cb51b3b9fd443f150947777fed0d81bebacf570777616c261"),
    (METAL_MEAN, 1.0872, 1.8538, 9, None,
     "c3643c6ef1d98bcb9a8c7bfde65f9fae3f0ed7439a34201633066947f3b619c0"),
    (SWAPPED, 0.996, 2.1304, 13, None,
     "de2d79e5fd372b58de068ee80a6d7d2188b2917e63685e85ac2560f0acc83c7a"),
    (SWAPPED, 1.0479, 2.1021, 14, None,
     "9004fb86bd57d2d7fc286a99f184e52ed14b2b91e9bc3f62ee1187c32c20a1bc"),
    (SWAPPED, 1.009, 2.1992, 14, None,
     "ebac3fdf47573ccadae7208637843d5c1021541b4a4a476ccf02927d3d83c30a"),
]


@pytest.mark.parametrize("text, p, q, k, tol, digest",
                         [pytest.param(*c, id=_case_id(*c[:4])) for c in BANDS])
def test_band_sets_are_golden(text, p, q, k, tol, digest):
    bands = spectrum.floquet_bands(parse_substitution(text), JacobiParams(p, q), k, tol=tol)
    result = (bands, fractal.box_dimension(bands), fractal.thickness(bands))
    assert _digest(result) == digest


# (substitution, p, q, k, tol, merge_tol, digest): floquet_bands, box_dimension
# and thickness of two substitutions whose trace-map blocks have a 0 factor,
# period=[1,1,0] and period=[1,2,0]; (1, 24) takes the strong-coupling
# tolerances, below which its narrowest bands lie
ZERO_FACTOR_BANDS = [
    ("0->01;1->001", 1.3, 0.7, 5, None, None,
     "a4052010bb088c8ee0de459c4cb1415e1a9a024540f03c2aae9bd8cc3ff96dba"),
    ("0->01;1->001", 1.3, 0.7, 6, None, None,
     "c1487457c36d1c02be68513ee7d9c80e996ce69aab128c7b84e687f1eb7e4aa7"),
    ("0->01;1->001", 1.0, 24.0, 5, STRONG_TOL, STRONG_MERGE_TOL,
     "5d9f76cb08d4dde308e7f7e0bb59786e17e77046681325a737f734ae420456ff"),
    ("0->01;1->001", 1.0, 24.0, 6, STRONG_TOL, STRONG_MERGE_TOL,
     "25f03c5dd759c4da880b779b2f4d3d8f3aba30a4d926707c8ec81f5db62db101"),
    ("0->01;1->00101", 1.3, 0.7, 4, None, None,
     "de33a936eb2ddd47a57d761c051c1adae710f03dc63206926ab6431d0e72be7e"),
    ("0->01;1->00101", 1.3, 0.7, 5, None, None,
     "2719adfc59b7d09fc56c06a349053542792992de1782e0df184dbf7ab3b02cc5"),
    ("0->01;1->00101", 1.0, 24.0, 4, STRONG_TOL, STRONG_MERGE_TOL,
     "d87bb4eac07a6aac24741c148307ce441be91b93f3a78f183181fc9cb431a6ef"),
    ("0->01;1->00101", 1.0, 24.0, 5, STRONG_TOL, STRONG_MERGE_TOL,
     "1c68388d98a10427cc21e767977a4441e96749cb5a119fadc9cec4f42186a11d"),
]


@pytest.mark.parametrize("text, p, q, k, tol, merge_tol, digest",
                         [pytest.param(*c, id=_case_id(*c[:4])) for c in ZERO_FACTOR_BANDS])
def test_zero_factor_band_sets_are_golden(text, p, q, k, tol, merge_tol, digest):
    s = parse_substitution(text)
    bands = spectrum.floquet_bands(s, JacobiParams(p, q), k, tol=tol, merge_tol=merge_tol)
    assert bands.band_count == len(periodic_word(s, k))
    result = (bands, fractal.box_dimension(bands), fractal.thickness(bands))
    assert _digest(result) == digest


def _weak(text, p, q, k, digest):
    return (text, p, q, k, None, None, digest)


def _strong(V, k, digest):
    return (FIB, 1.0, V, k, STRONG_TOL, STRONG_MERGE_TOL, digest)


# (substitution, p, q, k, tol, merge_tol, digest): a band solve, its IDS
# table on L = 1597 sites, gap labels, box dimension, thickness and a
# six-window dimension profile
SCANS = [
    _weak(FIB, 1.2664, 0.3315, 8,
          "d927ea58da20e71c3003e4a1dadee498af148e21b052793d0f15a03f85969368"),
    _weak(SWAPPED, 1.3342, 0.596, 9,
          "e98214b8fe161026cc32ac1717c9f047049aa3edf85a579c2b10ac1c0e8da38e"),
    _weak(FIB, 1.4013, 1.6089, 10,
          "3199d17bebf8ff8a2657326d993de8e379a0fa888d1e2c0013c75218128addd9"),
    _weak(SWAPPED, 1.1789, 1.6605, 11,
          "944cad47849791a25cf56e3880b7ed8fb0dec78353015ba65241a443780d7b3a"),
    _weak(FIB, 1.1408, 1.7293, 12,
          "2142a11cf81667534c62a99d44a27c0a480c79c1d03964b42e10562a3ff904eb"),
    _weak(SWAPPED, 0.8016, 1.9477, 8,
          "55a856d3e06308c0e2ef6d981b487477241c380e073e81fe9987a9fe1159b8a2"),
    _weak(FIB, 1.138, 1.554, 9,
          "accee9966957bb87392209e02e90b302d5ab8db06d284c742e30519129b94aeb"),
    _weak(SWAPPED, 1.3394, 1.5513, 10,
          "fd0337ee7399b35b64d591f28e0ec478d45c46aa4ef22bf4cb9bf38248bfe567"),
    _weak(FIB, 1.295, 1.5059, 11,
          "2ebebb4fc424ebeb0bf0d8712e2a649077bce7ea62164f18579d10749a571906"),
    _weak(SWAPPED, 1.4446, 0.901, 12,
          "7b76ef0c5a1af054f566c954266962639816a12a843fa921a76d3ed53e883ea1"),
    _weak(FIB, 0.9732, 1.7939, 8,
          "08c63227e8dfc0c175f7e5af76580f772b3e5dda184d2e324fb3fa8c5c70982a"),
    _weak(SWAPPED, 1.1285, 1.9861, 9,
          "bc41445168055f47c4f57c87de7b40b712078e82b692d2f7929ffc1fe419af40"),
    _weak(FIB, 1.496, 0.9711, 10,
          "c3f58933c3ee3deb721f3a8389ee6d8444b25e8c8d2bcea15ef30bd669c87d69"),
    _weak(SWAPPED, 1.4122, 0.9564, 11,
          "c6bc2e35aabe1fc885d06cbb59728d1bcf1c20779a432f9439ae398fbc19f496"),
    _weak(FIB, 0.9739, 0.3377, 12,
          "fecd2e8ca59e33925bea042cf5e34542d3ba941c4918878b51886741e0280240"),
    _weak(SWAPPED, 1.2231, 1.7687, 8,
          "b08798586b573c9081f6d4390eb3f5f1b4d26492e3bc58ca2d7e35b30a0c181c"),
    _strong(26.357, 8,
          "78c4df5b9c35a8ad1e0d9e11ae2015afd3074912ed503c01594901ff1662a33b"),
    _strong(21.081, 9,
          "3e42d042bb5789dd20adc1f18cb621496d3d4309610526e58919603c772477f9"),
    _strong(29.294, 10,
          "19911c30020e8cbd577c94c2f51627c227e4114a25982284728869d02e8249c8"),
    _strong(24.97, 11,
          "6ad83d088abfcfbe4897f54760ef44a498537ca64dadac4164ead4bc313cedd1"),
    _strong(33.931, 12,
          "16caecbd96497692705c2cc9f5b524d9a8efa73be614c3776c5ba8a92044e9eb"),
    _strong(39.824, 8,
          "0ce96505ae7e5ab63ea7088b22f5253a64220d77d69915cb2c9db72ebc1934fc"),
    _strong(32.793, 9,
          "0e6e440c6a15be69dbcbe793bf32d829ba9bc4f7bc212d405a031eff13b21bbf"),
    _strong(39.07, 10,
          "26e2a2aa9ab6d40dbc2de3abfe74a7211059fb55332c21edc89cbf3ca1e2fcdc"),
]


@pytest.mark.parametrize("text, p, q, k, tol, merge_tol, digest",
                         [pytest.param(*c, id=_case_id(*c[:4])) for c in SCANS])
def test_scans_are_golden(text, p, q, k, tol, merge_tol, digest):
    s, params = parse_substitution(text), JacobiParams(p, q)
    bands = spectrum.floquet_bands(s, params, k, tol=tol, merge_tol=merge_tol)
    lo, hi = bands.hull()
    pad = 0.05 * (hi - lo)
    mids = [0.5 * (a + b) for a, b in bands.gaps()]
    grid = np.unique(np.concatenate([np.linspace(lo - pad, hi + pad, 1024), mids]))
    table = dos.ids(s, params, SCAN_L, grid)
    labeled = spectrum.gaps_with_labels(bands, table, GOLDEN_RATIO_ALPHA, m_max=34,
                                        tol=2.0 / SCAN_L)
    result = (bands, table, labeled, fractal.box_dimension(bands), fractal.thickness(bands),
              fractal.local_dimension_profile(s, params, k, 6, bands=bands))
    assert _digest(result) == digest


def _no_sturm_loop(spec, E):
    raise AssertionError("a golden band level reached the Sturm loop")


@pytest.mark.parametrize("golden, case", [
    pytest.param(test_band_sets_are_golden, c, id="bands " + _case_id(*c[:4])) for c in BANDS]
    + [pytest.param(test_scans_are_golden, c, id="scans " + _case_id(*c[:4])) for c in SCANS]
    + [pytest.param(test_zero_factor_band_sets_are_golden, c, id="zero-factor " + _case_id(*c[:4]))
       for c in ZERO_FACTOR_BANDS])
def test_golden_levels_never_reach_the_sturm_loop(monkeypatch, golden, case):
    # every golden level has its Dirichlet points in order after the search,
    # so the Sturm loop that decides misordered lanes again cannot move a digest
    monkeypatch.setattr(spectrum, "eigen_count_below_grid", _no_sturm_loop)
    golden(*case)


# (substitution, p, q, grid half-width, L, draw seed, summary digest, table digest):
# a 21-sample DOS exponent summary, and the IDS over a 4097-point grid
# spanning [-half-width, half-width]
DOS = [
    (FIB, 1.38648571413166, 0.3113477085532958, 5.084319136816616, 4181, 833613322,
     "17e756dbc6bf1cd5afc0d383b8f956d1dd4268ecd63b5d48805126f60e34e8fa",
     "8d6731a815334bd49381d643c70abc29418959d076ad8e37fbc56d982c649ca2"),
    (FIB, 1.38648571413166, 0.3113477085532958, 5.084319136816616, 6765, 497031344,
     "929070129a743dbaf92af1a0e5291a46085ffb6380f4775873a300a58e5c4e65",
     "c134e07fecdbcc53086ebae01535ffa09a4b3e60ea6bc44780246aca1527c6f2"),
    (METAL_MEAN, 0.879964881216722, 1.5164916137185624, 5.2764213761520065, 4181, 1307528413,
     "221c058d84cd6234b41025ab6680f9bf273d7cef0c07fbd3eed2adb5711469d7",
     "ce917d52e01a6dcfc016884cf34c5071dc9b3d1e25be7676715e5e1293982929"),
    (METAL_MEAN, 0.879964881216722, 1.5164916137185624, 5.2764213761520065, 6765, 666696991,
     "e825168a7a8b81f8b44ca5e079b416affef4eef98ba21717cb8049284abc1b45",
     "147f32d8208a69c795ac346f31b946aad667cba083a40213a8619f769a0d0abd"),
]


def _dos_id(text, p, q, L):
    return "%s p=%r q=%r L=%d" % (text, p, q, L)


@pytest.mark.parametrize("text, p, q, L, seed, digest", [
    pytest.param(t, p, q, L, seed, d, id=_dos_id(t, p, q, L))
    for t, p, q, _w, L, seed, d, _ in DOS])
def test_dos_summaries_are_golden(text, p, q, L, seed, digest):
    result = dos.dos_dimension_summary(parse_substitution(text), JacobiParams(p, q), 21, L,
                                       seed=seed)
    assert _digest(result) == digest


@pytest.mark.parametrize("text, p, q, half_width, L, digest", [
    pytest.param(t, p, q, w, L, d, id=_dos_id(t, p, q, L))
    for t, p, q, w, L, _seed, _, d in DOS])
def test_ids_tables_are_golden(text, p, q, half_width, L, digest):
    grid = np.linspace(-half_width, half_width, 4097)
    result = dos.ids(parse_substitution(text), JacobiParams(p, q), L, grid)
    assert _digest(result) == digest


# (substitution, p, q, energy count, digest): the escape verdicts of
# dynamical_spectrum_probe on an energy grid over the default range, as
# `sturmtrace scan --kind probe` runs it, hashed as plain values
PROBES = [
    (FIB, 1.0, 2.0, 512, "ad7e6fad85be3a536440b4ed15b765e89f75a2053e121062a5dd278a6289cdf3"),
    (FIB, 1.0, 24.0, 512, "112c4d3fec40e5be46642a18741cf75f3f0d72b0fc45a6fa01bbe6aec918040d"),
]


@pytest.mark.parametrize("text, p, q, n, digest", [
    pytest.param(*c, id="%s p=%r q=%r n=%d" % c[:4]) for c in PROBES])
def test_probe_verdicts_are_golden(text, p, q, n, digest):
    params = JacobiParams(p, q)
    energies = np.linspace(*spectrum.default_energy_range(params), n)
    verdicts = spectrum.dynamical_spectrum_probe(parse_substitution(text), params, energies)
    assert _digest([(v.kind, v.steps_used, v.max_norm) for v in verdicts]) == digest


# (V, resolution, digest): the sha256 of the x, y and steps bytes of the
# escape-time raster; V = -10 leaves no pixel with a real root
SURFACES = [
    (0.01, 128, "a470f1d54b0e6df9fc508ea0f375cf669bff0b61a904a8da99d04a896add863a"),
    (-10.0, 128, "fb6551ff88c314e965735216dabaf97e2a1652ada4e3009e5df5d29596fde841"),
    (0.01, 256, "c701ffe324c7682bf73fb89ec63e2166708bee82662c37af1f5a55aac08386ba"),
    (0.3, 255, "bcad895007388319540effa6b7823336ee5b2b7b81d4698162fc61231a77214a"),
]


@pytest.mark.parametrize("V, resolution, digest", SURFACES)
def test_surface_sections_are_golden(V, resolution, digest):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # the empty raster warns
        r = surface_section(V, resolution)
    raw = r["x"].tobytes() + r["y"].tobytes() + r["steps"].tobytes()
    assert hashlib.sha256(raw).hexdigest() == digest


def _half_trace_mp(recipe, params, E, k):
    """x_k(E) by the trace map in mpmath, in the working precision."""
    E, p, q = mpmath.mpf(E), mpmath.mpf(params.p), mpmath.mpf(params.q)
    x, y, z = (E * E - q * E - p * p - 1) / (2 * p), (E - q) / (2 * p), E / 2
    if recipe.swapped_start:
        y, z = z, y
    for a in recipe.period * k:
        y, z = z, y
        for _ in range(a):
            x, y = 2 * x * z - y, x
    return y


def _transfer_mp(word, params, E):
    """x(E) by the transfer product over one period, successor letter cyclic, in mpmath."""
    E = mpmath.mpf(E)
    hop = {c: mpmath.mpf(params.hopping(c)) for c in "01"}
    # T = [[a, b], [hop[n], 0]] at a site of letter c followed by letter n
    top = {(c, n): ((E - params.potential(c)) / hop[n], -1 / hop[n]) for c in "01" for n in "01"}
    m00, m01, m10, m11 = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)
    for c, n in zip(word, word[1:] + word[0]):
        (a, b), h = top[c, n], hop[n]
        m00, m01, m10, m11 = a * m00 + b * m10, a * m01 + b * m11, h * m00, h * m01
    return (m00 + m11) / 2


def _assert_edges_cross(bands, x):
    """On 40 evenly spaced bands, |x| <= 1 at edge_tol inside both edges, > 1 outside."""
    tol = bands.edge_tol
    picks = np.unique(np.linspace(0, bands.band_count - 1, 40).round().astype(int))
    assert picks.size == 40
    for a, b in bands.edges[picks].tolist():
        mid = 0.5 * (a + b)
        for inside, outside in ((min(a + tol, mid), a - tol), (max(b - tol, mid), b + tol)):
            assert abs(x(inside)) <= 1
            assert abs(x(outside)) > 1


@pytest.mark.parametrize("text, p, q, k, tol, merge_tol", [
    pytest.param(*c[:5], None, id="bands " + _case_id(*c[:4])) for c in BANDS]
    + [pytest.param(*c[:6], id="scans " + _case_id(*c[:4])) for c in SCANS]
    + [pytest.param(*c[:6], id="zero-factor " + _case_id(*c[:4])) for c in ZERO_FACTOR_BANDS])
def test_golden_band_edges_cross_at_60_digits(text, p, q, k, tol, merge_tol):
    # the digests say a result did not move, this that it is right: x_k run
    # through the trace map at 60 digits crosses 1 in |x_k| at every edge
    s, params = parse_substitution(text), JacobiParams(p, q)
    bands = spectrum.floquet_bands(s, params, k, tol=tol, merge_tol=merge_tol)
    recipe = recipe_from_substitution(s)
    with mpmath.workdps(60):
        _assert_edges_cross(bands, lambda E: _half_trace_mp(recipe, params, E, k))


@pytest.mark.parametrize("text, p, q, k, tol, merge_tol", [
    pytest.param(*c[:6], id=_case_id(*c[:4])) for c in ZERO_FACTOR_BANDS])
def test_zero_factor_band_edges_cross_in_the_transfer_product(text, p, q, k, tol, merge_tol):
    # the recipe read off the generator factorization is itself under test
    # here: the edges cross in the 60-digit transfer product over s^k(star)
    s, params = parse_substitution(text), JacobiParams(p, q)
    bands = spectrum.floquet_bands(s, params, k, tol=tol, merge_tol=merge_tol)
    word = periodic_word(s, k)
    with mpmath.workdps(60):
        _assert_edges_cross(bands, lambda E: _transfer_mp(word, params, E))
