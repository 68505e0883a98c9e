import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nswave import wavelets as wv
from nswave.errors import ConfigError, ShapeError

SQRT2 = math.sqrt(2.0)


def filter_residuals(filt):
    """Max violation of orthonormality, normalization and moments."""
    h = filt.h
    p = filt.p
    worst = abs(h.sum() - SQRT2)
    for m in range(p):
        target = 1.0 if m == 0 else 0.0
        worst = max(worst, abs(h[: h.size - 2 * m] @ h[2 * m:] - target))
    i_true = np.arange(2 * p) + filt.g_offset
    for m in range(p):
        mom = filt.g @ (i_true.astype(float) ** m)
        scale = max(1.0, np.abs(filt.g) @ np.abs(i_true.astype(float)) ** m)
        worst = max(worst, abs(mom) / scale)
    return worst


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_filter_invariants(p):
    filt = wv.daubechies_filter(p)
    assert filt.h.shape == (2 * p,)
    assert filt.g.shape == (2 * p,)
    assert filt.g_offset == -(2 * p - 2)
    assert filter_residuals(filt) < 1e-12


def test_haar_is_forced():
    filt = wv.daubechies_filter(1)
    assert np.allclose(filt.h, [1 / SQRT2, 1 / SQRT2], atol=1e-15)
    assert np.allclose(filt.g, [-1 / SQRT2, 1 / SQRT2], atol=1e-15)
    # sum of squares is exactly one for Haar
    assert filt.h @ filt.h == pytest.approx(1.0, abs=1e-15)


def test_g_index_reflection():
    # g_i = (-1)^(1-i) h_(1-i) in true indexing
    for p in (2, 3):
        filt = wv.daubechies_filter(p)
        for j in range(2 * p):
            i = j + filt.g_offset
            expect = (-1.0) ** (1 - i) * filt.h[1 - i]
            assert filt.g[j] == pytest.approx(expect, abs=1e-15)


def test_d6_against_high_precision_solution():
    """Independent oracle: re-solve the defining system with mpmath root
    finding at 30 digits and compare."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    p = 3
    # product-filter roots exactly as in the construction, but at high
    # precision and through mpmath's polynomial root finder
    acc = [mpmath.mpf(0)] * (2 * p - 1)
    term = [mpmath.mpf(1)]
    base = [mpmath.mpf(-0.25), mpmath.mpf(0.5), mpmath.mpf(-0.25)]

    def convolve(a, b):
        out = [mpmath.mpf(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    for k in range(p):
        c = mpmath.binomial(p - 1 + k, k)
        lo = p - 1 - k
        for t, val in enumerate(term):
            acc[lo + t] += c * val
        term = convolve(term, base)
    roots = mpmath.polyroots(list(reversed(acc)), maxsteps=200)
    inside = [r for r in roots if abs(r) < 1]
    q = [mpmath.mpf(1)]
    for r in inside:
        q = convolve(q, [-r, mpmath.mpf(1)])
    q = [x / sum(q) for x in q]
    binom = [mpmath.mpf(1)]
    for _ in range(p):
        binom = convolve(binom, [mpmath.mpf(0.5), mpmath.mpf(0.5)])
    h = convolve(binom, q)
    h = np.array([float(mpmath.re(x)) * SQRT2 for x in h])
    if h[:p] @ h[:p] < h[p:] @ h[p:]:
        h = h[::-1]
    assert np.max(np.abs(h - wv.daubechies_filter(3).h)) < 1e-13


@pytest.mark.parametrize("p", [0, 6, -1])
def test_unsupported_p_rejected(p):
    with pytest.raises(ConfigError):
        wv.daubechies_filter(p)


def test_forward_step_constant_haar():
    filt = wv.daubechies_filter(1)
    w, s = wv.forward_step(np.full(4, 3.0), filt)
    assert np.allclose(w, 0.0, atol=1e-15)
    assert np.allclose(s, 3.0 * SQRT2, atol=1e-14)


def test_forward_step_haar_hand_values():
    filt = wv.daubechies_filter(1)
    w, s = wv.forward_step(np.array([1.0, 2.0, 3.0, 4.0]), filt)
    assert np.allclose(s, [3 / SQRT2, 7 / SQRT2], atol=1e-14)
    assert np.allclose(w, [1 / SQRT2, 1 / SQRT2], atol=1e-14)


def test_forward_step_rejects_odd_length():
    with pytest.raises(ShapeError):
        wv.forward_step(np.zeros(5), wv.daubechies_filter(1))


def test_inverse_step_haar_constant_case():
    filt = wv.daubechies_filter(1)
    out = wv.inverse_step(np.zeros(2), np.array([SQRT2, SQRT2]), filt)
    assert np.allclose(out, 1.0, atol=1e-14)


def test_inverse_step_rejects_mismatched_lengths():
    filt = wv.daubechies_filter(1)
    with pytest.raises(ShapeError):
        wv.inverse_step(np.zeros(2), np.zeros(4), filt)


@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, 64, elements=st.floats(-100, 100)),
       st.sampled_from([1, 2, 3]))
def test_energy_preservation_and_roundtrip(v, p):
    filt = wv.daubechies_filter(p)
    w, s = wv.forward_step(v, filt)
    assert (w @ w + s @ s) == pytest.approx(v @ v, rel=1e-10, abs=1e-10)
    back = wv.inverse_step(w, s, filt)
    assert np.max(np.abs(back - v)) < 1e-12 * max(1.0, np.max(np.abs(v)))


def test_inverse_then_forward_identity():
    rng = np.random.default_rng(3)
    filt = wv.daubechies_filter(3)
    w, s = rng.standard_normal((2, 32))
    w2, s2 = wv.forward_step(wv.inverse_step(w, s, filt), filt)
    assert np.max(np.abs(w2 - w)) < 1e-12
    assert np.max(np.abs(s2 - s)) < 1e-12


def test_full_transform_impulse_matches_pyramid_matrix():
    filt = wv.daubechies_filter(1)
    n = 8

    def flatten(pyr):
        parts = [pyr.w[level] for level in sorted(pyr.w)] + [pyr.s]
        return np.concatenate(parts)

    mat = np.stack([flatten(wv.forward_transform(col, filt, 0))
                    for col in np.eye(n)], axis=1)
    assert np.max(np.abs(mat.T @ mat - np.eye(n))) < 1e-12
    imp = flatten(wv.forward_transform(np.eye(n)[0], filt, 0))
    assert np.allclose(imp, mat[:, 0], atol=1e-15)


def test_constant_vector_kills_all_wavelet_coefficients():
    filt = wv.daubechies_filter(3)
    pyr = wv.forward_transform(np.full(64, 2.5), filt, 3)
    for arr in pyr.w.values():
        assert np.max(np.abs(arr)) < 1e-12


def test_transform_roundtrip_and_counts():
    rng = np.random.default_rng(11)
    for p in (1, 2, 3):
        filt = wv.daubechies_filter(p)
        v = rng.standard_normal(128)
        pyr = wv.forward_transform(v, filt, wv.min_coarse_level(p))
        count = sum(a.shape[0] for a in pyr.w.values()) + pyr.s.shape[0]
        assert count == 128
        energy = sum(float(a @ a) for a in pyr.w.values()) + float(pyr.s @ pyr.s)
        assert energy == pytest.approx(float(v @ v), rel=1e-10)
        assert np.max(np.abs(wv.inverse_transform(pyr, filt) - v)) < 1e-12


def test_l0_too_small_for_support():
    with pytest.raises(ConfigError):
        wv.forward_transform(np.zeros(64), wv.daubechies_filter(3), 1)
    with pytest.raises(ShapeError):
        wv.forward_transform(np.zeros(48), wv.daubechies_filter(1), 0)


def test_polynomial_suppression_away_from_wrap():
    n = 1 << 10
    x = np.arange(n) / n
    for p in (2, 3):
        filt = wv.daubechies_filter(p)
        coeffs = np.arange(1, p + 1, dtype=float)
        v = sum(c * x ** m for m, c in enumerate(coeffs))  # degree < p
        v = v / np.linalg.norm(v)
        pyr = wv.forward_transform(v, filt, wv.min_coarse_level(p))
        l_max = pyr.l_max
        for level, w in pyr.w.items():
            t = l_max - level
            width = (2 ** t) * (2 * p - 1) - (2 * p - 2)
            k = np.arange(w.shape[0])
            interior = (2 ** t) * k + width - 1 <= n - 1
            assert interior.any()
            assert np.max(np.abs(w[interior])) < 1e-10


def test_2d_constant_image():
    filt = wv.daubechies_filter(2)
    w1, w2, w3, s = wv.forward_parts(np.full((16, 16), 1.7), filt, 2)
    for arr in (w1, w2, w3):
        assert np.max(np.abs(arr)) < 1e-13
    assert np.allclose(s, 1.7 * 2.0, atol=1e-13)  # sqrt(2) per axis


def test_2d_roundtrip_and_energy():
    rng = np.random.default_rng(5)
    filt = wv.daubechies_filter(3)
    x = rng.standard_normal((16, 16))
    w1, w2, w3, s = wv.forward_parts(x, filt, 2)
    energy = sum(float((a ** 2).sum()) for a in (w1, w2, w3, s))
    assert energy == pytest.approx(float((x ** 2).sum()), rel=1e-10)
    back = wv.inverse_parts([w1, w2, w3, s], filt, 2)
    assert np.max(np.abs(back - x)) < 1e-12


@pytest.mark.parametrize("padding", ["periodic", "zero"])
def test_2d_parts_are_the_1d_step_along_each_axis(padding):
    rng = np.random.default_rng(6)
    filt = wv.daubechies_filter(2)
    x = rng.standard_normal((8, 8, 3))
    # axis 1 first, then axis 0 of each half; letters name the filter on
    # axis 0, then axis 1 (g wavelet, h scaling)
    g_y, h_y = (a.swapaxes(0, 1) for a in
                wv.forward_step(x.swapaxes(0, 1), filt, padding))
    gh, hh = wv.forward_step(h_y, filt, padding)
    gg, hg = wv.forward_step(g_y, filt, padding)
    parts = wv.forward_parts(x, filt, 2, padding)
    for got, want in zip(parts, (hg, gh, gg, hh)):
        assert np.array_equal(got, want)
    assert len(parts) == 4


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_parts_roundtrip(dim, p):
    rng = np.random.default_rng(7)
    filt = wv.daubechies_filter(p)
    x = rng.standard_normal((16,) * dim + (2,))
    parts = wv.forward_parts(x, filt, dim)
    assert [a.shape for a in parts] == [(8,) * dim + (2,)] * 2 ** dim
    assert np.max(np.abs(wv.inverse_parts(parts, filt, dim) - x)) < 1e-12
