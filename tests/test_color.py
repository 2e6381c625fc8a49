"""Illuminant estimation, chromatic adaptation, PSNR and SSIM."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vssenhance.color import (
    D65_WHITE_RGB,
    PSNR_CHUNK,
    SSIM_BAND,
    Illuminant,
    adaptation_transform,
    chromatic_adapt,
    estimate_illuminant,
    psnr,
    srgb_decode,
    srgb_encode,
    ssim,
)
from vssenhance.tensor import DimensionError


@pytest.fixture
def rng():
    return np.random.default_rng(60601)


class TestIlluminant:
    def test_uniform_gray(self):
        frame = np.full((3, 8, 8), 0.5)
        est = estimate_illuminant([frame])
        assert est.rgb == (0.5, 0.5, 0.5)

    def test_constant_channels(self):
        frame = np.stack([np.full((4, 4), v) for v in (0.2, 0.6, 0.8)])
        assert estimate_illuminant([frame]).rgb == (0.2, 0.6, 0.8)

    def test_checkerboard_with_floor(self):
        r = np.indices((4, 4)).sum(axis=0) % 2
        frame = np.stack([r.astype(float), np.zeros((4, 4)), np.ones((4, 4))])
        est = estimate_illuminant([frame])
        assert est.rgb == (0.5, 1e-6, 1.0)

    def test_empty_frame_rejected(self):
        with pytest.raises(DimensionError):
            estimate_illuminant([np.zeros((3, 0, 4))])
        with pytest.raises(DimensionError):
            estimate_illuminant([np.zeros((4, 4))])

    def test_clip_is_the_mean_of_its_frame_means(self, rng):
        # frames of different sizes weigh alike: each contributes its own means
        frames = [rng.uniform(size=(3, 4, 6)), rng.uniform(size=(3, 5, 5)),
                  np.zeros((3, 2, 2))]
        want = np.stack([f.reshape(3, -1).mean(axis=1) for f in frames]).mean(axis=0)
        assert estimate_illuminant(frames).rgb == tuple(np.maximum(want, 1e-6))
        for frame in frames[:2]:
            one = tuple(frame.reshape(3, -1).mean(axis=1))
            assert estimate_illuminant([frame]).rgb == one

    def test_every_frame_checked_and_an_empty_clip_rejected(self, rng):
        with pytest.raises(DimensionError, match="non-empty"):
            estimate_illuminant([rng.uniform(size=(3, 4, 4)), np.zeros((3, 4))])
        with pytest.raises(DimensionError, match="at least one frame"):
            estimate_illuminant([])

    def test_xyz_derivation(self):
        # white maps to the D65 white point of the working space
        est = Illuminant(rgb=(1.0, 1.0, 1.0))
        assert np.allclose(est.xyz, [0.9505, 1.0, 1.089], atol=1e-3)


class TestChromaticAdaptation:
    def test_identity_when_src_equals_dst(self, rng):
        frame = rng.uniform(0.05, 0.95, size=(3, 6, 6))
        ill = Illuminant(rgb=(0.4, 0.5, 0.6))
        out = chromatic_adapt(frame, ill, ill)
        assert np.abs(out - frame).max() < 1e-9

    def test_transform_maps_white_to_white(self):
        src = Illuminant(rgb=(0.3, 0.5, 0.7))
        dst = Illuminant(rgb=D65_WHITE_RGB)
        mapped = adaptation_transform(src, dst) @ srgb_decode(np.asarray(src.rgb))
        assert np.abs(mapped - srgb_decode(np.asarray(dst.rgb))).max() < 1e-9

    def test_source_pixel_becomes_destination_illuminant(self):
        src = Illuminant(rgb=(0.35, 0.55, 0.75))
        dst = Illuminant(rgb=(0.9, 0.85, 0.8))
        frame = np.tile(np.asarray(src.rgb)[:, None, None], (1, 4, 4))
        out = chromatic_adapt(frame, src, dst)
        assert np.abs(out - np.asarray(dst.rgb)[:, None, None]).max() < 1e-6

    def test_gray_world_equalizes_blue_cast(self, rng):
        # blue cast applied in linear light (how physical casts arise), then
        # estimated gray-world and adapted toward equal-energy white
        base = rng.uniform(0.25, 0.75, size=(3, 32, 32))
        cast = srgb_encode(srgb_decode(base) * np.array([0.3, 0.5, 0.7])[:, None, None])
        src = estimate_illuminant([cast])
        before = cast.reshape(3, -1).mean(axis=1)
        assert before.max() / before.min() > 1.3  # the cast is strong
        out = chromatic_adapt(cast, src, Illuminant(rgb=D65_WHITE_RGB))
        means = out.reshape(3, -1).mean(axis=1)
        assert means.max() / means.min() < 1.1

    def test_output_clipped_to_unit_range(self, rng):
        frame = rng.uniform(0.5, 1.0, size=(3, 5, 5))
        out = chromatic_adapt(frame, Illuminant(rgb=(0.2, 0.2, 0.9)),
                              Illuminant(rgb=D65_WHITE_RGB))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_srgb_roundtrip(self, rng):
        v = rng.uniform(0, 1, size=1000)
        assert np.abs(srgb_encode(srgb_decode(v)) - v).max() < 1e-12


def full_frame_ssim(a, b, peak):
    """SSIM with every valid 11x11 window weighted by the 2-D Gaussian at
    once over the whole frame: no separable passes, no bands and no in-place
    updates to get wrong."""
    c1, c2 = (0.01 * peak) ** 2, (0.03 * peak) ** 2
    g = np.exp(-((np.arange(11) - 5.0) ** 2) / (2 * 1.5**2))
    weights = np.outer(g, g) / g.sum() ** 2

    def mean(x):
        windows = np.lib.stride_tricks.sliding_window_view(x, (11, 11), axis=(1, 2))
        return np.einsum("chwij,ij->chw", windows, weights)

    mu_a, mu_b = mean(a), mean(b)
    var_a, var_b = mean(a * a) - mu_a**2, mean(b * b) - mu_b**2
    cov = mean(a * b) - mu_a * mu_b
    score = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)
             / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)))
    return score.mean(axis=(1, 2)).mean()


class TestPSNR:
    def test_identical_images_infinite(self, rng):
        a = rng.uniform(size=(3, 8, 8))
        assert psnr(a, a) == math.inf

    def test_eight_bit_scale_closed_form(self):
        a = np.zeros((3, 10, 10))
        b = np.full((3, 10, 10), 16.0)
        expected = 10.0 * math.log10(255.0**2 / 256.0)
        assert abs(psnr(a, b, peak=255.0) - expected) < 1e-9
        assert abs(expected - 24.0494) < 1e-3

    def test_unit_scale_twenty_db(self):
        a = np.zeros((3, 4, 4))
        b = np.full((3, 4, 4), 0.1)
        assert abs(psnr(a, b, peak=1.0) - 20.0) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            psnr(np.zeros((3, 4, 4)), np.zeros((3, 4, 5)))

    def test_chunks_match_one_mean(self, rng):
        # more samples than one chunk, and not a multiple of it
        a = rng.uniform(size=(3, 151, 149))
        b = np.clip(a + rng.normal(0, 0.05, size=a.shape), 0, 1)
        assert a.size > PSNR_CHUNK and a.size % PSNR_CHUNK
        want = 10.0 * math.log10(1.0 / np.mean((a - b) ** 2))
        assert abs(psnr(a, b) - want) <= 1e-12 * want

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_symmetry(self, seed):
        r = np.random.default_rng(seed)
        a = r.uniform(size=(3, 5, 5))
        b = r.uniform(size=(3, 5, 5))
        assert psnr(a, b) == psnr(b, a)

    def test_monotone_in_error_magnitude(self, rng):
        a = rng.uniform(size=(3, 6, 6))
        values = [psnr(a, a + eps) for eps in (0.01, 0.02, 0.05, 0.1, 0.2)]
        assert all(x > y for x, y in zip(values, values[1:]))


class TestSSIM:
    def test_identity_is_exactly_one(self, rng):
        a = rng.uniform(size=(3, 16, 16))
        assert ssim(a, a) == 1.0

    def test_constant_images_closed_form(self):
        peak = 1.0
        a = np.zeros((1, 12, 12))
        b = np.full((1, 12, 12), peak)
        c1 = (0.01 * peak) ** 2
        expected = c1 / (peak**2 + c1)
        assert abs(ssim(a, b, peak=peak) - expected) < 1e-9

    def test_anticorrelated_structure_scores_low(self, rng):
        a = rng.uniform(size=(1, 24, 24))
        assert ssim(a, 1.0 - a) < 0.5

    def test_window_too_large_rejected(self, rng):
        with pytest.raises(DimensionError):
            ssim(rng.uniform(size=(3, 8, 8)), rng.uniform(size=(3, 8, 8)))

    def test_symmetry(self, rng):
        a = rng.uniform(size=(3, 14, 14))
        b = rng.uniform(size=(3, 14, 14))
        assert abs(ssim(a, b) - ssim(b, a)) < 1e-12

    @pytest.mark.parametrize("shape", [(3, 13, 29), (2, 31, 12)])
    def test_matches_per_window_formula(self, rng, shape):
        a = rng.uniform(size=shape)
        b = np.clip(a + rng.normal(0, 0.1, size=shape), 0, 1)
        assert abs(ssim(a, b, peak=2.0) - full_frame_ssim(a, b, peak=2.0)) < 1e-12

    @pytest.mark.parametrize(
        "rows", [1, SSIM_BAND - 1, SSIM_BAND, SSIM_BAND + 1, 2 * SSIM_BAND + 1])
    def test_bands_match_the_full_frame(self, rng, rows):
        # output-row counts below, at and across the band height; the last
        # band is short, and 1 row is the 11x11 minimum when the width is 11
        for width in (11, 23):
            shape = (3, rows + 10, width)
            a = rng.uniform(size=shape)
            b = np.clip(a + rng.normal(0, 0.1, size=shape), 0, 1)
            want = full_frame_ssim(a, b, peak=1.0)
            assert abs(ssim(a, b) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("peak", [0.0, -1.0])
    def test_nonpositive_peak_rejected(self, peak):
        a = np.full((3, 12, 12), 0.5)
        with pytest.raises(DimensionError, match="peak must be positive"):
            ssim(a, a, peak=peak)

    def test_noise_reduces_score(self, rng):
        a = rng.uniform(size=(1, 20, 20))
        noisy = a + rng.normal(0, 0.2, size=a.shape)
        assert ssim(a, noisy) < ssim(a, a)


@pytest.mark.parametrize("metric", [psnr, ssim])
@pytest.mark.parametrize("peak", [math.nan, math.inf, 0.0])
def test_peak_outside_zero_to_infinity_rejected(metric, peak):
    # NaN passes a "peak <= 0" check and scores every frame NaN
    a = np.full((3, 12, 12), 0.5)
    with pytest.raises(DimensionError, match="peak must be positive and finite"):
        metric(a, a, peak=peak)
