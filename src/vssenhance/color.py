"""Gray-world illuminant estimation, Bradford chromatic adaptation, and the
full-reference quality metrics (PSNR, SSIM).

Adaptation runs in linear light: frames are sRGB-decoded, moved to XYZ,
scaled in Bradford cone space so the source white lands on the destination
white, then re-encoded.  The destination defaults to the working-space white
(D65, i.e. linear RGB (1, 1, 1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import DimensionError

__all__ = [
    "Illuminant",
    "D65_WHITE_RGB",
    "estimate_illuminant",
    "adaptation_transform",
    "chromatic_adapt",
    "check_peak",
    "psnr",
    "ssim",
]

_CHANNEL_FLOOR = 1e-6

# sRGB (D65) primaries, linear RGB <-> XYZ
RGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
XYZ_TO_RGB = np.linalg.inv(RGB_TO_XYZ)

# Bradford cone response matrix
BRADFORD = np.array(
    [
        [0.8951, 0.2664, -0.1614],
        [-0.7502, 1.7135, 0.0367],
        [0.0389, -0.0685, 1.0296],
    ]
)
BRADFORD_INV = np.linalg.inv(BRADFORD)

D65_WHITE_RGB = (1.0, 1.0, 1.0)


def srgb_decode(v: np.ndarray) -> np.ndarray:
    """Gamma-encoded sRGB -> linear light."""
    v = np.asarray(v, dtype=np.float64)
    return np.where(v <= 0.04045, v / 12.92, ((v + 0.055) / 1.055) ** 2.4)


def srgb_encode(v: np.ndarray) -> np.ndarray:
    """Linear light -> gamma-encoded sRGB (negatives clamped first)."""
    v = np.maximum(np.asarray(v, dtype=np.float64), 0.0)
    return np.where(v <= 0.0031308, 12.92 * v, 1.055 * v ** (1.0 / 2.4) - 0.055)


@dataclass
class Illuminant:
    """A scene illuminant as encoded RGB plus its linear-light tristimulus."""

    rgb: tuple[float, float, float]
    xyz: tuple[float, float, float] = field(init=False)

    def __post_init__(self):
        if any(c <= 0 for c in self.rgb):
            raise DimensionError("illuminant components must be positive")
        linear = srgb_decode(np.asarray(self.rgb))
        self.xyz = tuple(RGB_TO_XYZ @ linear)


def estimate_illuminant(frames) -> Illuminant:
    """Gray-world estimate over a clip's (3, H, W) frames: the mean of each
    frame's per-channel means, floored at 1e-6."""
    means = []
    for frame in frames:
        frame = np.asarray(frame, dtype=np.float64)
        if frame.ndim != 3 or frame.shape[0] != 3 or frame[0].size == 0:
            raise DimensionError("illuminant estimation expects non-empty (3, H, W) frames")
        means.append(frame.reshape(3, -1).mean(axis=1))
    if not means:
        raise DimensionError("illuminant estimation expects at least one frame")
    return Illuminant(rgb=tuple(np.maximum(np.stack(means).mean(axis=0), _CHANNEL_FLOOR)))


def adaptation_transform(src: Illuminant, dst: Illuminant) -> np.ndarray:
    """The 3x3 map in linear RGB taking ``src``-adapted colors to ``dst``: a
    Bradford transform scaling cone responses from one white to the other."""
    src_cone = BRADFORD @ np.asarray(src.xyz)
    dst_cone = BRADFORD @ np.asarray(dst.xyz)
    cat = BRADFORD_INV @ np.diag(dst_cone / src_cone) @ BRADFORD
    return XYZ_TO_RGB @ cat @ RGB_TO_XYZ


def chromatic_adapt(frame: np.ndarray, src: Illuminant, dst: Illuminant) -> np.ndarray:
    """Re-render ``frame`` (encoded, (3, H, W), values in [0, 1]) from the
    source illuminant to the destination; clipping happens only at the end."""
    linear = srgb_decode(np.asarray(frame, dtype=np.float64))
    adapted = (adaptation_transform(src, dst) @ linear.reshape(3, -1)).reshape(linear.shape)
    return np.clip(srgb_encode(adapted), 0.0, 1.0)


# ---------------------------------------------------------------------------
# quality metrics
# ---------------------------------------------------------------------------


PSNR_CHUNK = 1 << 16  # samples differenced at a time: no frame-sized temporary


def check_peak(metric: str, peak: float) -> None:
    """Raise ``DimensionError`` unless ``metric``'s peak value is positive
    and finite."""
    if not 0 < peak < math.inf:  # NaN fails both comparisons
        raise DimensionError(f"{metric} peak must be positive and finite, got {peak!r}")


def psnr(a: np.ndarray, b: np.ndarray, peak: float = 1.0) -> float:
    """10 log10(peak^2 / MSE); identical inputs report +infinity."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"psnr inputs differ in shape: {a.shape} vs {b.shape}")
    check_peak("psnr", peak)
    a, b = a.reshape(-1), b.reshape(-1)
    sse = 0.0
    for i in range(0, a.size, PSNR_CHUNK):
        d = a[i : i + PSNR_CHUNK] - b[i : i + PSNR_CHUNK]
        d *= d
        sse += float(d.sum())
    if sse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / (sse / a.size))


# SSIM's Gaussian window and stabilizer constants (Wang et al. 2004)
SSIM_WINDOW, SSIM_SIGMA = 11, 1.5
SSIM_K1, SSIM_K2 = 0.01, 0.03
SSIM_BAND = 64  # output rows scored at a time
_SSIM_KERNEL = np.exp(-((np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0) ** 2)
                      / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
_SSIM_KERNEL /= _SSIM_KERNEL.sum()


def _windowed_mean(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable valid-mode filtering of a 2-D array.

    Both passes filter along axis 0 of a C-ordered array, where matmul hands
    each output row to BLAS; along the innermost axis it falls back to a
    plain loop, about four times slower.  The result is a transposed view.
    """
    k = kernel.size
    x = np.lib.stride_tricks.sliding_window_view(x, k, axis=0) @ kernel
    x = np.ascontiguousarray(x.T)
    return (np.lib.stride_tricks.sliding_window_view(x, k, axis=0) @ kernel).T


def _ssim_sum(a: np.ndarray, b: np.ndarray, c1: float, c2: float) -> float:
    """Sum of the SSIM map over the valid windows of 2-D ``a`` and ``b``."""
    mu_a = _windowed_mean(a, _SSIM_KERNEL)
    mu_b = _windowed_mean(b, _SSIM_KERNEL)
    var_a = _windowed_mean(a * a, _SSIM_KERNEL)
    var_a -= mu_a * mu_a
    var_b = _windowed_mean(b * b, _SSIM_KERNEL)
    var_b -= mu_b * mu_b
    cov = _windowed_mean(a * b, _SSIM_KERNEL)
    cov -= mu_a * mu_b
    # (2 mu_a mu_b + c1)(2 cov + c2) / ((mu_a^2 + mu_b^2 + c1)(var_a + var_b + c2)),
    # updating the maps in place so that fewer of them are alive at once
    cov *= 2.0
    cov += c2
    cov *= 2.0 * mu_a * mu_b + c1
    var_a += var_b
    var_a += c2
    var_a *= mu_a * mu_a + mu_b * mu_b + c1
    cov /= var_a
    return float(cov.sum())


def ssim(a: np.ndarray, b: np.ndarray, peak: float = 1.0) -> float:
    """Mean structural similarity over valid 11x11 Gaussian windows.

    Computed per channel and averaged; the luminance/contrast/structure
    product uses the standard stabilizers C1 = (0.01 peak)^2, C2 = (0.03 peak)^2.
    Each channel is scored in bands of ``SSIM_BAND`` output rows, each band
    reading the 10 rows of window overlap below it, so every map is exact and
    only band-sized ones are alive at a time.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"ssim inputs differ in shape: {a.shape} vs {b.shape}")
    check_peak("ssim", peak)
    if a.ndim == 2:
        a = a[None]
        b = b[None]
    if a.shape[1] < SSIM_WINDOW or a.shape[2] < SSIM_WINDOW:
        raise DimensionError(
            f"image {a.shape[1]}x{a.shape[2]} is smaller than the {SSIM_WINDOW}x"
            f"{SSIM_WINDOW} window"
        )
    c1 = (SSIM_K1 * peak) ** 2
    c2 = (SSIM_K2 * peak) ** 2
    rows = a.shape[1] - SSIM_WINDOW + 1
    cols = a.shape[2] - SSIM_WINDOW + 1
    scores = []
    for ca, cb in zip(a, b):
        total = 0.0
        for r in range(0, rows, SSIM_BAND):
            band = slice(r, min(r + SSIM_BAND, rows) + SSIM_WINDOW - 1)
            total += _ssim_sum(ca[band], cb[band], c1, c2)
        scores.append(total / (rows * cols))
    return float(np.mean(scores))
