"""The benchmark's PNG encoder: every filter type round-trips at 8 and 16 bits,
through its own decoder and through the program's, and the per-row choice
is libpng's minimum-sum-of-absolute-differences heuristic."""

import numpy as np
import pytest

import pngcodec
from vssenhance.imageio import read_image


def _samples(bit_depth, seed=0, shape=(9, 7, 3)):
    rng = np.random.default_rng([seed, bit_depth])
    return rng.integers(0, 1 << bit_depth, size=shape).astype(np.uint16)


@pytest.mark.parametrize("bit_depth", [8, 16])
@pytest.mark.parametrize("ftype", range(5))
def test_round_trip_each_filter(tmp_path, bit_depth, ftype):
    samples = _samples(bit_depth, seed=ftype)
    blob, types = pngcodec.encode_png(samples, bit_depth, force_filter=ftype)
    assert (types == ftype).all()

    decoded, depth = pngcodec.decode_png(blob)
    assert depth == bit_depth
    np.testing.assert_array_equal(decoded, samples)

    path = tmp_path / "frame.png"
    path.write_bytes(blob)
    frame, depth = read_image(path)
    assert depth == bit_depth
    want = samples.transpose(2, 0, 1).astype(np.float64) / ((1 << bit_depth) - 1)
    np.testing.assert_array_equal(frame, want)


def _naive_filtered_row(cur, prev, bpp, ftype):
    """One filtered row, byte by byte, straight from the PNG specification."""
    out = []
    for i, x in enumerate(cur):
        a = cur[i - bpp] if i >= bpp else 0
        b = prev[i]
        c = prev[i - bpp] if i >= bpp else 0
        p = a + b - c
        pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
        paeth = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
        pred = (0, a, b, (a + b) // 2, paeth)[ftype]
        out.append((x - pred) % 256)
    return out


@pytest.mark.parametrize("bit_depth", [8, 16])
def test_heuristic_picks_minimum_signed_sum(bit_depth):
    # smooth ramps plus noise give rows where different filters win
    H, W = 12, 10
    yy, xx = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
    peak = (1 << bit_depth) - 1
    rng = np.random.default_rng(bit_depth)
    base = np.stack([yy * 3 + xx * 2, xx * 5, (yy * xx) % 7], axis=-1) * (peak // 80)
    noise = rng.integers(0, peak // 50 + 1, size=base.shape)
    noise[::3] = 0  # some rows noise-free
    samples = np.clip(base + noise, 0, peak).astype(np.uint16)
    _, types = pngcodec.encode_png(samples, bit_depth)

    dtype = ">u2" if bit_depth == 16 else "u1"
    bpp = 3 * bit_depth // 8
    rows = np.frombuffer(samples.astype(dtype).tobytes(), dtype=np.uint8).reshape(H, -1)
    prev = [0] * rows.shape[1]
    for r, row in enumerate(rows.tolist()):
        costs = [sum(v if v < 128 else 256 - v for v in _naive_filtered_row(row, prev, bpp, f))
                 for f in range(5)]
        assert types[r] == costs.index(min(costs)), f"row {r}: costs {costs}"
        prev = row
    assert len(set(types.tolist())) > 1


def test_filter_histogram_counts_rows():
    assert pngcodec.filter_histogram([4, 4, 1, 0]) == {
        "none": 1, "sub": 1, "up": 0, "avg": 0, "paeth": 2}


def test_rejects_out_of_range_samples():
    with pytest.raises(ValueError):
        pngcodec.encode_png(np.full((2, 2, 3), 256), 8)
