"""Benchmark-side PNG codec, independent of ``vssenhance.imageio``.

The encoder writes RGB PNGs at 8 or 16 bits and picks each row's filter
(0 none, 1 sub, 2 up, 3 average, 4 paeth) by libpng's heuristic: the filter
whose output bytes, read as signed, have the smallest sum of absolute
values, the first such filter on ties.  Generated inputs therefore carry the
filter mix a real encoder would produce, and that mix is what the program's
decoder is timed on.

The decoder exists to check the program's output files without trusting the
program's own decoder; it is written for clarity, not speed.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

SIGNATURE = b"\x89PNG\r\n\x1a\n"
FILTER_NAMES = ("none", "sub", "up", "avg", "paeth")


def _chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def _paeth_predictor(a, b, c):
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def filter_rows(rows: np.ndarray, bpp: int) -> np.ndarray:
    """All five filtered versions of every row: (5, H, bytes_per_row) uint8.

    Filters read the unfiltered bytes of the row above and of the pixel to
    the left, so every row and every filter can be computed at once.
    """
    x = rows.astype(np.int32)
    up = np.zeros_like(x)
    up[1:] = x[:-1]
    left = np.zeros_like(x)
    left[:, bpp:] = x[:, :-bpp]
    up_left = np.zeros_like(x)
    up_left[:, bpp:] = up[:, :-bpp]
    preds = (0, left, up, (left + up) // 2, _paeth_predictor(left, up, up_left))
    return np.stack([(x - p) % 256 for p in preds]).astype(np.uint8)


def choose_filters(candidates: np.ndarray) -> np.ndarray:
    """libpng's minimum-sum-of-absolute-differences choice, one per row."""
    signed = candidates.astype(np.int32)
    cost = np.where(signed < 128, signed, 256 - signed).sum(axis=2)  # (5, H)
    return np.argmin(cost, axis=0)  # first minimum wins ties, as in libpng


def encode_png(samples: np.ndarray, bit_depth: int, force_filter: int | None = None):
    """Encode (H, W, 3) unsigned samples; returns (png bytes, per-row filter types).

    ``force_filter`` fixes one filter type for every row instead of the
    heuristic choice.
    """
    if bit_depth not in (8, 16):
        raise ValueError(f"bit depth must be 8 or 16, got {bit_depth}")
    H, W, C = samples.shape
    if C != 3:
        raise ValueError("encode_png expects (H, W, 3) RGB samples")
    if samples.min() < 0 or samples.max() >= (1 << bit_depth):
        raise ValueError(f"samples out of range for {bit_depth}-bit PNG")
    dtype = ">u2" if bit_depth == 16 else "u1"
    bpp = 3 * (bit_depth // 8)
    rows = np.frombuffer(samples.astype(dtype).tobytes(), dtype=np.uint8).reshape(H, W * bpp)
    candidates = filter_rows(rows, bpp)
    if force_filter is None:
        types = choose_filters(candidates)
    else:
        types = np.full(H, int(force_filter))
    chosen = candidates[types, np.arange(H)]
    raw = np.concatenate([types.astype(np.uint8)[:, None], chosen], axis=1).tobytes()
    header = struct.pack(">IIBBBBB", W, H, bit_depth, 2, 0, 0, 0)
    blob = (
        SIGNATURE
        + _chunk(b"IHDR", header)
        + _chunk(b"IDAT", zlib.compress(raw))
        + _chunk(b"IEND", b"")
    )
    return blob, types


def decode_png(blob: bytes) -> tuple[np.ndarray, int]:
    """Decode a non-interlaced 8/16-bit RGB PNG to (H, W, 3) integer samples."""
    if blob[:8] != SIGNATURE:
        raise ValueError("not a PNG stream")
    pos, header, idat = 8, None, bytearray()
    while pos + 8 <= len(blob):
        (length,) = struct.unpack_from(">I", blob, pos)
        tag = blob[pos + 4 : pos + 8]
        payload = blob[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            header = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    if header is None:
        raise ValueError("PNG stream has no IHDR chunk")
    W, H, bit_depth, color_type, _, _, interlace = header
    if color_type != 2 or interlace != 0 or bit_depth not in (8, 16):
        raise ValueError(f"unsupported PNG layout {header}")
    bpp = 3 * (bit_depth // 8)
    bpr = W * bpp
    raw = zlib.decompress(bytes(idat))
    if len(raw) != H * (bpr + 1):
        raise ValueError("PNG image data has the wrong size")
    out = np.zeros((H, bpr), dtype=np.int64)
    prev = [0] * bpr
    for r in range(H):
        ftype = raw[r * (bpr + 1)]
        row = raw[r * (bpr + 1) + 1 : (r + 1) * (bpr + 1)]
        cur = [0] * bpr
        for i in range(bpr):
            a = cur[i - bpp] if i >= bpp else 0
            b = prev[i]
            c = prev[i - bpp] if i >= bpp else 0
            if ftype == 0:
                pred = 0
            elif ftype == 1:
                pred = a
            elif ftype == 2:
                pred = b
            elif ftype == 3:
                pred = (a + b) // 2
            elif ftype == 4:
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
            else:
                raise ValueError(f"unknown PNG filter type {ftype}")
            cur[i] = (row[i] + pred) % 256
        out[r] = cur
        prev = cur
    if bit_depth == 16:
        pairs = out.reshape(H, W, 3, 2)
        samples = pairs[..., 0] * 256 + pairs[..., 1]
    else:
        samples = out.reshape(H, W, 3)
    return samples, bit_depth


def filter_histogram(types) -> dict[str, int]:
    counts = np.bincount(np.asarray(types, dtype=np.intp), minlength=5)
    return {name: int(n) for name, n in zip(FILTER_NAMES, counts)}
