"""Frame ingestion and emission: PNG (8/16-bit) and binary PPM (P6), bit-exact.

Codecs are self-contained (zlib from the standard library) so 16-bit samples
survive round trips at full precision.  Supported PNG layouts: bit depth
8/16, color types gray / RGB / gray+alpha / RGBA, no interlacing, no palette.
Alpha channels are dropped on load; grayscale is replicated to three
channels.
"""

from __future__ import annotations

import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "IngestionError",
    "VideoClip",
    "load_clip",
    "read_image",
    "write_image",
    "natural_key",
]

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
IMAGE_SUFFIXES = (".png", ".ppm")


class IngestionError(RuntimeError):
    """A frame file could not be read or a clip is inconsistent."""


# ---------------------------------------------------------------------------
# PNG
# ---------------------------------------------------------------------------


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def _write_png(path: Path, samples: np.ndarray, bit_depth: int) -> None:
    """``samples``: (H, W, 3) unsigned integers already in range."""
    H, W, _ = samples.shape
    header = struct.pack(">IIBBBBB", W, H, bit_depth, 2, 0, 0, 0)
    dtype = ">u2" if bit_depth == 16 else "u1"
    rows = samples.astype(dtype).tobytes()
    bpr = W * 3 * (bit_depth // 8)
    raw = bytearray()
    for r in range(H):
        raw.append(0)  # filter type none
        raw += rows[r * bpr : (r + 1) * bpr]
    blob = (
        _PNG_SIGNATURE
        + _png_chunk(b"IHDR", header)
        + _png_chunk(b"IDAT", zlib.compress(bytes(raw)))
        + _png_chunk(b"IEND", b"")
    )
    path.write_bytes(blob)


def _defilter(rows: np.ndarray, bpp: int) -> np.ndarray:
    """Undo the per-row filters (RFC 2083 section 6) of (H, 1 + W*bpp) rows,
    filter byte first, to the (H, W*bpp) image bytes.

    None rows are their bytes already, and a sub row reads nothing from the
    row above: it is a running sum mod 256 along each byte lane, so all sub
    rows are decoded at once.  Up, average and paeth rows take a wavefront,
    run only if some row uses one of them.  A byte at row r, pixel x is
    predicted from pixels (r, x-1), (r-1, x) and (r-1, x-1), so the pixels
    of each anti-diagonal r + x = k are rebuilt at once from diagonals k-1
    and k-2.  Those two are kept in int16 buffers indexed by row + 1: buffer
    row 0 and the rows no diagonal has reached stay zero, which supplies the
    zeros outside the image.  Each step computes only the predictors of the
    kinds present, each masked to its rows, so the rows already decoded get
    predictor 0 and pass through.
    """
    H = rows.shape[0]
    W = (rows.shape[1] - 1) // bpp
    types = rows[:, 0]
    out = rows[:, 1:].copy()  # the filtered bytes, rebuilt in place
    sub = types == 1
    if sub.any():
        lanes = out[sub].reshape(-1, W, bpp)
        out[sub] = np.cumsum(lanes, axis=1, dtype=np.uint8).reshape(-1, W * bpp)
    # (H, bpp) 0/1 masks of the up, average and paeth rows, None for a kind
    # no row uses; int16, since a bool operand makes numpy cast on every step
    is_up, is_avg, is_paeth = (
        np.repeat(of_kind.astype(np.int16)[:, None], bpp, axis=1) if of_kind.any() else None
        for of_kind in (types == 2, types == 3, types == 4)
    )
    if is_up is None and is_avg is None and is_paeth is None:
        return out
    pixels = out.reshape(H * W, bpp)
    prev, prev2 = np.zeros((2, H + 1, bpp), dtype=np.int16)
    # Each step computes into slices of these instead of fresh arrays: numpy
    # keeps freed buffers under 1 KB for reuse, and one size per diagonal
    # would leave hundreds of them spread over the heap.
    ints = np.empty((7, H, bpp), dtype=np.int16)
    bools = np.empty((3, H, bpp), dtype=bool)
    for k in range(H + W - 1):
        r0, r1 = max(0, k - W + 1), min(H, k + 1)
        # pixel (r, k - r) sits at flat index k + r*(W - 1)
        diag = slice(k + r0 * (W - 1), k + (r1 - 1) * (W - 1) + 1, max(W - 1, 1))
        left, up, up_left = prev[r0 + 1 : r1 + 1], prev[r0:r1], prev2[r0:r1]
        pred, term = ints[:2, : r1 - r0]
        np.copyto(pred, pixels[diag])
        if is_up is not None:
            pred += np.multiply(is_up[r0:r1], up, out=term)
        if is_avg is not None:
            np.add(left, up, out=term)
            term >>= 1
            term *= is_avg[r0:r1]
            pred += term
        if is_paeth is not None:
            # of left, up and up_left, the nearest to p = left + up - up_left,
            # ties going to the first
            d_left, d_up, p_left, p_up, p_ul = ints[2:, : r1 - r0]
            near_left, near_up, cmp = bools[:, : r1 - r0]
            np.subtract(left, up_left, out=d_left)
            np.subtract(up, up_left, out=d_up)
            np.abs(d_up, out=p_left)  # |p - left|
            np.abs(d_left, out=p_up)  # |p - up|
            np.abs(np.add(d_up, d_left, out=p_ul), out=p_ul)  # |p - up_left|
            np.less_equal(p_left, p_up, out=near_left)
            near_left &= np.less_equal(p_left, p_ul, out=cmp)
            np.less_equal(p_up, p_ul, out=near_up)
            np.greater(near_up, near_left, out=near_up)  # and not near_left
            # masks multiply faster than np.where or np.copyto(where=) select
            np.multiply(near_left, d_left, out=term)
            term += up_left
            term += np.multiply(near_up, d_up, out=d_up)
            term *= is_paeth[r0:r1]
            pred += term
        pred &= 255
        pixels[diag] = pred
        prev2[r0 + 1 : r1 + 1] = pred  # diagonal k-2 is read no more
        prev, prev2 = prev2, prev
    return out


def _read_png(path: Path) -> tuple[np.ndarray, int]:
    blob = path.read_bytes()
    if blob[:8] != _PNG_SIGNATURE:
        raise IngestionError(f"{path}: not a PNG file")
    pos = 8
    ihdr = None
    idat = bytearray()
    while pos + 8 <= len(blob):
        (length,) = struct.unpack_from(">I", blob, pos)
        tag = blob[pos + 4 : pos + 8]
        payload = blob[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    if ihdr is None or not idat:
        raise IngestionError(f"{path}: missing IHDR or IDAT")
    W, H, bit_depth, color_type, _comp, _filt, interlace = ihdr
    if W == 0 or H == 0:
        raise IngestionError(f"{path}: PNG image is empty ({W}x{H})")
    if interlace != 0:
        raise IngestionError(f"{path}: interlaced PNG is unsupported")
    if bit_depth not in (8, 16):
        raise IngestionError(f"{path}: unsupported bit depth {bit_depth}")
    channels = {0: 1, 2: 3, 4: 2, 6: 4}.get(color_type)
    if channels is None:
        raise IngestionError(f"{path}: unsupported color type {color_type}")
    bpp = channels * (bit_depth // 8)
    raw = zlib.decompress(idat)
    # freed before _defilter copies the rows, so that the copy reuses their
    # heap space: held to the return, they split the free heap under the
    # frame and cost 4.5 MB of peak RSS on two 640x360 frames
    del blob, idat
    if len(raw) != H * (1 + W * bpp):
        raise IngestionError(f"{path}: IDAT payload has wrong size")
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(H, 1 + W * bpp)
    bad = np.flatnonzero(rows[:, 0] > 4)
    if bad.size:
        raise IngestionError(
            f"{path}: row {bad[0]} has unsupported PNG filter type {rows[bad[0], 0]}"
        )
    # 16-bit samples are big-endian byte pairs: a ">u2" view reads them as
    # they are, and the returned view keeps only the decoded bytes alive
    values = _defilter(rows, bpp).view(">u2" if bit_depth == 16 else np.uint8)
    values = values.reshape(H, W, channels)
    if channels <= 2:  # gray, or gray + alpha: gray in every channel
        rgb = np.broadcast_to(values[:, :, :1], (H, W, 3))
    else:
        rgb = values[:, :, :3]
    return rgb, bit_depth


# ---------------------------------------------------------------------------
# PPM (P6)
# ---------------------------------------------------------------------------


def _read_ppm_token(blob: bytes, pos: int) -> tuple[bytes, int]:
    while pos < len(blob):
        if blob[pos : pos + 1].isspace():
            pos += 1
        elif blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
        else:
            break
    start = pos
    while pos < len(blob) and not blob[pos : pos + 1].isspace():
        pos += 1
    return blob[start:pos], pos


def _read_ppm(path: Path) -> tuple[np.ndarray, int, int]:
    blob = path.read_bytes()
    magic, pos = _read_ppm_token(blob, 0)
    if magic != b"P6":
        raise IngestionError(f"{path}: not a binary PPM (P6) file")
    fields = []
    for _ in range(3):
        token, pos = _read_ppm_token(blob, pos)
        if not token.isdigit():
            raise IngestionError(f"{path}: malformed PPM header")
        fields.append(int(token))
    W, H, maxval = fields
    if W == 0 or H == 0:
        raise IngestionError(f"{path}: PPM image is empty ({W}x{H})")
    if maxval <= 0 or maxval >= 65536:
        raise IngestionError(f"{path}: PPM maxval {maxval} out of range")
    pos += 1  # single whitespace after maxval
    dtype = ">u2" if maxval > 255 else "u1"
    count = W * H * 3
    data = np.frombuffer(blob, dtype=dtype, count=count, offset=pos)
    if data.size != count:
        raise IngestionError(f"{path}: truncated PPM payload")
    bit_depth = 16 if maxval > 255 else 8
    return data.reshape(H, W, 3), bit_depth, maxval


def _write_ppm(path: Path, samples: np.ndarray, bit_depth: int) -> None:
    H, W, _ = samples.shape
    maxval = (1 << bit_depth) - 1
    header = f"P6\n{W} {H}\n{maxval}\n".encode()
    dtype = ">u2" if bit_depth == 16 else "u1"
    path.write_bytes(header + samples.astype(dtype).tobytes())


# ---------------------------------------------------------------------------
# unified frame interface
# ---------------------------------------------------------------------------


def read_image(path) -> tuple[np.ndarray, int]:
    """Decode a frame to unit-scale float64 (3, H, W); returns (frame, bit_depth)."""
    path = Path(path)
    try:
        if path.suffix.lower() == ".png":
            rgb, bit_depth = _read_png(path)
            scale = float((1 << bit_depth) - 1)
        elif path.suffix.lower() == ".ppm":
            rgb, bit_depth, maxval = _read_ppm(path)
            scale = float(maxval)
        else:
            raise IngestionError(f"{path}: unsupported image format")
    except IngestionError:
        raise
    except Exception as exc:  # corrupt zlib stream, truncated header, ...
        raise IngestionError(f"{path}: unreadable image ({exc})") from exc
    # one pass: each sample is converted and divided straight into the frame
    frame = np.empty((3,) + rgb.shape[:2])
    np.divide(rgb.transpose(2, 0, 1), scale, out=frame)
    return frame, bit_depth


def write_image(path, frame: np.ndarray, bit_depth: int = 8) -> None:
    """Quantize a unit-scale (3, H, W) frame and write PNG or PPM by suffix."""
    path = Path(path)
    if bit_depth not in (8, 16):
        raise IngestionError(f"unsupported output bit depth {bit_depth}")
    peak = (1 << bit_depth) - 1
    samples = np.rint(np.clip(frame, 0.0, 1.0) * peak).astype(np.uint32)
    samples = samples.transpose(1, 2, 0)
    if path.suffix.lower() == ".png":
        _write_png(path, samples, bit_depth)
    elif path.suffix.lower() == ".ppm":
        _write_ppm(path, samples, bit_depth)
    else:
        raise IngestionError(f"{path}: unsupported output format")


# ---------------------------------------------------------------------------
# clips
# ---------------------------------------------------------------------------


def natural_key(name: str):
    """Sort key treating digit runs numerically: 2.png before 10.png."""
    parts = re.split(r"(\d+)", name)
    return tuple(int(p) if p.isdigit() else p for p in parts)


@dataclass
class VideoClip:
    """An ordered frame sequence plus enough metadata to write results back."""

    frames: list[np.ndarray]
    paths: list[Path]
    bit_depths: list[int]

    def __len__(self):
        return len(self.frames)


def load_clip(directory) -> VideoClip:
    """Decode every PNG/PPM in ``directory``, ordered by natural filename sort."""
    directory = Path(directory)
    if not directory.is_dir():
        raise IngestionError(f"{directory} is not a directory")
    files = [
        p for p in directory.iterdir()
        if p.is_file() and p.suffix.lower() in IMAGE_SUFFIXES
    ]
    if not files:
        raise IngestionError(f"no PNG or PPM frames in {directory}")
    files.sort(key=lambda p: natural_key(p.name))
    frames = []
    depths = []
    for p in files:
        frame, depth = read_image(p)
        if frames and frame.shape != frames[0].shape:
            raise IngestionError(
                f"{p}: resolution {frame.shape[1:]} differs from "
                f"{frames[0].shape[1:]} in the same clip"
            )
        frames.append(frame)
        depths.append(depth)
    return VideoClip(frames=frames, paths=files, bit_depths=depths)
