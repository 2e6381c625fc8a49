"""Frame IO, configuration parsing, and the four CLI commands."""

import csv
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vssenhance.cli import main
from vssenhance.config import SEED_ENV_VAR, load_config, parse_config
from vssenhance.imageio import (
    IngestionError,
    load_clip,
    natural_key,
    read_image,
    write_image,
)
from vssenhance.tensor import ConfigurationError


@pytest.fixture
def rng():
    return np.random.default_rng(8080)


def write_clip(directory, frames, bit_depth=8, suffix=".png", names=None):
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, frame in enumerate(frames):
        name = names[i] if names else f"{i:04d}{suffix}"
        path = directory / name
        write_image(path, frame, bit_depth=bit_depth)
        paths.append(path)
    return paths


def png_blob(W, H, bit_depth, color_type, payload):
    """A PNG holding ``payload`` (filter bytes and filtered rows) as its image data."""

    def chunk(tag, body):
        crc = zlib.crc32(tag + body) & 0xFFFFFFFF
        return struct.pack(">I", len(body)) + tag + body + struct.pack(">I", crc)

    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", struct.pack(">IIBBBBB", W, H, bit_depth, color_type, 0, 0, 0))
        + chunk(b"IDAT", zlib.compress(bytes(payload)))
        + chunk(b"IEND", b"")
    )


def rfc2083_filter(rows, types, bpp):
    """Filter each row of image bytes by its type (RFC 2083 section 6), one
    byte at a time: the reference the decoder is checked against."""

    def paeth(a, b, c):
        p = a + b - c
        pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
        if pa <= pb and pa <= pc:
            return a
        return b if pb <= pc else c

    payload = bytearray()
    prior = bytes(len(rows[0]))
    for row, ftype in zip(rows, types):
        payload.append(ftype)
        for i, x in enumerate(row):
            a = row[i - bpp] if i >= bpp else 0
            b = prior[i]
            c = prior[i - bpp] if i >= bpp else 0
            pred = (0, a, b, (a + b) // 2, paeth(a, b, c))[ftype]
            payload.append((x - pred) % 256)
        prior = row
    return payload


BASE_CONFIG = """
[model]
input_frames = 3
feature_channels = 4
base_channels = 4
state_dim = 2
num_scales = 2
encoder_depths = 1,1
decoder_depths = 1,1
bottleneck_depth = 1

[train]
lr = 2e-3
steps = 2
seed = 99
batch = 1
checkpoint_every = 100

[data]
low_dir = {low}
gt_dir = {gt}
checkpoint_dir = {ckpt}
"""


class TestImageIO:
    def test_png_8bit_roundtrip(self, tmp_path, rng):
        frame = rng.integers(0, 256, size=(3, 9, 7)).astype(np.float64) / 255.0
        path = tmp_path / "f.png"
        write_image(path, frame, bit_depth=8)
        back, depth = read_image(path)
        assert depth == 8
        assert np.array_equal(back, frame)

    def test_png_16bit_roundtrip_full_precision(self, tmp_path, rng):
        values = rng.integers(0, 65536, size=(3, 6, 6))
        frame = values.astype(np.float64) / 65535.0
        path = tmp_path / "f.png"
        write_image(path, frame, bit_depth=16)
        back, depth = read_image(path)
        assert depth == 16
        assert np.array_equal(back, frame)

    def test_ppm_roundtrip(self, tmp_path, rng):
        frame = rng.integers(0, 256, size=(3, 4, 5)).astype(np.float64) / 255.0
        path = tmp_path / "f.ppm"
        write_image(path, frame, bit_depth=8)
        back, depth = read_image(path)
        assert depth == 8
        assert np.array_equal(back, frame)

    def test_black_ppm_is_zeros(self, tmp_path):
        path = tmp_path / "black.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        frame, depth = read_image(path)
        assert np.array_equal(frame, np.zeros((3, 2, 2)))

    def test_png_filtered_rows_decode(self, tmp_path, rng):
        # hand-build a PNG using Sub and Up filters; compare against a
        # straight row-by-row reconstruction of the same payload
        W, H = 5, 4
        rows = rng.integers(0, 256, size=(H, W * 3), dtype=np.uint8)
        raw = bytearray()
        recon_prev = np.zeros(W * 3, dtype=np.int64)
        expected = np.zeros((H, W * 3), dtype=np.uint8)
        for r in range(H):
            if r % 2 == 0:  # sub filter
                filt = np.zeros(W * 3, dtype=np.int64)
                filt[:3] = rows[r, :3]
                filt[3:] = (rows[r, 3:].astype(np.int64) - rows[r, :-3]) % 256
                raw.append(1)
            else:  # up filter
                filt = (rows[r].astype(np.int64) - expected[r - 1]) % 256
                raw.append(2)
            expected[r] = rows[r]
            raw += filt.astype(np.uint8).tobytes()
        import struct

        def chunk(tag, payload):
            crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
            return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)

        blob = (
            b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", W, H, 8, 2, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(bytes(raw)))
            + chunk(b"IEND", b"")
        )
        path = tmp_path / "filtered.png"
        path.write_bytes(blob)
        frame, _ = read_image(path)
        assert np.array_equal(
            np.rint(frame * 255).astype(np.uint8),
            expected.reshape(H, W, 3).transpose(2, 0, 1),
        )

    @pytest.mark.parametrize("bit_depth", [8, 16])
    def test_png_average_and_paeth_rows_decode(self, tmp_path, rng, bit_depth):
        # hand-filter an RGB image per RFC 2083 section 6 (filter types 3 and
        # 4, first row included) and check the decoded samples bit for bit
        import struct

        W, H = 6, 5
        maxval = (1 << bit_depth) - 1
        samples = rng.integers(0, maxval + 1, size=(H, W, 3))
        samples[1] = maxval - samples[0]  # large steps between rows
        # a paeth tie between up and upper-left (a=110, b=80, c=100 in every
        # byte at row 2, column 1), which the predictor must resolve to up
        unit = maxval // 255
        samples[1, 0], samples[1, 1], samples[2, 0] = 100 * unit, 80 * unit, 110 * unit
        dtype = ">u2" if bit_depth == 16 else np.uint8
        raw_rows = [bytes(samples[r].astype(dtype).tobytes()) for r in range(H)]
        bpp = 3 * bit_depth // 8

        def paeth(a, b, c):
            p = a + b - c
            pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            if pa <= pb and pa <= pc:
                return a
            return b if pb <= pc else c

        payload = bytearray()
        prior = bytes(len(raw_rows[0]))
        for r, row in enumerate(raw_rows):
            ftype = 4 if r % 2 == 0 else 3
            payload.append(ftype)
            for i, x in enumerate(row):
                a = row[i - bpp] if i >= bpp else 0
                b = prior[i]
                c = prior[i - bpp] if i >= bpp else 0
                pred = paeth(a, b, c) if ftype == 4 else (a + b) // 2
                payload.append((x - pred) % 256)
            prior = row

        def chunk(tag, body):
            crc = zlib.crc32(tag + body) & 0xFFFFFFFF
            return struct.pack(">I", len(body)) + tag + body + struct.pack(">I", crc)

        path = tmp_path / "avg_paeth.png"
        path.write_bytes(
            b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", W, H, bit_depth, 2, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(bytes(payload)))
            + chunk(b"IEND", b"")
        )
        frame, depth = read_image(path)
        assert depth == bit_depth
        assert np.array_equal(frame, samples.transpose(2, 0, 1).astype(np.float64) / maxval)

    @pytest.mark.parametrize("shape", [(1, 7), (6, 1), (9, 4), (3, 8)])
    @pytest.mark.parametrize("color_type", [0, 2, 4, 6])
    @pytest.mark.parametrize("bit_depth", [8, 16])
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_png_random_row_filters_match_bytewise_oracle(
        self, tmp_path_factory, shape, color_type, bit_depth, seed
    ):
        # every row takes a random filter type 0-4; half the images keep every
        # byte in {0, 10, 20, 30}, where paeth's distances tie often (left 30,
        # up 0, upper-left 20 ties up with upper-left, which must pick up)
        r = np.random.default_rng(seed)
        H, W = shape
        channels = {0: 1, 2: 3, 4: 2, 6: 4}[color_type]
        maxval = (1 << bit_depth) - 1
        if seed % 2:
            samples = r.integers(0, maxval + 1, size=(H, W, channels))
        else:
            samples = r.integers(0, 4, size=(H, W, channels)) * 10 * (maxval // 255)
        dtype = ">u2" if bit_depth == 16 else np.uint8
        rows = [samples[y].astype(dtype).tobytes() for y in range(H)]
        types = r.integers(0, 5, size=H).tolist()
        payload = rfc2083_filter(rows, types, channels * bit_depth // 8)
        path = tmp_path_factory.mktemp("oracle") / "filtered.png"
        path.write_bytes(png_blob(W, H, bit_depth, color_type, payload))
        frame, depth = read_image(path)
        rgb = samples[..., :3] if channels >= 3 else np.repeat(samples[..., :1], 3, axis=2)
        assert depth == bit_depth
        assert np.array_equal(frame, rgb.transpose(2, 0, 1).astype(np.float64) / maxval)

    def test_unreadable_file_names_the_file(self, tmp_path):
        bad = tmp_path / "broken.png"
        bad.write_bytes(b"\x89PNG\r\n\x1a\n garbage")
        with pytest.raises(IngestionError, match="broken.png"):
            read_image(bad)

    def test_natural_sort(self):
        names = ["10.png", "2.png", "0001.png"]
        assert sorted(names, key=natural_key) == ["0001.png", "2.png", "10.png"]

    def test_load_clip_orders_numerically(self, tmp_path, rng):
        frames = [rng.uniform(size=(3, 4, 4)) for _ in range(2)]
        write_clip(tmp_path / "clip", frames, names=["2.png", "10.png"])
        clip = load_clip(tmp_path / "clip")
        assert [p.name for p in clip.paths] == ["2.png", "10.png"]

    def test_load_clip_counts_and_shapes(self, tmp_path, rng):
        frames = [rng.uniform(size=(3, 8, 8)) for _ in range(5)]
        write_clip(tmp_path / "clip", frames)
        clip = load_clip(tmp_path / "clip")
        assert len(clip) == 5
        assert clip.frames[0].shape == (3, 8, 8)

    def test_mixed_resolutions_rejected(self, tmp_path, rng):
        d = tmp_path / "clip"
        write_clip(d, [rng.uniform(size=(3, 8, 8))], names=["0.png"])
        write_clip(d, [rng.uniform(size=(3, 6, 8))], names=["1.png"])
        with pytest.raises(IngestionError, match="resolution"):
            load_clip(d)

    def test_empty_directory_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(IngestionError):
            load_clip(tmp_path / "empty")


class TestConfig:
    def test_parse_and_defaults(self, tmp_path):
        cfg = parse_config(BASE_CONFIG.format(low="a", gt="b", ckpt="c"))
        assert cfg.model.input_frames == 3
        assert cfg.train.lr == 2e-3
        assert cfg.preprocess.adapt_color is False

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            parse_config("[train]\nlearning_rate = 0.1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown section"):
            parse_config("[optimizer]\nlr = 0.1\n")

    def test_range_validation(self):
        with pytest.raises(ConfigurationError):
            parse_config("[model]\ninput_frames = 4\n")
        with pytest.raises(ConfigurationError):
            parse_config("[train]\nlr = -1\n")

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "12345")
        cfg = parse_config("[train]\nseed = 7\n")
        assert cfg.train.seed == 12345

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "nope.cfg")


class TestCLI:
    def _setup_run(self, tmp_path, rng, frames=4, size=8):
        low_dir = tmp_path / "low"
        gt_dir = tmp_path / "gt"
        gts = [rng.uniform(0.2, 0.9, size=(3, size, size)) for _ in range(frames)]
        lows = [np.clip(0.1 * g + rng.normal(0, 0.01, g.shape), 0, 1) for g in gts]
        write_clip(low_dir, lows)
        write_clip(gt_dir, gts)
        ckpt_dir = tmp_path / "ckpt"
        config = tmp_path / "run.cfg"
        config.write_text(
            BASE_CONFIG.format(low=low_dir, gt=gt_dir, ckpt=ckpt_dir)
        )
        return config, low_dir, gt_dir, ckpt_dir

    def test_train_zero_steps_writes_initial_checkpoint(self, tmp_path, rng):
        config, _, _, ckpt = self._setup_run(tmp_path, rng)
        text = config.read_text().replace("steps = 2", "steps = 0")
        config.write_text(text)
        assert main(["train", "--config", str(config)]) == 0
        assert (ckpt / "step-000000" / "manifest.txt").exists()
        log = (ckpt / "loss_log.csv").read_text().splitlines()
        assert log == ["step,loss,wall_ms"]

    def test_train_then_enhance_identity(self, tmp_path, rng):
        # zero-step checkpoint has zero-initialized projections: enhancement
        # must reproduce its input bitwise
        config, low_dir, _, ckpt = self._setup_run(tmp_path, rng)
        config.write_text(config.read_text().replace("steps = 2", "steps = 0"))
        assert main(["train", "--config", str(config)]) == 0
        out_dir = tmp_path / "out"
        assert main([
            "enhance", "--config", str(config),
            "--input", str(low_dir), "--output", str(out_dir),
        ]) == 0
        for name in sorted(p.name for p in low_dir.iterdir()):
            a = (low_dir / name).read_bytes()
            b = (out_dir / name).read_bytes()
            assert a == b, f"{name} changed during identity enhancement"

    def test_train_determinism_bitwise_loss_log(self, tmp_path, rng):
        config, _, _, ckpt = self._setup_run(tmp_path, rng)
        import shutil

        def run_and_read():
            if ckpt.exists():
                shutil.rmtree(ckpt)
            assert main(["train", "--config", str(config)]) == 0
            rows = list(csv.reader((ckpt / "loss_log.csv").open()))
            return [(r[0], r[1]) for r in rows]  # wall_ms is not seed-controlled

        assert run_and_read() == run_and_read()

    def test_enhance_determinism(self, tmp_path, rng):
        config, low_dir, _, _ = self._setup_run(tmp_path, rng)
        assert main(["train", "--config", str(config)]) == 0
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert main([
                "enhance", "--config", str(config),
                "--input", str(low_dir), "--output", str(out),
            ]) == 0
        for name in sorted(p.name for p in out1.iterdir()):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_enhance_missing_checkpoint_fails(self, tmp_path, rng):
        config, low_dir, _, _ = self._setup_run(tmp_path, rng)
        assert main([
            "enhance", "--config", str(config),
            "--input", str(low_dir), "--output", str(tmp_path / "o"),
        ]) == 1

    def test_enhance_missing_config_fails(self, tmp_path, rng, capsys):
        _, low_dir, _, _ = self._setup_run(tmp_path, rng)
        assert main([
            "enhance", "--config", str(tmp_path / "absent.cfg"),
            "--input", str(low_dir), "--output", str(tmp_path / "o"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "absent.cfg" in err

    def test_enhance_mismatched_checkpoint_fails(self, tmp_path, rng, capsys):
        config, low_dir, _, _ = self._setup_run(tmp_path, rng)
        config.write_text(config.read_text().replace("steps = 2", "steps = 0"))
        assert main(["train", "--config", str(config)]) == 0
        config.write_text(
            config.read_text().replace("bottleneck_depth = 1", "bottleneck_depth = 2")
        )
        assert main([
            "enhance", "--config", str(config),
            "--input", str(low_dir), "--output", str(tmp_path / "o"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint does not match the model")

    @pytest.mark.parametrize("damage", ["short_line", "missing_tensor"])
    def test_enhance_damaged_checkpoint_fails(self, tmp_path, rng, capsys, damage):
        config, low_dir, _, ckpt = self._setup_run(tmp_path, rng)
        config.write_text(config.read_text().replace("steps = 2", "steps = 0"))
        assert main(["train", "--config", str(config)]) == 0
        manifest = ckpt / "step-000000" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        if damage == "short_line":
            lines[2] = lines[2].rsplit("\t", 1)[0]
            manifest.write_text("\n".join(lines) + "\n")
        else:
            (ckpt / "step-000000" / lines[2].split("\t")[1]).unlink()
        capsys.readouterr()
        assert main([
            "enhance", "--config", str(config),
            "--input", str(low_dir), "--output", str(tmp_path / "o"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "manifest.txt:3:" in err

    def test_train_unpaired_frames_fail_listing_orphans(self, tmp_path, rng, capsys):
        config, low_dir, gt_dir, _ = self._setup_run(tmp_path, rng)
        (gt_dir / "0003.png").rename(gt_dir / "0009.png")
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "0003.png" in err and "0009.png" in err

    def test_train_mismatched_pair_shapes_fail_before_any_checkpoint(self, tmp_path, rng,
                                                                      capsys):
        config, low_dir, gt_dir, ckpt = self._setup_run(tmp_path, rng, size=32)
        write_clip(gt_dir, [rng.uniform(0.2, 0.9, size=(3, 16, 16)) for _ in range(4)])
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert "0000.png" in err and "(3, 32, 32)" in err and "(3, 16, 16)" in err
        assert not ckpt.exists()

    def test_enhance_with_color_adaptation(self, tmp_path, rng):
        config, low_dir, _, _ = self._setup_run(tmp_path, rng)
        assert main(["train", "--config", str(config)]) == 0
        out_dir = tmp_path / "adapted"
        assert main([
            "enhance", "--config", str(config), "--adapt-color",
            "--input", str(low_dir), "--output", str(out_dir),
        ]) == 0
        assert len(list(out_dir.iterdir())) == 4

    def test_enhance_extracts_each_frame_once(self, tmp_path, rng, monkeypatch):
        # the sliding window keeps each frame's pyramid while a window holds
        # it; the PNGs equal running the model on each window from scratch
        from vssenhance.align import FeatureExtractor
        from vssenhance.config import load_config
        from vssenhance.enhance import VideoEnhancer, temporal_window
        from vssenhance.layers import save_checkpoint
        from vssenhance.seeding import derive_rng
        from vssenhance.tensor import Tensor, no_grad

        from helpers import perturbed

        config, _, _, ckpt = self._setup_run(tmp_path, rng)
        config.write_text(config.read_text().replace("input_frames = 3", "input_frames = 5"))
        cfg = load_config(config)
        model = perturbed(VideoEnhancer(cfg.model, derive_rng(0, "model")), rng)
        save_checkpoint(model, ckpt / "step-000000")
        clip_dir = tmp_path / "clip"
        write_clip(clip_dir, [rng.uniform(size=(3, 10, 12)) for _ in range(7)], bit_depth=16)

        calls = []
        extract = FeatureExtractor.__call__
        monkeypatch.setattr(
            FeatureExtractor, "__call__",
            lambda self, frame: calls.append(frame.data.copy()) or extract(self, frame),
        )
        out_dir = tmp_path / "out"
        assert main([
            "enhance", "--config", str(config),
            "--input", str(clip_dir), "--output", str(out_dir),
        ]) == 0
        clip = load_clip(clip_dir)
        assert len(calls) == len(clip)
        for frame, called in zip(clip.frames, calls):
            assert np.array_equal(called, frame)

        monkeypatch.setattr(FeatureExtractor, "__call__", extract)
        tensors = [Tensor(f) for f in clip.frames]
        for t, path in enumerate(clip.paths):
            with no_grad():
                want = model(temporal_window(tensors, t, 5), clamp_output=True)
            write_image(tmp_path / "want.png", want.data, bit_depth=16)
            assert (out_dir / path.name).read_bytes() == (tmp_path / "want.png").read_bytes()

    @pytest.mark.parametrize("fault", ["filter_type", "zero_width"])
    def test_metrics_bad_png_names_the_file(self, tmp_path, rng, capsys, fault):
        ref_dir, test_dir = tmp_path / "ref", tmp_path / "test"
        frames = [rng.uniform(size=(3, 4, 4)) for _ in range(2)]
        write_clip(ref_dir, frames)
        write_clip(test_dir, frames)
        if fault == "filter_type":  # 4x4 RGB rows, row 2 with filter byte 5
            payload = b"".join(bytes([5 if y == 2 else 0]) + bytes(12) for y in range(4))
            blob, want = png_blob(4, 4, 8, 2, payload), "row 2"
        else:  # three rows of no pixels, each just its filter byte
            blob, want = png_blob(0, 3, 8, 2, bytes(3)), "empty"
        (test_dir / "0001.png").write_bytes(blob)
        assert main([
            "metrics", "--ref", str(ref_dir), "--test", str(test_dir),
            "--out", str(tmp_path / "metrics.csv"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(test_dir / "0001.png") in err and want in err

    def test_metrics_csv(self, tmp_path, rng):
        ref_dir, test_dir = tmp_path / "ref", tmp_path / "test"
        refs = [rng.uniform(size=(3, 16, 16)) for _ in range(3)]
        tests = [np.clip(r + rng.normal(0, 0.05, r.shape), 0, 1) for r in refs]
        write_clip(ref_dir, refs)
        write_clip(test_dir, tests)
        out = tmp_path / "metrics.csv"
        assert main([
            "metrics", "--ref", str(ref_dir), "--test", str(test_dir),
            "--out", str(out),
        ]) == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["frame_index", "psnr_db", "ssim"]
        assert len(rows) == 4
        for idx, row in enumerate(rows[1:]):
            assert int(row[0]) == idx
            assert 10.0 < float(row[1]) < 40.0
            assert -1.0 <= float(row[2]) <= 1.0

    def test_scan_bench_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main([
            "scan-bench", "--lengths", "16,64", "--dims", "2,4",
            "--repeats", "3", "--out", str(out),
        ]) == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["mode", "L", "d", "median_ns", "max_abs_disagreement"]
        assert len(rows) == 1 + 3 * 2 * 2
        for row in rows[1:]:
            assert row[0] in ("sequential", "parallel", "convolutional")
            assert int(row[3]) > 0
            assert float(row[4]) <= 1e-8
