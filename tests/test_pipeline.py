"""Frame IO, configuration parsing, and the four CLI commands."""

import csv
import re
import struct
import subprocess
import sys
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vssenhance import cli
from vssenhance.cli import main
from vssenhance.config import (
    SEED_ENV_VAR,
    DataPaths,
    RunConfig,
    TrainSettings,
    load_config,
    parse_config,
)
from vssenhance.enhance import EnhanceNetConfig
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

    @pytest.mark.parametrize("fmt", ["png8", "png16", "ppm1000"])
    def test_read_image_is_one_contiguous_float64_frame(self, tmp_path, rng, fmt):
        # bitwise the three-pass formula it replaced: convert, transpose, divide
        peak = {"png8": 255, "png16": 65535, "ppm1000": 1000}[fmt]
        samples = rng.integers(0, peak + 1, size=(5, 7, 3))
        if fmt == "ppm1000":
            path = tmp_path / "f.ppm"
            path.write_bytes(b"P6\n7 5\n1000\n" + samples.astype(">u2").tobytes())
        else:
            path = tmp_path / "f.png"
            write_image(path, samples.transpose(2, 0, 1) / peak, bit_depth=8 if peak == 255 else 16)
        frame, _ = read_image(path)
        want = np.ascontiguousarray(samples.astype(np.float64).transpose(2, 0, 1) / float(peak))
        assert frame.dtype == np.float64 and frame.flags.c_contiguous
        assert frame.shape == (3, 5, 7) and np.array_equal(frame, want)

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
    @given(seed=st.integers(0, 2**32 - 1),
           kinds=st.sets(st.integers(0, 4), min_size=1).map(sorted))
    # the decoder takes a different path for each set of kinds present: none
    # and sub rows alone skip the wavefront, which computes only the kinds left
    @example(seed=0, kinds=[0])
    @example(seed=1, kinds=[1])
    @example(seed=2, kinds=[2])
    @example(seed=3, kinds=[3])
    @example(seed=4, kinds=[4])
    @example(seed=5, kinds=[1, 4])
    @example(seed=6, kinds=[1, 3])
    @example(seed=7, kinds=[0, 1, 2, 3, 4])
    def test_png_random_row_filters_match_bytewise_oracle(
        self, tmp_path_factory, shape, color_type, bit_depth, seed, kinds
    ):
        # every row takes a filter type drawn from ``kinds``, each kind at
        # least once if there are enough rows; half the images keep every
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
        types = np.concatenate([kinds, r.choice(kinds, size=max(H - len(kinds), 0))])
        types = r.permutation(types)[:H].tolist()
        payload = rfc2083_filter(rows, types, channels * bit_depth // 8)
        path = tmp_path_factory.mktemp("oracle") / "filtered.png"
        path.write_bytes(png_blob(W, H, bit_depth, color_type, payload))
        frame, depth = read_image(path)
        rgb = samples[..., :3] if channels >= 3 else np.repeat(samples[..., :1], 3, axis=2)
        assert depth == bit_depth
        assert np.array_equal(frame, rgb.transpose(2, 0, 1).astype(np.float64) / maxval)

    @pytest.mark.parametrize("color_type", [0, 2, 4, 6])
    def test_png_16bit_big_endian_view_matches_shift_and_or(self, tmp_path, color_type):
        # read_image views 16-bit samples as ">u2"; the formula it replaced
        # joined each byte pair as (high << 8) | low
        r = np.random.default_rng(color_type)
        H, W = 5, 7
        channels = {0: 1, 2: 3, 4: 2, 6: 4}[color_type]
        samples = r.integers(0, 65536, size=(H, W, channels))
        rows = [samples[y].astype(">u2").tobytes() for y in range(H)]
        payload = rfc2083_filter(rows, r.integers(0, 5, size=H).tolist(), channels * 2)
        path = tmp_path / "f.png"
        path.write_bytes(png_blob(W, H, 16, color_type, payload))
        pairs = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(H, W, channels, 2)
        values = (pairs[..., 0].astype(np.uint16) << 8) | pairs[..., 1]
        if channels <= 2:
            values = np.repeat(values[:, :, :1], 3, axis=2)
        want = values[:, :, :3].transpose(2, 0, 1) / 65535.0
        frame, _ = read_image(path)
        assert np.array_equal(frame, want)

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

    def test_repeated_key_rejected_naming_both_lines(self):
        with pytest.raises(ConfigurationError, match="line 3: .*state_dim.* line 2"):
            parse_config("[model]\nstate_dim = 2\nstate_dim = 3\n")
        with pytest.raises(ConfigurationError, match="line 5: .*lr.* line 2"):
            parse_config("[train]\nlr = 0.1\n[model]\n[train]\nlr = 0.2\n")

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "12345")
        cfg = parse_config("[train]\nseed = 7\n")
        assert cfg.train.seed == 12345

    def test_sections_and_keys_are_the_dataclass_fields(self):
        cfg = parse_config("")
        assert cfg == RunConfig()
        for section in fields(RunConfig):
            for key in fields(section.default_factory):
                value = getattr(getattr(cfg, section.name), key.name)
                text = ",".join(map(str, value)) if isinstance(value, tuple) else value
                parsed = parse_config(f"[{section.name}]\n{key.name} = {text}\n")
                assert parsed == cfg, (section.name, key.name)
        # options that are now constants are unknown keys and sections
        with pytest.raises(ConfigurationError, match="unknown key 'ffn_ratio'"):
            parse_config("[model]\nffn_ratio = 2\n")
        with pytest.raises(ConfigurationError, match=r"unknown section \[preprocess\]"):
            parse_config("[preprocess]\nadapt_color = true\n")

    @pytest.mark.parametrize("value", ["1,,1", "2,2,", ",2,2", "", " , "])
    def test_empty_list_items_rejected(self, value):
        with pytest.raises(ConfigurationError,
                           match=r"\[model\] encoder_depths: empty item"):
            parse_config(f"[model]\nencoder_depths = {value}\n")

    @pytest.mark.parametrize("section, key, value, cls", [
        ("model", "num_scales", 9, EnhanceNetConfig),
        ("model", "bottleneck_depth", 0, EnhanceNetConfig),
        ("train", "seed", -5, TrainSettings),
        ("train", "seed", 2**64, TrainSettings),
        ("train", "lr", 1.5, TrainSettings),
        ("train", "weight_decay", 1.0, TrainSettings),
        ("train", "checkpoint_every", 0, TrainSettings),
    ])
    def test_file_and_constructor_fail_the_same_check(self, section, key, value, cls):
        extra = {"num_scales": {"encoder_depths": (1,) * 9, "decoder_depths": (1,) * 9}}
        with pytest.raises(ConfigurationError) as direct:
            cls(**{key: value, **extra.get(key, {})})
        assert str(direct.value).startswith(f"{key} must be ")
        lines = "".join(f"{k} = {','.join(map(str, v))}\n" for k, v in extra.get(key, {}).items())
        with pytest.raises(ConfigurationError) as parsed:
            parse_config(f"[{section}]\n{key} = {value}\n{lines}")
        assert str(parsed.value) == f"[{section}] {direct.value}"

    def test_env_seed_is_range_checked(self, monkeypatch):
        # -5 and 2**64 from the environment: TestCLI's named-error test
        monkeypatch.setenv(SEED_ENV_VAR, str(2**64 - 1))
        assert parse_config("").train.seed == 2**64 - 1
        monkeypatch.setenv(SEED_ENV_VAR, "seven")
        with pytest.raises(ConfigurationError, match=f"{SEED_ENV_VAR}: expected an integer"):
            parse_config("")

    def test_data_checkpoint_dir_must_be_non_empty(self):
        with pytest.raises(ConfigurationError, match=r"\[data\] checkpoint_dir must be"):
            parse_config("[data]\ncheckpoint_dir =\n")
        with pytest.raises(ConfigurationError, match="checkpoint_dir must be non-empty"):
            DataPaths(checkpoint_dir="")

    def test_readme_config_block_parses(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        assert len(blocks) == 1
        cfg = parse_config(blocks[0])
        assert cfg.model == EnhanceNetConfig() and cfg.train.seed == 1234

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

    @pytest.mark.parametrize("unset", ["low_dir", "gt_dir"])
    def test_train_without_a_frame_directory_fails(self, tmp_path, rng, capsys,
                                                   monkeypatch, unset):
        # run from a directory of frames, which an unset key must not read
        config, low_dir, _, ckpt = self._setup_run(tmp_path, rng)
        text = "\n".join(line for line in config.read_text().splitlines()
                         if not line.startswith(unset))
        config.write_text(text)
        monkeypatch.chdir(low_dir)
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("error:") == 1
        assert f"[data] {unset} is not set" in err
        assert not ckpt.exists()

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

    def test_enhance_non_utf8_config_fails(self, tmp_path, rng, capsys):
        _, low_dir, _, _ = self._setup_run(tmp_path, rng)
        config = tmp_path / "utf16.cfg"
        config.write_bytes(b"\xff\xfe[model]\n")
        assert main([
            "enhance", "--config", str(config),
            "--input", str(low_dir), "--output", str(tmp_path / "o"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error: ")
        assert "Traceback" not in err and "utf16.cfg" in err

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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_enhance_non_finite_checkpoint_fails(self, tmp_path, rng, capsys, value):
        # a NaN or inf in the last tensor: no parameter is assigned, and
        # enhance stops with the parameter's name instead of writing frames
        from vssenhance.enhance import VideoEnhancer
        from vssenhance.layers import load_checkpoint
        from vssenhance.tensor import ContractError, load_tensor, save_tensor

        config, low_dir, _, ckpt = self._setup_run(tmp_path, rng)
        config.write_text(config.read_text().replace("steps = 2", "steps = 0"))
        assert main(["train", "--config", str(config)]) == 0
        step = ckpt / "step-000000"
        name, fname = (step / "manifest.txt").read_text().splitlines()[-1].split("\t")[:2]
        bad = load_tensor(step / fname).data.copy()
        bad.reshape(-1)[0] = value
        save_tensor(bad, step / fname)

        model = VideoEnhancer(load_config(config).model, rng)
        before = [p.data.copy() for p in model.parameters()]
        with pytest.raises(ContractError, match=re.escape(name)):
            load_checkpoint(model, step)
        assert all(np.array_equal(p.data, b) for p, b in zip(model.parameters(), before))

        capsys.readouterr()
        out = tmp_path / "o"
        assert main(["enhance", "--config", str(config),
                     "--input", str(low_dir), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("error:") == 1
        assert name in err and "Traceback" not in err
        assert not out.exists()

    def test_enhance_frames_sharing_a_stem_fail_before_loading(self, tmp_path, rng, capsys,
                                                               monkeypatch):
        # a.png and a.ppm would both be written as a.png
        config, _, _, _ = self._setup_run(tmp_path, rng)
        config.write_text(config.read_text().replace("steps = 2", "steps = 0"))
        assert main(["train", "--config", str(config)]) == 0
        clip = tmp_path / "clip"
        frames = [rng.uniform(size=(3, 8, 8)) for _ in range(4)]
        write_clip(clip, frames, names=["a.png", "a.ppm", "b.png", "c.png"])
        loads = []
        monkeypatch.setattr(cli, "load_checkpoint", lambda *a: loads.append(a))
        capsys.readouterr()
        out = tmp_path / "o"
        assert main(["enhance", "--config", str(config),
                     "--input", str(clip), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("error:") == 1
        assert "['a']" in err
        assert loads == [] and not out.exists()

    @staticmethod
    def assert_path_error(code, capsys, path):
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("error:") == 1
        assert str(path) in err and "Traceback" not in err

    def test_train_checkpoint_dir_that_is_a_file_fails(self, tmp_path, rng, capsys):
        config, _, _, ckpt = self._setup_run(tmp_path, rng)
        ckpt.write_text("not a directory")
        self.assert_path_error(main(["train", "--config", str(config)]), capsys, ckpt)

    def test_enhance_output_that_is_a_file_fails(self, tmp_path, rng, capsys):
        config, low_dir, _, _ = self._setup_run(tmp_path, rng)
        config.write_text(config.read_text().replace("steps = 2", "steps = 0"))
        assert main(["train", "--config", str(config)]) == 0
        out = tmp_path / "o"
        out.write_text("not a directory")
        capsys.readouterr()
        code = main(["enhance", "--config", str(config),
                     "--input", str(low_dir), "--output", str(out)])
        self.assert_path_error(code, capsys, out)

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

    def test_adapt_color_flag_alone_switches_adaptation(self, tmp_path, rng):
        # an identity checkpoint passes frames through, so only the flag's
        # gray-world adaptation can move a blue cast toward gray
        config, _, _, _ = self._setup_run(tmp_path, rng)
        config.write_text(config.read_text().replace("steps = 2", "steps = 0"))
        assert main(["train", "--config", str(config)]) == 0
        cast = np.array([0.4, 0.5, 0.9]).reshape(3, 1, 1)
        clip_dir = tmp_path / "cast"
        write_clip(clip_dir, [cast * rng.uniform(0.3, 0.7, size=(3, 8, 8)) for _ in range(3)],
                   bit_depth=16)
        spreads = []
        for flags in ([], ["--adapt-color"]):
            out_dir = tmp_path / f"out{len(flags)}"
            assert main(["enhance", "--config", str(config), *flags,
                         "--input", str(clip_dir), "--output", str(out_dir)]) == 0
            means = np.mean([f.reshape(3, -1).mean(axis=1) for f in load_clip(out_dir).frames],
                            axis=0)
            spreads.append(means.max() / means.min())
        assert spreads[0] > 2.0 and spreads[1] < 1.1

    @pytest.mark.parametrize("seed", [-5, 2**64])
    def test_train_out_of_range_env_seed_is_named_error(self, tmp_path, rng, capsys,
                                                         monkeypatch, seed):
        config, _, _, ckpt = self._setup_run(tmp_path, rng)
        monkeypatch.setenv(SEED_ENV_VAR, str(seed))
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert "[train] seed must be a 64-bit unsigned integer" in err and str(seed) in err
        assert not ckpt.exists()

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

    @pytest.mark.parametrize("fault", ["filter_type", "zero_width", "ppm_zero_width"])
    def test_metrics_bad_png_names_the_file(self, tmp_path, rng, capsys, fault):
        ref_dir, test_dir = tmp_path / "ref", tmp_path / "test"
        frames = [rng.uniform(size=(3, 4, 4)) for _ in range(2)]
        suffix = ".ppm" if fault.startswith("ppm") else ".png"
        write_clip(ref_dir, frames)
        write_clip(test_dir, frames, suffix=suffix)
        if fault == "filter_type":  # 4x4 RGB rows, row 2 with filter byte 5
            payload = b"".join(bytes([5 if y == 2 else 0]) + bytes(12) for y in range(4))
            blob, want = png_blob(4, 4, 8, 2, payload), "row 2"
        elif fault == "zero_width":  # three rows of no pixels, each just its filter byte
            blob, want = png_blob(0, 3, 8, 2, bytes(3)), "PNG image is empty (0x3)"
        else:
            blob, want = b"P6\n0 3\n255\n", "PPM image is empty (0x3)"
        bad = test_dir / f"0001{suffix}"
        bad.write_bytes(blob)
        assert main([
            "metrics", "--ref", str(ref_dir), "--test", str(test_dir),
            "--out", str(tmp_path / "metrics.csv"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err and want in err

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

    @pytest.mark.parametrize("peak", ["nan", "inf"])
    def test_metrics_peak_must_be_finite(self, tmp_path, rng, capsys, monkeypatch, peak):
        frames = [rng.uniform(size=(3, 12, 12)) for _ in range(3)]
        write_clip(tmp_path / "ref", frames)
        write_clip(tmp_path / "test", frames)
        loads = []  # the peak is checked before either clip is decoded
        monkeypatch.setattr(cli, "load_clip", lambda path: loads.append(path) or load_clip(path))
        out = tmp_path / "metrics.csv"
        assert main(["metrics", "--ref", str(tmp_path / "ref"), "--test", str(tmp_path / "test"),
                     "--out", str(out), "--peak", peak]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: psnr peak must be positive and finite, got {peak}")
        assert loads == [] and not out.exists()

    def test_metrics_out_under_a_file_fails(self, tmp_path, rng, capsys):
        frames = [rng.uniform(size=(3, 12, 12))]
        write_clip(tmp_path / "ref", frames)
        write_clip(tmp_path / "test", frames)
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        code = main(["metrics", "--ref", str(tmp_path / "ref"), "--test", str(tmp_path / "test"),
                     "--out", str(blocker / "m.csv")])
        self.assert_path_error(code, capsys, blocker)

    def test_out_creates_missing_directories(self, tmp_path, rng):
        out = tmp_path / "sub" / "dir" / "out.csv"
        frames = [rng.uniform(size=(3, 12, 12))]
        write_clip(tmp_path / "ref", frames)
        write_clip(tmp_path / "test", frames)
        assert main(["metrics", "--ref", str(tmp_path / "ref"), "--test", str(tmp_path / "test"),
                     "--out", str(out)]) == 0
        assert len(list(csv.reader(out.open()))) > 1


def run_python(code: str, *args: str) -> str:
    """Run ``code`` with ``args`` in a fresh interpreter on this process's
    import path; its standard output."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={"PYTHONPATH": ":".join(sys.path)}, check=True)
    return proc.stdout.strip()


class TestProcess:
    def test_cli_import_leaves_out_scipy_linalg(self):
        # nothing in the package uses scipy.linalg, and importing it would
        # cost every command about 6 MB of RSS; this keeps it that way
        assert run_python("import sys, vssenhance.cli; "
                          "print('scipy.linalg' in sys.modules)") == "False"

    def test_cli_import_leaves_out_scipy(self):
        # SciPy is imported by the first GELU or gather: loaded with the
        # package, it would cost a command that runs no model layer about
        # 0.3 s and 20 MB of RSS
        assert run_python("import sys, vssenhance.cli; "
                          "print(sorted(m for m in sys.modules if m.startswith('scipy')))") == "[]"

    def test_model_setup_loads_no_scipy_until_the_first_op(self, tmp_path):
        code = """
import sys
import numpy as np
from vssenhance.enhance import EnhanceNetConfig, VideoEnhancer
from vssenhance.layers import load_checkpoint, save_checkpoint
from vssenhance.tensor import Tensor, no_grad
cfg = EnhanceNetConfig(input_frames=3, feature_channels=4, base_channels=4, state_dim=2,
                       num_scales=2, encoder_depths=(1, 1), decoder_depths=(1, 1),
                       bottleneck_depth=1)
model = VideoEnhancer(cfg, np.random.default_rng(0))
save_checkpoint(model, sys.argv[1])
load_checkpoint(model, sys.argv[1])
print(sorted(m for m in sys.modules if m.startswith("scipy")))
with no_grad():
    model([Tensor(np.full((3, 8, 8), 0.5)) for _ in range(3)])
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
        # the first op loads SciPy's two compiled kernel modules from their
        # files, and none of its packages (scipy, scipy.special, scipy.sparse)
        assert run_python(code, str(tmp_path / "ckpt")).splitlines() == [
            "[]", "['scipy.sparse._sparsetools', 'scipy.special._special_ufuncs']"]

    def test_scipy_imports_after_the_first_op_with_the_same_erf(self):
        code = """
import sys
import numpy as np
from vssenhance.align import bilinear_gather
from vssenhance.tensor import Tensor, _scipy_kernel, gelu
x = np.concatenate([np.nextafter([1.0, 1.0, -1.0, -1.0], [0.0, 2.0, 0.0, -2.0]),
                    [1.0, -1.0, 8.0, -8.0, 27.0, -27.0, 5e-324, -1e-310, np.inf, -np.inf,
                     np.nan]])
erf = _scipy_kernel("special._special_ufuncs", "erf")
mine = erf(x)
f = gelu(Tensor(np.linspace(-2.0, 2.0, 48).reshape(3, 4, 4)))
bilinear_gather(f, np.array([0.5, 2.25]), np.array([1.5, -0.5]))
import scipy.special, scipy.sparse
print(scipy.special.erf is erf, scipy.special.erf(x).tobytes() == mine.tobytes(),
      scipy.sparse.csr_matrix(np.eye(2)).nnz)
"""
        assert run_python(code).split() == ["True", "True", "2"]

    def test_metrics_command_loads_no_scipy(self, tmp_path, rng):
        frames = [rng.uniform(size=(3, 16, 16)) for _ in range(2)]
        write_clip(tmp_path / "ref", frames)
        write_clip(tmp_path / "test", [np.clip(f + 0.05, 0, 1) for f in frames])
        code = """
import sys
from vssenhance.cli import main
code = main(["metrics", "--ref", sys.argv[1], "--test", sys.argv[2], "--out", sys.argv[3]])
print(code, any(m.startswith("scipy") for m in sys.modules))
"""
        out = run_python(code, str(tmp_path / "ref"), str(tmp_path / "test"),
                         str(tmp_path / "m.csv"))
        assert out.splitlines()[-1] == "0 False"

    def test_kept_heap_reuses_freed_buffers_without_page_faults(self):
        # 32 MiB of 2 MiB buffers, freed and made again: glibc's default
        # hands them back and faults them in anew, the kept heap reuses them
        code = """
import resource, sys
import numpy as np
from vssenhance.cli import keep_heap
kept = sys.argv[1:] == ["keep"] and keep_heap()
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    bufs = [np.ones(2**18) for _ in range(16)]
    del bufs
print(kept, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        kept, faults = zip(*(run_python(code, *args).split() for args in ([], ["keep"])))
        if kept[1] != "True":
            pytest.skip("no glibc mallopt")
        assert int(faults[0]) > 2000 and int(faults[1]) < 200, faults
