"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import csv
import shutil
import time
from contextlib import contextmanager

import numpy as np
import pytest

from vssenhance.align import bilinear_gather, deformable_conv2d
from vssenhance.cli import main
from vssenhance.color import (
    D65_WHITE_RGB,
    Illuminant,
    adaptation_transform,
    chromatic_adapt,
    estimate_illuminant,
    psnr,
    srgb_decode,
    srgb_encode,
    ssim,
)
from vssenhance.enhance import (
    EnhanceNetConfig,
    VideoEnhancer,
    enhance_forward,
    training_step,
)
from vssenhance.imageio import write_image
from vssenhance.optim import AdamW
from vssenhance.ss2d import SS2D, cross_merge, cross_scan, ss2d_forward
from vssenhance.ssm import (
    DiscreteSSM,
    SelectiveHead,
    discretize_zoh,
    random_ssm,
    scan_convolutional,
    scan_parallel,
    scan_sequential,
    selective_parameterize,
)
from vssenhance.tensor import Tensor, conv2d, layer_norm, matmul, no_grad
from vssenhance.vss import VSSBlock, vss_forward

from helpers import check_gradients


@contextmanager
def criterion(number: int, title: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL - {title}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, (
        f"criterion {number} exceeded its runtime budget: {elapsed:.1f}s >= {budget_s}s"
    )
    print(f"ACCEPTANCE {number:2d} PASS - {title} ({elapsed:.1f}s)")


def test_01_scan_mode_equivalence():
    with criterion(1, "sequential/parallel/convolutional scans agree within 1e-8", 30):
        rng = np.random.default_rng(101)
        combos = [(d, L) for d in (1, 4, 16) for L in (1, 7, 64, 1024)]
        for i in range(100):
            d, L = combos[i % len(combos)]
            ssm = discretize_zoh(random_ssm(d, rng), float(rng.uniform(0.02, 0.3)))
            x = Tensor(rng.normal(size=L))
            with no_grad():
                seq = scan_sequential(ssm, x).data
                par = scan_parallel(ssm, x).data
                conv = scan_convolutional(ssm, x).data
            assert np.abs(seq - par).max() < 1e-8
            assert np.abs(seq - conv).max() < 1e-8
            assert np.abs(par - conv).max() < 1e-8


def test_02_zoh_correctness():
    with criterion(2, "ZOH scan matches the analytic continuous solution within 1e-6", 5):
        rng = np.random.default_rng(202)
        for _ in range(50):
            sys = random_ssm(1, rng)
            delta = float(rng.uniform(0.01, 0.5))
            u0 = float(rng.normal())
            L = int(rng.integers(5, 80))
            disc = discretize_zoh(sys, delta)
            with no_grad():
                y = scan_sequential(disc, Tensor(np.full(L, u0))).data
            a = float(sys.a.data[0])
            b = float(sys.b.data[0, 0])
            c = float(sys.c.data[0, 0])
            ts = delta * np.arange(1, L + 1)
            h_cont = (b * u0 / a) * (np.exp(a * ts) - 1.0)
            y_cont = c * h_cont + sys.d * u0
            assert np.abs(y - y_cont).max() < 1e-6


def test_03_cross_scan_round_trip():
    with criterion(3, "cross_merge(cross_scan(G)) == 4G bitwise for all H, W <= 16", 5):
        counter = 0
        for H in range(1, 17):
            for W in range(1, 17):
                grid = np.arange(2 * H * W, dtype=np.float64).reshape(2, H, W)
                grid += counter
                counter += 1
                tokens = Tensor(grid.reshape(2, H * W).T)
                out = cross_merge(cross_scan(tokens, H, W), H, W)
                assert np.array_equal(out.data.T.reshape(2, H, W), 4.0 * grid)


def test_04_gradient_suite():
    with criterion(4, "finite-difference gradient checks across every operation", 120):
        rng = np.random.default_rng(404)

        # matmul
        check_gradients(
            lambda ts: matmul(ts[0], ts[1]).sum(),
            [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))],
        )
        # layer_norm
        mix = rng.normal(size=(2, 5))
        check_gradients(
            lambda ts: (layer_norm(ts[0], ts[1], ts[2]) * Tensor(mix)).sum(),
            [rng.normal(size=(2, 5)), rng.normal(size=5), rng.normal(size=5)],
        )
        # conv2d
        cmix = rng.normal(size=(3, 2, 3))
        check_gradients(
            lambda ts: (conv2d(ts[0], ts[1], stride=2, pad=1) * Tensor(cmix)).sum(),
            [rng.normal(size=(2, 4, 5)), rng.normal(size=(3, 2, 3, 3))],
        )
        # bilinear_sample (gather form), off-integer coordinates
        gmix = rng.normal(size=(2, 6))
        ys = rng.uniform(0.25, 3.65, size=6).round(2) + 0.13
        xs = rng.uniform(0.25, 3.65, size=6).round(2) + 0.17
        check_gradients(
            lambda ts: (bilinear_gather(ts[0], ts[1], ts[2]) * Tensor(gmix)).sum(),
            [rng.normal(size=(2, 5, 5)), ys, xs],
            rtol=1e-3,
        )
        # deformable_conv2d
        dmix = rng.normal(size=(2, 3, 3))
        check_gradients(
            lambda ts: (
                deformable_conv2d(ts[0], ts[1], ts[2]) * Tensor(dmix)
            ).sum(),
            [
                rng.normal(size=(2, 3, 3)),
                rng.uniform(0.15, 0.45, size=(18, 3, 3)),
                rng.normal(size=(2, 2, 3, 3)),
            ],
            rtol=1e-3,
        )
        # the three scans, gradients to parameters and input
        smix = rng.normal(size=8)

        def scan_loss(fn):
            def loss(ts):
                ssm = DiscreteSSM(
                    a_bar=ts[0], b_bar=ts[1], c=ts[2], d=0.3, delta=0.1, state_dim=4
                )
                return (fn(ssm, ts[3]) * Tensor(smix)).sum()

            return loss

        scan_arrays = [
            rng.uniform(0.1, 0.9, size=4),
            rng.normal(size=(4, 1)),
            rng.normal(size=(1, 4)),
            rng.normal(size=8),
        ]
        for fn in (scan_sequential, scan_parallel, scan_convolutional):
            check_gradients(scan_loss(fn), [a.copy() for a in scan_arrays])

        # selective parameterization feeding a scan
        selmix = rng.normal(size=5)

        def selective_loss(ts):
            head = SelectiveHead(w_b=ts[1], w_c=ts[2], w_delta=ts[3], b_delta=ts[4])
            params = selective_parameterize(ts[0], head, ts[5], 0.2)
            return (scan_parallel(params, ts[6]) * Tensor(selmix)).sum()

        check_gradients(
            selective_loss,
            [
                rng.normal(size=(5, 3)),
                rng.normal(size=(3, 2)),
                rng.normal(size=(3, 2)),
                rng.normal(size=(3, 1)),
                np.array([-2.0]),
                np.array([-0.6, -1.5]),
                rng.normal(size=5),
            ],
        )

        # ss2d_forward, gradients to input and all branch weights
        C, H, W, d = 2, 3, 3, 2
        ss2d = SS2D(channels=C, state_dim=d, rng=rng)
        ssmix = rng.normal(size=(C, H, W))
        ss2d_arrays = [rng.normal(size=(C, H, W))] + [
            p.data.copy() for p in ss2d.parameters()
        ]

        def ss2d_loss(ts):
            probe = SS2D(channels=C, state_dim=d, rng=np.random.default_rng(0))
            it = iter(ts[1:])
            for head in probe.heads:
                head.w_b, head.w_c = next(it), next(it)
                head.w_delta, head.b_delta = next(it), next(it)
            probe.a_log = next(it)
            probe.skip = next(it)
            tokens = ts[0].reshape(C, H * W).transpose(1, 0)
            out = ss2d_forward(tokens, H, W, probe).transpose(1, 0).reshape(C, H, W)
            return (out * Tensor(ssmix)).sum()

        check_gradients(ss2d_loss, ss2d_arrays)

        # vss_forward, gradients to input and every block parameter
        C, H, W = 4, 2, 3
        block = VSSBlock(channels=C, state_dim=2, rng=rng)
        block.scan_project.weight.data = rng.normal(0, 0.3, size=(C, C))
        block.ffn.project.weight.data = rng.normal(
            0, 0.3, size=block.ffn.project.weight.shape
        )
        vmix = rng.normal(size=(C, H, W))
        vss_arrays = [rng.normal(size=(C, H, W))] + [
            p.data.copy() for p in block.parameters()
        ]

        def vss_loss(ts):
            probe = VSSBlock(channels=C, state_dim=2, rng=np.random.default_rng(0))
            for (name, _), t in zip(probe.named_parameters(), ts[1:]):
                obj = probe
                *path, leaf = name.split(".")
                for part in path:
                    obj = obj[int(part)] if part.isdigit() else getattr(obj, part)
                setattr(obj, leaf, t)
            return (vss_forward(ts[0], probe) * Tensor(vmix)).sum()

        check_gradients(vss_loss, vss_arrays)

        # enhance_forward, gradients to the aligned features and center frame
        cfg = EnhanceNetConfig(
            input_frames=1, feature_channels=2, base_channels=2, state_dim=2,
            num_scales=1, encoder_depths=(1,), decoder_depths=(1,), bottleneck_depth=1,
        )
        from vssenhance.enhance import EnhanceNet

        net = EnhanceNet(cfg, rng)
        for name, p in net.named_parameters():
            if np.all(p.data == 0) and name.endswith("weight"):
                p.data = rng.normal(0, 0.05, size=p.shape)
        emix = rng.normal(size=(3, 4, 4))
        check_gradients(
            lambda ts: (
                enhance_forward(ts[0].reshape(2, 1, 4, 4), ts[1], net) * Tensor(emix)
            ).sum(),
            [rng.normal(size=(2, 4, 4)), rng.uniform(size=(3, 4, 4))],
        )


ACCEPT_CONFIG = """
[model]
input_frames = 3
feature_channels = 8
base_channels = 8
state_dim = 4
num_scales = 2
encoder_depths = 1,1
decoder_depths = 1,1
bottleneck_depth = 1

[train]
lr = 2e-3
steps = {steps}
seed = 7777
batch = 1
checkpoint_every = 1000

[data]
low_dir = {low}
gt_dir = {gt}
checkpoint_dir = {ckpt}
"""


def _write_clip(directory, frames, bit_depth=8):
    directory.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        write_image(directory / f"{i:04d}.png", frame, bit_depth=bit_depth)


def test_05_identity_at_init(tmp_path):
    with criterion(5, "zero-init cmd_enhance reproduces a 5-frame 64x64 clip bitwise", 10):
        rng = np.random.default_rng(505)
        frames = [rng.uniform(size=(3, 64, 64)) for _ in range(5)]
        low = tmp_path / "low"
        _write_clip(low, frames)
        _write_clip(tmp_path / "gt", frames)
        config = tmp_path / "run.cfg"
        config.write_text(
            ACCEPT_CONFIG.format(steps=0, low=low, gt=tmp_path / "gt", ckpt=tmp_path / "ck")
        )
        assert main(["train", "--config", str(config)]) == 0
        out = tmp_path / "out"
        assert main([
            "enhance", "--config", str(config), "--input", str(low), "--output", str(out),
        ]) == 0
        for i in range(5):
            name = f"{i:04d}.png"
            assert (low / name).read_bytes() == (out / name).read_bytes()


def _synthetic_pair(rng):
    """A structured bright 64x64 scene and its dark noisy counterpart."""
    yy, xx = np.meshgrid(np.linspace(0, 1, 64), np.linspace(0, 1, 64), indexing="ij")
    waves = np.stack([0.5 + 0.4 * np.sin(6 * xx + c) * np.cos(5 * yy - c) for c in range(3)])
    bright = np.clip(0.5 * waves + 0.4 * rng.uniform(size=(3, 64, 64)), 0.02, 0.98)
    bright = 0.6 * bright + 0.4 * np.stack([yy, xx, 1 - yy])
    dark = 0.1 * bright + rng.normal(0.0, 0.02, size=bright.shape)
    return bright, dark


def test_06_toy_overfit():
    with criterion(6, "500 training steps gain >= 10 dB PSNR on a synthetic pair", 600):
        rng = np.random.default_rng(1234)
        cfg = EnhanceNetConfig(
            input_frames=1, feature_channels=8, base_channels=8, state_dim=4,
            num_scales=2, encoder_depths=(1, 1), decoder_depths=(1, 1),
            bottleneck_depth=1,
        )
        model = VideoEnhancer(cfg, rng)
        bright, dark = _synthetic_pair(np.random.default_rng(42))
        input_psnr = psnr(np.clip(dark, 0.0, 1.0), bright)
        window = [Tensor(dark)] * cfg.input_frames
        batch = [(window, Tensor(bright))]
        optimizer = AdamW(model.parameters(), lr=2e-3)
        for _ in range(500):
            training_step(model, optimizer, batch)
        with no_grad():
            out = model(window, clamp_output=True).data
        output_psnr = psnr(out, bright)
        print(f"    toy overfit: input {input_psnr:.2f} dB -> output {output_psnr:.2f} dB")
        assert output_psnr >= input_psnr + 10.0


def test_07_metric_correctness():
    with criterion(7, "PSNR/SSIM reproduce their closed-form examples", 1):
        a = np.zeros((3, 12, 12))
        b = np.full((3, 12, 12), 16.0)
        assert abs(psnr(a, b, peak=255.0) - 24.0494) < 1e-3

        img = np.random.default_rng(707).uniform(size=(3, 16, 16))
        assert ssim(img, img) == 1.0

        peak = 1.0
        c1 = (0.01 * peak) ** 2
        closed_form = c1 / (peak**2 + c1)
        got = ssim(np.zeros((1, 12, 12)), np.full((1, 12, 12), peak), peak=peak)
        assert abs(got - closed_form) < 1e-9


def test_08_chromatic_adaptation():
    with criterion(8, "adaptation identity, white mapping, and cast equalization", 1):
        rng = np.random.default_rng(808)
        frame = rng.uniform(0.05, 0.95, size=(3, 8, 8))
        ill = Illuminant(rgb=(0.45, 0.55, 0.65))
        assert np.abs(chromatic_adapt(frame, ill, ill) - frame).max() < 1e-9

        src = Illuminant(rgb=(0.3, 0.5, 0.7))
        dst = Illuminant(rgb=D65_WHITE_RGB)
        t = adaptation_transform(src, dst)
        mapped = t.apply(srgb_decode(np.asarray(src.rgb)).reshape(3, 1))[:, 0]
        assert np.abs(mapped - srgb_decode(np.asarray(dst.rgb))).max() < 1e-6

        base = rng.uniform(0.25, 0.75, size=(3, 32, 32))
        cast = srgb_encode(srgb_decode(base) * np.array([0.3, 0.5, 0.7])[:, None, None])
        out = chromatic_adapt(cast, estimate_illuminant(cast), dst)
        means = out.reshape(3, -1).mean(axis=1)
        assert means.max() / means.min() < 1.1


def test_09_linear_time_scan(tmp_path):
    with criterion(9, "scan-bench: linear band for sequential/parallel, quadratic conv", 120):
        out = tmp_path / "bench.csv"
        assert main([
            "scan-bench", "--lengths", "1024,8192", "--dims", "16",
            "--repeats", "15", "--out", str(out),
        ]) == 0
        timings = {}
        with open(out) as fh:
            for row in csv.DictReader(fh):
                timings[(row["mode"], int(row["L"]))] = int(row["median_ns"])
        for mode in ("sequential", "parallel"):
            ratio = timings[(mode, 8192)] / timings[(mode, 1024)]
            print(f"    {mode}: 8192/1024 time ratio {ratio:.2f}")
            assert 5.0 <= ratio <= 13.0, f"{mode} ratio {ratio:.2f} outside linear band"
        conv_ratio = timings[("convolutional", 8192)] / timings[("convolutional", 1024)]
        print(f"    convolutional: 8192/1024 time ratio {conv_ratio:.2f}")
        assert conv_ratio > 16.0


def test_10_determinism(tmp_path):
    with criterion(10, "seeded training and enhancement are bitwise reproducible", 120):
        rng = np.random.default_rng(1010)
        gts = [rng.uniform(0.2, 0.9, size=(3, 16, 16)) for _ in range(3)]
        lows = [np.clip(0.1 * g + rng.normal(0, 0.01, g.shape), 0, 1) for g in gts]
        low, gt = tmp_path / "low", tmp_path / "gt"
        _write_clip(low, lows)
        _write_clip(gt, gts)
        ckpt = tmp_path / "ck"
        config = tmp_path / "run.cfg"
        config.write_text(ACCEPT_CONFIG.format(steps=3, low=low, gt=gt, ckpt=ckpt))

        def train_losses():
            if ckpt.exists():
                shutil.rmtree(ckpt)
            assert main(["train", "--config", str(config)]) == 0
            with open(ckpt / "loss_log.csv") as fh:
                return [(r["step"], r["loss"]) for r in csv.DictReader(fh)]

        first = train_losses()
        second = train_losses()
        assert first == second and len(first) == 3

        outs = []
        for name in ("o1", "o2"):
            out_dir = tmp_path / name
            assert main([
                "enhance", "--config", str(config), "--input", str(low),
                "--output", str(out_dir),
            ]) == 0
            outs.append(sorted(out_dir.iterdir()))
        for a, b in zip(*outs):
            assert a.read_bytes() == b.read_bytes()
