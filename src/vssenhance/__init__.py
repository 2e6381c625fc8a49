"""Selective state-space video enhancement.

Building blocks: an autodiff tensor engine, four-direction 2D selective
scanning over a chunked selective state-space scan, VSS-block U-Net
enhancement, pyramid-cascading deformable alignment, gray-world chromatic
adaptation, and PSNR/SSIM metrics, wired together behind a
train/enhance/metrics CLI.
"""

from .align import (
    FeatureExtractor,
    FramePyramid,
    PCDAlign,
    bilinear_gather,
    deformable_conv2d,
    pcd_align,
    resize_bilinear,
)
from .color import (
    Illuminant,
    chromatic_adapt,
    estimate_illuminant,
    psnr,
    ssim,
)
from .config import RunConfig, load_config, parse_config
from .enhance import (
    EnhanceNet,
    EnhanceNetConfig,
    TrainingDiverged,
    VideoEnhancer,
    charbonnier,
    temporal_window,
    training_step,
)
from .imageio import IngestionError, VideoClip, load_clip, read_image, write_image
from .layers import Module, load_checkpoint, save_checkpoint
from .optim import AdamW
from .seeding import derive_rng
from .ss2d import SS2D, SelectiveHead, cross_merge, cross_scan
from .tensor import (
    ConfigurationError,
    ContractError,
    DimensionError,
    Tensor,
    conv2d,
    layer_norm,
    load_tensor,
    matmul,
    no_grad,
    save_tensor,
)
from .vss import VSSBlock

__version__ = "0.1.0"
