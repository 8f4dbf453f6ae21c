"""One-shot domain-adaptive semantic segmentation, desk scale."""

__version__ = "0.1.0"

from .autograd import Tensor, backward, cross_entropy_pixelwise  # noqa: F401
from .evalmetrics import ConfusionMatrix, IoUReport, accumulate, iou_report  # noqa: F401
from .mixer import MixPair, SampledClassSet, build_mask, mix, mix_with_ground_truth, sample_classes  # noqa: F401
from .segmodel import (  # noqa: F401
    AttentionPairing,
    ModelConfig,
    ModelParams,
    attention,
    build_class_bias,
    forward,
    forward_cross,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from .styletransfer import FdaConfig, build_pseudo_target, fda_stylize  # noqa: F401
from .synthdata import (  # noqa: F401
    DomainSample,
    DomainTag,
    LayoutMode,
    SceneSpec,
    generate_dataset,
    read_dataset,
    read_image,
    read_label,
    write_dataset,
    write_image,
    write_label,
)
from .trainer import LossReport, TrainConfig, TrainData, pseudo_label, train, train_step  # noqa: F401
