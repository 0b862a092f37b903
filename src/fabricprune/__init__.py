"""Convolutional network fabrics: training, structured pruning, label noise."""

from .data import (
    AugmentConfig,
    ImageDataset,
    RecordLayout,
    augment,
    load_binary_records,
    make_synthetic,
)
from .fabric import (
    Fabric,
    Link,
    ParamBreakdown,
    build_fabric,
    export_dot,
    load_fabric,
    longest_linear_path,
    param_breakdown,
    save_fabric,
)
from .noise import (
    AnnotatorConfig,
    FittingReport,
    fitting_report,
    flip_labels,
    relabel_with_annotator,
    train_annotator,
)
from .pruning import (
    Criterion,
    PruneEvent,
    PrunePlan,
    Strategy,
    apply_event,
    build_plan,
    reported_param_count,
    sensitivity_grads,
)
from .runner import (
    ConfigError,
    DataConfig,
    ExperimentConfig,
    NoiseConfig,
    PruneConfig,
    lr_at,
    run_experiment,
)
from .tensor import SGD, Parameter, SgdConfig, Tensor, backward, no_grad

__version__ = "0.1.0"
