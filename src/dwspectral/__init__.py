"""Diffusion-weighted MR phantom synthesis, ADC mapping, multispectral
classification (polynomial net / MLP / Kohonen SOM) and noise sweeps."""

__version__ = "0.1.0"

from .core_image import (
    Band,
    ClassLabel,
    LabelMap,
    SampleSet,
    SpectralStack,
    extract_band_samples,
    extract_samples,
    load_band,
    load_labelmap,
    load_stack,
    save_band,
    save_labelmap,
    save_stack,
)
from .physics import (
    AcquisitionParams,
    PhantomSpec,
    TissueParams,
    add_noise_to_stack,
    b_value,
    default_phantom_spec,
    render_phantom,
    signal,
)
from .adc import AdcConfig, adc_map, adc_map_raw, load_adc_raw, save_adc_pgm, save_adc_raw
from .classifiers import (
    MlpConfig,
    MlpModel,
    PolyModel,
    SomConfig,
    SomModel,
    classify,
    expand_quadratic,
    label_som,
    load_model,
    save_model,
    train_ko_adc,
    train_mlp,
    train_polynomial,
    train_som,
)
from .metrics import (
    ConfusionMatrix,
    MetricsReport,
    VolumeReport,
    confusion,
    kappa,
    metrics_report,
    overall_accuracy,
    volumes,
)
from .harness import (
    ExperimentConfig,
    load_experiment_config,
    run_baseline,
    run_sweep,
)
