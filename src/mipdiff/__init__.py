"""Directional diffusion filtering for intensity-projected MR volumes."""

from .diffusion import (
    DEFAULT_ALPHA,
    MIP_MIN_NU,
    AdaptiveParams,
    BoundPair,
    FilterTrace,
    HysteresisParams,
    PMParams,
    default_delta,
    directional_step,
    histogram_bounds,
    hysteresis_filter,
    pm_step,
    run_directional_ad,
    run_filter,
    run_orthogonal,
    run_pm,
)
from .fields import as_field, as_volume
from .fileio import (
    DimensionError,
    MagicMismatchError,
    NonFiniteValueError,
    TruncatedPayloadError,
    VolumeIOError,
    VolumeWriter,
    export_pgm,
    iter_slices,
    read_volume,
    write_volume,
)
from .metrics import (
    Roi,
    contrast_per_pixel,
    contrast_ratio,
    psnr_vs_input,
    psnr_vs_reference,
)
from .phantom import (
    ChannelSpec,
    PhantomOutput,
    PhantomSpec,
    TubeSpec,
    default_venous_spec,
    dip_amplitude,
    generate,
    generate_flow,
)
from .phased_array import (
    combine_flow,
    filter_synthesized_scale,
    pa_combine,
    pc_pipeline,
)
from .projection import (
    PhaseMaskParams,
    phase_mask,
    project,
    project_slices,
    swi_pipeline,
)

__version__ = "0.1.0"
