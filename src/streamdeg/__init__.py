"""Degree-based anomaly detection and identification in link streams."""

from .config import RunConfig, load_config
from .linkstream import (
    DegreeProfile,
    LinkStream,
    MeanDegreeSeries,
    build_stream,
    normalize_degrees,
)
from .pipeline import (
    ClassLabel,
    Event,
    IdentificationResult,
    IdentifiedSet,
    PipelineParams,
    classify_classes,
    detect_events,
    identify_event,
    run_identification,
)
from .reporting import (
    OverlapReport,
    SweepReport,
    ValidationReport,
    jaccard,
    label_overlap,
    run_pipeline_once,
    sweep,
    validate_removal,
)
from .robust_stats import (
    GrubbsResult,
    NormalFit,
    PowerLawVerdict,
    fit_homogeneous,
    grubbs_critical,
    grubbs_prune,
    ks_two_sample,
    power_law_test,
    three_sigma_outliers,
)
from .slicing import (
    ClassScheme,
    FractionMatrix,
    TimeSliceGrid,
    build_class_scheme,
    build_normalized_scheme,
    fraction_matrix,
    ks_similarity_report,
    slice_value_measures,
)
from .trace_io import (
    GroundTruth,
    ScenarioSpec,
    TraceMeta,
    Triplet,
    Triplets,
    TruthEntry,
    generate_synthetic,
    parse_trace,
    read_ground_truth,
    write_ground_truth,
    write_trace,
)

__version__ = "0.1.0"
