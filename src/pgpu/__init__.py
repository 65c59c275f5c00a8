"""Positive-unlabelled learning via observed probability gaps.

Pipeline: estimate P(s=+1|x) from the PU labels with a calibrated kernel SVM,
relabel the instances whose observed gap makes their latent label certain,
correct the induced sampling bias with kernel mean matching, and train a
weighted SVM on the relabelled sample. Synthetic benchmark generators, the
standard baselines, and an experiment harness are included.
"""

from .core import (
    BOUNDARY_GRID,
    KMM_GAMMA_SCALE,
    FlipRateSpec,
    GapEstimate,
    PipelineConfig,
    RelabelResult,
    estimate_boundary_cv,
    estimate_boundary_min,
    fit_relabelled_classifier,
    forward_gap,
    monotone_rate,
    observed_gap,
    relabel,
)
from .datagen import (
    PUDataset,
    estimate_clean_gap,
    flip_labels,
    gen_overlap_square,
    gen_triangles,
    load_csv,
    overlap_positive_prob,
    rank_normalized_gap,
    save_csv,
    split,
    upper_triangle_mask,
)
from .harness import (
    ExperimentConfig,
    ResultRecord,
    config_from_dict,
    config_to_dict,
    derive_seed,
    elkan_weights,
    evaluate,
    run_elkan,
    run_pgpu,
    run_suite,
    run_svm_naive,
    summarize,
    write_results,
)
from .kernels import KernelSpec, SplitKernel, default_kernel, gram_matrix, kernel_eval
from .kmm import BetaWeights, KmmConfig, default_epsilon, solve_kmm
from .svm import (
    PlattCalibration,
    SvmConfig,
    SvmModel,
    decision_value,
    decision_values,
    fit_platt,
    predict_proba,
    predict_proba_batch,
    smo_solve,
    train_prob_svm,
    train_weighted_svm,
)

__version__ = "0.1.0"
