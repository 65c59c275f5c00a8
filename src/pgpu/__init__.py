"""Positive-unlabelled learning via observed probability gaps.

Pipeline: estimate P(s=+1|x) from the PU labels with a calibrated kernel SVM,
relabel the instances whose observed gap makes their latent label certain,
correct the induced sampling bias with kernel mean matching, and train a
weighted SVM on the relabelled sample. Synthetic benchmark generators, the
standard baselines, and an experiment harness are included.
Lower-level functions live in the submodules (``pgpu.svm``, ``pgpu.kmm``, ...).
"""

from .core import FlipRateSpec, observed_gap
from .datagen import (
    PUDataset,
    estimate_clean_gap,
    flip_labels,
    gen_overlap_square,
    gen_triangles,
    load_csv,
    rank_normalized_gap,
    save_csv,
    split,
)
from .harness import (
    ExperimentConfig,
    ResultRecord,
    config_from_dict,
    run_elkan,
    run_pgpu,
    run_suite,
    run_svm_naive,
    write_results,
)
from .kernels import KernelSpec, SplitKernel, default_kernel

__all__ = [
    # data
    "PUDataset", "gen_triangles", "gen_overlap_square", "estimate_clean_gap",
    "rank_normalized_gap", "flip_labels", "split", "load_csv", "save_csv",
    # methods and experiment suites
    "run_pgpu", "run_elkan", "run_svm_naive", "ExperimentConfig", "config_from_dict",
    "run_suite", "ResultRecord", "write_results",
    # configuration
    "FlipRateSpec", "KernelSpec",
    # lower level: the split's kernel matrix and its observed gaps
    "SplitKernel", "default_kernel", "observed_gap",
]

__version__ = "0.1.0"
