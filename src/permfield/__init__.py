"""Extreme values of the log-characteristic-polynomial field of random
permutation matrices: exact cycle samplers, fast field scans, the
rate-function pipeline, Diophantine arc arithmetic, and a reproducible
Monte Carlo experiment harness."""

from .arith import (
    ArcClassification,
    BohrSpec,
    arithmetic_distance,
    classify,
    major_ranges,
    mesh_bohr_count,
    torus_norm,
    vinogradov_detect,
)
from .cycles import (
    CycleCounts,
    exact_cycle_type_probability,
    sample_cycle_structure,
    sample_poisson_counts,
)
from .field import (
    FieldSpec,
    Mesh,
    NEG_INF,
    ScanResult,
    arg_term,
    eval_point,
    log_abs_term,
    scan_max,
)
from .kronecker import FourierRow, decay_envelope, log_average, phi_hat
from .ratefn import (
    LOG2,
    RateSolution,
    bahadur_rao_tail,
    iid_tail,
    legendre,
    log_mgf,
    log_mgf_derivs,
    log_mgf_quad,
    sample_tilted_v,
    solve_critical,
    tilted_tail_estimate,
)
from .reports import VERSION, ExperimentConfig, ExperimentReport
from .streams import stream

__version__ = VERSION
