"""Scaling-law fitting, contrastive-entropy evaluation, and FLOPs-budgeted
capacity planning for dense retrieval embeddings."""

__version__ = "0.1.0"

from .core import (DataError, NumericError, Observation, ObservationTable,
                   SweepConfig, expand_sweep, filter_by, parse_observations,
                   serialize_observations)
from .metrics import (BatchQueryScores, EvalConfig, QueryScoreRecord,
                      TeacherMargin, combined_loss, contrastive_entropy_dataset,
                      contrastive_entropy_query, contrastive_entropy_records,
                      contrastive_entropy_single, contrastive_loss_grad,
                      margin_mse, margin_mse_grad, parse_score_records,
                      recall_at_k, rr_at_k, sample_negatives)
from .embed import (EmbeddingMatrix, Projection, l2_normalize, load_matrix,
                    mean_pool, project, save_matrix, score_pairs)
from .fit import (DIM_LAW, JOINT_LAW, LAWS, ConvergenceReport, FitOptions,
                  LawFit, fit_from_report, fit_law, fit_to_report,
                  least_squares, predict, r_squared)
from .plan import (AllocationResult, BudgetCurve, BudgetSpec,
                   allocation_from_gamma, budget_curve, flops_encode,
                   flops_score, optimal_allocation, round_dim, round_params)

__all__ = [
    "__version__",
    "DataError", "NumericError", "Observation", "ObservationTable",
    "SweepConfig", "expand_sweep", "filter_by", "parse_observations",
    "serialize_observations",
    "BatchQueryScores", "EvalConfig", "QueryScoreRecord", "TeacherMargin",
    "combined_loss", "contrastive_entropy_dataset", "contrastive_entropy_query",
    "contrastive_entropy_records", "contrastive_entropy_single",
    "contrastive_loss_grad",
    "margin_mse", "margin_mse_grad", "parse_score_records", "recall_at_k",
    "rr_at_k", "sample_negatives",
    "EmbeddingMatrix", "Projection", "l2_normalize", "load_matrix",
    "mean_pool", "project", "save_matrix", "score_pairs",
    "DIM_LAW", "JOINT_LAW", "LAWS", "ConvergenceReport", "FitOptions",
    "LawFit", "fit_from_report", "fit_law", "fit_to_report", "least_squares",
    "predict", "r_squared",
    "AllocationResult", "BudgetCurve", "BudgetSpec", "allocation_from_gamma",
    "budget_curve", "flops_encode", "flops_score", "optimal_allocation",
    "round_dim", "round_params",
]
