"""Scaling-law fitting, contrastive-entropy evaluation, and FLOPs-budgeted
capacity planning for dense retrieval embeddings.

Every submodule loads on first use of one of its names (PEP 562), so a
command pays only for the modules it runs: the CLI's eval-ce alone loads
metrics, fit alone loads fit and plan alone loads plan, and nothing the
CLI runs loads embed, which imports numpy.
"""

__version__ = "0.1.0"

from importlib import import_module

_LAZY = {
    "core": ("DataError", "NumericError", "Observation", "ObservationTable",
             "expand_sweep", "filter_by", "parse_observations"),
    "fit": ("ConvergenceReport", "fit_law", "least_squares"),
    "law": ("DIM_LAW", "JOINT_LAW", "LAWS", "LawFit", "fit_from_report",
            "fit_to_report", "predict", "r_squared"),
    "plan": ("AllocationResult", "BudgetCurve", "BudgetSpec",
             "allocation_from_gamma", "budget_curve", "flops_encode",
             "flops_score", "optimal_allocation", "round_dim", "round_params"),
    "metrics": ("EvalConfig", "QueryScoreRecord", "TeacherMargin",
                "contrastive_entropy_dataset", "contrastive_entropy_query",
                "contrastive_entropy_single", "contrastive_loss_grad",
                "iter_score_records", "margin_mse", "margin_mse_grad",
                "recall_at_k", "rr_at_k", "sample_negatives"),
    "embed": ("EmbeddingMatrix", "Projection", "l2_normalize", "load_matrix",
              "project", "save_matrix", "score_pairs"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_HOME[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
