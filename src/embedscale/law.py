"""What a scaling law is, and how to evaluate and serialize one, with math only.

Both laws are one model over K inputs, L(x) = sum_k c_k / x_k^e_k + delta:
K = 1 for the dimension-only law, L(D) = A / D^alpha + delta, and K = 2
for the joint law, L(D, N) = A / D^alpha + B / (N/1e6)^beta + delta. They
share one record, LawFit, and one evaluator, _value, behind both predict
and fit_law's r2; LAWS looks a law up by the name its reports carry.
Every LawFit field after params is the fit-report key of that name, and
_FIELDS lists them. Only math is used here; embedscale.fit holds the
engine that fits.
"""

from __future__ import annotations

from math import exp, fsum, inf, isfinite, log
from sys import float_info
from typing import Sequence

from .core import DataError, NumericError, record

MILLION = 1e6


@record
class PowerLaw:
    """L(x) = sum_k c_k * x_k^(-e_k) + delta over K inputs.

    The first input is the embedding dimension (>= 1); any others are
    positive. param_names names the parameters (c_1..c_K, e_1..e_K, delta)
    in that order.
    """

    name: str
    param_names: tuple[str, ...]

    @property
    def n_terms(self) -> int:
        return len(self.param_names) // 2


DIM_LAW = PowerLaw("dim", ("a_coeff", "alpha", "delta"))
JOINT_LAW = PowerLaw("joint", ("a_coeff", "b_coeff", "alpha", "beta", "delta"))
LAWS = {law.name: law for law in (DIM_LAW, JOINT_LAW)}


@record
class LawFit:
    """A fitted law: its model, natural parameters and diagnostics.

    params follows model.param_names, and each parameter also reads by
    name (fit.alpha, fit.b_coeff). The joint law's b_coeff is calibrated
    against parameter counts in millions; predict does the division.
    Every field after params is the report key of that name (_FIELDS);
    multistart_index is the start the fit descended from, a flat
    profile-grid cell.
    """

    model: PowerLaw
    params: tuple[float, ...]
    r2: float
    residual_norm: float
    n_points: int
    converged: bool = True
    multistart_index: int = 0
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        names = self.model.param_names
        if len(self.params) != len(names):
            raise DataError(f"{self.model.name} law takes {len(names)} parameters "
                            f"{names}, got {len(self.params)}")
        if not all(map(isfinite, self.params)):
            raise DataError(f"parameters must be finite, got {self.params}")
        if not all(value > 0 for value in self.params[:-1]):
            raise DataError(f"{', '.join(names[:-1])} must be positive")
        if self.params[-1] < 0:
            raise DataError("delta must be nonnegative")
        if self.r2 > 1.0:
            raise DataError(f"r2 must be <= 1, got {self.r2}")

    def __getattr__(self, name):
        """A parameter by name, e.g. fit.alpha; called only for non-fields."""
        model = vars(self).get("model")
        if model is None or name not in model.param_names:
            raise AttributeError(f"LawFit has no attribute {name!r}")
        return self.params[model.param_names.index(name)]


def _term(c: float, x, scale: float, e: float) -> float:
    """c / (x/scale)^e; in log space where x/scale or the power is not normal."""
    try:
        base = float(x) / scale
        power = base ** e
        if min(base, power) >= float_info.min:   # full precision, and not 0
            return c / power
    except OverflowError:
        pass
    try:
        return exp(log(c) - e * (log(x) - log(scale)))
    except OverflowError:
        return inf


def _value(params: Sequence[float], k: int, point) -> float:
    """The K-input law with params at point = (d, n_params), raw units.

    Only the first k inputs are read; n_params is divided by MILLION.
    """
    return (sum(map(_term, params[:k], point, (1.0, MILLION), params[k:2 * k]))
            + params[-1])


def predict(fit: LawFit, d, n_params=None) -> float:
    """The fitted law at dimension d and, for the joint law, n_params.

    d is a positive real: observed dimensions are integers, but the law is
    defined on the whole positive axis. n_params is a raw parameter count
    (not millions); the dimension law ignores it.

    Raises:
        DataError: d not positive, or a needed n_params not positive and
            finite (at infinity the law is only its limit).
        NumericError: the value is not finite, even in log space.
    """
    if not d > 0:
        raise DataError(f"dimension must be positive, got {d}")
    k = fit.model.n_terms
    if k > 1 and (n_params is None or not 0 < n_params < inf):
        raise DataError(f"n_params must be positive and finite, got {n_params}")
    value = _value(fit.params, k, (d, n_params))
    if not isfinite(value):
        raise NumericError(f"fitted law is not finite at {(d, n_params)[:k]}: {value}")
    return value


def r_squared(predictions: Sequence[float], targets: Sequence[float]) -> float:
    """Coefficient of determination in raw target space.

    Raises:
        DataError: length mismatch, empty input, or all-identical targets
            (zero total variance).
    """
    if len(predictions) != len(targets) or not targets:
        raise DataError(
            f"predictions ({len(predictions)}) and targets ({len(targets)}) "
            "must be equal-length and nonempty"
        )
    ss_res = fsum((p - t) ** 2 for p, t in zip(predictions, targets))
    return 1.0 - ss_res / total_variance(targets)


def total_variance(targets: Sequence[float]) -> float:
    """Sum of squared deviations of nonempty targets from their mean, inf
    when it exceeds a double.

    Raises:
        DataError: all-identical targets (zero total variance).
    """
    try:
        mean = fsum(targets) / len(targets)
        ss_tot = fsum((t - mean) ** 2 for t in targets)
    except OverflowError:
        return inf
    if ss_tot == 0.0:
        raise DataError("zero total variance: targets are all identical")
    return ss_tot


def fit_to_report(fit: LawFit) -> dict:
    """Serialize a fit to report JSON."""
    parameters = dict(zip(fit.model.param_names, fit.params))
    if fit.model is JOINT_LAW:
        parameters["param_unit"] = "millions"
    report = {"law": fit.model.name, "parameters": parameters,
              **{key: getattr(fit, key) for key in _FIELDS}}
    report["warnings"] = list(fit.warnings)
    return report


# What each report field must hold (type() is exact, so a bool is not a
# number; a count, a norm or an index is never negative), and the defaults
# of the fields a report may omit.
_HOLDS = {"a finite number": lambda v: type(v) in (int, float) and isfinite(v),
          "a nonnegative finite number":
          lambda v: type(v) in (int, float) and isfinite(v) and v >= 0,
          "a nonnegative integer": lambda v: type(v) is int and v >= 0,
          "true or false": lambda v: type(v) is bool,
          "a list of strings": lambda v: type(v) is list
          and all(type(w) is str for w in v)}
_FIELDS = {"r2": "a finite number", "residual_norm": "a nonnegative finite number",
           "n_points": "a nonnegative integer", "converged": "true or false",
           "multistart_index": "a nonnegative integer", "warnings": "a list of strings"}
_OPTIONAL = {"converged": True, "multistart_index": 0, "warnings": []}


def fit_from_report(obj) -> LawFit:
    """Rebuild a fit from report JSON; inverse of fit_to_report.

    Raises:
        DataError: anything but a JSON object of a known law with an object
            of finite, in-range parameters and every diagnostic field, each
            of its JSON type (a bool is not a number) and range: a count,
            norm or index below 0 is refused.
    """
    if not (isinstance(obj, dict) and isinstance(obj.get("parameters"), dict)):
        raise DataError("malformed fit report: the report and its parameters "
                        "must be JSON objects")
    params = obj["parameters"]
    try:
        if obj["law"] not in LAWS:
            raise DataError(f"unknown law {obj['law']!r} in fit report")
        model = LAWS[obj["law"]]
        if params.get("param_unit", "millions") != "millions":
            raise DataError(f"param_unit must be 'millions', got {params['param_unit']!r}")
        values = tuple(params[name] for name in model.param_names)
        fields = {**_OPTIONAL, **obj, **dict(zip(model.param_names, values))}
        for key, what in {**dict.fromkeys(model.param_names, "a finite number"),
                          **_FIELDS}.items():
            if not _HOLDS[what](fields[key]):
                raise DataError(f"malformed fit report: {key} must be {what}")
        fields["warnings"] = tuple(fields["warnings"])
        return LawFit(model, values, **{key: fields[key] for key in _FIELDS})
    except (KeyError, TypeError, OverflowError) as exc:
        raise DataError(f"malformed fit report: {exc}") from None
