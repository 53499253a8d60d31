"""Experiment configuration: a single JSON file with problem/solver/outputs sections.

Every solver knob has a documented default, all defaults are materialized on
parse, and serialize -> parse is the identity, so configs are reproducible
artifacts. Validation is eager and names the offending field.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidParameterError
from .lattice import DEFAULT_ENUMERATION_CAP, TimeGrid, VolatilityBand
from .loss import LossSpec
from .registry import finite_float, make_coefficient, make_loss, make_payoff
from .sde import Coefficients, PicardConfig

MODES = ("full_sde", "sp_only", "gexp_probe")

# loss families whose growth constant depends on the horizon
_HORIZON_AWARE_LOSSES = {"linear", "smooth_sin"}
# LossConfig fields that, when set, replace the loss's declared constants
_LOSS_OVERRIDES = ("c_l", "C_l", "kappa_growth")


@dataclass(frozen=True)
class SelectorConfig:
    """A registry reference: name plus parameter overrides."""

    name: str
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}


@dataclass(frozen=True)
class LossConfig(SelectorConfig):
    """Loss selection; optional overrides replace the declared constants
    (useful to probe how the solvers react to wrong declarations)."""

    c_l: float | None = None
    C_l: float | None = None
    kappa_growth: float | None = None

    def to_dict(self) -> dict:
        out = super().to_dict()
        out.update({"c_l": self.c_l, "C_l": self.C_l, "kappa_growth": self.kappa_growth})
        return out


@dataclass(frozen=True)
class ProblemConfig:
    x0: float = 0.0
    horizon: float = 1.0
    n_steps: int = 8
    sigma_low_sq: float = 1.0
    sigma_high_sq: float = 4.0
    p: float = 2.0
    b: SelectorConfig = field(default_factory=lambda: SelectorConfig("zero"))
    h: SelectorConfig = field(default_factory=lambda: SelectorConfig("zero"))
    sigma: SelectorConfig = field(
        default_factory=lambda: SelectorConfig("constant_sigma", {"a": 1.0})
    )
    loss: LossConfig = field(default_factory=lambda: LossConfig("linear", {"c0": 0.0, "c1": 1.0}))
    payoff: SelectorConfig | None = None


@dataclass(frozen=True)
class OutputsConfig:
    csv: str = "trace.csv"
    report: str = "report.json"


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "full_sde"
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    solver: PicardConfig = field(default_factory=PicardConfig)
    outputs: OutputsConfig = field(default_factory=OutputsConfig)

    # -- builders -----------------------------------------------------------

    def band(self) -> VolatilityBand:
        try:
            classical = self.problem.sigma_low_sq == self.problem.sigma_high_sq
            return VolatilityBand(
                self.problem.sigma_low_sq, self.problem.sigma_high_sq, classical=classical
            )
        except InvalidParameterError as exc:
            raise ConfigError(
                f"problem.sigma_low_sq={self.problem.sigma_low_sq} / "
                f"problem.sigma_high_sq={self.problem.sigma_high_sq}: {exc}"
            ) from None

    def grid(self) -> TimeGrid:
        try:
            return TimeGrid(self.problem.horizon, self.problem.n_steps)
        except InvalidParameterError as exc:
            raise ConfigError(f"problem.horizon/problem.n_steps: {exc}") from None

    def loss_spec(self) -> LossSpec:
        cfg = self.problem.loss
        params = dict(cfg.params)
        if cfg.name in _HORIZON_AWARE_LOSSES and "horizon" not in params:
            params["horizon"] = self.problem.horizon
        overrides = {
            key: getattr(cfg, key)
            for key in _LOSS_OVERRIDES
            if getattr(cfg, key) is not None
        }
        try:
            spec = make_loss(cfg.name, params)
            if overrides:
                spec = dataclasses.replace(spec, **overrides)
        except InvalidParameterError as exc:
            raise ConfigError(f"problem.loss: {exc}") from None
        return spec

    def coefficients(self) -> Coefficients:
        b = make_coefficient(self.problem.b.name, self.problem.b.params)
        h = make_coefficient(self.problem.h.name, self.problem.h.params)
        sigma = make_coefficient(self.problem.sigma.name, self.problem.sigma.params)
        kappa = max(b.lipschitz + h.lipschitz + sigma.lipschitz, 1e-9)
        return Coefficients(b=b.fn, h=h.fn, sigma=sigma.fn, kappa=kappa)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        p = self.problem
        return {
            "mode": self.mode,
            "problem": {
                "x0": p.x0,
                "horizon": p.horizon,
                "n_steps": p.n_steps,
                "sigma_low_sq": p.sigma_low_sq,
                "sigma_high_sq": p.sigma_high_sq,
                "p": p.p,
                "b": p.b.to_dict(),
                "h": p.h.to_dict(),
                "sigma": p.sigma.to_dict(),
                "loss": p.loss.to_dict(),
                "payoff": None if p.payoff is None else p.payoff.to_dict(),
            },
            "solver": dataclasses.asdict(self.solver),
            "outputs": dataclasses.asdict(self.outputs),
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _require_mapping(obj, where: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    return obj


def _reject_unknown(data: dict, allowed: set[str], where: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(unknown)}")


def _number(data: dict, key: str, where: str, default, optional: bool = False) -> float | None:
    """The finite number at ``key``; with ``optional``, null reads as None."""
    value = data.get(key, default)
    if optional and value is None:
        return None
    number = finite_float(value)
    if number is None:
        or_null = " or null" if optional else ""
        raise ConfigError(f"{where}.{key} must be a finite number{or_null}, got {value!r}")
    return number


def _integer(data: dict, key: str, where: str, default, optional: bool = False) -> int | None:
    """The integer at ``key``; with ``optional``, null reads as None."""
    value = data.get(key, default)
    if optional and value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        or_null = " or null" if optional else ""
        raise ConfigError(f"{where}.{key} must be an integer{or_null}, got {value!r}")
    return value


def _selector(data, where: str, default: SelectorConfig | None) -> SelectorConfig | None:
    if data is None:
        return default
    data = _require_mapping(data, where)
    _reject_unknown(data, {"name", "params"}, where)
    if "name" not in data or not isinstance(data["name"], str):
        raise ConfigError(f"{where}.name must be a string")
    params = _require_mapping(data.get("params"), f"{where}.params")
    return SelectorConfig(data["name"], dict(params))


def _loss_selector(data, where: str, default: LossConfig) -> LossConfig:
    if data is None:
        return default
    data = _require_mapping(data, where)
    selector = _selector(
        {k: v for k, v in data.items() if k not in _LOSS_OVERRIDES}, where, None
    )
    overrides = {key: _number(data, key, where, None, optional=True) for key in _LOSS_OVERRIDES}
    return LossConfig(selector.name, selector.params, **overrides)


def config_from_dict(raw: dict) -> ExperimentConfig:
    raw = _require_mapping(raw, "config")
    _reject_unknown(raw, {"mode", "problem", "solver", "outputs"}, "config")
    mode = raw.get("mode", "full_sde")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")

    pd = _require_mapping(raw.get("problem"), "problem")
    _reject_unknown(
        pd,
        {"x0", "horizon", "n_steps", "sigma_low_sq", "sigma_high_sq", "p",
         "b", "h", "sigma", "loss", "payoff"},
        "problem",
    )
    defaults = ProblemConfig()
    problem = ProblemConfig(
        x0=_number(pd, "x0", "problem", defaults.x0),
        horizon=_number(pd, "horizon", "problem", defaults.horizon),
        n_steps=_integer(pd, "n_steps", "problem", defaults.n_steps),
        sigma_low_sq=_number(pd, "sigma_low_sq", "problem", defaults.sigma_low_sq),
        sigma_high_sq=_number(pd, "sigma_high_sq", "problem", defaults.sigma_high_sq),
        p=_number(pd, "p", "problem", defaults.p),
        b=_selector(pd.get("b"), "problem.b", defaults.b),
        h=_selector(pd.get("h"), "problem.h", defaults.h),
        sigma=_selector(pd.get("sigma"), "problem.sigma", defaults.sigma),
        loss=_loss_selector(pd.get("loss"), "problem.loss", defaults.loss),
        payoff=_selector(pd.get("payoff"), "problem.payoff", None),
    )

    sd = _require_mapping(raw.get("solver"), "solver")
    _reject_unknown(
        sd,
        {"tol", "max_iter", "contraction_guard", "delta_initial_steps",
         "delta_min_steps", "initial_guess"},
        "solver",
    )
    sdef = PicardConfig()
    solver_fields = {
        "tol": _number(sd, "tol", "solver", sdef.tol),
        "max_iter": _integer(sd, "max_iter", "solver", sdef.max_iter),
        "contraction_guard": _number(sd, "contraction_guard", "solver", sdef.contraction_guard),
        "delta_initial_steps": _integer(
            sd, "delta_initial_steps", "solver", sdef.delta_initial_steps, optional=True
        ),
        "delta_min_steps": _integer(sd, "delta_min_steps", "solver", sdef.delta_min_steps),
        "initial_guess": _number(sd, "initial_guess", "solver", sdef.initial_guess, optional=True),
    }
    try:
        solver = PicardConfig(**solver_fields)
    except InvalidParameterError as exc:
        raise ConfigError(f"solver: {exc}") from None

    od = _require_mapping(raw.get("outputs"), "outputs")
    _reject_unknown(od, {"csv", "report"}, "outputs")
    odef = OutputsConfig()
    csv_path = od.get("csv", odef.csv)
    report_path = od.get("report", odef.report)
    for label, value in (("outputs.csv", csv_path), ("outputs.report", report_path)):
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{label} must be a non-empty string, got {value!r}")
    outputs = OutputsConfig(csv=csv_path, report=report_path)

    config = ExperimentConfig(mode=mode, problem=problem, solver=solver, outputs=outputs)
    _validate_semantics(config)
    return config


def _validate_semantics(config: ExperimentConfig) -> None:
    p = config.problem
    if not p.horizon > 0.0:
        raise ConfigError(f"problem.horizon must be positive, got {p.horizon}")
    if not 1 <= p.n_steps <= DEFAULT_ENUMERATION_CAP:
        raise ConfigError(
            f"problem.n_steps must lie in [1, {DEFAULT_ENUMERATION_CAP}], got {p.n_steps}"
        )
    if p.p < 1.0:
        raise ConfigError(f"problem.p must be >= 1, got {p.p}")
    config.band()
    config.grid()
    config.coefficients()
    loss = config.loss_spec()
    if p.payoff is not None:
        make_payoff(p.payoff.name, p.payoff.params)
    if config.mode == "gexp_probe":
        if p.payoff is None:
            raise ConfigError("problem.payoff is required in gexp_probe mode")
    else:
        l0 = float(loss(0.0, np.array([p.x0]))[0])
        if l0 < 0.0:
            raise ConfigError(
                f"problem.x0={p.x0} violates the initial constraint: l(0, x0) = {l0} < 0"
            )


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and fully validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return config_from_dict(raw)
