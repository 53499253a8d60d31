"""Experiment configuration: a single JSON file with problem/solver/outputs sections.

Every solver knob has a documented default, all defaults are materialized on
parse, and serialize -> parse is the identity, so configs are reproducible
artifacts. Validation is eager and names the offending field.

The dataclasses below, with ``sde.PicardConfig`` for the solver section, are
the schema: ``_section`` reads each section from their declared fields and
types, and ``to_dict`` is ``dataclasses.asdict``, whose JSON text
``canonical_json`` writes without the copy.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidParameterError
from .lattice import DEFAULT_ENUMERATION_CAP, TimeGrid, VolatilityBand
from .loss import LossSpec
from .registry import (
    LOSSES, Payoff, accepted_params, finite_float, make_coefficient, make_loss, make_payoff,
)
from .sde import Coefficients, PicardConfig

MODES = ("full_sde", "sp_only", "gexp_probe")

# LossConfig fields that, when set, replace the loss's declared constants
_LOSS_OVERRIDES = ("c_l", "C_l", "kappa_growth")


@dataclass(frozen=True)
class SelectorConfig:
    """A registry reference: name plus parameter overrides."""

    name: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LossConfig(SelectorConfig):
    """Loss selection; optional overrides replace the declared constants
    (useful to probe how the solvers react to wrong declarations)."""

    c_l: float | None = None
    C_l: float | None = None
    kappa_growth: float | None = None


@dataclass(frozen=True)
class ProblemConfig:
    """The ``problem`` section: initial value, horizon and steps, the
    variance band, the moment order p of the CSV's E|X|^p, the registry
    selections of b, h, sigma and the loss, and the payoff of a
    ``gexp_probe`` run."""

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
    """The ``outputs`` section: the CSV trace and JSON report paths."""

    csv: str = "trace.csv"
    report: str = "report.json"


def _built_once(builder):
    """Keep a builder's result on the config, so that validation and the run
    share one object: the config is frozen, so it cannot go stale. An error
    is not kept, and each call raises it again."""
    key = f"_built_{builder.__name__}"

    @functools.wraps(builder)
    def built(self):
        kept = self.__dict__
        if key not in kept:
            kept[key] = builder(self)
        return kept[key]

    return built


@dataclass(frozen=True)
class ExperimentConfig:
    """One parsed config file: the mode and its problem, solver and outputs
    sections, with builders for the objects a run needs."""

    mode: str = "full_sde"
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    solver: PicardConfig = field(default_factory=PicardConfig)
    outputs: OutputsConfig = field(default_factory=OutputsConfig)

    # -- builders (each runs once per config) --------------------------------

    @_built_once
    def band(self) -> VolatilityBand:
        low, high = self.problem.sigma_low_sq, self.problem.sigma_high_sq
        with _field(f"problem.sigma_low_sq={low} / problem.sigma_high_sq={high}"):
            return VolatilityBand(low, high)

    @_built_once
    def grid(self) -> TimeGrid:
        with _field("problem.horizon/problem.n_steps"):
            return TimeGrid(self.problem.horizon, self.problem.n_steps)

    @_built_once
    def loss_spec(self) -> LossSpec:
        cfg = self.problem.loss
        params = dict(cfg.params)
        if "horizon" in accepted_params(LOSSES, cfg.name) and "horizon" not in params:
            params["horizon"] = self.problem.horizon
        overrides = {
            key: getattr(cfg, key)
            for key in _LOSS_OVERRIDES
            if getattr(cfg, key) is not None
        }
        with _field("problem.loss"):
            spec = make_loss(cfg.name, params)
            if overrides:
                spec = dataclasses.replace(spec, **overrides)
        return spec

    @_built_once
    def coefficients(self) -> Coefficients:
        terms = []
        for key in ("b", "h", "sigma"):
            selected = getattr(self.problem, key)
            with _field(f"problem.{key}"):
                terms.append(make_coefficient(selected.name, selected.params))
        b, h, sigma = terms
        with _field("problem.b/problem.h/problem.sigma"):
            return Coefficients(b=_solver_fn(b), h=_solver_fn(h), sigma=_solver_fn(sigma),
                                kappa=b.lipschitz + h.lipschitz + sigma.lipschitz)

    @_built_once
    def payoff(self) -> Payoff:
        with _field("problem.payoff"):
            return make_payoff(self.problem.payoff.name, self.problem.payoff.params)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def canonical_json(self) -> str:
        """``to_dict`` as compact JSON with sorted keys. The encoder reads each
        section's fields in place (``_fields``), so no deep copy is made; the
        text is that of ``json.dumps(self.to_dict(), ...)``."""
        return json.dumps(self, default=_fields, sort_keys=True, separators=(",", ":"))


def _solver_fn(term) -> typing.Callable:
    """The callable the solver gets for a registry ``term``: for a declared
    constant, one that returns it as a scalar, which the Euler step keeps as
    one (``registry.CoefficientTerm.constant``)."""
    if term.constant is None:
        return term.fn
    c = term.constant
    return lambda t, x: c


def _fields(section) -> dict:
    """One config dataclass as the dict of its fields, for ``json.dumps``."""
    return {f.name: getattr(section, f.name) for f in dataclasses.fields(section)}


@contextlib.contextmanager
def _field(where: str):
    """Prefix the config path ``where`` to a registry or constructor error."""
    try:
        yield
    except (ConfigError, InvalidParameterError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _finite(value, where: str) -> float:
    number = finite_float(value)
    if number is None:
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return number


def _integer(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where} must be a non-empty string, got {value!r}")
    return value


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {type(value).__name__}")
    return dict(value)


_READERS = {float: _finite, int: _integer, str: _string, dict: _mapping}


@functools.cache
def _schema(cls) -> tuple:
    """(name, reader, nullable, null_default, required) for each field of
    ``cls``, from its declared type: ``T | None`` is nullable, and null in a
    mapping or nested section takes the default."""
    hints = typing.get_type_hints(cls)
    schema = []
    for f in dataclasses.fields(cls):
        args = typing.get_args(hints[f.name])
        nullable = type(None) in args
        kind = next(a for a in args if a is not type(None)) if nullable else hints[f.name]
        nested = dataclasses.is_dataclass(kind)
        reader = functools.partial(_section, kind) if nested else _READERS[kind]
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        schema.append((f.name, reader, nullable, nested or kind is dict, required))
    return tuple(schema)


def _section(cls, data, where: str):
    """Read the JSON object ``data`` (null reads as ``{}``) into the config
    dataclass ``cls``. Unknown keys are rejected; an absent field, or a null
    section or mapping, takes the dataclass default; null in a ``T | None``
    field reads as None."""
    label = where or "config"
    data = _mapping({} if data is None else data, label)
    schema = _schema(cls)
    unknown = set(data) - {name for name, *_ in schema}
    if unknown:
        raise ConfigError(f"{label}: unknown field(s) {sorted(unknown)}")
    kwargs = {}
    for name, reader, nullable, null_default, required in schema:
        value = data.get(name)
        if value is None and not required and (name not in data or null_default):
            continue
        if value is None and nullable:
            kwargs[name] = None
        else:
            kwargs[name] = reader(value, f"{where}.{name}" if where else name)
    try:
        return cls(**kwargs)
    except InvalidParameterError as exc:
        raise ConfigError(f"{label}: {exc}") from None


def config_from_dict(raw: dict) -> ExperimentConfig:
    config = _section(ExperimentConfig, raw, "")
    if config.mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {config.mode!r}")
    _validate_semantics(config)
    return config


def _validate_semantics(config: ExperimentConfig) -> None:
    p = config.problem
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
        config.payoff()
    if config.mode == "gexp_probe":
        if p.payoff is None:
            raise ConfigError("problem.payoff is required in gexp_probe mode")
    else:
        # an overflow reads as a non-finite l0; the run then exits 3
        with np.errstate(over="ignore", invalid="ignore"):
            l0 = float(loss(0.0, np.array([p.x0]))[0])
        if l0 < 0.0:
            raise ConfigError(
                f"problem.x0={p.x0} violates the initial constraint: l(0, x0) = {l0} < 0"
            )


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and fully validate a JSON config file. A file that cannot be
    read or is not UTF-8, a path with a null byte, and JSON that does not
    parse or nests too deeply are config errors."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ConfigError(f"parse error in {path}: nesting too deep") from None
    return config_from_dict(raw)
