"""Run configuration: a single JSON file, strictly validated.

Runs are archival artifacts, so the schema is closed: unknown keys anywhere
are rejected by name, tolerances must be positive, and hbar values must
already be sorted in decreasing order. Defaults are materialized on load so
a config round-trips to one canonical form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, EbkError, InvalidSymbol
from .oracle import DEFAULT_PHASE_TOL, domain_auto
from .portrait import DEFAULT_ACTION_SAMPLES, DEFAULT_TRACE_TOL, MIN_TRACE_TOL
from .symbols import EnergyWindow, SymbolSpec, symbol_from_config

STAGES = (
    "trace",
    "actions",
    "spectrum",
    "oracle",
    "compare",
    "weyl",
    "branches",
    "doublets",
)

# Stages implied by each stage, inserted ahead of it when missing.
STAGE_DEPS = {
    "trace": (),
    "actions": ("trace",),
    "spectrum": ("actions",),
    "oracle": (),
    "compare": ("spectrum", "oracle"),
    "weyl": ("spectrum", "oracle"),
    "branches": ("actions",),
    "doublets": ("spectrum",),
}

_DEFAULT_TOLERANCES = {
    "trace_tol": DEFAULT_TRACE_TOL,
    "oracle_tol": DEFAULT_PHASE_TOL,
    "action_samples": DEFAULT_ACTION_SAMPLES,
}

_ORACLE_STAGES = {"oracle", "compare", "weyl"}


@dataclass(frozen=True)
class RunConfig:
    symbol_name: str
    symbol_params: tuple[tuple[str, object], ...]
    window: EnergyWindow
    hbars: tuple[float, ...]
    pipeline: tuple[str, ...]
    trace_tol: float
    oracle_tol: float
    action_samples: int
    seed: int
    output_dir: str
    inserted_stages: tuple[str, ...] = field(default=(), compare=False)

    def symbol(self) -> SymbolSpec:
        return symbol_from_config(self.symbol_name, dict(self.symbol_params))

    def to_json_dict(self) -> dict:
        return {
            "symbol": {
                "name": self.symbol_name,
                "params": {k: v for k, v in self.symbol_params},
            },
            "window": {
                "e1": self.window.e1,
                "e2": self.window.e2,
                "margin": self.window.margin,
            },
            "hbars": list(self.hbars),
            "pipeline": list(self.pipeline),
            "tolerances": {
                "trace_tol": self.trace_tol,
                "oracle_tol": self.oracle_tol,
                "action_samples": self.action_samples,
            },
            "seed": self.seed,
            "output_dir": self.output_dir,
        }


def _require_keys(obj: dict, allowed: set[str], where: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _number(obj, key, where, *, positive=False):
    if key not in obj:
        raise ConfigError(f"missing key {key!r} in {where}")
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number")
    if positive and not v > 0:
        raise ConfigError(f"{where}.{key} must be positive")
    return float(v)


def parse_config(data: dict, *, default_output: str = "ebk-out") -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a JSON object")
    _require_keys(
        data,
        {"symbol", "window", "hbars", "pipeline", "tolerances", "seed", "output_dir"},
        "config",
    )
    for key in ("symbol", "window", "hbars", "pipeline"):
        if key not in data:
            raise ConfigError(f"missing key {key!r} in config")

    sym = data["symbol"]
    if not isinstance(sym, dict):
        raise ConfigError("config.symbol must be an object")
    _require_keys(sym, {"name", "params"}, "config.symbol")
    if "name" not in sym or not isinstance(sym["name"], str):
        raise ConfigError("config.symbol.name must be a string")
    params = sym.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("config.symbol.params must be an object")

    win = data["window"]
    if not isinstance(win, dict):
        raise ConfigError("config.window must be an object")
    _require_keys(win, {"e1", "e2", "margin"}, "config.window")
    e1 = _number(win, "e1", "config.window")
    e2 = _number(win, "e2", "config.window")
    margin = _number(win, "margin", "config.window", positive=True)
    if not e1 < e2:
        raise ConfigError("config.window needs e1 < e2")
    window = EnergyWindow(e1, e2, margin)

    hbars = data["hbars"]
    if not isinstance(hbars, list) or not hbars:
        raise ConfigError("config.hbars must be a non-empty list")
    vals = []
    for i, h in enumerate(hbars):
        if isinstance(h, bool) or not isinstance(h, (int, float)) or h <= 0:
            raise ConfigError(f"config.hbars[{i}] must be a positive number")
        vals.append(float(h))
    if any(later >= earlier for earlier, later in zip(vals[:-1], vals[1:])):
        raise ConfigError("config.hbars must be sorted in decreasing order")

    pipe = data["pipeline"]
    if not isinstance(pipe, list) or not pipe:
        raise ConfigError("config.pipeline must be a non-empty list")
    for name in pipe:
        if name not in STAGES:
            raise ConfigError(f"unknown pipeline stage {name!r}")

    tols = data.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ConfigError("config.tolerances must be an object")
    _require_keys(tols, set(_DEFAULT_TOLERANCES), "config.tolerances")
    merged = dict(_DEFAULT_TOLERANCES)
    for key in tols:
        merged[key] = tols[key]
    trace_tol = merged["trace_tol"]
    oracle_tol = merged["oracle_tol"]
    action_samples = merged["action_samples"]
    if not isinstance(trace_tol, (int, float)) or trace_tol <= 0:
        raise ConfigError("config.tolerances.trace_tol must be positive")
    if trace_tol < MIN_TRACE_TOL:
        raise ConfigError(
            f"config.tolerances.trace_tol {trace_tol:g} is under {MIN_TRACE_TOL:.3g}, "
            "where the flow stepper's local error estimates are rounding noise"
        )
    if not isinstance(oracle_tol, (int, float)) or oracle_tol <= 0:
        raise ConfigError("config.tolerances.oracle_tol must be positive")
    if isinstance(action_samples, bool) or not isinstance(action_samples, int) or action_samples < 9:
        raise ConfigError("config.tolerances.action_samples must be an integer >= 9")

    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("config.seed must be an integer")

    output_dir = data.get("output_dir", default_output)
    if not isinstance(output_dir, str):
        raise ConfigError("config.output_dir must be a string")

    # Resolve stage dependencies; record what was auto-inserted.
    requested = list(dict.fromkeys(pipe))
    resolved: list[str] = []

    def _add(stage):
        for dep in STAGE_DEPS[stage]:
            _add(dep)
        if stage not in resolved:
            resolved.append(stage)

    for stage in requested:
        _add(stage)
    resolved.sort(key=STAGES.index)
    inserted = tuple(s for s in resolved if s not in requested)

    try:
        spec = symbol_from_config(sym["name"], params)
    except InvalidSymbol as exc:
        raise ConfigError(str(exc)) from exc
    if not spec.is_schrodinger and (_ORACLE_STAGES & set(resolved)):
        raise ConfigError(
            f"symbol {sym['name']!r} has no direct oracle; remove oracle/compare/weyl stages"
        )
    for h in vals if "oracle" in resolved else ():
        try:
            domain_auto(spec.potential, window, h, phase_tol=float(oracle_tol))
        except ConfigError as exc:  # GridTooLarge, or a grid under the stencil
            raise type(exc)(f"oracle grid at hbar={h:g}: {exc}") from exc
        except EbkError:  # a landmark error such as NonCompactWindow: the run's (exit 3)
            break

    return RunConfig(
        symbol_name=sym["name"],
        symbol_params=tuple(sorted(params.items())),
        window=window,
        hbars=tuple(vals),
        pipeline=tuple(resolved),
        trace_tol=float(trace_tol),
        oracle_tol=float(oracle_tol),
        action_samples=int(action_samples),
        seed=int(seed),
        output_dir=output_dir,
        inserted_stages=inserted,
    )


def load_config(path) -> RunConfig:
    """Parse and validate a config file; errors carry line context."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    text = path.read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(data)
