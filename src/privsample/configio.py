"""Run-configuration files: loading, validation and hashing.

System files are JSON with keys ``A``, ``Q``, ``P0``, ``mean0``, ``nx``,
``ny``, ``K`` (see README for the full schema); the seed comes from
``--seed`` (default 0) and is recorded in every output's metadata.
Finite models use the same format with keys ``x_kernel``, ``y_kernel``,
``init_joint``, ``distortion``. Schedules serialize as ``kind`` / ``f_chol`` / ``g`` /
``feedback``.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractViolation
from .finite import FiniteModel
from .lingauss import LinearGaussianSystem
from .policy import SamplerSchedule


def load_json(path) -> dict:
    """The JSON object in ``path``; ConfigError when the file is missing or
    unreadable (a directory, no permission), not UTF-8 or not a JSON object."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path} must hold a JSON object, not a {type(cfg).__name__}")
    return cfg


def write_text(path, text: str) -> None:
    """Write an output file and its missing parent directories; an OSError
    (a parent that is a file, no permission) is a ConfigError naming it."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def checked_count(n, name: str, minimum: int) -> int:
    """``n`` when an integer (not a bool) of at least ``minimum``;
    ConfigError naming ``name`` otherwise."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ConfigError(f"{name} must be an integer, got {n!r}")
    if n < minimum:
        raise ConfigError(f"{name} value {n} must be >= {minimum}")
    return n


def system_from_config(cfg: dict) -> LinearGaussianSystem:
    nx, ny = (checked_count(cfg.get(key), f"config {key}", 1) for key in ("nx", "ny"))
    try:
        a = np.asarray(cfg["A"], dtype=float)
        q = np.asarray(cfg["Q"], dtype=float)
        p0 = np.asarray(cfg["P0"], dtype=float)
        mean0 = np.asarray(cfg.get("mean0", np.zeros(nx + ny)), dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad system config: {exc}") from exc
    try:
        return LinearGaussianSystem(
            a_matrix=a, q_cov=q, init_mean=mean0, init_cov=p0, n_x=nx, n_y=ny
        )
    except ContractViolation as exc:
        raise ConfigError(f"system config rejected: {exc}") from exc


def finite_model_from_config(cfg: dict) -> FiniteModel:
    try:
        return FiniteModel(
            x_kernel=np.asarray(cfg["x_kernel"], dtype=float),
            y_kernel=np.asarray(cfg["y_kernel"], dtype=float),
            init_joint=np.asarray(cfg["init_joint"], dtype=float),
            distortion=np.asarray(cfg["distortion"], dtype=float),
        )
    except KeyError as exc:
        raise ConfigError(f"finite model config missing key {exc}") from exc
    except (TypeError, ValueError) as exc:  # a ContractViolation is a ValueError
        raise ConfigError(f"finite model config rejected: {exc}") from exc


def load_schedule(path) -> SamplerSchedule:
    cfg = load_json(path)
    try:
        return SamplerSchedule.from_config(cfg)
    except (KeyError, TypeError, ValueError) as exc:  # a ContractViolation is a ValueError
        raise ConfigError(f"schedule config rejected: {exc}") from exc


def dump_schedule(schedule: SamplerSchedule, path):
    write_text(path, json.dumps(schedule.to_config(), indent=2) + "\n")


def config_hash(cfg: dict) -> str:
    """Stable short hash of a configuration mapping."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
