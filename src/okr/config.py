"""Flat key = value run configuration.

A config file is plain text: one "key = value" per line, '#' starts a
comment, blank lines are skipped. Command-line flags override file keys,
file keys override built-in defaults; every run writes the fully resolved
mapping back out as a snapshot so it can be replayed exactly.
"""

from __future__ import annotations

from pathlib import Path

from . import kernels


class UsageError(Exception):
    """Bad command line or config contents (exit code 1)."""


def parse_config_file(path) -> dict:
    cfg = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    for i, raw in enumerate(lines):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{i + 1}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise UsageError(f"{path}:{i + 1}: empty key")
        cfg[key] = value
    return cfg


def write_snapshot(cfg: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(cfg):
            fh.write(f"{key} = {cfg[key]}\n")


def get_str(cfg: dict, key: str, default=None, required: bool = False):
    if key in cfg:
        return cfg[key]
    if required:
        raise UsageError(f"missing required config key {key!r}")
    return default


def get_float(cfg: dict, key: str, default=None, required: bool = False):
    raw = get_str(cfg, key, required=required)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise UsageError(f"config key {key!r}: {raw!r} is not a number") from exc


def get_int(cfg: dict, key: str, default=None, required: bool = False):
    raw = get_str(cfg, key, required=required)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"config key {key!r}: {raw!r} is not an integer") from exc


def get_float_list(cfg: dict, key: str, default=None):
    raw = get_str(cfg, key)
    if raw is None:
        return default
    try:
        return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise UsageError(f"config key {key!r}: expected comma-separated numbers") from exc


def get_int_list(cfg: dict, key: str, default=None):
    raw = get_str(cfg, key)
    if raw is None:
        return default
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise UsageError(f"config key {key!r}: expected comma-separated integers") from exc


def kernel_spec(cfg: dict, prefix: str,
                required: bool = True) -> kernels.KernelSpec | None:
    """Build a KernelSpec from <prefix>.kind and <prefix>.sigma2.

    Kernels are computed from feature rows. A precomputed input Gram is
    data, given as data.x with data.x_format = gram, so kind = precomputed
    is rejected with a pointer there."""
    kind = get_str(cfg, f"{prefix}.kind")
    if kind is None:
        if required:
            raise UsageError(f"missing required config key {prefix}.kind")
        return None
    if kind == "precomputed":
        raise UsageError(f"{prefix}.kind = precomputed is not available in a config: "
                         "kernels are computed from feature rows (gaussian, linear, "
                         "tanimoto or gaussian_tanimoto); give a precomputed input Gram "
                         "as data.x with data.x_format = gram")
    try:
        return kernels.KernelSpec(kind=kind, sigma2=get_float(cfg, f"{prefix}.sigma2"))
    except ValueError as exc:
        raise UsageError(f"bad kernel config under {prefix!r}: {exc}") from exc
