"""Flat key = value run configuration, and the table of its keys.

A config file is plain text: one "key = value" per line, '#' starts a
comment, blank lines are skipped. Command-line flags override file keys,
file keys override built-in defaults; every run writes the fully resolved
mapping back out as a snapshot so it can be replayed exactly.

KEYS is the contract: every key with its parser, default (or REQUIRED) and
allowed range. A file may set any declared key and no other, as one file may
serve several subcommands; read() parses, defaults and range-checks values.
The data.* keys are declared by name only (dataio.load_dataset checks them),
the record-only keys so that config.resolved can be fed back as --config.
"""

from __future__ import annotations

import difflib
import math
from pathlib import Path

from . import kernels, metrics, oel


class UsageError(Exception):
    """Bad command line or config contents (exit code 1)."""


REQUIRED = object()      # the default of a key that must be set


def _number(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _list_of(parse):
    return lambda text: tuple(parse(tok) for tok in text.split(",") if tok.strip())


_KINDS = {"text": (str, "text"), "int": (int, "an integer"), "float": (_number, "a number"),
          "ints": (_list_of(int), "comma-separated integers"),
          "floats": (_list_of(_number), "comma-separated numbers")}
_RULES = {"": lambda v: True, "> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0,
          ">= 1": lambda v: v >= 1, ">= 2": lambda v: v >= 2,
          "in [0, 1]": lambda v: 0 <= v <= 1, "in (0, 1)": lambda v: 0 < v < 1}


# a KEYS row: (parser of the text, what it accepts in words, test of the value or of
# each list entry, default); for a tuple of choices as kind, rule only adds words
def _key(kind, rule="", default=None):
    if isinstance(kind, tuple):
        return str, f"one of {', '.join(kind)}{rule}", kind.__contains__, default
    parse, noun = _KINDS[kind]
    return parse, f"{noun} {rule}".strip(), _RULES[rule], default


KEYS = {
    # the root seed (--seed overrides it); named child seeds derive from it
    "seed": _key("int", ">= 0", 0),
    # dataset files and formats, checked by dataio.load_dataset
    **{f"data.{name}": _key("text") for name in (
        "kind", "x", "x_format", "y", "y_unsup", "x_test", "y_test", "candidates",
        "candidate_map", "truth_index")},
    # kernels on feature rows; a kind with a width needs its sigma2
    "kernel.x.kind": _key(kernels.KINDS, " (a precomputed input Gram is data: data.x "
                          "with data.x_format = gram)"),
    "kernel.x.sigma2": _key("float", "> 0"),
    "kernel.y.kind": _key(kernels.KINDS, "", REQUIRED),
    "kernel.y.sigma2": _key("float", "> 0"),
    # fit: the ridge (Nystrom with q anchors, q <= n) and the embedding (p <= n + m)
    "krr.lambda": _key("float", "> 0", REQUIRED),
    "krr.nystrom_q": _key("int", ">= 1"),
    "krr.seed": _key("int", ">= 0"),
    "oel.p": _key("int", ">= 1", REQUIRED),
    "oel.c": _key("float", "in [0, 1]", 1.0),
    "oel.method": _key(oel.METHODS, "", "exact"),
    "oel.seed": _key("int", ">= 0"),
    "oel.oversample": _key("int", ">= 0", 10),
    "oel.power_iters": _key("int", ">= 0", 2),
    # predict
    "model.dir": _key("text", default=REQUIRED),
    "decode.k": _key("int", ">= 1", 1),
    # evaluate
    "evaluate.rankings": _key("text", default=REQUIRED),
    "evaluate.topk": _key("ints", ">= 1", (1, 5, 10)),
    # tune: protocol, metric and grids; an unset grid takes tune's default
    "tune.protocol": _key(("ssv", "nested"), "", "ssv"),
    "tune.metric": _key(tuple(sorted(metrics.METRICS)), "", "surrogate_mse"),
    "tune.reps": _key("int", ">= 1", 5),
    "tune.ratio": _key("float", "in (0, 1)", 0.8),
    "tune.outer": _key("int", ">= 2", 5),
    "tune.inner": _key("int", ">= 2", 4),
    "tune.lams": _key("floats", "> 0"),
    "tune.ps": _key("ints", ">= 1"),
    "tune.cs": _key("floats", "in [0, 1]"),
    "tune.sigma2_ins": _key("floats", "> 0"),
    "tune.sigma2_outs": _key("floats", "> 0"),
    "tune.qs": _key("ints", ">= 1"),
    # bench-decode: n x N full-dimensional and p x N embedded candidates
    **{f"bench.{name}": _key("int", ">= 1", default) for name, default in (
        ("n", 2000), ("p", 100), ("queries", 64), ("repeats", 9), ("k", 10))},
    "bench.sizes": _key("ints", ">= 1", (1000, 10000, 100000)),
    # synth
    "synth.n": _key("int", ">= 1", 2000),
    "synth.m": _key("int", ">= 0", 2000),
    "synth.n_test": _key("int", ">= 0", 500),
    "synth.sigma2_x": _key("float", "> 0", 1.0),
    "synth.sigma2_z": _key("float", ">= 0", 4.0),
    # record-only: written to config.resolved, read by no subcommand
    **{name: _key("text") for name in (
        "command", "out", "iokr_only", "share_krr", "oel.eigensolver")},
}


def parse_config_file(path) -> dict:
    cfg = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    for i, raw in enumerate(lines):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{i + 1}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KEYS:
            close = difflib.get_close_matches(key, KEYS, n=1)
            raise UsageError(f"{path}:{i + 1}: unknown config key {key!r}"
                             + (f"; did you mean {close[0]!r}?" if close else ""))
        cfg[key] = value
    return cfg


def read(cfg: dict, names) -> dict:
    """Parse, default and range-check the declared keys of cfg that names
    gives: keys, or groups such as "bench." that stand for every key under
    them. Returns {key: value}: an int, a float, a string, or a tuple for a
    list; None for an unset key without a default."""
    groups = tuple(name for name in names if name.endswith("."))
    values = {}
    for key in (key for key in KEYS if key in names or key.startswith(groups)):
        parse, what, ok, default = KEYS[key]
        if key not in cfg:
            if default is REQUIRED:
                raise UsageError(f"missing required config key {key!r}")
            values[key] = default
            continue
        try:
            value = parse(cfg[key])
            entries = value if isinstance(value, tuple) else (value,)
            good = bool(entries) and all(map(ok, entries))
        except ValueError:
            good = False
        if not good:
            raise UsageError(f"{key} must be {what}, got {cfg[key]!r}")
        values[key] = value
    return values


def show(value) -> str:
    """A value as config text, which read() turns back into the same value."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def write_snapshot(cfg: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(cfg):
            fh.write(f"{key} = {show(cfg[key])}\n")


def kernel_spec(values: dict, prefix: str) -> kernels.KernelSpec:
    """The KernelSpec that the values of <prefix>.kind and .sigma2 name."""
    kind = values[f"{prefix}.kind"]
    if kind is None:
        raise UsageError(f"missing required config key '{prefix}.kind'")
    try:
        return kernels.KernelSpec(kind=kind, sigma2=values[f"{prefix}.sigma2"])
    except ValueError as exc:
        raise UsageError(f"bad kernel config under {prefix!r}: {exc}") from exc
