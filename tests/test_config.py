import importlib
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okr import cli, config, dataio, kernels, metrics, oel
from okr.config import KEYS, REQUIRED, UsageError

ROOT = Path(__file__).resolve().parents[1]

CHOICES = kernels.KINDS + oel.METHODS + tuple(sorted(metrics.METRICS)) + ("ssv", "nested")
NUMBERS = st.one_of(st.integers(-3, 10**6).map(str), st.floats().map(repr),
                    st.sampled_from(["1e-4", " 2 ", "0.5", "1_0", "inf", "-0", "07"]))
TEXTS = st.one_of(st.text(), NUMBERS, st.lists(NUMBERS, max_size=4).map(",".join),
                  st.sampled_from(CHOICES))


RULE = re.compile(r"(?:in ([\[(])(\S+), (\S+)([\])])|(>=?) (\S+))$")


def in_range(key, value):
    """The key's rule as its error message words it, checked apart from the
    table's own test: type, bound or interval, or the list of choices."""
    what = KEYS[key][1]
    entries = value if isinstance(value, tuple) else (value,)
    if not entries:
        return False
    if what.startswith("one of "):
        return all(v in what[len("one of "):].split(" (")[0].split(", ") for v in entries)
    kind = int if "integer" in what else float if "number" in what else str
    if not all(type(v) is kind and (kind is not float or math.isfinite(v)) for v in entries):
        return False
    rule = RULE.search(what)
    if rule is None:
        return True
    if rule[5]:
        bound = float(rule[6])
        return all(v >= bound if rule[5] == ">=" else v > bound for v in entries)
    lo, hi = float(rule[2]), float(rule[3])
    return all((lo <= v if rule[1] == "[" else lo < v) and (v <= hi if rule[4] == "]" else v < hi)
               for v in entries)


@pytest.mark.parametrize("key", sorted(KEYS))
@settings(max_examples=80, deadline=None)
@given(text=TEXTS)
def test_reader_returns_a_value_in_range_or_names_the_key(key, text):
    try:
        value = config.read({key: text}, [key])[key]
    except UsageError as exc:
        assert str(exc) == f"{key} must be {KEYS[key][1]}, got {text!r}"
        return
    assert in_range(key, value)
    # config.resolved writes the value back as text that reads the same
    assert config.read({key: config.show(value)}, [key])[key] == value


@pytest.mark.parametrize("key", sorted(KEYS))
def test_default_is_required_unset_or_in_range(key):
    default = KEYS[key][3]
    if default is REQUIRED:
        with pytest.raises(UsageError, match=f"missing required config key '{key}'"):
            config.read({}, [key])
    elif default is not None:
        assert in_range(key, default)


def test_unknown_key_is_rejected_with_its_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("oel.p = 4\n\n# a comment\noel.cc = 0.9  # misspelled\n")
    with pytest.raises(UsageError,
                       match=r"bad.cfg:4: unknown config key 'oel.cc'; did you mean 'oel.c'\?"):
        config.parse_config_file(path)


def test_every_shipped_config_passes_the_table(tmp_path, monkeypatch):
    # the configs synth writes, and the benchmark's configs exactly as
    # perfbench/workloads.py writes them: a key missing from the table would
    # fail every operation of the benchmark
    assert cli.main(["synth", "--out", str(tmp_path / "synth"), "--seed", "1"]) == 0
    paths = sorted((tmp_path / "synth" / "data").glob("*.cfg"))
    assert [p.name for p in paths] == ["dataset.cfg", "eval.cfg", "pred.cfg", "run.cfg",
                                       "tune.cfg"]

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    ds = dataio.synth_remark1(20, 10, 5, 1.0, 4.0, seed=0)
    data_keys = config.parse_config_file(dataio.save_dataset(ds, tmp_path / "inputs"))
    inputs = workloads.Inputs(data_keys=data_keys, tune_keys=data_keys, truth=ds.truth_index,
                              n_candidates=len(ds.candidates), k=10, grid_points=3, tune_reps=3)
    workloads.write_configs(inputs, 3, tmp_path / "pass", "../inputs")
    bench = sorted((tmp_path / "pass").glob("*.cfg"))
    assert [p.name for p in bench] == ["evaluate.cfg", "fit.cfg", "predict.cfg",
                                       "predict_iokr.cfg", "tune.cfg"]
    for path in paths + bench:
        cfg = config.parse_config_file(path)
        assert config.read(cfg, cfg).keys() == cfg.keys(), path.name
