"""Run configuration: defaults shared with the model and train specs, and load-time checks."""

import math
from dataclasses import MISSING, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tglrn import trainer
from tglrn.config import RunConfig, load_config, section
from tglrn.errors import ConfigError
from tglrn.model import ModelConfig


@pytest.mark.parametrize("spec", [ModelConfig, trainer.TrainSettings])
def test_shared_fields_have_the_same_default(spec):
    run = RunConfig()
    shared = [f for f in fields(spec) if hasattr(run, f.name) and f.default is not MISSING]
    assert shared
    for f in shared:
        assert getattr(run, f.name) == f.default, f.name


KEYS = [f.name for f in fields(RunConfig)] + ["no_such_key", "", " gamma ", "T_IN", "worker_threads"]
VALUES = [
    "nan", "inf", "-inf", "-1", "0", "1", "2", "4", "9", "0.5", "-0.0", "1e400", "", " ",
    str(2**63), "9" * 40, "true", "no", "grid", "ring", "star", "global",
]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(KEYS), st.sampled_from(VALUES) | st.text(max_size=6)),
        max_size=8,
    )
)
def test_overrides_load_or_raise_config_error(pairs):
    try:
        cfg = load_config(None, [f"{k}={v}" for k, v in pairs])
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, float):
            assert math.isfinite(value), f.name
    spec = replace(section(cfg, ModelConfig), num_nodes=max(cfg.num_nodes, 1))
    spec.check_fields()
    try:
        spec.validate()  # cross-field shape checks run when train starts
    except ConfigError:
        pass
    section(cfg, trainer.TrainSettings)
