"""Run configuration: defaults shared with the model and train specs, and load-time checks."""

import math
import re
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tglrn import model as model_mod
from tglrn import trainer
from tglrn.config import RunConfig, config_text, load_config, section
from tglrn.data import Scaler, SynthSettings
from tglrn.errors import ConfigError
from tglrn.model import ModelConfig


@pytest.mark.parametrize("spec", [ModelConfig, trainer.TrainSettings, SynthSettings])
def test_shared_fields_have_the_same_default(spec):
    run = RunConfig()
    shared = [f for f in fields(spec) if hasattr(run, f.name) and f.default is not MISSING]
    assert shared
    for f in shared:
        assert getattr(run, f.name) == f.default, f.name


@pytest.mark.parametrize(
    "shape",
    [{}, {"n_blocks": 3, "kernel_size": 3, "t_in": 14}, {"n_blocks": 2, "kernel_size": 1, "levels": 3}],
)
def test_param_bytes_match_the_built_model(shape):
    base = ModelConfig(num_nodes=4, t_in=6, t_out=2, embed_dim=4, hop_dim=3, hidden_dim=5, n_blocks=1)
    cfg = replace(base, **shape)
    scaler = Scaler(mean=np.zeros((4, 1)), std=np.ones((4, 1)))
    model = trainer.build_model(cfg, [(0, 1), (1, 2), (2, 3)], scaler, seed=0)
    built = {}
    for name, p in model.parameters():
        key = re.sub(r"^block\d+\.", "block*.", name)
        largest, every = built.get(key, (0, 0))
        built[key] = (max(largest, p.data.nbytes), every + p.data.nbytes)
    assert [(name, *sizes) for name, sizes in built.items()] == cfg.param_bytes()


def test_unsizable_total_rejected_though_each_array_fits():
    # base_st and base_ed need 2**62 bytes each: each fits in intp, the two do not.
    cfg = ModelConfig(num_nodes=8, t_in=2**52, embed_dim=16, hidden_dim=2, n_blocks=1)
    limit = np.iinfo(np.intp).max
    assert max(largest for _, largest, _ in cfg.param_bytes()) <= limit
    with pytest.raises(ConfigError, match="^parameters would need"):
        cfg.validate()


@pytest.mark.parametrize("counts", [{"levels": 2**40}, {"n_blocks": 2**40, "kernel_size": 1}])
def test_counts_no_machine_can_hold_rejected(counts, monkeypatch):
    # On 8 nodes levels=2**40 needs ~150 TB of parameters and ~563 TB of hop masks,
    # and n_blocks=2**40 ~874 PB of parameters; each total fits in intp. validate is
    # closed form, so it allocates nothing.
    cfg = ModelConfig(num_nodes=8, **counts)
    with pytest.raises(ConfigError, match="^parameters would need"):
        cfg.validate()
    # The constructor, which build_model and checkpoint_load go through, checks before it
    # builds the hop masks.
    monkeypatch.setattr(model_mod.roadnet, "structure_group", lambda *a: pytest.fail("hop masks built"))
    scaler = Scaler(mean=np.zeros((8, 1)), std=np.ones((8, 1)))
    with pytest.raises(ConfigError, match="^parameters would need"):
        trainer.build_model(cfg, [(0, 1)], scaler, seed=0)
    with pytest.raises(ConfigError, match="^parameters would need"):
        model_mod.TGLRN(cfg, [(0, 1)], scaler, np.random.default_rng(0))


def test_hop_masks_count_toward_the_memory_limit(monkeypatch):
    monkeypatch.setattr(model_mod, "_physical_memory", lambda: 2**30)
    fits = ModelConfig(num_nodes=2**12, levels=7)  # masks 7 * 2**27 bytes
    over = ModelConfig(num_nodes=2**12, levels=8)  # masks 2**30 bytes
    assert sum(every for _, _, every in over.param_bytes()) < 2**27
    fits.validate()
    with pytest.raises(ConfigError, match="^parameters would need .* with the hop masks"):
        over.validate()


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
    section(cfg, trainer.TrainSettings).check_fields()
    section(cfg, SynthSettings).check_fields()


def test_config_file_with_a_bom_loads(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("\ufeffseed = 7\nnum_nodes = 5\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.seed == 7 and cfg.num_nodes == 5


def test_echoed_config_keeps_values_with_a_hash(tmp_path):
    cfg = load_config(overrides=["out_dir=runs/#3", "flows_path=data/a#b.csv"])
    path = tmp_path / "effective_config.cfg"
    path.write_text(config_text(cfg) + "# closing note\nseed = 3  # note\n\t# indented note\n", encoding="utf-8")
    again = load_config(path)
    assert (again.out_dir, again.flows_path, again.seed) == ("runs/#3", "data/a#b.csv", 3)


def test_undecodable_config_file_is_config_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"seed = 7\n\xff\xfe = 1\n")
    with pytest.raises(ConfigError, match="cannot open config file"):
        load_config(path)
