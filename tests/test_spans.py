"""The benchmark's span contract: every function it wraps by name still exists on its owner,
and the model's training and evaluation paths still call each of them."""

import importlib.util
import os
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """Import ``perfbench/<name>.py`` without writing a bytecode cache next to it.

    Its siblings are importable while it loads; the search path and any
    environment variable it sets are restored afterwards.
    """
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved_flag, saved_path, saved_env = sys.dont_write_bytecode, list(sys.path), set(os.environ)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved_flag, saved_path
        for key in set(os.environ) - saved_env:
            del os.environ[key]
    return module


def test_every_span_target_resolves_on_its_owner():
    targets = load_perfbench("spans").targets()
    assert targets
    for owner, attr, layer in targets:
        fn = getattr(owner, attr, None)
        assert callable(fn), (owner, attr, layer)
        # The tracer wraps the owner's own attribute, so an inherited one would not do.
        assert attr in vars(owner), (owner, attr, layer)


# The layers a train step's forward and backward run through, and those of an eval forward.
EVAL_LAYERS = {
    "dyngraph.chains", "dyngraph.edge", "dyngraph.hop", "dyngraph.build", "stnet.spatial",
    "stnet.temporal", "stnet.output", "stnet.block", "model.forward",
}
TRAIN_LAYERS = EVAL_LAYERS | {"dyngraph.relax", "diffcore.backward"}
# Wrapped, but off the model's path: only their standalone gradcheck entries call them.
OFF_PATH = {"diffusion_conv", "gtu_conv"}


def test_traced_training_and_evaluation_reach_every_layer():
    # Every wrapped function of a layer on the path must record a span: one that is no
    # longer called through its owner would silently move its time into its caller's.
    from test_trainer import quick_setup, settings

    from tglrn import trainer

    spans = load_perfbench("spans")
    wrapped = spans.targets()
    spans.targets = lambda: [(owner, attr, (layer, attr)) for owner, attr, layer in wrapped]
    model, (train_ds, val_ds, _), _, _ = quick_setup()
    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        trainer.train(model, train_ds, val_ds, settings(max_epochs=1), seed=0)
        trained = {span[0] for span in tracer.spans}
        tracer.clear()
        model.predict_raw(val_ds.inputs[:4])
        evaluated = {span[0] for span in tracer.spans}
    finally:
        restore()
    for layers, seen in ((TRAIN_LAYERS, trained), (EVAL_LAYERS, evaluated)):
        want = {(layer, attr) for _, attr, layer in wrapped if layer in layers and attr not in OFF_PATH}
        assert {layer for layer, _ in want} == layers
        assert want <= seen, sorted(want - seen)
    assert not {layer for layer, _ in evaluated} & {"dyngraph.relax", "diffcore.backward"}
