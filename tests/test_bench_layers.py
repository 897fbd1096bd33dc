"""The benchmark's per-layer tracer patches names in the program's modules;
every one of them must still exist, or `bench/run.py --trace 1` breaks."""

import importlib
import pathlib

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_every_traced_name_resolves():
    namespace = {"__name__": "bench_layers"}
    # executed from its source, so nothing is imported into or written under bench/
    exec(compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec"), namespace)
    targets = namespace["TARGETS"]
    assert targets
    for layer, names in targets.items():
        for module_name, attr in names:
            module = importlib.import_module(module_name)
            assert callable(getattr(module, attr, None)), (layer, module_name, attr)
