"""The bench tracer reads spans by the names of goodpairs functions, so a
rename or deletion in src/ must show up here before it breaks a
`bench/run.py --trace 1` run with a KeyError."""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_metrics_names_only_functions_the_tracer_wraps():
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracer_module.layer_metrics(tracer, 0)
    assert metrics["trace.decisions"] == 0
    assert metrics["digraph.unit_flow.calls"] == 0
