"""The package still offers every function the benchmark's per-layer metrics wrap.

`bench/layers.py` names, for each per-layer metric, the `mixerlab.<module>`
functions its tracer must wrap. A metric whose function is gone is printed
as `missing` instead of a value, and the benchmark then lacks a metric that
`BENCHMARK.json` lists, so removing such a function breaks the benchmark
even when every other test passes.
"""

import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = str(ROOT / "bench")

sys.path.insert(0, BENCH)
try:
    import layers
finally:
    sys.path.remove(BENCH)


def test_every_wrapped_name_a_per_layer_metric_needs_is_callable():
    gone = []
    for metric, _unit, _better, needs in layers.SPEC:
        for wrapped in needs:
            module, name = wrapped.split(".", 1)
            if not callable(getattr(importlib.import_module(f"mixerlab.{module}"), name, None)):
                gone.append(f"{metric} needs mixerlab.{wrapped}")
    assert not gone, "; ".join(gone)


def test_benchmark_json_lists_the_spec_metrics():
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in listed] == [spec[:3] for spec in layers.SPEC]
