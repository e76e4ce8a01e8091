"""Self-test of the benchmark at smoke length.

    python3 bench/selftest.py

Run from the root of a source checkout. It checks that:

- BENCHMARK.json lists exactly the per-layer metrics of ``layers.SPEC``,
  and every metric it names is printed with its unit, in plain and in
  traced runs of every workload; the per-phase rates and fail_ratio are
  printed too, and so are the raw ``job_s`` and ``ref_s``;
- every correctness check passes on the unmodified code;
- two traced runs with one seed give exactly the same computed counters
  and call counts, and the layer self times add up to the timed region;
- a corrupted top-k result, or one flipped checkpoint byte, raises
  fail_ratio above 0;
- a wrapped function that no longer exists is reported as missing, not
  as zero.

Exit code 0 means every assertion held.
"""

import json
import subprocess
import sys
from pathlib import Path

import worker  # pins the BLAS thread count before numpy loads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
SMOKE = ["--seed", "3", "--seconds", "1"]

COUNTERS = (
    "tensor.graph_nodes_per_backward",
    "models.forward.sequences_per_call",
    "models.embedding_graph.calls_per_example",
    "tensor.matmul.gflop",
    "tensor.gelu.elements",
)


def bench(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--trace", str(trace)] + SMOKE,
        capture_output=True, text=True, timeout=600, cwd=worker.ROOT,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    stem = f"{workload}-seed{SMOKE[1]}-trace{trace}"
    detail = json.loads((worker.OUT / f"result-{stem}.json").read_text())
    return json.loads(lines[-1]), lines[:-1], detail


def check_units(result, wanted):
    for m in wanted:
        got = result["metrics"].get(m["name"])
        assert got is not None, f"metric {m['name']} not printed"
        assert got["unit"] == m["unit"], f"{m['name']}: unit {got['unit']} != {m['unit']}"
        assert isinstance(got["value"], float), f"{m['name']}: value {got['value']!r}"


def check_workload(workloads, name):
    plain, lines, _ = bench(name, 0)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0, plain
    check_units(plain, SPEC["end_to_end"])
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    wanted = {p.metric for p in workloads.WORKLOADS[name].phases}
    wanted |= {m["name"] for m in SPEC["end_to_end"]} | {"job_s", "ref_s", "fail_ratio"}
    assert wanted <= printed, f"{name}: not printed {sorted(wanted - printed)}"

    first, _, detail = bench(name, 1)
    second, _, _ = bench(name, 1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0, result
        check_units(result, SPEC["per_layer"])
    for key in COUNTERS + tuple(k for k in first["metrics"] if k.endswith(".calls") or k.endswith(".bytes")):
        a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
        assert a == b, f"{name}: counter {key} differs between runs: {a} vs {b}"
    share_sum = detail["workers"][0]["trace"]["self_share_sum"]
    assert abs(share_sum - 1.0) < 1e-9, f"{name}: self times cover {share_sum} of the timed region"
    print(f"ok {name}: {plain['attempted']} operations checked, counters repeat, self times sum to the region")


def patched(module, name, replacement, workload, trace=0):
    """One in-process worker run with `module.name` replaced."""
    orig = getattr(module, name)
    setattr(module, name, replacement(orig))
    try:
        return worker.measure(workload, int(SMOKE[1]), float(SMOKE[3]), trace)
    finally:
        setattr(module, name, orig)


def swap_topk(orig):
    def wrong(query, targets, k):
        top, z = orig(query, targets, k)
        return top[::-1], z

    return wrong


def flip_last_byte(orig):
    def flipped(path, config_obj, tensors):
        orig(path, config_obj, tensors)
        with open(path, "r+b") as fh:
            fh.seek(-1, 2)
            last = fh.read(1)
            fh.seek(-1, 2)
            fh.write(bytes([last[0] ^ 0x01]))

    return flipped


def gone(orig):
    return None


def main():
    worker.import_mixerlab()
    import layers
    import workloads
    from mixerlab import checkpoint, retrieval, tensor

    listed = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert listed == [spec[:3] for spec in layers.SPEC], "BENCHMARK.json per_layer differs from layers.SPEC"

    for name in ("train", "invert", "retrieve"):
        check_workload(workloads, name)
    for module, name, replacement in ((retrieval, "retrieve_topk", swap_topk), (checkpoint, "write_container", flip_last_byte)):
        result = patched(module, name, replacement, "retrieve")
        ratio = result["failed"] / result["attempted"]
        assert ratio > 0, f"corrupted {name}: fail_ratio stayed 0"
        print(f"ok corrupted {name}: fail_ratio {ratio:.3f} ({result['failed']} of {result['attempted']})")

    # inversion keeps its own binding of pinv, so only the tracer sees it gone
    result = patched(tensor, "pinv", gone, "invert", trace=1)
    assert "tensor.pinv.share" not in result["per_layer"], "a gone function was reported"
    assert any(m.startswith("tensor.pinv.share") for m in result["missing"]), result["missing"]
    assert result["failed"] == 0, result["failures"]
    print("ok gone tensor.pinv: reported missing, not zero")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
