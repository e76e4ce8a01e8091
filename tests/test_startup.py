"""Start-up cost: the float32 paths never load scipy.

scipy.special takes most of `import mixerlab`'s time and adds about 22 MB
of resident memory, yet only float64 GELU calls its `erf`. The check runs
in a fresh interpreter with only `src` on the path, since pytest and the
other test modules import scipy themselves.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import json, sys, tempfile
import numpy as np
import mixerlab
from mixerlab import tensor as T
from mixerlab.cli import run_cli
from mixerlab.data import build_corpus
from mixerlab.inversion import InversionConfig, invert_input
from mixerlab.models import ModelConfig, build_model, sequence_embedding
from mixerlab.training import TrainConfig, train

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {"import": scipy_modules()}
cfg = ModelConfig("masked_mixer", d_model=16, n_layers=1, n_ctx=8)
model = build_model(cfg, seed=0)
assert model.dtype == np.float32
corpus = build_corpus("abcdefgh" * 40, n_ctx=8, inline=True)
train(model, corpus, TrainConfig(steps=1, batch_size=2, eval_every=1))
invert_input(model, np.arange(97, 105), InversionConfig(n_iters=3))
sequence_embedding(model, corpus[0].ids[:3])
with tempfile.TemporaryDirectory() as out:
    assert run_cli(["jl-dim", "--m", "1e10", "--out", out]) == 0
seen["float32"] = scipy_modules()
T.gelu(T.Tensor(np.linspace(-3.0, 3.0, 7)))
seen["float64_gelu"] = scipy_modules()
print(json.dumps(seen))
"""


def test_float32_runs_never_import_scipy_and_float64_gelu_does():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120, check=False
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["import"] == []
    assert seen["float32"] == []
    assert "scipy.special" in seen["float64_gelu"]
