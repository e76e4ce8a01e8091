"""Recover model inputs from hidden activations by gradient descent.

The probe starts from a random embedding, descends the L1 activation gap,
and decodes tokens with the embedding matrix's pseudoinverse. Untrained
mixers recover their inputs almost perfectly; untrained transformers do
not. Width matters: the sweep shows recovery improving with d_model.

Run:  python3 demos/04_input_inversion.py
"""

import numpy as np

from mixerlab.inversion import InversionConfig, invert_input
from mixerlab.models import ModelConfig, build_model

rng = np.random.default_rng(42)
N_CTX = 16
inputs = [rng.integers(0, 256, size=N_CTX) for _ in range(3)]


def mean_hamming(model):
    reports = [invert_input(model, ids, InversionConfig(n_iters=300, eta=0.1, seed=i)) for i, ids in enumerate(inputs)]
    return float(np.mean([r.hamming for r in reports])), reports[0]


print("mixer vs transformer at d_model=128 (untrained, 3 inputs):")
mixer = build_model(ModelConfig("masked_mixer", d_model=128, n_layers=2, n_ctx=N_CTX, vocab=259), seed=0)
tfm = build_model(ModelConfig("transformer", d_model=128, n_layers=2, n_ctx=N_CTX, vocab=259, n_heads=4), seed=0)
hm, rep = mean_hamming(mixer)
print(f"  masked mixer : mean hamming {hm:.3f}  (distance {rep.final_distance:.1f} vs eps {rep.epsilon:.1f}, converged={rep.converged})")
ht, rep = mean_hamming(tfm)
print(f"  transformer  : mean hamming {ht:.3f}  (calibration decode stable: {rep.calibration_decode_stable})")

print("\nwidth sweep for the mixer (recovery needs enough d_model):")
for d in (4, 8, 16, 32):
    model = build_model(ModelConfig("masked_mixer", d_model=d, n_layers=2, n_ctx=N_CTX, vocab=259), seed=0)
    hm, _ = mean_hamming(model)
    print(f"  d_model {d:4d}: mean hamming {hm:.3f}")
