"""Train a small masked mixer on repeating text, then generate from it.

Run:  python3 demos/02_train_masked_mixer.py
"""

from mixerlab.data import Tokenizer, build_corpus
from mixerlab.models import ModelConfig, build_model, generate
from mixerlab.training import TrainConfig, train

text = "the cat sat on the mat. " * 120
corpus = build_corpus(text, n_ctx=16, split_ratio=0.9, inline=True)
print(f"corpus: {len(corpus[0])} train chunks, {len(corpus[1])} eval chunks, vocab 259 bytes+specials")

cfg = ModelConfig("masked_mixer", d_model=48, n_layers=2, n_ctx=16, vocab=259)
model = build_model(cfg, seed=0)
report = train(model, corpus, TrainConfig(objective="clm", steps=300, batch_size=8, lr=2e-3, eval_every=100, seed=0))
for r in report.records:
    print(f"step {r.step:4d}  train {r.train_loss:.3f}  eval {r.eval_loss:.3f}  lr {r.lr:.2e}")

tok = Tokenizer()
prompt = "the cat "
out = generate(model, tok.tokenize(prompt), 8)
print(f"\ngreedy continuation of {prompt!r}: {tok.detokenize(out)!r}")
print("(one full forward pass per new token; the causal mask stays on during inference)")
