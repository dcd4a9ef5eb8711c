#!/usr/bin/env python3
"""Check backpropagation through time against central finite differences.

Every trainable tensor of a small random model is perturbed coordinate by
coordinate; (L(t+eps) - L(t-eps)) / 2 eps must match the analytic gradient.
For the embedding that means its trainable rows (OOV and the meme tokens),
the view that model.trainable_tensors() yields. This is the same oracle
the acceptance suite runs at larger scale.
"""

import numpy as np

from botlstm import ModelConfig, backward, bilstm_forward, init_params, nll_loss

rng = np.random.default_rng(42)
config = ModelConfig(vocab_size=9, embed_dim=4, hidden=3, layers=2)
model = init_params(config, rng_seed=1)
# init gives float32; central differences at eps 1e-4 need float64
model.tensors = {name: t.astype(np.float64) for name, t in model.tensors.items()}

# shake every tensor (init leaves peepholes/biases structured)
for tensor in model.tensors.values():
    tensor += rng.uniform(-0.3, 0.3, tensor.shape)
model.tensors["embedding.vectors"][0] = 0.0  # PAD stays zero

ids = [6, 1, 0, 7, 8]  # a word, the OOV row, a PAD step, two words
label = 1


def loss():
    trace = bilstm_forward(model, ids)
    return nll_loss(trace.probabilities, label)


trace = bilstm_forward(model, ids)
grads = backward(model, trace, label)

eps = 1e-4
print(f"{'tensor':28} {'max rel err':>12}")
worst = 0.0
for name, tensor in model.trainable_tensors():
    analytic = grads[name]
    fd = np.zeros_like(tensor)
    it = np.nditer(tensor, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = tensor[idx]
        tensor[idx] = orig + eps
        lp = loss()
        tensor[idx] = orig - eps
        lm = loss()
        tensor[idx] = orig
        fd[idx] = (lp - lm) / (2 * eps)
    err = np.max(np.abs(fd - analytic) /
                 np.maximum(1e-4, np.maximum(np.abs(fd), np.abs(analytic))))
    worst = max(worst, err)
    print(f"{name:28} {err:12.3e}")

print(f"\nworst relative error: {worst:.3e}  (tolerance 1e-4)")
assert worst < 1e-4
print("gradient check passed")
