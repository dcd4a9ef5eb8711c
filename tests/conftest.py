"""Shared model builders and oracle helpers for the test suite."""

import math
import tracemalloc

import numpy as np

from botlstm.datasets import Account, save_dataset
from botlstm.nn_core import ModelConfig, ModelParams, _gates, backward_batch, forward_batch
from botlstm.trainer import nll_loss


def cell_shapes(hidden, d_in):
    """A cell's {U, W, V, b} shapes: layer 0's fwd cell in `ModelConfig.tensor_shapes()`."""
    layer0_fwd = list(ModelConfig(1, d_in, hidden, 1).tensor_shapes())[1:5]
    return {name[-1]: shape for name, shape in layer0_fwd}


def random_cell(rng, hidden, d_in, scale=0.5):
    return {t: rng.uniform(-scale, scale, s) for t, s in cell_shapes(hidden, d_in).items()}


def cell_step(p, x, h_prev, c_prev):
    """One step of cell `p`: the (h, c, i, f, g, o) of `nn_core._gates`."""
    return _gates(p["U"] @ x + h_prev @ p["W"].T + p["b"], p["V"], c_prev, p["W"].shape[1])


def random_model(rng, vocab_size, dim, hidden, layers, scale=0.5):
    """Model with every tensor (peepholes and biases included) randomized."""
    (table, table_shape), *shapes = ModelConfig(vocab_size, dim, hidden, layers).tensor_shapes()
    tensors = {table: rng.uniform(-0.8, 0.8, table_shape)}
    tensors.update((name, rng.uniform(-scale, scale, s)) for name, s in shapes)
    tensors[table][0] = 0.0
    return ModelParams(tensors)


def cast_model(model, dtype):
    """A copy of `model` with every tensor cast to `dtype`."""
    return ModelParams({name: t.astype(dtype) for name, t in model.tensors.items()})


def model_loss(model, ids, label, rate=0.0, seed=None):
    """-log p(label) for one sequence, under the dropout `seed` draws at `rate`."""
    trace = forward_batch(model, [ids], rate, [seed])
    return nll_loss(trace.probabilities[0], label)


def sequence_grads(model, ids, label):
    """Gradients of -log p(label) for one sequence without dropout: the batched pair at B=1."""
    grads = model.zero_grads()
    backward_batch(model, forward_batch(model, [ids], 0.0, [0]), [label], grads)
    return grads


def fd_tensor_gradient(model, tensor, ids, label, eps=1e-4, rate=0.0, seed=None):
    """Central-difference gradient of the loss w.r.t. one tensor or view (in place)."""
    grad = np.zeros_like(tensor)
    it = np.nditer(tensor, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = tensor[idx]
        tensor[idx] = orig + eps
        lp = model_loss(model, ids, label, rate, seed)
        tensor[idx] = orig - eps
        lm = model_loss(model, ids, label, rate, seed)
        tensor[idx] = orig
        grad[idx] = (lp - lm) / (2.0 * eps)
    return grad


def max_rel_err(numeric, analytic, floor=1e-4):
    """Elementwise relative error with a scale floor against 0/0."""
    numeric = np.asarray(numeric)
    analytic = np.asarray(analytic)
    denom = np.maximum(floor, np.maximum(np.abs(numeric), np.abs(analytic)))
    return float(np.max(np.abs(numeric - analytic) / denom)) if numeric.size else 0.0


def scalar_cell_oracle(params, x, h_prev, c_prev):
    """Straight-line scalar transcription of the peephole cell (H=1).

    Written against the gate equations directly, with no numpy, as an
    independent check of the vectorized implementation.
    """
    (u_i, u_f, u_c, u_o, w_i, w_f, w_c, w_o,
     v_i, v_f, v_o, b_i, b_f, b_c, b_o) = params

    def sig(z):
        if z >= 0.0:
            return 1.0 / (1.0 + math.exp(-z))
        e = math.exp(z)
        return e / (1.0 + e)

    i = sig(u_i * x + w_i * h_prev + v_i * c_prev + b_i)
    f = sig(u_f * x + w_f * h_prev + v_f * c_prev + b_f)
    c = f * c_prev + i * math.tanh(u_c * x + w_c * h_prev + b_c)
    o = sig(u_o * x + w_o * h_prev + v_o * c + b_o)
    h = o * math.tanh(c)
    return h, c


def scalar_cell(params):
    """The H=1, D_in=1 cell holding the 15 scalars of `scalar_cell_oracle`.

    The oracle's order u_i..u_o, w_i..w_o, v_i, v_f, v_o, b_i..b_o is the
    block order U, W, V, b.
    """
    return dict(
        U=params[0:4].reshape(4, 1), W=params[4:8].reshape(4, 1),
        V=params[8:11], b=params[11:15],
    )


def traced_peak(call):
    """(call(), the peak bytes tracemalloc saw allocated while it ran)."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def write_dataset_files(accounts, tmp_path, prefix=""):
    accounts_path = tmp_path / f"{prefix}accounts.csv"
    tweets_path = tmp_path / f"{prefix}tweets.csv"
    save_dataset(accounts, accounts_path, tweets_path)
    return accounts_path, tweets_path


def small_accounts():
    return [
        Account("h1", 0, ["love you haha", "thank friend lol"]),
        Account("h2", 0, ["happy birthday miss you"]),
        Account("b1", 1, ["check awesome sale http://t.co/a"]),
        Account("b2", 1, ["click deal offer http://t.co/b", "read this http://t.co/c"]),
    ]
