"""Stacked bidirectional peephole-LSTM classifier: forward and backward.

One cell step, for hidden size H and input x_t:

    i_t = sigma(U_i x_t + W_i h_{t-1} + V_i*c_{t-1} + b_i)
    f_t = sigma(U_f x_t + W_f h_{t-1} + V_f*c_{t-1} + b_f)
    c_t = f_t*c_{t-1} + i_t*tanh(U_c x_t + W_c h_{t-1} + b_c)
    o_t = sigma(U_o x_t + W_o h_{t-1} + V_o*c_t + b_o)
    h_t = o_t*tanh(c_t)

where * is element-wise: the peephole weights V are diagonal, stored as
vectors. The output gate peeps at the *current* cell state. Bias vectors
are an addition to the classic peephole formulation; the forget bias is
initialized to 1.0 so gradients flow early in training.

Each cell stores its weights as four gate-fused blocks, and only these
(`LstmCellParams`): U [4H, D_in], W [4H, H] and b [4H] stack the gates
i, f, c, o; V [3H] stacks the peepholes i, f, o. Model tensors are named
`layers.{l}.{fwd|bwd}.{U|W|V|b}` in gradients, optimizer state and
checkpoint order alike.

Each of the L stacked layers runs two cells over its input. Both run the
same left-to-right scan (`_direction_pass`): the forward cell over the
sequence, the backward cell over the reversed sequence, whose hidden track
is flipped back. The two tracks are concatenated per position,
[->h_t ; <-h_t], as the next layer's input. Inverted dropout is applied
to layer outputs (never to recurrent connections). The classifier reads
[->h_T ; <-h_1] - the two states that have each seen the whole sequence -
through an affine map and a max-subtracted softmax.

<PAD> positions are state-carrying no-ops in both directions: the cell is
skipped and states pass through unchanged, so padding injects no signal
and receives no gradient.

All math is float64. Gate activations are kept per step so the backward
pass can run backpropagation through time without recomputation.
`bilstm_forward` and `backward` are the only entry points to the recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embeddings import (
    EmbeddingTable,
    TRAINABLE_INIT_RANGE,
    TRAINABLE_ROWS,
    embed_sequence,
)
from .text_pipeline import PAD_ID

N_CLASSES = 2


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (no overflow warnings)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def stable_softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max())
    return e / e.sum()


@dataclass
class LstmCellParams:
    """Weights of one direction of one layer, stored as gate-fused blocks.

    U [4H, D_in] and W [4H, H] stack the input and recurrent maps, and
    b [4H] the biases, of the gates in the order i, f, c, o (H rows each).
    V [3H] holds the diagonal peephole weights of i, f, o; the candidate
    has no peephole.
    """

    U: np.ndarray
    W: np.ndarray
    V: np.ndarray
    b: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.W.shape[1]

    @property
    def input_size(self) -> int:
        return self.U.shape[1]

    def named_tensors(self):
        """(name, block) pairs in storage (checkpoint) order."""
        yield from (("U", self.U), ("W", self.W), ("V", self.V), ("b", self.b))


def _step(W, b, V, xu_t, h_prev, c_prev, H):
    """One cell update given the precomputed input contribution xu_t."""
    pre = xu_t + W @ h_prev + b
    i = sigmoid(pre[:H] + V[:H] * c_prev)
    f = sigmoid(pre[H : 2 * H] + V[H : 2 * H] * c_prev)
    g = np.tanh(pre[2 * H : 3 * H])
    c = f * c_prev + i * g
    o = sigmoid(pre[3 * H :] + V[2 * H :] * c)
    tc = np.tanh(c)
    h = o * tc
    return h, c, i, f, g, o, tc


@dataclass
class DirectionCache:
    """All per-step values of one left-to-right scan, in scan order.

    The backward cell runs the same scan over the reversed sequence, so
    its cache holds position T-1 in row 0. `ran` marks steps where the
    cell actually executed (False at PAD positions).
    """

    inputs: np.ndarray
    ran: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    c: np.ndarray
    tc: np.ndarray
    h: np.ndarray


def _direction_pass(p: LstmCellParams, X: np.ndarray, ran: np.ndarray) -> DirectionCache:
    """Scan one cell left to right over X [T, D_in] from zero state.

    Steps where `ran` is False carry the state through unchanged.
    """
    T = X.shape[0]
    H = p.hidden_size
    XU = X @ p.U.T
    i = np.zeros((T, H))
    f = np.zeros((T, H))
    g = np.zeros((T, H))
    o = np.zeros((T, H))
    c = np.zeros((T, H))
    tc = np.zeros((T, H))
    h = np.zeros((T, H))
    h_prev = np.zeros(H)
    c_prev = np.zeros(H)
    for t in range(T):
        if not ran[t]:
            h[t] = h_prev
            c[t] = c_prev
        else:
            h[t], c[t], i[t], f[t], g[t], o[t], tc[t] = _step(
                p.W, p.b, p.V, XU[t], h_prev, c_prev, H
            )
        h_prev = h[t]
        c_prev = c[t]
    return DirectionCache(
        inputs=np.ascontiguousarray(X), ran=ran, i=i, f=f, g=g, o=o, c=c, tc=tc, h=h,
    )


def _direction_backward(p: LstmCellParams, cache: DirectionCache, dh_out):
    """BPTT through one scan.

    `dh_out` is the loss gradient w.r.t. the scan's hidden track, in scan
    order. Returns (gradient dict keyed U, W, V, b; input gradient [T, D_in]
    in scan order).
    """
    T, H = cache.h.shape
    V_i, V_f, V_o = p.V[:H], p.V[H : 2 * H], p.V[2 * H :]

    da = np.zeros((T, 4 * H))
    dh_rec = np.zeros(H)
    dc_rec = np.zeros(H)
    zeros = np.zeros(H)
    for t in range(T - 1, -1, -1):
        dh = dh_out[t] + dh_rec
        if not cache.ran[t]:
            # carried state: gradients pass straight through to step t-1
            dh_rec = dh
            continue
        c_prev = cache.c[t - 1] if t > 0 else zeros
        i, f, g, o, c, tc = (
            cache.i[t], cache.f[t], cache.g[t], cache.o[t], cache.c[t], cache.tc[t],
        )
        do = dh * tc
        da_o = do * o * (1.0 - o)
        dc = dh * o * (1.0 - tc * tc) + dc_rec + V_o * da_o
        da_i = dc * g * i * (1.0 - i)
        da_f = dc * c_prev * f * (1.0 - f)
        da_c = dc * i * (1.0 - g * g)
        row = da[t]
        row[:H] = da_i
        row[H : 2 * H] = da_f
        row[2 * H : 3 * H] = da_c
        row[3 * H :] = da_o
        dh_rec = p.W.T @ row
        dc_rec = dc * f + V_i * da_i + V_f * da_f

    h_prev_track = np.vstack((np.zeros((1, H)), cache.h[:-1]))
    c_prev_track = np.vstack((np.zeros((1, H)), cache.c[:-1]))
    grads = {
        "U": da.T @ cache.inputs,
        "W": da.T @ h_prev_track,
        "V": np.concatenate((
            (da[:, :H] * c_prev_track).sum(axis=0),
            (da[:, H : 2 * H] * c_prev_track).sum(axis=0),
            (da[:, 3 * H :] * cache.c).sum(axis=0),
        )),
        "b": da.sum(axis=0),
    }
    return grads, da @ p.U


@dataclass
class BiLstmLayer:
    fwd: LstmCellParams
    bwd: LstmCellParams


@dataclass
class ModelConfig:
    vocab_size: int
    embed_dim: int
    hidden: int = 200
    layers: int = 3

    def __post_init__(self):
        for name in ("vocab_size", "embed_dim", "hidden", "layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass
class ModelParams:
    """Every weight of the classifier, embedding table included."""

    embedding: EmbeddingTable
    layers: list[BiLstmLayer]
    softmax_W: np.ndarray
    softmax_b: np.ndarray

    @property
    def hidden(self) -> int:
        return self.layers[0].fwd.hidden_size

    def named_tensors(self):
        """(name, tensor) pairs in the canonical (checkpoint) order."""
        yield "embedding.vectors", self.embedding.vectors
        for idx, layer in enumerate(self.layers):
            for dname, cell in (("fwd", layer.fwd), ("bwd", layer.bwd)):
                for tname, arr in cell.named_tensors():
                    yield f"layers.{idx}.{dname}.{tname}", arr
        yield "softmax.W", self.softmax_W
        yield "softmax.b", self.softmax_b

    def trainable_tensors(self):
        """named_tensors() with the embedding cut to vectors[TRAINABLE_ROWS] (a view)."""
        for name, tensor in self.named_tensors():
            yield name, tensor[TRAINABLE_ROWS] if name == "embedding.vectors" else tensor

    def config(self) -> ModelConfig:
        return ModelConfig(
            vocab_size=self.embedding.vocab_size,
            embed_dim=self.embedding.dim,
            hidden=self.hidden,
            layers=len(self.layers),
        )


@dataclass
class LayerTrace:
    fwd: DirectionCache
    bwd: DirectionCache
    #: Inverted-dropout mask (values 0 or 1/(1-rate)), None when not applied.
    dropout_mask: np.ndarray | None


@dataclass
class ForwardTrace:
    """Everything the backward pass needs from one forward run."""

    ids: np.ndarray
    layers: list[LayerTrace] = field(repr=False)
    classifier_input: np.ndarray
    logits: np.ndarray
    probabilities: np.ndarray


def dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability `rate`, else 1/(1-rate)."""
    return (rng.random(shape) >= rate) / (1.0 - rate)


def bilstm_forward(
    model: ModelParams,
    ids,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    train_mode: bool = False,
    dropout_masks=None,
) -> ForwardTrace:
    """Classify one token-id sequence, caching all intermediates.

    In train mode, inverted dropout at `dropout_rate` is applied to every
    layer's concatenated output (masks drawn from `rng`, or taken from
    `dropout_masks` - one entry per layer - when supplied, e.g. for
    gradient checking).
    """
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("ids must be a non-empty 1-D sequence")
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError("dropout_rate must be in [0, 1)")
    use_dropout = train_mode and (dropout_rate > 0.0 or dropout_masks is not None)
    if use_dropout and dropout_masks is None and rng is None:
        raise ValueError("train-mode dropout needs an rng or explicit masks")

    active = ids != PAD_ID
    x = embed_sequence(model.embedding, ids)
    H = model.hidden
    layer_traces: list[LayerTrace] = []
    for li, layer in enumerate(model.layers):
        fwd = _direction_pass(layer.fwd, x, active)
        bwd = _direction_pass(layer.bwd, x[::-1], active[::-1])
        out = np.concatenate((fwd.h, bwd.h[::-1]), axis=1)
        mask = None
        if use_dropout:
            mask = (
                dropout_masks[li]
                if dropout_masks is not None
                else dropout_mask(rng, out.shape, dropout_rate)
            )
            out = out * mask
        layer_traces.append(LayerTrace(fwd=fwd, bwd=bwd, dropout_mask=mask))
        x = out

    classifier_input = np.concatenate((x[-1, :H], x[0, H:]))
    logits = model.softmax_W @ classifier_input + model.softmax_b
    probabilities = stable_softmax(logits)
    return ForwardTrace(
        ids=ids,
        layers=layer_traces,
        classifier_input=classifier_input,
        logits=logits,
        probabilities=probabilities,
    )


def backward(model: ModelParams, trace: ForwardTrace, label: int):
    """Gradients of -log p(label) w.r.t. every trainable tensor.

    Returns a dict keyed and shaped like `ModelParams.trainable_tensors()`, so
    the embedding entry is [5, D] whatever V. PAD steps contribute nothing.
    """
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    if len(trace.layers) != len(model.layers):
        raise ValueError("trace does not match model depth")
    H = model.hidden
    T = trace.ids.shape[0]
    if trace.classifier_input.shape != (2 * H,):
        raise ValueError("trace does not match model hidden size")

    grads: dict[str, np.ndarray] = {}
    dlogits = trace.probabilities.copy()
    dlogits[label] -= 1.0
    grads["softmax.W"] = np.outer(dlogits, trace.classifier_input)
    grads["softmax.b"] = dlogits
    dclf = model.softmax_W.T @ dlogits

    dY = np.zeros((T, 2 * H))
    dY[-1, :H] += dclf[:H]
    dY[0, H:] += dclf[H:]

    for li in range(len(model.layers) - 1, -1, -1):
        ltrace = trace.layers[li]
        dO = dY * ltrace.dropout_mask if ltrace.dropout_mask is not None else dY
        layer = model.layers[li]
        fwd_grads, dXf = _direction_backward(layer.fwd, ltrace.fwd, dO[:, :H])
        bwd_grads, dXb = _direction_backward(layer.bwd, ltrace.bwd, dO[::-1, H:])
        for tname, arr in fwd_grads.items():
            grads[f"layers.{li}.fwd.{tname}"] = arr
        for tname, arr in bwd_grads.items():
            grads[f"layers.{li}.bwd.{tname}"] = arr
        dY = dXf + dXb[::-1]

    # frozen rows take no gradient; per-row sums keep sequence order
    emb_grad = np.zeros_like(model.embedding.vectors[TRAINABLE_ROWS])
    rows = trace.ids - TRAINABLE_ROWS.start
    hit = (rows >= 0) & (rows < emb_grad.shape[0])
    np.add.at(emb_grad, rows[hit], dY[hit])
    grads["embedding.vectors"] = emb_grad
    return grads


def _glorot(rng: np.random.Generator, shape, blocks: int = 1) -> np.ndarray:
    """`blocks` stacked [fan_out, fan_in] maps, uniform within +-sqrt(6/(fan_in+fan_out)).

    One draw of the stack gives the same values as one draw per map in order.
    """
    fan_out, fan_in = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (blocks * fan_out, fan_in))


def _init_cell(rng: np.random.Generator, hidden: int, d_in: int) -> LstmCellParams:
    b = np.zeros(4 * hidden)
    b[hidden : 2 * hidden] = 1.0  # forget gate
    return LstmCellParams(
        U=_glorot(rng, (hidden, d_in), blocks=4),
        W=_glorot(rng, (hidden, hidden), blocks=4),
        V=np.zeros(3 * hidden),
        b=b,
    )


def init_params(
    config: ModelConfig, rng_seed: int, embedding: EmbeddingTable | None = None
) -> ModelParams:
    """Seeded initialization.

    Input/recurrent matrices are uniform within +-sqrt(6/(fan_in+fan_out)),
    peepholes start at zero, biases at zero except the forget bias at 1.0.
    When no embedding table is supplied, a random one is created with the
    usual trainable rows (OOV + meme tokens) and a zero PAD row.
    """
    rng = np.random.default_rng(rng_seed)
    if embedding is None:
        vectors = rng.uniform(
            -TRAINABLE_INIT_RANGE,
            TRAINABLE_INIT_RANGE,
            (config.vocab_size, config.embed_dim),
        )
        vectors[PAD_ID] = 0.0
        embedding = EmbeddingTable(vectors=vectors)
    else:
        if embedding.vocab_size != config.vocab_size or embedding.dim != config.embed_dim:
            raise ValueError(
                "embedding table does not match the configured vocab/dim"
            )

    layers = []
    for li in range(config.layers):
        d_in = config.embed_dim if li == 0 else 2 * config.hidden
        layers.append(
            BiLstmLayer(
                fwd=_init_cell(rng, config.hidden, d_in),
                bwd=_init_cell(rng, config.hidden, d_in),
            )
        )
    softmax_W = _glorot(rng, (N_CLASSES, 2 * config.hidden))
    softmax_b = np.zeros(N_CLASSES)
    return ModelParams(
        embedding=embedding, layers=layers, softmax_W=softmax_W, softmax_b=softmax_b
    )
