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

Sequences run in batches: B token-id sequences, right-padded with <PAD>
to the longest length T, form a [T, B] grid. Each of the L stacked
layers runs two cells over its [T, B, D_in] input. Both run the same
left-to-right scan (`_direction_pass`): the forward cell over the grid,
the backward cell over the grid reversed in time, so a shorter column's
padding comes first and leaves its zero state as it is. The backward
hidden track is reversed back, and the two tracks are concatenated per
position, [->h_t ; <-h_t], as the next layer's input. Inverted dropout is
applied to layer outputs (never to recurrent connections), with keep-masks
drawn from one seed per sequence. The classifier reads [->h_{len_b} ;
<-h_1] - the two states that have each seen the whole sequence - through
an affine map and a max-subtracted softmax.

<PAD> positions, inside a sequence or after it, are state-carrying
no-ops in both directions: states pass through unchanged, so padding
injects no signal and receives no gradient.

All math is float64. A scan keeps only its h and c tracks; BPTT rebuilds
the gate pre-activations of all T*B steps from them with one GEMM, and
each layer's input from the layer below. The equations above are written
once, in `_gates`, which the scan and BPTT's recomputation both call.
`forward_batch` and `backward_batch` are the entry points to the
recurrence, and `forward_batch` is the only place dropout is drawn.
`bilstm_forward(model, ids)` and `backward(model, trace, label)` are
their one-sequence, dropout-free case and take no options.
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
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


def stable_softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over the last axis."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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


def _gates(pre, V, c_prev, H):
    """(h, c, i, f, g, o, tanh c) from the gate pre-activations pre [..., 4H].

    The module docstring's equations, for one step, [4H] or [B, 4H], in
    the scan and in BPTT's recomputation. No returned array is a view of
    `pre`.
    """
    i = sigmoid(pre[..., :H] + V[:H] * c_prev)
    f = sigmoid(pre[..., H : 2 * H] + V[H : 2 * H] * c_prev)
    g = np.tanh(pre[..., 2 * H : 3 * H])
    c = f * c_prev + i * g
    o = sigmoid(pre[..., 3 * H :] + V[2 * H :] * c)
    tc = np.tanh(c)
    return o * tc, c, i, f, g, o, tc


@dataclass
class DirectionCache:
    """The state tracks [T, B, H] of one left-to-right scan, in scan order.

    `ran` [T, B] marks the steps where the cell executed (False at PAD
    positions and past a column's length). The gates are not kept: BPTT
    rebuilds them from these tracks.
    """

    ran: np.ndarray
    h: np.ndarray
    c: np.ndarray


def _direction_pass(p: LstmCellParams, X: np.ndarray, ran: np.ndarray) -> DirectionCache:
    """Scan one cell left to right over X [T, B, D_in] from zero state.

    Steps where `ran` [T, B] is False carry the state through unchanged.
    """
    T, B, D = X.shape
    H = p.hidden_size
    XU = (X.reshape(T * B, D) @ p.U.T).reshape(T, B, 4 * H)
    h = np.empty((T, B, H))
    c = np.empty((T, B, H))
    h_prev = np.zeros((B, H))
    c_prev = np.zeros((B, H))
    # np.where at every step measured ~2% slower scoring, so it runs only at padded steps
    all_ran = ran.all(axis=1).tolist()
    for t in range(T):
        h_t, c_t, *_ = _gates(XU[t] + h_prev @ p.W.T + p.b, p.V, c_prev, H)
        if all_ran[t]:
            h[t], c[t] = h_t, c_t
        else:
            r = ran[t, :, None]
            h[t] = np.where(r, h_t, h_prev)
            c[t] = np.where(r, c_t, c_prev)
        h_prev, c_prev = h[t], c[t]
    return DirectionCache(ran=ran, h=h, c=c)


def _direction_backward(p: LstmCellParams, cache: DirectionCache, X, dh_out, grads):
    """BPTT through one scan.

    X [T, B, D_in] is the scan's input and `dh_out` the loss gradient
    w.r.t. its hidden track, both in scan order. Adds the cell's gradients
    into `grads` (keyed U, W, V, b) in place and returns the input
    gradient [T, B, D_in] in scan order.

    One GEMM over the T*B rows rebuilds every step's gate pre-activations
    from X and the h track. The reverse loop recomputes a step's gates from
    them and overwrites them with their gradient, so BPTT holds one
    [T, B, 4H] buffer besides its input.
    """
    T, B, H = cache.h.shape
    D = X.shape[2]
    X = X.reshape(T * B, D)  # one copy when X is a reversed view
    h, c = cache.h, cache.c
    da = (X @ p.U.T).reshape(T, B, 4 * H)
    da[1:] += (h[:-1].reshape(-1, H) @ p.W.T).reshape(T - 1, B, 4 * H)  # h_{-1} = 0
    da += p.b
    V_i, V_f, V_o = p.V[:H], p.V[H : 2 * H], p.V[2 * H :]

    zero = np.zeros((B, H))
    dh_rec = dc_rec = zero
    for t in range(T - 1, -1, -1):
        c_prev = c[t - 1] if t > 0 else zero
        row = da[t]
        _, _, i, f, g, o, tc = _gates(row, p.V, c_prev, H)
        dh = dh_out[t] + dh_rec
        do = dh * tc
        da_o = np.multiply(do * o, 1.0 - o, out=row[:, 3 * H :])
        dc = dh * o * (1.0 - tc * tc) + dc_rec + V_o * da_o
        da_i = np.multiply(dc * g * i, 1.0 - i, out=row[:, :H])
        da_f = np.multiply(dc * c_prev * f, 1.0 - f, out=row[:, H : 2 * H])
        np.multiply(dc * i, 1.0 - g * g, out=row[:, 2 * H : 3 * H])
        # where the state was carried, gradients pass straight through to step t-1
        ran = cache.ran[t]
        row[~ran] = 0.0
        r = ran[:, None]
        dh_rec = np.where(r, row @ p.W, dh)
        dc_rec = np.where(r, dc * f + V_i * da_i + V_f * da_f, dc_rec)

    da2 = da.reshape(T * B, 4 * H)
    grads["U"] += da2.T @ X
    grads["W"] += da[1:].reshape(-1, 4 * H).T @ h[:-1].reshape(-1, H)
    gV = grads["V"]
    gV[:H] += (da[1:, :, :H] * c[:-1]).sum(axis=(0, 1))
    gV[H : 2 * H] += (da[1:, :, H : 2 * H] * c[:-1]).sum(axis=(0, 1))
    gV[2 * H :] += (da[..., 3 * H :] * c).sum(axis=(0, 1))
    grads["b"] += da2.sum(axis=0)
    return (da2 @ p.U).reshape(T, B, D)


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

    def zero_grads(self) -> dict[str, np.ndarray]:
        """A zero gradient dict, keyed and shaped like trainable_tensors()."""
        return {name: np.zeros_like(t) for name, t in self.trainable_tensors()}

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
    #: The backward cell's scan, over the grid reversed in time.
    bwd: DirectionCache
    #: Inverted-dropout keep-mask [T, B, 2H]; kept values are scaled by
    #: the batch's `dropout_scale`. None when dropout is not applied.
    keep: np.ndarray | None


@dataclass
class BatchTrace:
    """Everything `backward_batch` needs from one `forward_batch` run."""

    #: [T, B] token ids, each column right-padded with PAD.
    ids: np.ndarray
    lengths: np.ndarray
    layers: list[LayerTrace] = field(repr=False)
    dropout_scale: float
    classifier_input: np.ndarray
    probabilities: np.ndarray


@dataclass
class ForwardTrace:
    """One sequence's forward run: the B=1 case of `BatchTrace`."""

    batch: BatchTrace = field(repr=False)

    @property
    def classifier_input(self) -> np.ndarray:
        return self.batch.classifier_input[0]

    @property
    def probabilities(self) -> np.ndarray:
        return self.batch.probabilities[0]


def _layer_output(lt: LayerTrace, scale: float) -> np.ndarray:
    """[->h ; <-h] per position, times the layer's dropout mask: the next layer's input."""
    out = np.concatenate((lt.fwd.h, lt.bwd.h[::-1]), axis=2)
    if lt.keep is not None:
        out *= lt.keep
        out *= scale
    return out


def _forward(model: ModelParams, ids, lengths, keep, scale: float) -> BatchTrace:
    """The batched forward over padded ids [T, B]; keep[l] is layer l's keep-mask or None."""
    T, B = ids.shape
    H = model.hidden
    active = ids != PAD_ID
    x = embed_sequence(model.embedding, ids)
    layer_traces: list[LayerTrace] = []
    for li, layer in enumerate(model.layers):
        lt = LayerTrace(
            fwd=_direction_pass(layer.fwd, x, active),
            bwd=_direction_pass(layer.bwd, x[::-1], active[::-1]),
            keep=None if keep is None else keep[li],
        )
        layer_traces.append(lt)
        x = _layer_output(lt, scale)

    classifier_input = np.concatenate((x[lengths - 1, np.arange(B), :H], x[0, :, H:]), axis=1)
    return BatchTrace(
        ids=ids,
        lengths=lengths,
        layers=layer_traces,
        dropout_scale=scale,
        classifier_input=classifier_input,
        probabilities=stable_softmax(classifier_input @ model.softmax_W.T + model.softmax_b),
    )


def forward_batch(model: ModelParams, seqs, dropout_rate: float = 0.0, seeds=None) -> BatchTrace:
    """Classify B token-id sequences in one right-padded [T, B] scan.

    With a positive `dropout_rate`, inverted dropout is applied to every
    layer's output, and `seeds` must hold one seed per sequence: sequence
    b's L keep-masks [len_b, 2H] are drawn in layer order as
    `rng.random((len_b, 2H)) >= dropout_rate` from
    `np.random.default_rng(seeds[b])`, so they do not depend on the rest
    of the batch.
    """
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError("dropout_rate must be in [0, 1)")
    seqs = [np.asarray(s, dtype=np.intp) for s in seqs]
    if not seqs or any(s.ndim != 1 or s.size == 0 for s in seqs):
        raise ValueError("need one or more non-empty 1-D id sequences")
    lengths = np.array([s.size for s in seqs])
    T, B = int(lengths.max()), len(seqs)
    ids = np.full((T, B), PAD_ID, dtype=np.intp)
    for b, s in enumerate(seqs):
        ids[: s.size, b] = s

    keep = None
    if dropout_rate > 0.0:
        if seeds is None or len(seeds) != B:
            raise ValueError("dropout needs one seed per sequence")
        keep = np.zeros((len(model.layers), T, B, 2 * model.hidden), dtype=bool)
        for b, (seed, n) in enumerate(zip(seeds, lengths)):
            rng = np.random.default_rng(int(seed))
            for mask in keep[:, :n, b]:
                mask[...] = rng.random(mask.shape) >= dropout_rate
    return _forward(model, ids, lengths, keep, 1.0 / (1.0 - dropout_rate))


def bilstm_forward(model: ModelParams, ids) -> ForwardTrace:
    """Classify one token-id sequence, without dropout: `forward_batch` at B=1."""
    return ForwardTrace(forward_batch(model, [ids]))


def backward_batch(model: ModelParams, trace: BatchTrace, labels, grads) -> None:
    """Add the gradients of sum_b -log p_b(labels[b]) into `grads`, in place.

    `grads` is keyed and shaped like `ModelParams.trainable_tensors()` (see
    `ModelParams.zero_grads`), so the embedding entry is [5, D] whatever V.
    PAD steps contribute nothing.
    """
    labels = np.asarray(labels)
    if labels.shape != trace.lengths.shape or not np.isin(labels, (0, 1)).all():
        raise ValueError(f"label must be 0 or 1, one per sequence, got {labels!r}")
    if len(trace.layers) != len(model.layers):
        raise ValueError("trace does not match model depth")
    H = model.hidden
    T, B = trace.ids.shape
    if trace.classifier_input.shape[1] != 2 * H:
        raise ValueError("trace does not match model hidden size")

    cols = np.arange(B)
    dlogits = trace.probabilities.copy()
    dlogits[cols, labels] -= 1.0
    grads["softmax.W"] += dlogits.T @ trace.classifier_input
    grads["softmax.b"] += dlogits.sum(axis=0)
    dclf = dlogits @ model.softmax_W

    dY = np.zeros((T, B, 2 * H))
    dY[trace.lengths - 1, cols, :H] = dclf[:, :H]
    dY[0, :, H:] = dclf[:, H:]

    scale = trace.dropout_scale
    for li in range(len(model.layers) - 1, -1, -1):
        lt = trace.layers[li]
        if lt.keep is not None:  # dY becomes the gradient before dropout
            dY *= lt.keep
            dY *= scale
        X = (
            embed_sequence(model.embedding, trace.ids) if li == 0
            else _layer_output(trace.layers[li - 1], scale)
        )
        layer = model.layers[li]
        dXf = _direction_backward(
            layer.fwd, lt.fwd, X, dY[..., :H], _cell_grads(grads, li, "fwd")
        )
        dXb = _direction_backward(
            layer.bwd, lt.bwd, X[::-1], dY[::-1, :, H:], _cell_grads(grads, li, "bwd")
        )
        dY = dXf + dXb[::-1]

    # frozen rows take no gradient
    rows = trace.ids - TRAINABLE_ROWS.start
    hit = (rows >= 0) & (rows < grads["embedding.vectors"].shape[0])
    np.add.at(grads["embedding.vectors"], rows[hit], dY[hit])


def _cell_grads(grads, li: int, direction: str) -> dict[str, np.ndarray]:
    return {t: grads[f"layers.{li}.{direction}.{t}"] for t in "UWVb"}


def backward(model: ModelParams, trace: ForwardTrace, label: int):
    """Gradients of -log p(label) for one sequence: `backward_batch` at B=1.

    Returns a dict keyed and shaped like `ModelParams.trainable_tensors()`.
    """
    grads = model.zero_grads()
    backward_batch(model, trace.batch, [label], grads)
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
