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

The model is one ordered dict of named arrays (`ModelParams.tensors`), and
gradients, optimizer state and the checkpoint use the same names in the
same order. Their names, order and shapes are stated once, in
`ModelConfig.tensor_shapes()`. Each cell stores its weights as four
gate-fused blocks, `layers.{l}.{fwd|bwd}.{U|W|V|b}`: U, W and b stack the
gates i, f, c, o; V stacks the peepholes i, f, o. `_cell` picks one cell's
blocks out of the parameter or the gradient dict.

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

The math runs in the tensors' dtype: every array the scan, BPTT and the
classifier make takes the dtype of its input. `init_params`,
`build_table` and `load_checkpoint` give float32, so training and
scoring run in float32. A sequence's forward pass does not depend on
the rest of its batch: the scan multiplies a one-row batch as two rows
(`_matmul`), and the classifier is a product and a sum rather than a
GEMM, so at paper shape a sequence scored alone gets the same bits as
in a chunk (BLAS's small-matrix kernels still round a few-row product
differently at small shapes).

`forward_batch` hands `backward_batch` plain arrays (`BatchTrace`): the
keep-masks and, on a training trace (one given `seeds`), each scan's h
and c tracks and every step's gates i, f, g and o, written over the
input-projection buffer the scan has just consumed. The c track and the
gates exist only on a training scan; a scoring scan writes only the h
track the next layer reads, and its trace keeps no tracks. BPTT reads
the gates instead of recomputing them and rebuilds each layer's input
from the layer below, taking each layer's tracks off the trace as it
reaches them, so a trace serves one `backward_batch`. `_gates` holds
the equations above, and only `forward_batch` draws dropout.
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


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, with a one-row `a` multiplied as two stacked copies (row 0 kept).

    BLAS takes its gemv path for one row, which rounds differently; from
    two rows up, at the scan's shapes, each row's product has the same
    bits at any row count, so a sequence scans alike alone and in a batch.
    """
    if a.shape[0] == 1:
        return (np.concatenate((a, a)) @ b)[:1]
    return a @ b


def _cell(d: dict[str, np.ndarray], li: int, direction: str) -> dict[str, np.ndarray]:
    """Layer li's `direction` cell, {U, W, V, b}, from a name-keyed dict (not copied).

    U [4H, D_in] and W [4H, H] stack the input and recurrent maps, and
    b [4H] the biases, of the gates in the order i, f, c, o (H rows each).
    V [3H] holds the diagonal peephole weights of i, f, o; the candidate
    has no peephole. `d` is the parameter dict or a gradient dict.
    """
    return {t: d[f"layers.{li}.{direction}.{t}"] for t in "UWVb"}


def _gates(pre, V, c_prev, H):
    """(h, c, i, f, g, o) from the gate pre-activations pre [..., 4H].

    The module docstring's equations, for one step, [4H] or [B, 4H]. No
    returned array is a view of `pre`.
    """
    i = sigmoid(pre[..., :H] + V[:H] * c_prev)
    f = sigmoid(pre[..., H : 2 * H] + V[H : 2 * H] * c_prev)
    g = np.tanh(pre[..., 2 * H : 3 * H])
    c = f * c_prev + i * g
    o = sigmoid(pre[..., 3 * H :] + V[2 * H :] * c)
    return o * np.tanh(c), c, i, f, g, o


def _direction_pass(
    p: dict[str, np.ndarray], X: np.ndarray, ran: np.ndarray, keep_gates: bool = False
):
    """Scan cell `p` ({U, W, V, b}) left to right over X [T, B, D_in] from zero state.

    Returns the h track [T, B, H] and, on a training scan (`keep_gates`),
    the c track [T, B, H] and every step's gates [i|f|g|o] [T, B, 4H];
    a scoring scan returns None for both. Steps where `ran` [T, B] is
    False carry the state through unchanged; their gates are those
    computed from the carried state.
    """
    T, B, D = X.shape
    U, W, V, b = p["U"], p["W"], p["V"], p["b"]
    H = W.shape[1]
    XU = _matmul(X.reshape(T * B, D), U.T).reshape(T, B, 4 * H)
    h = np.empty((T, B, H), dtype=X.dtype)
    c = np.empty_like(h) if keep_gates else None
    h_t = c_t = np.zeros((B, H), dtype=X.dtype)
    WT = np.ascontiguousarray(W.T)  # OpenBLAS is slower on the transposed view at small B
    # np.where at every step measured ~2% slower scoring, so it runs only at padded steps
    all_ran = ran.all(axis=1).tolist()
    for t in range(T):
        h_prev, c_prev = h_t, c_t
        h_t, c_t, i, f, g, o = _gates(XU[t] + _matmul(h_prev, WT) + b, V, c_prev, H)
        if not all_ran[t]:
            r = ran[t, :, None]
            h_t, c_t = np.where(r, h_t, h_prev), np.where(r, c_t, c_prev)
        h[t] = h_t
        if keep_gates:  # XU[t] is consumed: its row holds the step's gates from here on
            c[t], row = c_t, XU[t]
            row[:, :H], row[:, H : 2 * H], row[:, 2 * H : 3 * H], row[:, 3 * H :] = i, f, g, o
    return h, c, XU if keep_gates else None


def _direction_backward(p: dict[str, np.ndarray], h, c, gates, ran, X, dh_out, grads):
    """BPTT through one scan of cell `p` ({U, W, V, b}).

    h, c, `gates` and `ran` are the scan's tracks, gate activations and
    step mask, X [T, B, D_in] its input and `dh_out` the loss gradient
    w.r.t. h, all in scan order. Adds the cell's gradients into `grads`
    (keyed like `p`) in place and returns the input gradient [T, B, D_in]
    in scan order.

    The reverse loop reads each step's i, f, g and o from `gates`, as the
    scan computed them, and writes their pre-activation gradients into a
    new [T, B, 4H] buffer; it writes to none of the scan's arrays.
    """
    T, B, H = h.shape
    D = X.shape[2]
    U, W, V = p["U"], p["W"], p["V"]
    X = X.reshape(T * B, D)  # one copy when X is a reversed view
    da = np.empty_like(gates)
    V_i, V_f, V_o = V[:H], V[H : 2 * H], V[2 * H :]

    zero = np.zeros((B, H), dtype=h.dtype)
    dh_rec = dc_rec = zero
    for t in range(T - 1, -1, -1):
        c_prev = c[t - 1] if t > 0 else zero
        row, gates_t = da[t], gates[t]
        i, f, g, o = (gates_t[:, k * H : (k + 1) * H] for k in range(4))
        tc = np.tanh(c[t])
        dh = dh_out[t] + dh_rec
        do = dh * tc
        da_o = np.multiply(do * o, 1.0 - o, out=row[:, 3 * H :])
        dc = dh * o * (1.0 - tc * tc) + dc_rec + V_o * da_o
        da_i = np.multiply(dc * g * i, 1.0 - i, out=row[:, :H])
        da_f = np.multiply(dc * c_prev * f, 1.0 - f, out=row[:, H : 2 * H])
        np.multiply(dc * i, 1.0 - g * g, out=row[:, 2 * H : 3 * H])
        # where the state was carried, gradients pass straight through to step t-1
        row[~ran[t]] = 0.0
        r = ran[t, :, None]
        dh_rec = np.where(r, row @ W, dh)
        dc_rec = np.where(r, dc * f + V_i * da_i + V_f * da_f, dc_rec)

    da2 = da.reshape(T * B, 4 * H)
    grads["U"] += da2.T @ X
    grads["W"] += da[1:].reshape(-1, 4 * H).T @ h[:-1].reshape(-1, H)
    gV = grads["V"]
    gV[:H] += (da[1:, :, :H] * c[:-1]).sum(axis=(0, 1))
    gV[H : 2 * H] += (da[1:, :, H : 2 * H] * c[:-1]).sum(axis=(0, 1))
    gV[2 * H :] += (da[..., 3 * H :] * c).sum(axis=(0, 1))
    grads["b"] += da2.sum(axis=0)
    return (da2 @ U).reshape(T, B, D)


@dataclass
class ModelConfig:
    vocab_size: int
    embed_dim: int
    hidden: int
    layers: int

    def __post_init__(self):
        for name in ("vocab_size", "embed_dim", "hidden", "layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    def tensor_shapes(self):
        """Each tensor's (name, shape), in storage (checkpoint) order (a generator).

        The embedding [V, D]; per layer, fwd then bwd, a cell's U [4H, D_in],
        W [4H, H], V [3H] and b [4H], with D_in = D on layer 0 and 2H (both
        directions' outputs) above; the softmax W [2, 2H] and b [2].
        """
        H = self.hidden
        yield "embedding.vectors", (self.vocab_size, self.embed_dim)
        for li in range(self.layers):
            d_in = self.embed_dim if li == 0 else 2 * H
            for direction in ("fwd", "bwd"):
                for t, shape in zip("UWVb", ((4 * H, d_in), (4 * H, H), (3 * H,), (4 * H,))):
                    yield f"layers.{li}.{direction}.{t}", shape
        yield "softmax.W", (N_CLASSES, 2 * H)
        yield "softmax.b", (N_CLASSES,)


@dataclass
class ModelParams:
    """Every weight of the classifier, embedding table included.

    `tensors` maps each name of `ModelConfig.tensor_shapes()` to its array,
    in that order.
    """

    tensors: dict[str, np.ndarray]

    @property
    def hidden(self) -> int:
        return self.tensors["layers.0.fwd.W"].shape[1]

    @property
    def layers(self) -> list[tuple[dict[str, np.ndarray], dict[str, np.ndarray]]]:
        """Per layer, its (fwd, bwd) cells (see `_cell`)."""
        n = sum(name.endswith(".fwd.U") for name in self.tensors)
        return [(_cell(self.tensors, li, "fwd"), _cell(self.tensors, li, "bwd")) for li in range(n)]

    def trainable_tensors(self):
        """`tensors.items()` with the embedding cut to vectors[TRAINABLE_ROWS] (a view)."""
        for name, tensor in self.tensors.items():
            yield name, tensor[TRAINABLE_ROWS] if name == "embedding.vectors" else tensor

    def zero_grads(self) -> dict[str, np.ndarray]:
        """A zero gradient dict, keyed and shaped like trainable_tensors()."""
        return {name: np.zeros_like(t) for name, t in self.trainable_tensors()}

    def config(self) -> ModelConfig:
        vocab_size, embed_dim = self.tensors["embedding.vectors"].shape
        return ModelConfig(vocab_size, embed_dim, self.hidden, len(self.layers))


@dataclass
class BatchTrace:
    """Everything `backward_batch` needs from one `forward_batch` run."""

    #: [T, B] token ids, each column right-padded with PAD.
    ids: np.ndarray
    lengths: np.ndarray
    #: Per layer, the fwd cell's (h, c, gates) then the bwd cell's, in scan
    #: order: h and c [T, B, H], gates [i|f|g|o] [T, B, 4H], never None. Only
    #: a training trace (`forward_batch` given `seeds`) has tracks; a scoring
    #: trace's list is empty, and `backward_batch` empties a training trace's.
    tracks: list[tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]] = field(repr=False)
    #: Inverted-dropout keep-masks [L, T, B, 2H]; kept values are scaled by
    #: `dropout_scale`. None when dropout is not applied.
    keep: np.ndarray | None = field(repr=False)
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


def _layer_output(scans, keep, li: int, scale: float) -> np.ndarray:
    """Layer li's [->h ; <-h] from its (fwd, bwd) scans, times its keep-mask: the next input."""
    (h_fwd, *_), (h_bwd, *_) = scans
    out = np.concatenate((h_fwd, h_bwd[::-1]), axis=2)
    if keep is not None:
        out *= keep[li]
        out *= scale
    return out


def forward_batch(model: ModelParams, seqs, dropout_rate: float = 0.0, seeds=None) -> BatchTrace:
    """Classify B token-id sequences in one right-padded [T, B] scan.

    `seeds`, one per sequence, marks a training trace: the trace then
    keeps every layer's h and c tracks and every step's gates for
    `backward_batch`, which refuses a trace without them. A scoring
    trace keeps no tracks. With a positive `dropout_rate`, inverted
    dropout is applied to every layer's output, and `seeds` is required:
    sequence b's L keep-masks [len_b, 2H] are drawn in layer order as
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

    training = seeds is not None
    if training and len(seeds) != B:
        raise ValueError(f"need one seed per sequence, got {len(seeds)} for {B}")
    if dropout_rate > 0.0 and not training:
        raise ValueError("dropout needs one seed per sequence")
    keep = None
    if dropout_rate > 0.0:
        keep = np.zeros((len(model.layers), T, B, 2 * model.hidden), dtype=bool)
        for b, (seed, n) in enumerate(zip(seeds, lengths)):
            rng = np.random.default_rng(int(seed))
            for mask in keep[:, :n, b]:
                mask[...] = rng.random(mask.shape) >= dropout_rate

    scale = 1.0 / (1.0 - dropout_rate)
    active = ids != PAD_ID
    x = embed_sequence(model.tensors["embedding.vectors"], ids)
    tracks = []
    for li, (fwd, bwd) in enumerate(model.layers):
        scans = (_direction_pass(fwd, x, active, training),
                 _direction_pass(bwd, x[::-1], active[::-1], training))
        if training:
            tracks.append(scans)
        x = _layer_output(scans, keep, li, scale)
        del scans  # a scoring pass holds one layer's scans at a time

    H = model.hidden
    classifier_input = np.concatenate((x[lengths - 1, np.arange(B), :H], x[0, :, H:]), axis=1)
    # a product and a sum, not a GEMM: BLAS rounds [B, 2H] @ [2H, 2] differently at small B
    logits = (classifier_input[:, None, :] * model.tensors["softmax.W"]).sum(axis=2)
    return BatchTrace(
        ids=ids,
        lengths=lengths,
        tracks=tracks,
        keep=keep,
        dropout_scale=scale,
        classifier_input=classifier_input,
        probabilities=stable_softmax(logits + model.tensors["softmax.b"]),
    )


def bilstm_forward(model: ModelParams, ids) -> ForwardTrace:
    """Classify one token-id sequence, without dropout: `forward_batch` at B=1.

    The trace keeps its gates (seed 0, which rate 0 never draws from), so
    `backward` can differentiate it.
    """
    return ForwardTrace(forward_batch(model, [ids], 0.0, [0]))


def backward_batch(model: ModelParams, trace: BatchTrace, labels, grads) -> None:
    """Add the gradients of sum_b -log p_b(labels[b]) into `grads`, in place.

    `trace` must be a training trace (`forward_batch` given `seeds`) that
    still has its tracks; a scored or spent trace is a ValueError raised
    before any gradient is added. `grads` is keyed and shaped like
    `ModelParams.trainable_tensors()` (see `ModelParams.zero_grads`), so
    the embedding entry is [5, D] whatever V. PAD steps contribute
    nothing. The trace is spent: BPTT takes each layer's tracks off it as
    it reaches them, so a step holds no layer's gates past its BPTT, and
    a trace serves one call. Its ids, lengths, keep-masks, classifier
    input and probabilities stay as they were.
    """
    labels = np.asarray(labels)
    if labels.shape != trace.lengths.shape or not np.isin(labels, (0, 1)).all():
        raise ValueError(f"label must be 0 or 1, one per sequence, got {labels!r}")
    if not trace.tracks:
        raise ValueError("trace has no tracks: it is spent or scored; pass seeds to a "
                         "forward_batch of its own for each backward_batch")
    layers = model.layers
    if len(trace.tracks) != len(layers):
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
    dclf = dlogits @ model.tensors["softmax.W"]

    dY = np.zeros((T, B, 2 * H), dtype=dclf.dtype)
    dY[trace.lengths - 1, cols, :H] = dclf[:, :H]
    dY[0, :, H:] = dclf[:, H:]

    scale = trace.dropout_scale
    ran = trace.ids != PAD_ID
    for li in range(len(layers) - 1, -1, -1):
        if trace.keep is not None:  # dY becomes the gradient before dropout
            dY *= trace.keep[li]
            dY *= scale
        X = (
            embed_sequence(model.tensors["embedding.vectors"], trace.ids) if li == 0
            else _layer_output(trace.tracks[li - 1], trace.keep, li - 1, scale)
        )
        (fwd, bwd), (fwd_scan, bwd_scan) = layers[li], trace.tracks.pop()
        dXf = _direction_backward(fwd, *fwd_scan, ran, X, dY[..., :H], _cell(grads, li, "fwd"))
        del fwd_scan
        dXb = _direction_backward(
            bwd, *bwd_scan, ran[::-1], X[::-1], dY[::-1, :, H:], _cell(grads, li, "bwd")
        )
        dY = dXf + dXb[::-1]

    # frozen rows take no gradient
    rows = trace.ids - TRAINABLE_ROWS.start
    hit = (rows >= 0) & (rows < grads["embedding.vectors"].shape[0])
    np.add.at(grads["embedding.vectors"], rows[hit], dY[hit])


def backward(model: ModelParams, trace: ForwardTrace, label: int):
    """Gradients of -log p(label) for one sequence: `backward_batch` at B=1.

    Returns a dict keyed and shaped like `ModelParams.trainable_tensors()`.
    """
    grads = model.zero_grads()
    backward_batch(model, trace.batch, [label], grads)
    return grads


def _glorot(rng: np.random.Generator, block: np.ndarray, blocks: int = 1) -> None:
    """Fill `block` with `blocks` stacked maps, uniform within +-sqrt(6/(fan_in+fan_out)).

    One draw of the stack gives the same values as one draw per map in order.
    """
    fan_out, fan_in = block.shape[0] // blocks, block.shape[1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    block[...] = rng.uniform(-limit, limit, block.shape)


def init_params(
    config: ModelConfig, rng_seed: int, embedding: EmbeddingTable | None = None
) -> ModelParams:
    """Seeded initialization.

    Input/recurrent matrices are uniform within +-sqrt(6/(fan_in+fan_out)),
    peepholes start at zero, biases at zero except the forget bias at 1.0.
    When no embedding table is supplied, a random one is created with the
    usual trainable rows (OOV + meme tokens) and a zero PAD row. The draws
    run in `tensors` order.

    Every tensor is float32: each draw is made in float64 and rounded, so
    the model holds the values its checkpoint would. A supplied table is
    stored as a float32 copy, so training a model moves no other model's
    trainable rows and leaves the table as it was.
    """
    rng = np.random.default_rng(rng_seed)
    shapes = config.tensor_shapes()
    table_name, table_shape = next(shapes)
    if embedding is None:
        vectors = rng.uniform(
            -TRAINABLE_INIT_RANGE, TRAINABLE_INIT_RANGE, table_shape
        ).astype(np.float32)
        vectors[PAD_ID] = 0.0
    elif embedding.vectors.shape == table_shape:
        vectors = np.array(embedding.vectors, dtype=np.float32)
    else:
        raise ValueError("embedding table does not match the configured vocab/dim")

    model = ModelParams({
        table_name: vectors,
        **{name: np.zeros(shape, dtype=np.float32) for name, shape in shapes},
    })
    H = config.hidden
    for cells in model.layers:
        for cell in cells:
            _glorot(rng, cell["U"], blocks=4)
            _glorot(rng, cell["W"], blocks=4)
            cell["b"][H : 2 * H] = 1.0  # forget gate
    _glorot(rng, model.tensors["softmax.W"])
    return model
