"""botlstm: a from-scratch bidirectional peephole-LSTM tweet classifier.

Pipeline: rule-based tweet tokenization -> corpus/embedding-intersection
vocabulary -> frozen pretrained vectors with a trainable shared OOV row ->
three stacked bidirectional peephole-LSTM layers -> softmax over
{human, bot} -> SGD-with-momentum training and six-metric evaluation.
"""

from .corpus_stats import (
    STOPWORDS,
    compare_tables,
    token_frequencies,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .datasets import (
    Account,
    LabeledSequence,
    compose_test_set,
    load_dataset,
    make_examples,
    save_dataset,
    split_accounts,
    synthetic,
)
from .embeddings import (
    EmbeddingTable,
    build_table,
    embed_sequence,
    load_glove,
    write_glove,
)
from .errors import BotlstmError, CheckpointError, DataError, InternalError, UsageError
from .metrics import (
    BOT,
    HUMAN,
    compute_metrics,
    report_json,
    tally,
)
from .nn_core import (
    BatchTrace,
    ForwardTrace,
    ModelConfig,
    ModelParams,
    backward,
    backward_batch,
    bilstm_forward,
    forward_batch,
    init_params,
)
from .text_pipeline import (
    OOV_ID,
    PAD_ID,
    RESERVED_TOKENS,
    Vocabulary,
    build_vocabulary,
    encode,
    normalize_token,
    tokenize,
)
from .trainer import (
    TrainingConfig,
    dropout_schedule,
    evaluate,
    nll_loss,
    sgd_momentum_step,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Account",
    "BOT",
    "BatchTrace",
    "BotlstmError",
    "CheckpointError",
    "DataError",
    "EmbeddingTable",
    "ForwardTrace",
    "HUMAN",
    "InternalError",
    "LabeledSequence",
    "ModelConfig",
    "ModelParams",
    "OOV_ID",
    "PAD_ID",
    "RESERVED_TOKENS",
    "STOPWORDS",
    "TrainingConfig",
    "UsageError",
    "Vocabulary",
    "backward",
    "backward_batch",
    "bilstm_forward",
    "build_table",
    "build_vocabulary",
    "compare_tables",
    "compose_test_set",
    "compute_metrics",
    "dropout_schedule",
    "embed_sequence",
    "encode",
    "evaluate",
    "forward_batch",
    "init_params",
    "load_checkpoint",
    "load_dataset",
    "load_glove",
    "make_examples",
    "nll_loss",
    "normalize_token",
    "report_json",
    "save_checkpoint",
    "save_dataset",
    "sgd_momentum_step",
    "split_accounts",
    "synthetic",
    "tally",
    "token_frequencies",
    "tokenize",
    "train",
    "write_glove",
]
