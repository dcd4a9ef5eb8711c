#!/usr/bin/env python3
"""Train the classifier on a synthetic corpus and score held-out accounts.

The generator plants a known signal: bot accounts push promotional words
and links, human accounts chat in social words. Training runs the full
recipe (SGD momentum 0.9, lr 0.01, batch 64, 30 epochs, dropout decaying
0.5 -> 0.1) at a desk-scale hidden size.
"""

from botlstm import (
    BOT,
    ModelConfig,
    TrainingConfig,
    evaluate,
    forward_batch,
    init_params,
    make_examples,
    report_json,
    split_accounts,
    synthetic,
    train,
)

accounts, vocab, table = synthetic(seed=7, n_per_class=25)
train_accounts, test_accounts = split_accounts(accounts, 0.7, seed=7)
train_examples, _ = make_examples(train_accounts, vocab)
test_examples, _ = make_examples(test_accounts, vocab)
print(f"{len(train_accounts)} training accounts -> {len(train_examples)} tweets, "
      f"{len(test_accounts)} held-out accounts")

model = init_params(
    ModelConfig(vocab_size=len(vocab), embed_dim=table.dim, hidden=16, layers=3),
    rng_seed=7,
    embedding=table,
)
config = TrainingConfig(epochs=15, seed=7)  # shorter run for a demo
history = train(model, train_examples, config)

print("\nepoch  loss    acc    dropout")
for e in history:
    if e["epoch"] % 3 == 0 or e["epoch"] == 1:
        print(f"{e['epoch']:5d}  {e['loss']:.4f}  {e['accuracy']:.3f}  {e['dropout']:.3f}")

report = evaluate(model, test_examples)
print("\nheld-out metrics:")
print(report_json(report))

print("sample posteriors:")
sample = test_examples[:3]
for ex, p in zip(sample, forward_batch(model, [ex.ids for ex in sample]).probabilities[:, BOT]):
    print(f"  {ex.account_id:10} true={'bot' if ex.label == BOT else 'human':5} "
          f"p_bot={float(p):.3f}")
