#!/usr/bin/env python3
"""Write the bundled untrained (random-init) checkpoint for the toy corpus.

Useful as an evaluation baseline: metrics run fine on it. Its Spearman on
data/toy_sts_test.tsv is 0.968, not near zero, because the toy gold scores
are derived from token overlap, which even random-init embeddings track.

Deterministic for a fixed seed. The default paths resolve against the
repository root, so running it from any directory rewrites the bundled
data/toy_untrained.ckpt. Rerun it whenever data/toy_corpus.txt or the
checkpoint format VERSION changes.
"""

import argparse
from pathlib import Path

from sarcse.checkpoint import Checkpoint, pack_model, save_checkpoint
from sarcse.corpus import build_vocab, token_frequency
from sarcse.trainer import TrainConfig, init_model

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", default=str(DATA_DIR / "toy_corpus.txt"))
    parser.add_argument("--out", default=str(DATA_DIR / "toy_untrained.ckpt"))
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    cfg = TrainConfig(embed_dim=32, enc_channels=64, mix_channels=3, batch_size=16, seed=args.seed)
    vocab = build_vocab(args.corpus)
    freq = token_frequency(args.corpus, vocab)
    _, table, params = init_model(cfg, vocab)
    ckpt = Checkpoint(
        config=cfg.to_flat(),
        vocab=vocab,
        freq=freq,
        tensors=pack_model(table, params),
        step=0,
        best_dev=None,
    )
    save_checkpoint(ckpt, args.out)
    print(f"untrained checkpoint ({len(vocab)} vocab ids) -> {args.out}")


if __name__ == "__main__":
    main()
