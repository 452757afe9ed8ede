#!/usr/bin/env python3
"""Bytes a training step keeps for its backward pass, under tracemalloc,
and the minor page faults it takes.

Runs `sarcse.trainer.train` for a few steps on a generated corpus shaped like
the train-wide benchmark's (each line 1-3 joined toy sentences, 4-32 tokens)
and, for each step, prints two numbers counted above the traced level just
before that step's `objective`: the bytes still allocated when `backward`
starts, which is what the graph holds for its VJPs, and the peak during
`backward`. Beside them it prints the minor page faults of the process
(`ru_minflt`) from the start of `objective` to the end of `backward`: pages
the step touched for the first time since the allocator last gave them
back. Not part of the test suite.

    PYTHONPATH=src python3 scripts/graph_memory.py --enc-channels 500 --batch 64 --steps 4 --seed 5
"""

import argparse
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from make_toy_data import sentence  # noqa: E402
from sarcse import trainer  # noqa: E402
from sarcse.corpus import build_vocab, load_sts_pairs, token_frequency  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--enc-channels", type=int, default=500)
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--steps", type=int, default=4)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    corpus = [" ".join(sentence(rng) for _ in range(int(rng.integers(1, 4)))) for _ in range(2000)]
    cfg = trainer.TrainConfig(embed_dim=32, enc_channels=args.enc_channels, mix_channels=3,
                              batch_size=args.batch, max_steps=args.steps, eval_every=0, seed=args.seed)
    steps = []      # [level before the objective, live at backward, backward peak] in bytes, then minor faults
    real_objective, real_backward = trainer.objective, trainer.backward

    def faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def objective(*inputs):
        start, base = faults(), tracemalloc.get_traced_memory()[0]
        loss, row = real_objective(*inputs)
        steps.append([base, tracemalloc.get_traced_memory()[0] - base, None, start])
        return loss, row

    def backward(loss):
        tracemalloc.reset_peak()
        grads = real_backward(loss)
        step = steps[-1]
        step[2], step[3] = tracemalloc.get_traced_memory()[1] - step[0], faults() - step[3]
        return grads

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.txt"
        path.write_text("\n".join(corpus) + "\n", encoding="utf-8")
        vocab = build_vocab(path)
        freq = token_frequency(path, vocab)
    dev = load_sts_pairs(ROOT / "data" / "toy_sts_dev.tsv")
    trainer.objective, trainer.backward = objective, backward
    tracemalloc.start()
    try:
        trainer.train(cfg, corpus, dev, vocab, freq)
    finally:
        tracemalloc.stop()
        trainer.objective, trainer.backward = real_objective, real_backward
    print(f"enc_channels={args.enc_channels} batch={args.batch} seed={args.seed}")
    for i, (_, live, peak, minflt) in enumerate(steps, 1):
        print(f"step {i}: live at backward {live / 1e6:.1f} MB, backward peak {peak / 1e6:.1f} MB, "
              f"{minflt} minor faults")


if __name__ == "__main__":
    main()
