#!/usr/bin/env bash
# End-to-end toy pipeline: vocabulary, training, evaluation, embedding
# export, and both sweep harnesses. Writes everything under runs/.
set -euo pipefail
cd "$(dirname "$0")/.."
# Run from a clean checkout without installing the package.
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

CORPUS=data/toy_corpus.txt
DEV=data/toy_sts_dev.tsv
TEST=data/toy_sts_test.tsv
CFG=(--set max_steps=200 --set batch_size=16 --set embed_dim=32
     --set enc_channels=64 --set mix_channels=3 --set eval_every=50 --set seed=7)

python3 -m sarcse build-vocab "$CORPUS" --out runs/vocab
python3 -m sarcse train "$CORPUS" "$DEV" --out runs/train "${CFG[@]}"
python3 -m sarcse eval runs/train/best.ckpt "$TEST" --out runs/eval --token-report
head -3 "$CORPUS" > runs/sample_sentences.txt
python3 -m sarcse embed runs/train/best.ckpt runs/sample_sentences.txt --out runs/sample_embeddings.tsv
python3 -m sarcse ablate "$CORPUS" "$DEV" "$TEST" --out runs/ablate "${CFG[@]}"
python3 -m sarcse sweep-theta "$CORPUS" "$DEV" "$TEST" --out runs/sweep "${CFG[@]}"

echo
echo "== eval summary =="
cat runs/eval/summary.txt
echo "== ablation =="
cat runs/ablate/ablation.csv
echo "== theta sweep =="
cat runs/sweep/theta_sweep.csv
