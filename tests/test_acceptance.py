"""Acceptance suite.

Each test is one gating criterion at its stated tolerance; the conftest hook
prints a [PASS]/[FAIL] line per criterion. Run with:

    pytest tests/test_acceptance.py -v
"""

import json
import math

import numpy as np
import pytest

from gradcatalog import primitive_cases
from oracles import grad_check, oracle_spearman, token_weight
from sarcse.autodiff import Tensor, conv1d_valid, transposed_conv1d
from sarcse.cli import main
from sarcse.corpus import PAD_ID, SentenceBatch, Vocab, make_batch
from sarcse.embeddings import init_table
from sarcse.evaluation import alignment, spearman, uniformity
from sarcse.losses import info_nce, reconstruction_loss, token_weights
from sarcse.model import KERNEL_SIZES, encode, forward_pair, init_params, param_shapes
from sarcse.trainer import TrainConfig, objective

TOY_TRAIN_ARGS = [
    "--set", "max_steps=200", "--set", "batch_size=16", "--set", "embed_dim=32",
    "--set", "enc_channels=64", "--set", "mix_channels=3", "--set", "eval_every=50",
    "--set", "seed=7",
]


def assert_tracked_outputs(out, reference):
    """Every file under `reference`, a tracked `runs/` directory, has the same
    bytes under `out`. Checkpoints are regenerated, not tracked, so they are
    skipped."""
    names = sorted(p.relative_to(reference) for p in reference.rglob("*") if p.is_file() and p.suffix != ".ckpt")
    assert names, f"no tracked outputs under {reference}"
    for name in names:
        assert (out / name).read_bytes() == (reference / name).read_bytes(), str(name)


# -- criterion 1: gradient fidelity -------------------------------------------


def _feature_map_gap(x_data, lengths, params):
    gaps = []
    starts = np.cumsum(lengths) - lengths
    for ks in KERNEL_SIZES:
        fm = conv1d_valid(Tensor(x_data), params[f"enc.k{ks}.kernels"], params[f"enc.k{ks}.bias"], lengths).data
        for start, n in zip(starts - np.arange(len(lengths)) * (ks - 1), lengths - ks + 1):
            if n < 2:
                continue
            srt = np.sort(fm[start:start + n], axis=0)
            gaps.append(float((srt[-1] - srt[-2]).min()))
    return min(gaps) if gaps else np.inf


def _objective_point():
    """Full-objective check point: B=3 sentences of 6 tokens, away from
    pooling ties under both dropout views."""
    embed_dim, enc_channels, mix_channels = 4, 6, 2
    cfg = TrainConfig(embed_dim=embed_dim, enc_channels=enc_channels, mix_channels=mix_channels, dropout=0.1)
    vocab = Vocab([f"w{i}" for i in range(10)])
    sentences = ["w0 w1 w2 w3 w4 w5", "w2 w3 w4 w5 w6 w7", "w9 w8 w0 w3 w6 w1"]
    batch = make_batch(sentences, vocab)
    freq_raw = np.random.default_rng(3).uniform(0.0, 1.0, size=len(vocab))
    freq_raw[0] = 0.0
    freq = freq_raw / freq_raw.sum()
    dropout_seed = 1234

    names = list(param_shapes(embed_dim, enc_channels, mix_channels))

    def loss_of(table, *param_tensors):
        """The trainer's own objective at this point."""
        params = dict(zip(names, param_tensors))
        loss, _ = objective(cfg, batch, table, params, freq, np.random.default_rng(dropout_seed))
        return loss

    # pick an init whose pooled maxima have a solid margin under both views
    for seed in range(50):
        rng = np.random.default_rng(seed)
        table = init_table(vocab, embed_dim, 0.6, rng, dtype=np.float64)
        params = init_params(embed_dim, enc_channels, mix_channels, rng, dtype=np.float64)
        packing, x, _, _ = forward_pair(batch, table, params, cfg.dropout, np.random.default_rng(dropout_seed))
        gap = _feature_map_gap(x.data, packing.lengths, params)
        if gap > 1e-3:
            arrays = [table.data] + [params[name].data for name in names]
            return loss_of, arrays
    raise RuntimeError("no tie-free initialization found")


def test_criterion_01_gradient_fidelity():
    for name, f, arrays in primitive_cases():
        err = grad_check(f, arrays)
        assert err <= 1e-4, f"primitive {name}: relative error {err}"
    loss_of, arrays = _objective_point()
    err = grad_check(loss_of, arrays)
    assert err <= 1e-4, f"full objective: relative error {err}"


# -- criterion 2: embedding length law -----------------------------------------


def test_criterion_02_embedding_length_law():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(8, 3)))
    for _ in range(25):
        enc_channels = int(rng.integers(2, 65))
        mix_channels = int(rng.integers(1, 5))
        params = init_params(3, enc_channels, mix_channels, np.random.default_rng(1), dtype=np.float64)
        z, _ = encode(x, [8], params)
        assert z.shape == (1, mix_channels * (enc_channels - 1))
    reference = init_params(3, 500, 3, np.random.default_rng(2), dtype=np.float64)
    z, _ = encode(x, [8], reference)
    assert z.shape == (1, 1497)


# -- criterion 3: self-adaptive weight table ------------------------------------


def test_criterion_03_token_weight_table():
    assert abs(token_weight(0.0, 0.1, 50.0) - 1.0) <= 1e-12
    assert abs(token_weight(0.004, 0.1, 50.0) - 0.8) <= 1e-12
    assert abs(token_weight(0.018, 0.1, 50.0) - 0.1) <= 1e-12
    assert abs(token_weight(0.5, 0.1, 50.0) - 0.1) <= 1e-12
    freqs = np.sort(np.random.default_rng(1).uniform(0.0, 1.0, size=10_000))
    weights = np.array([token_weight(f, 0.1, 50.0) for f in freqs])
    assert (weights >= 0.1 - 1e-15).all() and (weights <= 1.0 + 1e-15).all()
    assert (np.diff(weights) <= 1e-15).all(), "weights must be nonincreasing in frequency"


# -- criterion 4: contrastive loss analytic cases -------------------------------


def test_criterion_04_info_nce_cases():
    rng = np.random.default_rng(2)
    single = info_nce(Tensor(rng.normal(size=(1, 7))), Tensor(rng.normal(size=(1, 7))), 0.05)
    assert float(single.data) == 0.0

    row = rng.normal(size=4)
    pair = np.stack([row, row])
    loss = float(info_nce(Tensor(pair), Tensor(pair.copy()), 0.05).data)
    assert abs(loss - math.log(2.0)) <= 1e-10

    for _ in range(1000):
        bsz = int(rng.integers(1, 7))
        dim = int(rng.integers(2, 10))
        z = rng.normal(size=(bsz, dim))
        za = rng.normal(size=(bsz, dim))
        base = float(info_nce(Tensor(z), Tensor(za), 0.05).data)
        assert base >= -1e-12
        c = float(rng.uniform(0.1, 100.0))
        scaled = float(info_nce(Tensor(c * z), Tensor(c * za), 0.05).data)
        assert abs(scaled - base) <= 1e-9


# -- criterion 5: adjoint identity ----------------------------------------------


def test_criterion_05_adjoint_identity():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        p = int(rng.integers(5, 13))
        d = int(rng.integers(1, 6))
        ks = int(rng.integers(1, 6))
        c = int(rng.integers(1, 8))
        u = rng.normal(size=(p, d))
        v = rng.normal(size=(p - ks + 1, c))
        k = rng.normal(size=(c, ks, d))
        lhs = float((conv1d_valid(Tensor(u), Tensor(k), Tensor(np.zeros(c)), [p]).data * v).sum())
        rhs = float((transposed_conv1d(Tensor(v), Tensor(k), Tensor(np.zeros(d)), [p - ks + 1]).data * u).sum())
        assert abs(lhs - rhs) <= 1e-10


# -- criterion 6: rank-correlation oracle equivalence ----------------------------


def test_criterion_06_spearman_oracle():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 51))
        if rng.random() < 0.5:
            x = rng.integers(0, max(2, n // 3), size=n).astype(float)  # many ties
        else:
            x = rng.normal(size=n)
        y = rng.normal(size=n)
        if len(set(x.tolist())) < 2:
            continue
        assert abs(spearman(x, y) - oracle_spearman(list(x), list(y))) <= 1e-12
        checked += 1

    x = rng.normal(size=25)
    y = rng.normal(size=25)
    base = spearman(x, y)
    assert abs(spearman(np.exp(x) + 2 * x, y ** 3 + 5 * y) - base) <= 1e-12


# -- criterion 7: alignment / uniformity analytic cases --------------------------


def test_criterion_07_alignment_uniformity():
    v = np.array([0.6, 0.8])
    assert alignment([(v, v.copy())]) == 0.0
    assert uniformity([v, v.copy()]) == 0.0
    anti = uniformity([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
    assert abs(anti - (-8.0)) <= 1e-10

    rng = np.random.default_rng(5)
    embs = [rng.normal(size=6) for _ in range(20)]
    pairs = [(embs[i], embs[i + 10]) for i in range(10)]
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    rotated = [q @ e for e in embs]
    rotated_pairs = [(rotated[i], rotated[i + 10]) for i in range(10)]
    assert abs(alignment(rotated_pairs) - alignment(pairs)) <= 1e-8
    assert abs(uniformity(rotated) - uniformity(embs)) <= 1e-8


# -- criterion 8: mask / padding invariance ---------------------------------------


def test_criterion_08_padding_invariance():
    vocab = Vocab([f"w{i}" for i in range(40)])
    table = init_table(vocab, 8, 0.4, np.random.default_rng(6), dtype=np.float64)
    params = init_params(8, 10, 2, np.random.default_rng(7), dtype=np.float64)
    freq_raw = np.random.default_rng(8).uniform(0, 1, size=len(vocab))
    freq_raw[0] = 0.0
    freq = freq_raw / freq_raw.sum()
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(5, 14))
        words = " ".join(f"w{rng.integers(0, 40)}" for _ in range(n))
        plain = make_batch([words], vocab)
        extra = ((0, 0), (0, int(rng.integers(1, 9))))
        padded = SentenceBatch(np.pad(plain.ids, extra, constant_values=PAD_ID), plain.lengths)
        outputs = []
        for batch in (plain, padded):
            packing, x, z, recons = forward_pair(batch, table, params, 0.0, np.random.default_rng(0))
            rows, positions = packing.index
            at = (rows % 1, positions)      # both views are the batch's one sentence
            w = token_weights(batch.ids[at], freq, 0.1, 50.0)
            real = positions < batch.lengths[at[0]]      # not a PAD position
            loss = reconstruction_loss(x, recons, w, real, packing.lengths)
            outputs.append((z.data.tobytes(), loss.data.tobytes()))
        assert outputs[0][0] == outputs[1][0], "embedding changed under extra padding"
        assert outputs[0][1] == outputs[1][1], "reconstruction loss changed under extra padding"


# -- criteria 9 and 10: determinism and smoke convergence -------------------------


@pytest.fixture(scope="module")
def toy_runs(toy_data_dir, tmp_path_factory):
    base = tmp_path_factory.mktemp("toy_runs")
    corpus = str(toy_data_dir / "toy_corpus.txt")
    dev = str(toy_data_dir / "toy_sts_dev.tsv")
    outs = []
    for name in ("run_a", "run_b"):
        out = base / name
        code = main(["train", corpus, dev, "--out", str(out), *TOY_TRAIN_ARGS])
        assert code == 0
        outs.append(out)
    return outs


def test_criterion_09_training_determinism(toy_runs):
    run_a, run_b = toy_runs
    for name in ("best.ckpt", "last.ckpt", "train_log.csv"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name


def test_criterion_10_smoke_convergence(toy_runs, toy_data_dir):
    margin = json.loads((toy_data_dir / "smoke_margin.json").read_text())["min_relative_reduction"]
    rows = (toy_runs[0] / "train_log.csv").read_text().splitlines()[1:]
    totals = {int(r.split(",")[0]): float(r.split(",")[4]) for r in rows}
    first, last = totals[1], totals[200]
    reduction = (first - last) / first
    assert reduction >= margin, f"loss fell {reduction:.1%}, gate is {margin:.0%}"


def test_tracked_reference_outputs(toy_runs, toy_data_dir, tmp_path):
    """The committed runs/ outputs are what scripts/reproduce_toy.sh gives:
    its vocabulary, its training run, `eval --token-report` on its best
    checkpoint, the sample sentences and their embeddings. Criteria 11 and
    12 check the grids. Regenerate them with that script when a change moves
    output bits, config keys or checkpoint bytes."""
    runs, best = toy_data_dir.parent / "runs", toy_runs[0] / "best.ckpt"
    corpus = toy_data_dir / "toy_corpus.txt"
    assert main(["build-vocab", str(corpus), "--out", str(tmp_path / "vocab")]) == 0
    assert_tracked_outputs(tmp_path / "vocab", runs / "vocab")
    assert_tracked_outputs(toy_runs[0], runs / "train")
    out = tmp_path / "eval"
    assert main(["eval", str(best), str(toy_data_dir / "toy_sts_test.tsv"), "--out", str(out), "--token-report"]) == 0
    assert_tracked_outputs(out, runs / "eval")
    sample = "".join(corpus.read_text(encoding="utf-8").splitlines(keepends=True)[:3])
    assert (runs / "sample_sentences.txt").read_text(encoding="utf-8") == sample
    embeddings = tmp_path / "sample_embeddings.tsv"
    assert main(["embed", str(best), str(runs / "sample_sentences.txt"), "--out", str(embeddings)]) == 0
    assert embeddings.read_bytes() == (runs / "sample_embeddings.tsv").read_bytes()


# -- criterion 11: ablation harness ------------------------------------------------


def test_criterion_11_ablation_harness(toy_data_dir, tmp_path):
    out = tmp_path / "ablate"
    code = main([
        "ablate",
        str(toy_data_dir / "toy_corpus.txt"),
        str(toy_data_dir / "toy_sts_dev.tsv"),
        str(toy_data_dir / "toy_sts_test.tsv"),
        "--out", str(out), *TOY_TRAIN_ARGS,
    ])
    assert code == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0] == "# seed=7"
    assert lines[1] == "ablation,dev_spearman,test_spearman"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == ["full", "no_sal", "no_sal_no_decoder"]

    log = (out / "no_sal_no_decoder" / "train_log.csv").read_text().splitlines()[1:]
    assert all(r.split(",")[2] == "0.0" and r.split(",")[3] == "0.0" for r in log)
    assert_tracked_outputs(out, toy_data_dir.parent / "runs" / "ablate")

    # informative only: the reference ordering is full > no_sal > no_sal_no_decoder
    scores = {r[0]: r[2] for r in rows}
    print(f"ablation test spearman (informative): {scores}")


# -- criterion 12: theta-sweep harness ---------------------------------------------


def test_criterion_12_theta_sweep_harness(toy_data_dir, tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep-theta",
        str(toy_data_dir / "toy_corpus.txt"),
        str(toy_data_dir / "toy_sts_dev.tsv"),
        str(toy_data_dir / "toy_sts_test.tsv"),
        "--values", "0,0.1,0.2,0.3,0.4,0.5,0.6",
        "--out", str(out), *TOY_TRAIN_ARGS,
    ])
    assert code == 0
    lines = (out / "theta_sweep.csv").read_text().splitlines()
    assert lines[0] == "# seed=7"
    assert lines[1] == "theta,dev_spearman,test_spearman"
    thetas = [line.split(",")[0] for line in lines[2:]]
    assert thetas == ["0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6"]
    for theta in thetas:
        assert (out / f"theta_{theta}" / "best.ckpt").exists()
    assert_tracked_outputs(out, toy_data_dir.parent / "runs" / "sweep")
