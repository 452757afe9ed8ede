import ctypes
import hashlib
import json
import os
import pathlib
import re
import struct
import subprocess
import sys
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarcse import evaluation, model, trainer
from sarcse.autodiff import GradientMap, Tensor
from sarcse.checkpoint import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    pack_model,
    save_checkpoint,
    unpack_model,
)
from sarcse.cli import EXIT_IO, main
from sarcse.corpus import (
    PAD_ID,
    Vocab,
    build_vocab,
    load_corpus,
    load_sts_pairs,
    make_batch,
    token_frequency,
)
from sarcse.embeddings import embed, init_table
from sarcse.losses import info_nce, reconstruction_loss, token_weights, total_loss
from sarcse.model import decode, encode, init_params, pack, param_shapes
from sarcse.trainer import AdamW, TrainConfig, init_model, objective, train, write_log


def reference_adamw(p, g_seq, lr, b1, b2, eps, wd):
    """Scalar AdamW recurrence in pure Python floats."""
    m = v = 0.0
    for t, g in enumerate(g_seq, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p = p - lr * wd * p - lr * m_hat / (v_hat ** 0.5 + eps)
    return p


class TestAdamW:
    """The coefficients are class constants; a test that needs other values
    sets them on the class through monkeypatch."""

    def _step(self, p, g, lr):
        tensor = Tensor(np.array([p], dtype=np.float64), requires_grad=True)
        opt = AdamW([("p", tensor)], lr=lr)
        grads = GradientMap({tensor.node_id: np.array([g], dtype=np.float64)})
        opt.step(grads)
        return float(tensor.data[0])

    def test_zero_gradient_zero_decay_leaves_parameters(self, monkeypatch):
        monkeypatch.setattr(AdamW, "WEIGHT_DECAY", 0.0)
        assert self._step(1.5, 0.0, lr=0.1) == 1.5

    def test_hand_first_step(self, monkeypatch):
        monkeypatch.setattr(AdamW, "WEIGHT_DECAY", 0.0)
        out = self._step(1.0, 1.0, lr=0.1)
        assert out == pytest.approx(0.9, abs=1e-7)

    def test_decoupled_decay_shrinks_multiplicatively(self, monkeypatch):
        monkeypatch.setattr(AdamW, "WEIGHT_DECAY", 0.05)
        out = self._step(2.0, 0.0, lr=0.1)
        assert out == pytest.approx(2.0 * (1 - 0.1 * 0.05), abs=1e-15)

    def test_matches_scalar_reference_over_many_steps(self, monkeypatch):
        rng = np.random.default_rng(0)
        for _ in range(20):
            lr, wd = rng.uniform(1e-4, 0.2), rng.uniform(0, 0.1)
            b1, b2 = rng.uniform(0.8, 0.95), rng.uniform(0.99, 0.9999)
            g_seq = list(rng.normal(size=8))
            p0 = float(rng.normal())
            tensor = Tensor(np.array([p0], dtype=np.float64), requires_grad=True)
            for name, value in (("BETA1", b1), ("BETA2", b2), ("WEIGHT_DECAY", wd)):
                monkeypatch.setattr(AdamW, name, value)
            opt = AdamW([("p", tensor)], lr=lr)
            for g in g_seq:
                grads = GradientMap({tensor.node_id: np.array([g], dtype=np.float64)})
                opt.step(grads)
            expected = reference_adamw(p0, g_seq, lr, b1, b2, 1e-8, wd)
            assert float(tensor.data[0]) == pytest.approx(expected, abs=1e-12)

    def test_nonfinite_gradient_names_parameter(self):
        tensor = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW([("mix.kernels", tensor)])
        grads = GradientMap({tensor.node_id: np.array([np.nan])})
        with pytest.raises(FloatingPointError, match="mix.kernels"):
            opt.step(grads)

    def test_flat_update_is_bitwise_the_per_parameter_loop(self):
        """float32 parameters of four shapes, one of them split across update
        blocks, over four steps; one gradient is absent (zero) on the second."""
        rng = np.random.default_rng(23)
        shapes = {"embedding.weights": (6, 4), "enc.k3.kernels": (5, 3, 4), "dec.k5.kernels": (70, 5, 200), "enc.k3.bias": (5,)}
        init = {name: rng.normal(size=shape).astype(np.float32) for name, shape in shapes.items()}
        named = [(name, Tensor(a.copy(), requires_grad=True)) for name, a in init.items()]
        ref = {name: a.copy() for name, a in init.items()}
        m = {name: np.zeros_like(a) for name, a in init.items()}
        v = {name: np.zeros_like(a) for name, a in init.items()}
        opt, lr, b1, b2, eps, wd = AdamW(named), 1e-3, 0.9, 0.999, 1e-8, 0.01
        for step in range(1, 5):
            grads = {name: rng.normal(size=a.shape).astype(np.float32) for name, a in init.items()}
            if step == 2:
                del grads["enc.k3.bias"]
            opt.step(GradientMap({p.node_id: grads[name] for name, p in named if name in grads}))
            for name, p in ref.items():     # the per-parameter loop AdamW ran before it was flat
                g = grads.get(name, np.zeros_like(p))
                m[name] *= b1
                m[name] += (1.0 - b1) * g
                v[name] *= b2
                v[name] += (1.0 - b2) * (g * g)
                m_hat, v_hat = m[name] / (1.0 - b1 ** step), v[name] / (1.0 - b2 ** step)
                p -= lr * wd * p
                p -= lr * m_hat / (np.sqrt(v_hat) + eps)
            for name, p in named:
                assert p.data.dtype == np.float32 and p.data.tobytes() == ref[name].tobytes(), (step, name)
        assert all(np.shares_memory(p.data, named[0][1].data.base) for _, p in named)

    def test_parameters_of_two_dtypes_are_refused(self):
        a = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        with pytest.raises(TypeError, match="float64"):
            AdamW([("a", a), ("b", b)])

    def test_gradient_of_another_dtype_is_refused(self):
        tensor = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
        opt = AdamW([("p", tensor)], lr=0.1)
        with pytest.raises(TypeError, match="float64"):
            opt.step(GradientMap({tensor.node_id: np.ones(1, dtype=np.float64)}))
        np.testing.assert_array_equal(tensor.data, 1.0)
        assert opt.step_count == 0

    def test_nonfinite_gradient_names_the_later_parameter(self):
        a, b = Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
        opt = AdamW([("a", a), ("b", b)])
        grads = GradientMap({b.node_id: np.array([0.0, np.inf, 0.0])})
        with pytest.raises(FloatingPointError, match="'b'"):
            opt.step(grads)
        np.testing.assert_array_equal(a.data, 1.0)


@pytest.fixture(scope="module")
def toy_setup(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("toy")
    nouns = ["dog", "cat", "man", "woman", "bird", "chef"]
    verbs = ["eats", "sees", "likes", "carries"]
    objs = ["food", "rice", "sticks", "water"]
    lines = [f"the {n} {v} the {o} ." for n in nouns for v in verbs for o in objs]
    corpus = tmp / "corpus.txt"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    dev = tmp / "dev.tsv"
    dev.write_text(
        "5.0\tthe dog eats the food .\tthe dog eats the food .\n"
        "3.5\tthe dog eats the food .\tthe dog eats the rice .\n"
        "2.0\tthe cat sees the water .\tthe man sees the water .\n"
        "0.5\tthe chef carries the sticks .\tthe bird likes the rice .\n",
        encoding="utf-8",
    )
    vocab = build_vocab(corpus)
    freq = token_frequency(corpus, vocab)
    return load_corpus(corpus), load_sts_pairs(dev), vocab, freq


def small_config(**overrides):
    base = dict(
        embed_dim=8, enc_channels=8, mix_channels=2, batch_size=8,
        max_steps=8, eval_every=4, seed=3, dropout=0.1, lr=1e-2,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_same_seed_bitwise_identical(self, toy_setup):
        sentences, dev, vocab, freq = toy_setup
        r1 = train(small_config(), sentences, dev, vocab, freq)
        r2 = train(small_config(), sentences, dev, vocab, freq)
        for name in r1.last.tensors:
            assert r1.last.tensors[name].tobytes() == r2.last.tensors[name].tobytes(), name
        assert [row.to_csv() for row in r1.log_rows] == [row.to_csv() for row in r2.log_rows]

    def test_different_seeds_differ(self, toy_setup):
        sentences, dev, vocab, freq = toy_setup
        r1 = train(small_config(seed=1), sentences, dev, vocab, freq)
        r2 = train(small_config(seed=2), sentences, dev, vocab, freq)
        assert any(
            r1.last.tensors[n].tobytes() != r2.last.tensors[n].tobytes() for n in r1.last.tensors
        )

    def test_no_decoder_ablation_reports_exact_zero(self, toy_setup):
        sentences, dev, vocab, freq = toy_setup
        result = train(small_config(theta=1.0, beta=0.0, gamma=0.0), sentences, dev, vocab, freq)
        assert all(row.recon == 0.0 and row.recon_aug == 0.0 for row in result.log_rows)
        assert all(row.token_weight_mean == 1.0 for row in result.log_rows)

    def test_no_sal_ablation_unit_weights(self, toy_setup):
        sentences, dev, vocab, freq = toy_setup
        result = train(small_config(theta=1.0), sentences, dev, vocab, freq)
        assert all(row.token_weight_mean == 1.0 for row in result.log_rows)
        assert any(row.recon > 0.0 for row in result.log_rows)

    @pytest.mark.parametrize("beta,gamma", [(0.0, 0.0), (0.0, 1e-3), (1e-3, 0.0)])
    def test_decoder_runs_iff_beta_or_gamma_positive(self, toy_setup, monkeypatch, beta, gamma):
        sentences, dev, vocab, freq = toy_setup
        calls = []
        real_decode = model.decode

        def counting_decode(*args):
            calls.append(1)
            return real_decode(*args)

        monkeypatch.setattr(model, "decode", counting_decode)
        result = train(small_config(max_steps=2, eval_every=0, beta=beta, gamma=gamma), sentences, dev, vocab, freq)
        decodes = beta > 0.0 or gamma > 0.0
        assert len(calls) == (2 if decodes else 0)     # one decode of both dropout views per step
        assert all((row.recon > 0.0) == decodes and (row.recon_aug > 0.0) == decodes for row in result.log_rows)

    def test_dev_evaluation_records_no_graph(self, toy_setup, monkeypatch):
        """Dev evaluation encodes with copies of the live weights outside the
        graph, so no encode inside `train` returns a tensor that requires grad."""
        sentences, dev, vocab, freq = toy_setup
        seen = []
        real_encode = evaluation.encode

        def watched_encode(*args):
            z, argmaxes = real_encode(*args)
            seen.append(z.requires_grad)
            return z, argmaxes

        monkeypatch.setattr(evaluation, "encode", watched_encode)
        train(small_config(max_steps=4, eval_every=2), sentences, dev, vocab, freq)
        assert seen == [False, False]

    def test_best_selection_monotone(self, toy_setup):
        sentences, dev, vocab, freq = toy_setup
        result = train(small_config(max_steps=12, eval_every=3), sentences, dev, vocab, freq)
        evals = [row.dev_spearman for row in result.log_rows if row.dev_spearman is not None]
        assert evals, "no dev evaluations recorded"
        running = []
        best = -np.inf
        for rho in evals:
            best = max(best, rho)
            running.append(best)
        assert running == sorted(running)
        assert result.best.best_dev == pytest.approx(max(evals))

    def test_pad_row_stays_zero_in_best_and_last(self, toy_setup):
        """Sentences shorter than 5 tokens pack PAD rows, which the encoder
        reads, so the table's PAD row gets gradient on every step; `train`
        pins it back to +0.0 after each update."""
        _, dev, vocab, freq = toy_setup
        short = ["the dog eats .", "the cat sees rice", "the man", "bird likes water ."]
        result = train(small_config(max_steps=6, eval_every=2, batch_size=4), short, dev, vocab, freq)
        for ckpt in (result.best, result.last):
            row = ckpt.tensors["embedding.weights"][PAD_ID]
            assert row.tobytes() == bytes(row.nbytes), ckpt.step

    def test_empty_corpus_rejected(self, toy_setup):
        _, dev, vocab, freq = toy_setup
        with pytest.raises(ValueError, match="empty corpus"):
            train(small_config(), [], dev, vocab, freq)

    def test_constant_dev_scores_rejected(self, toy_setup):
        sentences, dev, vocab, freq = toy_setup
        flat = [type(dev[0])(3.0, p.sentence_a, p.sentence_b) for p in dev]
        with pytest.raises(ValueError, match="Spearman undefined"):
            train(small_config(), sentences, flat, vocab, freq)

    def test_no_decoder_loss_is_float32(self, toy_setup):
        """With beta = gamma = 0 the exact-zero reconstruction terms take the
        contrastive term's dtype, so every training loss is float32."""
        sentences, dev, vocab, freq = toy_setup
        cfg = small_config(theta=1.0, beta=0.0, gamma=0.0)
        rng, table, params = init_model(cfg, vocab)
        loss, row = objective(cfg, make_batch(sentences[:8], vocab), table, params, freq, rng)
        assert loss.dtype == np.float32
        assert row.recon == row.recon_aug == 0.0

    def test_log_csv_layout(self, toy_setup, tmp_path):
        sentences, dev, vocab, freq = toy_setup
        result = train(small_config(max_steps=4, eval_every=2), sentences, dev, vocab, freq)
        out = tmp_path / "log.csv"
        write_log(result.log_rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "step,infonce,recon,recon_aug,total,token_weight_mean,dev_spearman"
        assert len(lines) == 5


class TestSchedule:
    """When `train` evaluates on dev, relative to the rows `on_log` receives."""

    def _events(self, toy_setup, monkeypatch, dev=None, **overrides):
        sentences, toy_dev, vocab, freq = toy_setup
        events = []
        real_dev_spearman = trainer.dev_spearman

        def counting_dev_spearman(*args):
            events.append("eval")
            return real_dev_spearman(*args)

        monkeypatch.setattr(trainer, "dev_spearman", counting_dev_spearman)
        result = train(small_config(**overrides), sentences, toy_dev if dev is None else dev, vocab, freq,
                       on_log=lambda row: events.append((row.step, row.dev_spearman)))
        return events, result

    @pytest.mark.parametrize("eval_every,max_steps,schedule", [
        (3, 8, [1, 2, "eval", 3, 4, 5, "eval", 6, 7, 8, "eval"]),
        (3, 6, [1, 2, "eval", 3, 4, 5, "eval", 6]),
        (0, 5, [1, 2, 3, 4, 5, "eval"]),
    ])
    def test_evaluates_on_cadence_then_once_if_off_it(self, toy_setup, monkeypatch, eval_every, max_steps, schedule):
        events, result = self._events(toy_setup, monkeypatch, eval_every=eval_every, max_steps=max_steps)
        assert [e if e == "eval" else e[0] for e in events] == schedule
        evaluated = [s for s in range(1, max_steps + 1) if (eval_every and s % eval_every == 0) or s == max_steps]
        assert [row.step for row in result.log_rows] == list(range(1, max_steps + 1))
        assert [row.step for row in result.log_rows if row.dev_spearman is not None] == evaluated
        # on_log gets each row once, in order; the closing evaluation fills the last row after it
        logged = [e for e in events if e != "eval"]
        assert [step for step, _ in logged] == list(range(1, max_steps + 1))
        assert (logged[-1][1] is None) == (schedule[-1] == "eval")
        assert result.last.step == max_steps

    def test_undefined_dev_spearman_keeps_last(self, toy_setup, monkeypatch, tmp_path):
        """Pairs (s, s) have cosine 1 each, so Spearman is undefined at every
        evaluation, and the best checkpoint is the last one."""
        sentences = toy_setup[0]
        path = tmp_path / "dev.tsv"
        path.write_text("".join(f"{score}\t{s}\t{s}\n" for score, s in zip([5.0, 2.0, 0.5], sentences)), encoding="utf-8")
        dev = load_sts_pairs(path)
        events, result = self._events(toy_setup, monkeypatch, dev=dev, max_steps=5, eval_every=2)
        assert events.count("eval") == 3
        assert all(row.dev_spearman is None for row in result.log_rows)
        assert result.best is result.last
        assert result.best.best_dev is None and result.best.step == 5


def _graph_nodes(loss):
    """Nodes `backward(loss)` visits: the loss and every requires_grad ancestor."""
    seen, stack = {id(loss)}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def test_objective_graph_size(toy_data_dir):
    """A step of the toy configuration (bundled vocabulary, batch 16, width
    64, seed 7) builds one packed graph of both views: 16 sentences of 8
    distinct effective lengths give as many nodes as 16 of one length, at
    most 60."""
    corpus = toy_data_dir / "toy_corpus.txt"
    vocab = build_vocab(corpus)
    freq = token_frequency(corpus, vocab)
    cfg = TrainConfig(embed_dim=32, enc_channels=64, mix_channels=3, batch_size=16, seed=7)
    words = vocab.tokens[:12]
    counts = []
    for lengths in ([5, 6, 7, 8, 9, 10, 11, 12] * 2, [9] * 16):
        rng, table, params = init_model(cfg, vocab)
        batch = make_batch([" ".join(words[:n]) for n in lengths], vocab)
        loss, _ = objective(cfg, batch, table, params, freq, rng)
        counts.append(_graph_nodes(loss))
    assert counts[0] == counts[1] <= 60


@pytest.mark.parametrize("enc_channels", [64, 500])
@pytest.mark.parametrize("beta", [2.5e-4, 0.0])
def test_objective_row_equals_per_view_passes(toy_data_dir, enc_channels, beta):
    """The log row of one packed pass over both dropout views equals, bit
    for bit, the row built from one pass per view under two successive draws
    of the same generator, with the decoder and without it."""
    corpus = toy_data_dir / "toy_corpus.txt"
    vocab = build_vocab(corpus)
    freq = token_frequency(corpus, vocab)
    cfg = TrainConfig(enc_channels=enc_channels, batch_size=16, seed=7, dropout=0.3, beta=beta, gamma=beta)
    batch = make_batch(load_corpus(corpus)[:16], vocab)
    rng, table, params = init_model(cfg, vocab)
    _, row = objective(cfg, batch, table, params, freq, rng)

    rng, table, params = init_model(cfg, vocab)
    packing = pack(batch)
    rows, positions = packing.index
    w, mask = token_weights(batch.ids, freq, cfg.theta, cfg.lam)[packing.index], positions < batch.lengths[rows]
    zs, recons = [], []
    for _ in range(2):
        x = embed(batch, table, cfg.dropout, rng)[packing.index]
        z, argmaxes = encode(x, packing.lengths, params)
        zs.append(z)
        if beta > 0.0:
            recon = decode(z, packing.lengths, argmaxes, params)
            recons.append(reconstruction_loss(x, recon, w, mask, packing.lengths).mean())
    l_info = info_nce(*zs, cfg.tau)
    l_recon, l_recon_aug = recons or [Tensor(np.zeros((), dtype=l_info.dtype))] * 2
    total = total_loss(l_info, l_recon, l_recon_aug, cfg.alpha, cfg.beta, cfg.gamma)
    expected = [float(t.data).hex() for t in (l_info, l_recon, l_recon_aug, total)]
    assert [v.hex() for v in (row.infonce, row.recon, row.recon_aug, row.total)] == expected


def test_one_draw_over_both_views_is_the_two_view_draws():
    shape = (16, 12, 32)
    stacked = np.random.default_rng(3).random((2 * shape[0], *shape[1:]))
    rng = np.random.default_rng(3)
    np.testing.assert_array_equal(stacked, np.concatenate([rng.random(shape), rng.random(shape)]))


def _op_nodes(loss):
    """Weak references to every op node in the graph of `loss` (parameters
    are leaves and stay alive)."""
    refs, seen, stack = [], set(), [loss._node]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._vjp is None:
            continue
        seen.add(id(node))
        refs.append(weakref.ref(node))
        stack.extend(node._parents)
    return refs


def test_step_graph_freed_before_next_objective(toy_setup, monkeypatch):
    """`train` drops each step's graph before it builds the next one, so at
    most one step's graph is alive at a time."""
    sentences, dev, vocab, freq = toy_setup
    real_objective, nodes, steps = trainer.objective, [], []

    def watched(*args):
        assert all(ref() is None for ref in nodes), "a previous step's graph is still alive"
        loss, row = real_objective(*args)
        nodes.extend(_op_nodes(loss))
        steps.append(row)
        return loss, row

    monkeypatch.setattr(trainer, "objective", watched)
    train(small_config(max_steps=3, eval_every=0), sentences, dev, vocab, freq)
    assert len(steps) == 3 and nodes


def test_feature_maps_die_with_their_tensors(toy_setup, monkeypatch):
    """No VJP reads an encoder feature map (pooling keeps its argmax indices),
    so each map's array is freed while the step's loss, and its graph, live."""
    sentences, _, vocab, freq = toy_setup
    cfg = small_config()
    rng, table, params = init_model(cfg, vocab)
    real_conv, maps = model.conv1d_valid, []

    def watched(*args):
        out = real_conv(*args)
        maps.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(model, "conv1d_valid", watched)
    loss, _ = objective(cfg, make_batch(sentences[:8], vocab), table, params, freq, rng)
    assert len(maps) == 3 and loss.requires_grad
    assert all(ref() is None for ref in maps), "a feature map outlived its Tensor"


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


_STEP_FAULTS = """
import resource, sys
from pathlib import Path
import numpy as np
from sarcse.corpus import build_vocab, load_corpus, load_sts_pairs, token_frequency
from sarcse.trainer import TrainConfig, train
data = Path(sys.argv[1])
corpus = data / "toy_corpus.txt"
vocab = build_vocab(corpus)
faults = []
train(TrainConfig(enc_channels=500, batch_size=16, max_steps=12, eval_every=0),
      load_corpus(corpus), load_sts_pairs(data / "toy_sts_dev.tsv"), vocab, token_frequency(corpus, vocab),
      on_log=lambda row: faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
print(" ".join(map(str, np.diff(faults)[3:])))    # steps 5-12
"""


@pytest.mark.skipif(not _has_mallopt(), reason="needs glibc's mallopt")
def test_steps_reuse_freed_heap(toy_data_dir):
    """At width 500 each step frees maps of 1-3 MB that the next step
    allocates again; `train` keeps that heap mapped, so a step takes almost
    no minor page faults (several hundred when glibc hands it back). A new
    process trains, because the heap other tests leave behind hides them."""
    src = str(pathlib.Path(trainer.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _STEP_FAULTS, str(toy_data_dir)],
                         env=env, check=True, capture_output=True, text=True)
    per_step = [int(n) for n in run.stdout.split()]
    assert len(per_step) == 8 and np.median(per_step) < 100, per_step


@pytest.mark.parametrize("libc", [OSError, TypeError, object], ids=["no-library", "no-handle", "no-mallopt"])
def test_train_without_mallopt(toy_setup, monkeypatch, libc):
    """Where no C library loads, or it has no `mallopt`, `train` keeps the
    allocator's defaults and logs the same rows."""
    sentences, dev, vocab, freq = toy_setup
    cfg = small_config(max_steps=3, eval_every=2)
    expected = [row.to_csv() for row in train(cfg, sentences, dev, vocab, freq).log_rows]
    opened = []

    def cdll(name):
        opened.append(name)
        if issubclass(libc, Exception):
            raise libc("no C library")
        return libc()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert [row.to_csv() for row in train(cfg, sentences, dev, vocab, freq).log_rows] == expected
    assert opened == [None]


def _resealed(src, dst, edit):
    """Write checkpoint `src` to `dst` with `edit(header, directory)` applied
    to its two JSON blocks, then re-seal the checksum. A block that `edit`
    returns as bytes is written as it is."""
    blob = src.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 6)
    (dir_len,) = struct.unpack_from("<I", blob, 10 + header_len)
    payload_at = 14 + header_len + dir_len
    edited = edit(json.loads(blob[10:10 + header_len]), json.loads(blob[14 + header_len:payload_at]))
    header, directory = (b if isinstance(b, bytes) else json.dumps(b).encode() for b in edited)
    body = (blob[:6] + struct.pack("<I", len(header)) + header
            + struct.pack("<I", len(directory)) + directory + blob[payload_at:-8])
    dst.write_bytes(body + hashlib.blake2b(body, digest_size=8).digest())


def _edit_entry(name, **changes):
    return lambda h, d: (h, [{**e, **changes} if e["name"] == name else e for e in d])


def _first_byte(block, byte):
    """The JSON text of `block` with its first byte replaced by `byte`."""
    return byte + json.dumps(block).encode()[1:]


class TestCheckpointIO:
    def test_round_trip_bitwise(self, toy_setup, tmp_path):
        sentences, dev, vocab, freq = toy_setup
        result = train(small_config(max_steps=3, eval_every=2), sentences, dev, vocab, freq)
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.last, path)
        loaded = load_checkpoint(path)
        assert loaded.config == result.last.config
        assert loaded.vocab.tokens == vocab.tokens
        assert loaded.step == result.last.step
        np.testing.assert_array_equal(loaded.freq, freq)
        for name, arr in result.last.tensors.items():
            assert loaded.tensors[name].tobytes() == arr.tobytes(), name
            assert loaded.tensors[name].dtype == arr.dtype
        assert loaded.tensors.keys() == result.last.tensors.keys()
        assert loaded.opt_m == {} and loaded.opt_v == {}     # training saves no optimizer state

    def test_corrupted_byte_raises_checksum_error(self, toy_setup, tmp_path):
        sentences, dev, vocab, freq = toy_setup
        result = train(small_config(max_steps=2, eval_every=2), sentences, dev, vocab, freq)
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.last, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_version_mismatch(self, toy_setup, tmp_path):
        sentences, dev, vocab, freq = toy_setup
        result = train(small_config(max_steps=2, eval_every=2), sentences, dev, vocab, freq)
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.last, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # bump version, then re-seal the checksum
        import hashlib

        body = bytes(blob[:-8])
        path.write_bytes(body + hashlib.blake2b(body, digest_size=8).digest())
        with pytest.raises(CheckpointError, match="format version 99, expected 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,match", [
        (lambda h, d: ({k: v for k, v in h.items() if k != "vocab"}, d), "header is not an object"),
        (lambda h, d: ({k: v for k, v in h.items() if k != "config"}, d), "header is not an object"),
        (lambda h, d: (list(h), d), "header is not an object"),
        (lambda h, d: (h, {"entries": d}), "directory is not a list"),
        (lambda h, d: (h, [list(e.values()) for e in d]), "malformed directory entry"),
        (_edit_entry("dec.k3.bias", dtype="<x9"), "malformed directory entry"),
        (_edit_entry("dec.k3.bias", dtype="|O"), "malformed directory entry"),
        (_edit_entry("dec.k3.bias", offset=-400), "tensor dec.k3.bias has a negative"),
        (_edit_entry("dec.k3.kernels", shape=[-64, 3, -32]), "tensor dec.k3.kernels has a negative"),
        (_edit_entry("corpus.freq", shape=[3]), "corpus.freq is float64 of shape \\(3,\\)"),
        (lambda h, d: (h, [{**e, "shape": [1, *e["shape"]]} if e["name"] == "corpus.freq" else e for e in d]),
         "corpus.freq is float64 of shape \\(1, "),
        (_edit_entry("corpus.freq", dtype="<i8"), "corpus.freq is int64"),
        (lambda h, d: ({**h, "vocab": [5, *h["vocab"][1:]]}, d), "vocab is not a list of distinct strings"),
        (lambda h, d: ({**h, "vocab": [h["vocab"][1], *h["vocab"][1:]]}, d), "vocab is not a list of distinct strings"),
        (lambda h, d: (_first_byte(h, b"#"), d), "header is not UTF-8 JSON: Expecting value"),
        (lambda h, d: (_first_byte(h, b"\xff"), d), "header is not UTF-8 JSON: 'utf-8' codec"),
        (lambda h, d: (h, _first_byte(d, b"#")), "directory is not UTF-8 JSON: Expecting value"),
        (lambda h, d: (h, _first_byte(d, b"\xff")), "directory is not UTF-8 JSON: 'utf-8' codec"),
    ], ids=["no-vocab", "no-config", "header-list", "directory-object", "entry-list",
            "unknown-dtype", "object-dtype", "negative-offset", "negative-dimension",
            "short-freq", "freq-2d", "integer-freq", "integer-token", "duplicate-token",
            "header-not-json", "header-not-utf8", "directory-not-json", "directory-not-utf8"])
    def test_malformed_header_or_directory(self, toy_data_dir, tmp_path, edit, match):
        src, path = toy_data_dir / "toy_untrained.ckpt", tmp_path / "bad.ckpt"
        _resealed(src, path, lambda h, d: (h, d))
        assert path.read_bytes() == src.read_bytes()     # the edit is the only change
        _resealed(src, path, edit)
        with pytest.raises(CheckpointError, match=match) as refused:
            load_checkpoint(path)
        assert str(refused.value).startswith(f"{path}: ")
        sentences = tmp_path / "s.txt"
        sentences.write_text("the dog eats .\n", encoding="utf-8")
        assert main(["embed", str(path), str(sentences), "--out", str(tmp_path / "e.tsv")]) == EXIT_IO

    @pytest.mark.parametrize("defect,match", [
        ("directory-cut-short", "truncated at byte"),
        ("tensor-past-payload", "tensor dec.k3.bias extends past end of payload"),
        ("no-freq", "missing corpus.freq tensor"),
        ("no-model-tensor", "checkpoint missing tensor dec.k3.bias"),
    ])
    def test_eval_refuses_checksum_valid_defects(self, toy_data_dir, tmp_path, capsys, defect, match):
        """Each file passes the checksum, so the inner check is the one that refuses it."""
        src, path = toy_data_dir / "toy_untrained.ckpt", tmp_path / "bad.ckpt"
        if defect == "directory-cut-short":
            blob = src.read_bytes()
            (header_len,) = struct.unpack_from("<I", blob, 6)
            body = blob[:14 + header_len + 10]      # the directory stops after 10 of its bytes
            path.write_bytes(body + hashlib.blake2b(body, digest_size=8).digest())
        elif defect == "tensor-past-payload":
            _resealed(src, path, _edit_entry("dec.k3.bias", offset=10 ** 9))
        else:
            gone = "corpus.freq" if defect == "no-freq" else "dec.k3.bias"
            _resealed(src, path, lambda h, d: (h, [e for e in d if e["name"] != gone]))
        out = tmp_path / "eval"
        code = main(["eval", str(path), str(toy_data_dir / "toy_sts_test.tsv"), "--out", str(out)])
        assert code == EXIT_IO
        assert re.search(match, capsys.readouterr().err)
        assert not out.exists()

    def test_config_without_model_size(self, toy_data_dir):
        ckpt = load_checkpoint(toy_data_dir / "toy_untrained.ckpt")
        ckpt.config = {k: v for k, v in ckpt.config.items() if k != "enc_channels"}
        with pytest.raises(CheckpointError, match="enc_channels"):
            unpack_model(ckpt)

    def test_truncation(self, toy_setup, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"SA")
        with pytest.raises(CheckpointError, match="file too short"):
            load_checkpoint(path)

    def test_unpack_model_round_trip(self, toy_setup, tmp_path):
        sentences, dev, vocab, freq = toy_setup
        result = train(small_config(max_steps=2, eval_every=2), sentences, dev, vocab, freq)
        table, params = unpack_model(result.last)
        assert table.shape == (len(vocab), 8)
        assert {name: t.shape for name, t in params.items()} == param_shapes(8, 8, 2)


    def test_loaded_arrays_are_private_copies(self, toy_setup, tmp_path):
        sentences, dev, vocab, freq = toy_setup
        result = train(small_config(max_steps=2, eval_every=2), sentences, dev, vocab, freq)
        first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
        # training saves no moments, but the format stores them: give it some
        result.last.opt_m = {k: v * 0.5 for k, v in result.last.tensors.items()}
        result.last.opt_v = {k: v * v for k, v in result.last.tensors.items()}
        save_checkpoint(result.last, first)
        ckpt = load_checkpoint(first)
        table, params = unpack_model(ckpt)
        # unpack_model wraps the loaded arrays: one copy per tensor in total
        assert table.data is ckpt.tensors["embedding.weights"]
        assert all(t.data is ckpt.tensors[name] for name, t in params.items())

        def arrays(c):
            return [c.freq, *c.tensors.values(), *c.opt_m.values(), *c.opt_v.values()]

        loaded, again = arrays(ckpt), arrays(load_checkpoint(first))
        assert len(loaded) == 1 + 3 * len(ckpt.tensors)      # freq, each tensor and its two moments
        for i, arr in enumerate(loaded):
            assert arr.flags.c_contiguous and arr.flags.writeable
            assert not any(np.shares_memory(arr, other) for other in loaded[i + 1:] + again)
        save_checkpoint(ckpt, second)
        assert second.read_bytes() == first.read_bytes()

    def test_failed_save_keeps_previous_file(self, toy_setup, tmp_path, monkeypatch):
        sentences, dev, vocab, freq = toy_setup
        result = train(small_config(max_steps=2, eval_every=2), sentences, dev, vocab, freq)
        path = tmp_path / "best.ckpt"
        save_checkpoint(result.last, path)
        good = path.read_bytes()

        def torn_write(self, data):
            with open(self, "wb") as fh:
                fh.write(data[: len(data) // 2])
            raise OSError("No space left on device")

        monkeypatch.setattr(pathlib.Path, "write_bytes", torn_write)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(result.last, path)
        monkeypatch.undo()
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]

    def test_save_leaves_no_temporary_file(self, toy_setup, tmp_path):
        sentences, dev, vocab, freq = toy_setup
        result = train(small_config(max_steps=2, eval_every=2), sentences, dev, vocab, freq)
        save_checkpoint(result.best, tmp_path / "model.ckpt")
        save_checkpoint(result.last, tmp_path / "model.ckpt")   # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        assert load_checkpoint(tmp_path / "model.ckpt").step == result.last.step

    @pytest.mark.parametrize("key,value,tensor", [
        ("enc_channels", 9, "enc.k3.kernels"),
        ("embed_dim", 7, "embedding.weights"),
        ("mix_channels", 3, "mix.kernels"),
    ])
    def test_shapes_must_match_header_config(self, toy_setup, tmp_path, key, value, tensor):
        sentences, dev, vocab, freq = toy_setup
        ckpt = train(small_config(max_steps=1, eval_every=1), sentences, dev, vocab, freq).last
        ckpt.config = {**ckpt.config, key: value}
        path = tmp_path / "altered.ckpt"
        save_checkpoint(ckpt, path)     # a well-formed file with a re-sealed checksum
        with pytest.raises(CheckpointError, match=f"tensor {tensor} has shape"):
            unpack_model(load_checkpoint(path))

    def test_vocabulary_size_must_match_table(self, toy_setup, tmp_path):
        sentences, dev, vocab, freq = toy_setup
        ckpt = train(small_config(max_steps=1, eval_every=1), sentences, dev, vocab, freq).last
        ckpt.vocab = Vocab(ckpt.vocab.tokens[:-1])
        with pytest.raises(CheckpointError, match="embedding.weights"):
            unpack_model(ckpt)


@settings(max_examples=25, deadline=None)
@given(
    embed_dim=st.integers(1, 6),
    enc_channels=st.integers(2, 9),
    mix_channels=st.integers(1, 4),
    n_tokens=st.integers(0, 12),
    with_moments=st.booleans(),
    best_dev=st.one_of(st.none(), st.floats(-1.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_checkpoint_round_trip_any_config(
    embed_dim, enc_channels, mix_channels, n_tokens, with_moments, best_dev, seed
):
    rng = np.random.default_rng(seed)
    vocab = Vocab([f"t{i}" for i in range(n_tokens)], corpus_sha256="ab" * 32)
    cfg = TrainConfig(embed_dim=embed_dim, enc_channels=enc_channels, mix_channels=mix_channels, seed=seed)
    table = init_table(vocab, embed_dim, 0.1, rng)
    params = init_params(embed_dim, enc_channels, mix_channels, rng)
    tensors = pack_model(table, params)
    moments = {k: rng.normal(size=v.shape).astype(v.dtype) for k, v in tensors.items()} if with_moments else {}
    ckpt = Checkpoint(
        config=cfg.to_flat(), vocab=vocab, freq=rng.dirichlet(np.ones(len(vocab))),
        tensors=tensors, opt_m=moments, opt_v={k: v * v for k, v in moments.items()},
        step=int(rng.integers(0, 1000)), best_dev=best_dev,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "model.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)

    def header(c):
        return c.config, c.vocab.tokens, c.vocab.corpus_sha256, c.step, c.best_dev

    assert header(loaded) == header(ckpt)
    assert loaded.freq.tobytes() == ckpt.freq.tobytes()
    for attr in ("opt_m", "opt_v"):
        got, want = getattr(loaded, attr), getattr(ckpt, attr)
        assert got.keys() == want.keys()
        assert all(got[k].dtype == want[k].dtype and got[k].tobytes() == want[k].tobytes() for k in want)
    table_back, params_back = unpack_model(loaded)
    assert params_back.keys() == params.keys()
    pairs = [(table, table_back)] + [(params[name], params_back[name]) for name in params]
    for want, got in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.data.tobytes() == want.data.tobytes()


class TestTrainConfigFlat:
    def test_round_trip(self):
        cfg = TrainConfig(
            embed_dim=16, enc_channels=12, mix_channels=2, seed=9,
            theta=0.3, lam=20.0, lr=0.01,
        )
        again = TrainConfig(**cfg.to_flat())
        assert again == cfg

    def test_flat_exposes_loss_keys(self):
        flat = TrainConfig().to_flat()
        for key in ("theta", "lam", "tau", "alpha", "beta", "gamma"):
            assert key in flat

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(TypeError):
            TrainConfig(ablation="no_sal")     # an ablation is theta / beta / gamma values
