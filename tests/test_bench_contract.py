"""The benchmark's contract with the package.

`bench/tracing.py` wraps functions at the names the sarcse modules bind, and
`bench/workloads.py` builds checkpoints through the public constructors. A
renamed or no longer called binding would only show as a zero per-layer
metric in a traced benchmark run; these tests make it fail here instead.
Both files are loaded by path and nothing under `bench/` is changed.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import sarcse.checkpoint
import sarcse.cli
import sarcse.corpus
import sarcse.trainer

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)   # dataclasses look it up
    spec.loader.exec_module(mod)
    return mod


tracing = _load_bench("tracing")
workloads = _load_bench("workloads")


def _count_calls(bindings, hits):
    """Wrap each installed (module, attribute) once more to count its calls;
    the tracer's uninstall puts the originals back over these wrappers."""
    for mod_name, attr in bindings:
        mod = importlib.import_module(mod_name)
        inner = getattr(mod, attr)

        def counted(*args, _inner=inner, _key=(mod_name, attr), **kwargs):
            hits[_key] += 1
            return _inner(*args, **kwargs)

        setattr(mod, attr, counted)


def test_traced_runs_call_every_wrapped_binding(tmp_path):
    bindings = [(mod, attr) for mod, attr, _ in tracing.WRAPPED]
    originals = {b: getattr(importlib.import_module(b[0]), b[1]) for b in bindings}
    hits = Counter()
    tracer = tracing.Tracer()
    try:
        tracer.install()    # fails on a binding the package no longer has
        _count_calls(bindings, hits)
        corpus = str(DATA / "toy_corpus.txt")
        vocab = sarcse.corpus.build_vocab(corpus)
        freq = sarcse.corpus.token_frequency(corpus, vocab)
        cfg = sarcse.trainer.TrainConfig(
            embed_dim=8, enc_channels=8, mix_channels=2, batch_size=8, max_steps=2, eval_every=0, seed=3,
        )
        result = sarcse.trainer.train(
            cfg, sarcse.corpus.load_corpus(corpus),
            sarcse.corpus.load_sts_pairs(DATA / "toy_sts_dev.tsv"), vocab, freq,
        )
        ckpt = str(tmp_path / "best.ckpt")
        sarcse.checkpoint.save_checkpoint(result.best, ckpt)
        sarcse.trainer.write_log(result.log_rows, tmp_path / "train_log.csv")
        codes = [
            sarcse.cli.main(["eval", ckpt, str(DATA / "toy_sts_test.tsv"),
                             "--out", str(tmp_path / "eval"), "--token-report"]),
            sarcse.cli.main(["embed", ckpt, corpus, "--out", str(tmp_path / "embeddings.tsv")]),
        ]
        workloads.build_checkpoint(DATA / "toy_corpus.txt", tmp_path / "model.ckpt", 5)
    finally:
        tracer.uninstall()

    assert codes == [0, 0]
    assert result.last.step == 2
    missed = [f"{mod}.{attr}" for mod, attr in bindings if not hits[mod, attr]]
    assert not missed, f"wrapped bindings never called: {missed}"
    calls = dict(zip(tracer.names, tracer.calls))
    for span in ["model.encode", "model.decode", "losses.reconstruction_loss", "trainer.adamw",
                 *(f"autodiff.{prim}" for prim in tracing.PRIMITIVES)]:
        assert calls.get(span, 0) > 0, f"{span} recorded no calls"
    assert tracer.nodes and tracer.saved_bytes
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn, f"{mod}.{attr} not restored"


def test_build_checkpoint_round_trips(tmp_path):
    path = workloads.build_checkpoint(DATA / "toy_corpus.txt", tmp_path / "model.ckpt", 5)
    ckpt = sarcse.checkpoint.load_checkpoint(path)
    table, params = sarcse.checkpoint.unpack_model(ckpt)
    assert table.shape == (len(ckpt.vocab), workloads.TOY["embed_dim"])
    assert ckpt.config == sarcse.trainer.TrainConfig(seed=5, **workloads.TOY).to_flat()
    again = workloads.build_checkpoint(DATA / "toy_corpus.txt", tmp_path / "again.ckpt", 5)
    assert again.read_bytes() == path.read_bytes()
    assert np.isfinite(table.data).all() and all(np.isfinite(t.data).all() for t in params.values())
