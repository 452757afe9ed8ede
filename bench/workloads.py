"""Workload inputs, the operations each workload runs, and their output checks.

Inputs come only from the workload seed, through `sentence` and `make_pairs`
of `scripts/make_toy_data.py`, and reach the program as files.

- train-toy: the reproduce-script configuration (200 steps, batch 16,
  embed_dim 32, enc_channels 64, dev eval every 50 steps) on a toy corpus.
  Many small graphs: per-sentence Python and backward() bookkeeping dominate.
- train-wide: paper width (enc_channels 500) at batch 64 on 1-3 joined toy
  sentences, one closing dev eval. Conv kernels, their VJPs and AdamW over
  ~1M parameters dominate; the wide spread of lengths stresses bucketing.
- infer-mix: one closed-loop client calling `sarcse.cli.main` against a
  desk-width checkpoint: single-sentence embeds, 256-sentence embeds with
  about half the sentences repeated, and an `eval --token-report` per cycle.
  Forward only: checkpoint load per request, the duplicate cache and the
  O(n^2) uniformity loop.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import sarcse.checkpoint
import sarcse.corpus
import sarcse.embeddings
import sarcse.model
import sarcse.trainer

WORKLOADS = ("train-toy", "train-wide", "infer-mix")

TOY = dict(embed_dim=32, enc_channels=64, mix_channels=3)
TRAIN_CONFIG = {
    "train-toy": dict(TOY, batch_size=16, max_steps=200, eval_every=50),
    "train-wide": dict(embed_dim=32, enc_channels=500, mix_channels=3,
                       batch_size=64, max_steps=44, eval_every=0),
}
CORPUS_SIZE = {"train-toy": 3000, "train-wide": 2000, "infer-mix": 2000}
DEV_PAIRS = 40
EVAL_PAIRS = 1000
BIG_FILES, BIG_LINES = 8, 256          # 256-sentence requests, half of them repeats
SINGLES_PER_BIG = 32                   # single-sentence requests drawn from each big file
BIGS_PER_CYCLE = 6


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_toy_generator(root: Path):
    """`scripts/make_toy_data.py` as a module, without running its main()."""
    spec = importlib.util.spec_from_file_location("make_toy_data", root / "scripts" / "make_toy_data.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@dataclass
class Inputs:
    dir: Path
    files: dict[str, Path] = field(default_factory=dict)
    big: list[tuple[Path, list[str]]] = field(default_factory=list)       # file, lines
    singles: list[list[tuple[Path, str]]] = field(default_factory=list)   # per big file

    def checksums(self) -> dict[str, str]:
        paths = sorted(p for p in self.dir.rglob("*") if p.is_file())
        return {str(p.relative_to(self.dir)): sha256_of(p) for p in paths}


def _write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def make_inputs(workload: str, seed: int, out: Path, toy) -> Inputs:
    """Generate every input file of `workload` from `seed` into a fresh `out`."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    inp = Inputs(out)
    if workload == "train-wide":
        corpus = [" ".join(toy.sentence(rng) for _ in range(int(rng.integers(1, 4))))
                  for _ in range(CORPUS_SIZE[workload])]
    else:
        corpus = [toy.sentence(rng) for _ in range(CORPUS_SIZE[workload])]
    inp.files["corpus"] = _write_lines(out / "corpus.txt", corpus)
    if workload != "infer-mix":
        inp.files["dev"] = _write_lines(out / "dev.tsv", toy.make_pairs(rng, DEV_PAIRS))
        return inp

    inp.files["pairs"] = _write_lines(out / "pairs.tsv", toy.make_pairs(rng, EVAL_PAIRS))
    (out / "big").mkdir()
    (out / "single").mkdir()
    for b in range(BIG_FILES):
        fresh = [toy.sentence(rng) for _ in range(BIG_LINES // 2)]
        repeats = [fresh[i] for i in rng.integers(0, len(fresh), BIG_LINES - len(fresh))]
        lines = [(fresh + repeats)[i] for i in rng.permutation(BIG_LINES)]
        inp.big.append((_write_lines(out / "big" / f"{b}.txt", lines), lines))
        chosen = rng.choice(len(fresh), SINGLES_PER_BIG, replace=False)
        inp.singles.append([
            (_write_lines(out / "single" / f"{b}-{j}.txt", [fresh[i]]), fresh[i])
            for j, i in enumerate(chosen)
        ])
    inp.files["checkpoint"] = build_checkpoint(inp.files["corpus"], out / "model.ckpt", seed)
    return inp


def build_checkpoint(corpus: Path, path: Path, seed: int) -> Path:
    """A desk-width, untrained checkpoint through the public constructors."""
    cfg = sarcse.trainer.TrainConfig(seed=seed, **TOY)
    vocab = sarcse.corpus.build_vocab(corpus)
    freq = sarcse.corpus.token_frequency(corpus, vocab)
    rng = np.random.default_rng(seed)
    table = sarcse.embeddings.init_table(vocab, cfg.embed_dim, cfg.init_scale, rng)
    params = sarcse.model.init_params(cfg.embed_dim, cfg.enc_channels, cfg.mix_channels, rng)
    ckpt = sarcse.checkpoint.Checkpoint(
        config=cfg.to_flat(), vocab=vocab, freq=freq,
        tensors=sarcse.checkpoint.pack_model(table, params),
        opt_m={}, opt_v={}, step=0, best_dev=None,
    )
    sarcse.checkpoint.save_checkpoint(ckpt, path)
    return path


# -- train-* --------------------------------------------------------------------


@dataclass
class TrainJob:
    """One `sarcse train`-equivalent run and what it measured."""

    wall_s: float
    sentences: int
    step_ms: list[float]
    failures: list[str]


def run_train_job(workload: str, seed: int, inp: Inputs, out: Path, checks, step_hook=None) -> TrainJob:
    """build the vocabulary, train(), save best and last, write the log: the
    calls `sarcse train` makes, looked up on the modules at call time so a
    tracer's wrappers apply. Step intervals come from the public on_log hook."""
    cfg = sarcse.trainer.TrainConfig(seed=seed, **TRAIN_CONFIG[workload])
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ticks: list[float] = []

    def on_log(row):
        ticks.append(perf_counter())
        if step_hook is not None:
            step_hook()

    corpus, dev = inp.files["corpus"], inp.files["dev"]

    t0 = perf_counter()
    vocab = sarcse.corpus.build_vocab(corpus)
    freq = sarcse.corpus.token_frequency(corpus, vocab)
    sentences = sarcse.corpus.load_corpus(corpus)
    dev_pairs = sarcse.corpus.load_sts_pairs(dev)
    result = sarcse.trainer.train(cfg, sentences, dev_pairs, vocab, freq,
                                  on_log=on_log)
    sarcse.checkpoint.save_checkpoint(result.best, out / "best.ckpt")
    sarcse.checkpoint.save_checkpoint(result.last, out / "last.ckpt")
    sarcse.trainer.write_log(result.log_rows, out / "train_log.csv")
    wall = perf_counter() - t0

    step_ms = [1000.0 * (b - a) for a, b in zip(ticks, ticks[1:])]
    failures = checks.train(workload, result, out)
    return TrainJob(wall, len(result.log_rows) * cfg.batch_size, step_ms, failures)


# -- infer-mix ------------------------------------------------------------------


@dataclass
class Request:
    kind: str                  # "embed1", "embed256" or "eval"
    argv: list[str]
    sentences: list[str]       # embed requests: the input lines
    out: Path


def cycle_units(inp: Inputs, cycle: int, out: Path) -> list[tuple[str, list[Request]]]:
    """One cycle of the closed loop as timing units (kind, requests): six
    times a 256-sentence embed of big file b, then one single-sentence embed
    per sentence of b chosen in set-up; then one eval."""
    ckpt = str(inp.files["checkpoint"])
    units = []
    for k in range(BIGS_PER_CYCLE):
        b = (cycle * BIGS_PER_CYCLE + k) % BIG_FILES
        path, lines = inp.big[b]
        big = ["embed", ckpt, str(path), "--out", str(out / "big.tsv")]
        units.append(("embed256", [Request("embed256", big, lines, out / "big.tsv")]))
        units.append(("embed1", [
            Request("embed1", ["embed", ckpt, str(spath), "--out", str(out / "one.tsv")],
                    [sentence], out / "one.tsv")
            for spath, sentence in inp.singles[b]
        ]))
    evaluate = ["eval", ckpt, str(inp.files["pairs"]), "--out", str(out / "eval"), "--token-report"]
    units.append(("eval", [Request("eval", evaluate, [], out / "eval")]))
    return units


# -- output checks ----------------------------------------------------------------


class Checks:
    """Output checks. Each returns the names of the checks that failed.

    They call the program's original functions, captured before any tracer
    is installed, so check time never lands in a layer's spans.
    """

    def __init__(self, root: Path):
        margin = json.loads((root / "data" / "smoke_margin.json").read_text(encoding="utf-8"))
        self.min_reduction = float(margin["min_relative_reduction"])
        self.load_checkpoint = sarcse.checkpoint.load_checkpoint
        self.first_log: dict[str, bytes] = {}
        self.rows: dict[str, bytes] = {}         # sentence -> its embedding row

    def train(self, workload: str, result, out: Path) -> list[str]:
        failed = []
        rows = result.log_rows
        if not all(math.isfinite(v) for r in rows for v in (r.infonce, r.recon, r.recon_aug, r.total)):
            failed.append("non-finite loss")
        if workload == "train-toy" and not rows[-1].total <= (1.0 - self.min_reduction) * rows[0].total:
            failed.append("smoke convergence")
        for name, mem in (("best", result.best), ("last", result.last)):
            disk = self.load_checkpoint(out / f"{name}.ckpt")
            for attr in ("tensors", "opt_m", "opt_v"):
                a, b = getattr(mem, attr), getattr(disk, attr)
                if a.keys() != b.keys() or any(
                    a[k].dtype != b[k].dtype or a[k].shape != b[k].shape or a[k].tobytes() != b[k].tobytes()
                    for k in a
                ):
                    failed.append(f"{name}.ckpt {attr} round trip")
        log = (out / "train_log.csv").read_bytes()
        if self.first_log.setdefault(workload, log) != log:
            failed.append("train_log.csv differs from the first run of this seed")
        return failed

    def request(self, req: Request, code: int, width: int) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        if req.kind == "eval":
            metrics = dict(line.split(",", 1) for line in
                           (req.out / "metrics.csv").read_text(encoding="utf-8").splitlines()[1:])
            rho = metrics.get("spearman_rho", "undefined")
            if rho == "undefined" or not math.isfinite(float(rho)):
                return ["spearman undefined"]
            return []
        lines = req.out.read_text(encoding="utf-8").splitlines()
        emb = np.array([[float(v) for v in line.split("\t")] for line in lines])
        if emb.shape != (len(req.sentences), width):
            return [f"embedding shape {emb.shape}, expected ({len(req.sentences)}, {width})"]
        if not np.all(np.isfinite(emb)):
            return ["non-finite embedding"]
        failed = []
        for sentence, row in zip(req.sentences, emb):
            known = self.rows.setdefault(sentence, row.tobytes())
            if known != row.tobytes():
                failed.append("duplicate or padding-invariance mismatch")
                break
        return failed
