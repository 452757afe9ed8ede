import argparse
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarcse import cli, corpus, evaluation
from sarcse.checkpoint import load_checkpoint, save_checkpoint, unpack_model
from sarcse.cli import (
    DEFAULTS,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
    read_config_file,
    resolve_config,
    write_resolved_config,
)
from sarcse.corpus import load_sts_pairs, tokenize
from sarcse.evaluation import encode_tokens
from sarcse.trainer import TrainConfig


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("clidata")
    rng = np.random.default_rng(0)
    nouns = ["dog", "cat", "man", "woman", "bird", "chef", "child", "farmer"]
    verbs = ["eats", "sees", "likes", "holds"]
    objs = ["food", "rice", "bread", "water", "sticks"]
    lines = [
        f"the {nouns[rng.integers(0, 8)]} {verbs[rng.integers(0, 4)]} the {objs[rng.integers(0, 5)]} ."
        for _ in range(60)
    ]
    corpus = tmp / "corpus.txt"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def pair_line(score, a, b):
        return f"{score}\t{a}\t{b}"

    dev = tmp / "dev.tsv"
    dev.write_text(
        "\n".join(
            [
                pair_line(5.0, lines[0], lines[0]),
                pair_line(3.0, lines[1], lines[2]),
                pair_line(1.0, lines[3], lines[10]),
                pair_line(0.5, lines[4], lines[20]),
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    test = tmp / "test.tsv"
    test.write_text(
        "\n".join(
            [
                pair_line(5.0, lines[5], lines[5]),
                pair_line(4.5, lines[6], lines[6]),
                pair_line(2.0, lines[7], lines[12]),
                pair_line(0.0, lines[8], lines[30]),
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    return {"corpus": str(corpus), "dev": str(dev), "test": str(test)}


FAST = [
    "--set", "embed_dim=8", "--set", "enc_channels=8", "--set", "mix_channels=2",
    "--set", "batch_size=8", "--set", "max_steps=6", "--set", "eval_every=3",
]


def run_train(data, out, extra=()):
    return main(["train", data["corpus"], data["dev"], "--out", str(out), *FAST, "--set", "seed=5", *extra])


@pytest.fixture(scope="module")
def trained(data, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    run_train(data, out)
    return out


class TestResolveConfig:
    def test_defaults_cover_all_documented_keys(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("## Configuration keys", 1)[1].split("\n\n", 2)[1]
        rows = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
        documented = [key for cell in rows for key in re.findall(r"`(\w+)`", cell)]
        assert len(documented) == len(set(documented))
        assert set(documented) == set(DEFAULTS)

    def test_defaults_are_the_train_config(self):
        assert DEFAULTS == TrainConfig().to_flat()
        assert len(DEFAULTS) == 17

    def test_reference_hyperparameters_load(self):
        cfg = resolve_config(None, [
            "theta=0.1", "lam=50", "tau=0.05", "alpha=1",
            "beta=2.5e-4", "gamma=2.5e-4", "batch_size=64",
        ])
        assert cfg["theta"] == 0.1 and cfg["lam"] == 50.0 and cfg["tau"] == 0.05
        assert cfg["alpha"] == 1.0 and cfg["beta"] == 2.5e-4 and cfg["gamma"] == 2.5e-4
        assert cfg["batch_size"] == 64

    def test_unknown_key_rejected(self, capsys):
        code = main(["train", "nonexistent.txt", "dev.tsv", "--out", "/tmp/x", "--set", "bogus=1"])
        assert code == EXIT_USAGE
        assert "unknown config key" in capsys.readouterr().err

    def test_config_file_and_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# comment\nbatch_size = 4\ntheta = 0.3\n", encoding="utf-8")
        assert read_config_file(cfg_file) == {"batch_size": "4", "theta": "0.3"}
        cfg = resolve_config(str(cfg_file), ["theta=0.2", "seed=99"])
        assert cfg["batch_size"] == 4
        assert cfg["theta"] == 0.2        # --set wins over the file
        assert cfg["seed"] == 99

    @pytest.mark.parametrize("settings,match", [
        (["--set", "lr=abc"], "config key 'lr': expected a number, got 'abc'"),
        (["--set", "lr"], "--set 'lr': expected key=value"),
        (["--config", "CONFIG"], r"run\.cfg:2: expected 'key = value'"),
    ], ids=["non-number", "set-without-equals", "config-line-without-equals"])
    def test_malformed_setting_is_usage_error(self, data, tmp_path, capsys, settings, match):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = 1\nbatch_size 4\n", encoding="utf-8")
        out = tmp_path / "run"
        settings = [str(cfg_file) if s == "CONFIG" else s for s in settings]
        assert main(["train", data["corpus"], data["dev"], "--out", str(out), *settings]) == EXIT_USAGE
        assert re.search(match, capsys.readouterr().err)
        assert not out.exists()

    def test_bad_value_type(self, capsys):
        code = main(["train", "x", "y", "--out", "/tmp/x", "--set", "batch_size=soon"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("setting", [
        "batch_size=0", "tau=-1", "ablation=bogus", "dropout=1.5",
        "tau=nan", "lam=nan", "lr=nan", "lr=inf",
        "lr=-1", "lr=0", "weight_decay=-5", "eval_every=-1", "max_steps=-3",
        "enc_channels=0", "enc_channels=1", "embed_dim=0", "mix_channels=0", "min_count=0",
        "init_scale=-0.1", "adam_beta1=1", "adam_beta1=-0.5", "adam_beta2=1", "adam_eps=-1e-8",
        "adam_eps=0", "ablation=no_sal", "pos_threshold=4",
        # retired settings are unknown keys even at their former defaults
        "detach_targets=false", "min_count=1", "weight_decay=0.01",
        "adam_beta1=0.9", "adam_beta2=0.999", "adam_eps=1e-8",
    ])
    def test_out_of_range_value_is_usage_error(self, data, tmp_path, capsys, setting):
        out = tmp_path / "run"
        code = main(["train", data["corpus"], data["dev"], "--out", str(out), *FAST, "--set", setting])
        assert code == EXIT_USAGE
        assert setting.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_grid_value_is_usage_error(self, data, tmp_path):
        out = tmp_path / "s"
        code = main([
            "sweep-theta", data["corpus"], data["dev"], data["test"],
            "--values", "0.1,2", "--out", str(out), *FAST,
        ])
        assert code == EXIT_USAGE
        assert not out.exists()


class TestBuildVocab:
    def test_outputs_and_determinism(self, data, tmp_path):
        out1, out2 = tmp_path / "v1", tmp_path / "v2"
        assert main(["build-vocab", data["corpus"], "--out", str(out1)]) == EXIT_OK
        assert main(["build-vocab", data["corpus"], "--out", str(out2)]) == EXIT_OK
        names = sorted(p.name for p in out1.iterdir())
        assert names == ["freq.tsv", "inputs.sha256", "vocab.txt"]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_frequency_column_sums_to_one(self, data, tmp_path):
        out = tmp_path / "v"
        main(["build-vocab", data["corpus"], "--out", str(out)])
        total = sum(
            float(line.split("\t")[1])
            for line in (out / "freq.tsv").read_text().splitlines()
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("flag", [["--set", "seed=1"], ["--config", "run.cfg"]], ids=["set", "config"])
    def test_takes_no_settings(self, data, tmp_path, capsys, flag):
        (tmp_path / "run.cfg").write_text("seed = 1\n", encoding="utf-8")
        flag = [str(tmp_path / f) if f.endswith(".cfg") else f for f in flag]
        out = tmp_path / "v"
        assert main(["build-vocab", data["corpus"], "--out", str(out), *flag]) == EXIT_USAGE
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_corpus(self, tmp_path):
        assert main(["build-vocab", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "v")]) == EXIT_IO


class TestTrain:
    def test_produces_artifacts(self, data, tmp_path):
        out = tmp_path / "run"
        assert run_train(data, out) == EXIT_OK
        for name in ("best.ckpt", "last.ckpt", "train_log.csv", "config.txt", "inputs.sha256"):
            assert (out / name).exists()

    def test_fixed_seed_identical_log(self, data, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_train(data, out1)
        run_train(data, out2)
        assert (out1 / "train_log.csv").read_bytes() == (out2 / "train_log.csv").read_bytes()
        assert (out1 / "best.ckpt").read_bytes() == (out2 / "best.ckpt").read_bytes()

    def test_no_sal_logs_unit_weights(self, data, tmp_path):
        out = tmp_path / "nosal"
        assert run_train(data, out, extra=["--set", "theta=1"]) == EXIT_OK
        rows = (out / "train_log.csv").read_text().splitlines()[1:]
        weights = {row.split(",")[5] for row in rows}
        assert weights == {"1.0"}

    def test_empty_dev_sentence_fails_before_training(self, data, tmp_path, capsys, monkeypatch):
        dev = tmp_path / "dev.tsv"
        dev.write_text("5.0\tthe dog eats .\tthe dog eats .\n1.0\tthe cat sees .\t\n", encoding="utf-8")

        def no_training(*args, **kwargs):
            raise AssertionError("train ran on an unreadable dev file")

        monkeypatch.setattr("sarcse.cli.train", no_training)
        code = main(["train", data["corpus"], str(dev), "--out", str(tmp_path / "run"), *FAST])
        assert code == EXIT_IO
        assert f"{dev}:2: sentence 2 is empty after tokenization" in capsys.readouterr().err

    def test_resolved_config_echoed(self, data, tmp_path):
        out = tmp_path / "run"
        run_train(data, out)
        text = (out / "config.txt").read_text()
        assert "enc_channels = 8" in text
        assert "seed = 5" in text


class TestEval:
    def test_metrics_and_density(self, data, trained, tmp_path):
        out = tmp_path / "eval"
        code = main(["eval", str(trained / "best.ckpt"), data["test"], "--out", str(out)])
        assert code == EXIT_OK
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "metric,value"
        names = {line.split(",")[0] for line in metrics[1:]}
        assert {"spearman_rho", "alignment", "uniformity", "pair_count"} <= names
        density = (out / "density.csv").read_text().splitlines()
        assert density[0] == "group,cosine"
        assert (out / "summary.txt").exists()
        groups = {line.split(",")[0] for line in density[1:]}
        assert groups <= {"0-1", "1-2", "2-3", "3-4", "4-5"}

    def test_eval_untrained_random_checkpoint(self, data, tmp_path):
        out = tmp_path / "rand"
        assert run_train(data, out, extra=["--set", "max_steps=1", "--set", "eval_every=1"]) == EXIT_OK
        eval_out = tmp_path / "eval"
        assert main(["eval", str(out / "last.ckpt"), data["test"], "--out", str(eval_out)]) == EXIT_OK

    def test_token_report(self, data, trained, tmp_path):
        out = tmp_path / "evaltok"
        code = main(["eval", str(trained / "best.ckpt"), data["test"], "--out", str(out), "--token-report"])
        assert code == EXIT_OK
        lines = (out / "token_report.csv").read_text().splitlines()
        assert lines[0] == "pair,side,position,token,recon_mse,weight"
        assert len(lines) > 10

    def test_token_report_leaves_the_other_outputs_unchanged(self, data, trained, tmp_path):
        plain, tok = tmp_path / "plain", tmp_path / "tok"
        assert main(["eval", str(trained / "best.ckpt"), data["test"], "--out", str(plain)]) == EXIT_OK
        assert main(["eval", str(trained / "best.ckpt"), data["test"], "--out", str(tok), "--token-report"]) == EXIT_OK
        for name in ("metrics.csv", "density.csv", "summary.txt"):
            assert (plain / name).read_bytes() == (tok / name).read_bytes()

    def test_token_report_encodes_each_distinct_sentence_once(self, toy_data_dir, tmp_path, monkeypatch):
        ckpt_path, pairs_path = toy_data_dir / "toy_untrained.ckpt", toy_data_dir / "toy_sts_test.tsv"
        calls = []
        real_encode = evaluation.encode

        def counting_encode(x, lengths, params):
            calls.append(len(lengths))
            return real_encode(x, lengths, params)

        monkeypatch.setattr(evaluation, "encode", counting_encode)
        out = tmp_path / "eval"
        assert main(["eval", str(ckpt_path), str(pairs_path), "--out", str(out), "--token-report"]) == EXIT_OK
        pairs = load_sts_pairs(pairs_path)
        unique = list(dict.fromkeys(tuple(t) for t in [p.sentence_a for p in pairs] + [p.sentence_b for p in pairs]))
        assert len(unique) > 64
        assert len(calls) == -(-len(unique) // 64)     # one packed pass per chunk of 64
        assert sum(calls) == len(unique)

    @pytest.mark.parametrize("key,value", [("theta", None), ("lam", "fifty")], ids=["theta-missing", "lam-string"])
    def test_token_report_refuses_bad_sal_settings_before_writing(self, data, trained, tmp_path, capsys, key, value):
        ckpt = load_checkpoint(trained / "best.ckpt")
        if value is None:
            del ckpt.config[key]
        else:
            ckpt.config[key] = value
        path = tmp_path / "bad.ckpt"
        save_checkpoint(ckpt, path)
        out = tmp_path / "eval"
        assert main(["eval", str(path), data["test"], "--out", str(out), "--token-report"]) == EXIT_IO
        assert f"checkpoint config has no finite number '{key}'" in capsys.readouterr().err
        for name in ("metrics.csv", "density.csv", "summary.txt", "token_report.csv"):
            assert not (out / name).exists()
        assert main(["eval", str(path), data["test"], "--out", str(tmp_path / "plain")]) == EXIT_OK

    def test_config_is_the_checkpoint_config(self, data, trained, tmp_path):
        out, expected = tmp_path / "eval", tmp_path / "expected"
        assert main(["eval", str(trained / "best.ckpt"), data["test"], "--out", str(out)]) == EXIT_OK
        expected.mkdir()
        write_resolved_config(load_checkpoint(trained / "best.ckpt").config, expected)
        text = (out / "config.txt").read_text()
        assert text == (expected / "config.txt").read_text()
        assert {"seed = 5", "batch_size = 8", "max_steps = 6"} <= set(text.splitlines())

    @pytest.mark.parametrize("case", ["bad-sal-setting", "malformed-pairs", "missing-checkpoint"])
    def test_refused_eval_creates_no_output_directory(self, data, trained, tmp_path, case):
        ckpt_path, pairs = trained / "best.ckpt", data["test"]
        if case == "bad-sal-setting":
            ckpt = load_checkpoint(ckpt_path)
            ckpt.config["theta"] = "high"
            ckpt_path = tmp_path / "bad.ckpt"
            save_checkpoint(ckpt, ckpt_path)
        elif case == "malformed-pairs":
            pairs = tmp_path / "pairs.tsv"
            pairs.write_text("5.0\tthe dog eats .\tthe dog eats .\n4.0\tonly one sentence\n", encoding="utf-8")
        else:
            ckpt_path = tmp_path / "missing.ckpt"
        out = tmp_path / "eval"
        assert main(["eval", str(ckpt_path), str(pairs), "--out", str(out), "--token-report"]) == EXIT_IO
        assert not out.exists()

    def test_empty_pair_sentence_names_line(self, trained, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("5.0\tthe dog eats .\tthe dog eats .\n1.0\t \tthe cat sees .\n", encoding="utf-8")
        code = main(["eval", str(trained / "best.ckpt"), str(pairs), "--out", str(tmp_path / "x")])
        assert code == EXIT_IO
        assert f"{pairs}:2: sentence 1 is empty after tokenization" in capsys.readouterr().err

    def test_missing_pairs_file(self, trained, tmp_path):
        code = main(["eval", str(trained / "best.ckpt"), "missing.tsv", "--out", str(tmp_path / "x")])
        assert code == EXIT_IO

    def test_evaluation_deterministic(self, data, trained, tmp_path):
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        main(["eval", str(trained / "best.ckpt"), data["test"], "--out", str(out1)])
        main(["eval", str(trained / "best.ckpt"), data["test"], "--out", str(out2)])
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


@pytest.mark.parametrize("flag", [["--set", "seed=1"], ["--config", "run.cfg"], ["--seed", "1"]],
                         ids=["set", "config", "seed"])
@pytest.mark.parametrize("command", ["eval", "embed"])
def test_checkpoint_commands_take_no_settings(data, trained, tmp_path, capsys, command, flag):
    """eval and embed read every setting from the checkpoint."""
    (tmp_path / "run.cfg").write_text("seed = 1\n", encoding="utf-8")
    sentences = tmp_path / "s.txt"
    sentences.write_text("the dog eats the food .\n", encoding="utf-8")
    inputs = {"eval": data["test"], "embed": str(sentences)}
    flag = [str(tmp_path / f) if f.endswith(".cfg") else f for f in flag]
    out = tmp_path / "out"
    assert main([command, str(trained / "best.ckpt"), inputs[command], "--out", str(out), *flag]) == EXIT_USAGE
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not out.exists()


# Each command's positional inputs, in order.
INPUTS = {
    "build-vocab": ["corpus"],
    "train": ["corpus", "dev"],
    "ablate": ["corpus", "dev", "test"],
    "sweep-theta": ["corpus", "dev", "test"],
}


@pytest.mark.parametrize("defect", ["missing", "malformed"])
@pytest.mark.parametrize("command,broken", [(c, role) for c, roles in INPUTS.items() for role in roles])
def test_refused_run_creates_no_output_directory(data, tmp_path, command, broken, defect):
    """Each command loads, checks and hashes every input before it creates --out."""
    paths = dict(data)
    paths[broken] = str(tmp_path / f"{broken}.in")
    if defect == "malformed":
        text = b"\xff not utf-8\n" if broken == "corpus" else b"4.0\tonly one sentence\n"
        Path(paths[broken]).write_bytes(text)
    out = tmp_path / "out"
    settings = [] if command == "build-vocab" else FAST
    assert main([command, *(paths[role] for role in INPUTS[command]), "--out", str(out), *settings]) == EXIT_IO
    assert not out.exists()


@pytest.mark.parametrize("defect", ["one_pair_dev", "constant_dev", "missing_vectors", "narrow_vectors",
                                    "nan_vectors", "inf_vectors"])
@pytest.mark.parametrize("command", ["train", "ablate", "sweep-theta"])
def test_refused_dev_set_or_vectors_create_no_output_directory(data, tmp_path, command, defect):
    """A dev set on which Spearman is undefined, and a `pretrained_path` file
    that does not load at `embed_dim` or holds a non-finite value, are
    refused before --out exists."""
    dev, vectors = Path(data["dev"]), tmp_path / "vectors.txt"
    settings = list(FAST)
    if defect.endswith("_dev"):
        lines = dev.read_text(encoding="utf-8").splitlines()
        if defect == "one_pair_dev":
            lines = lines[:1]
        else:
            lines = ["3.0\t" + line.split("\t", 1)[1] for line in lines]
        dev = tmp_path / "dev.tsv"
        dev.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        if defect == "narrow_vectors":
            vectors.write_text("dog 1.0 2.0\n", encoding="utf-8")     # embed_dim is 8
        elif defect != "missing_vectors":
            bad = "nan" if defect == "nan_vectors" else "-inf"
            vectors.write_text("dog " + " ".join(["1.0"] * 7 + [bad]) + "\n", encoding="utf-8")
        settings += ["--set", f"pretrained_path={vectors}"]
    out = tmp_path / "out"
    test = [] if command == "train" else [data["test"]]
    assert main([command, data["corpus"], str(dev), *test, "--out", str(out), *settings]) == EXIT_IO
    assert not out.exists()


def test_pretrained_vectors_are_hashed_and_applied(data, tmp_path):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("dog " + " ".join(["0.5"] * 8) + "\n", encoding="utf-8")
    out = tmp_path / "run"
    # one step at a negligible learning rate leaves the overlaid row in place
    extra = ["--set", f"pretrained_path={vectors}", "--set", "max_steps=1", "--set", "lr=1e-9"]
    assert run_train(data, out, extra) == EXIT_OK
    listed = (out / "inputs.sha256").read_text(encoding="utf-8").splitlines()
    assert listed[-1] == f"{corpus.file_sha256(vectors)}  vectors.txt"
    assert [line.split("  ")[1] for line in listed] == ["corpus.txt", "dev.tsv", "vectors.txt"]
    ckpt = load_checkpoint(out / "last.ckpt")
    table, _ = unpack_model(ckpt)
    np.testing.assert_allclose(table.data[ckpt.vocab.id_of("dog")], 0.5, atol=1e-6)


class TestEmbed:
    def test_vector_length_matches_config(self, data, trained, tmp_path):
        sentences = tmp_path / "s.txt"
        sentences.write_text("the dog eats the food .\nthe cat sees the rice .\n", encoding="utf-8")
        out_file = tmp_path / "emb.tsv"
        assert main(["embed", str(trained / "best.ckpt"), str(sentences), "--out", str(out_file)]) == EXIT_OK
        lines = out_file.read_text().splitlines()
        assert len(lines) == 2
        assert all(len(line.split("\t")) == 2 * (8 - 1) for line in lines)

    def test_same_input_identical_output(self, data, trained, tmp_path):
        sentences = tmp_path / "s.txt"
        sentences.write_text("the dog eats the food .\n", encoding="utf-8")
        f1, f2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        main(["embed", str(trained / "best.ckpt"), str(sentences), "--out", str(f1)])
        main(["embed", str(trained / "best.ckpt"), str(sentences), "--out", str(f2)])
        assert f1.read_bytes() == f2.read_bytes()

    def test_output_is_repr_of_encode_tokens_rows(self, trained, tmp_path):
        lines = ["the dog eats the food .", "the cat sees the rice .", "the dog eats the food .", "a"]
        sentences = tmp_path / "s.txt"
        sentences.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out_file = tmp_path / "emb.tsv"
        assert main(["embed", str(trained / "best.ckpt"), str(sentences), "--out", str(out_file)]) == EXIT_OK
        ckpt = load_checkpoint(trained / "best.ckpt")
        table, params = unpack_model(ckpt)
        embs = encode_tokens([tokenize(line) for line in lines], ckpt.vocab, table, params)
        expected = "".join("\t".join(repr(float(v)) for v in row) + "\n" for row in embs)
        assert out_file.read_text(encoding="utf-8") == expected

    def test_empty_line_names_line_number(self, data, trained, tmp_path, capsys):
        sentences = tmp_path / "s.txt"
        sentences.write_text("the dog eats .\n\nthe cat sees .\n", encoding="utf-8")
        code = main(["embed", str(trained / "best.ckpt"), str(sentences), "--out", str(tmp_path / "e.tsv")])
        assert code == EXIT_IO
        assert ":2:" in capsys.readouterr().err

    def test_empty_file_names_file(self, data, trained, tmp_path, capsys):
        sentences = tmp_path / "empty.txt"
        sentences.write_text("", encoding="utf-8")
        code = main(["embed", str(trained / "best.ckpt"), str(sentences), "--out", str(tmp_path / "e.tsv")])
        assert code == EXIT_IO
        assert f"{sentences}: holds no sentences" in capsys.readouterr().err


def old_embed_format(lines, ckpt_path):
    """One `repr`-per-value line per input line, formatted row by row."""
    ckpt = load_checkpoint(ckpt_path)
    table, params = unpack_model(ckpt)
    embs = encode_tokens([tokenize(line) for line in lines], ckpt.vocab, table, params)
    return "".join("\t".join(repr(float(v)) for v in row) + "\n" for row in embs)


def embed_lines(ckpt_path, lines, tmp_path, name):
    sentences, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.tsv"
    sentences.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["embed", str(ckpt_path), str(sentences), "--out", str(out)]) == EXIT_OK
    return out.read_text(encoding="utf-8")


def distinct_sentences(n):
    nouns = ["dog", "cat", "man", "woman", "bird", "chef", "child", "farmer"]
    verbs = ["eats", "sees", "likes", "holds"]
    objs = ["food", "rice", "bread", "water", "sticks"]
    return [f"the {noun} {verb} the {obj} ." for noun, verb, obj in itertools.product(nouns, verbs, objs)][:n]


class TestEmbedRepeats:
    def test_repeats_match_row_formatter_and_lone_requests(self, trained, tmp_path):
        ckpt_path = trained / "best.ckpt"
        base = distinct_sentences(20)
        spaced = [("  " + s.replace(" ", "   ") + " ", s.replace(" ", "\t")) for s in base]
        rng = np.random.default_rng(11)
        lines = list(base)
        for _ in range(180):
            i, form = int(rng.integers(20)), int(rng.integers(3))
            lines.append(base[i] if form == 0 else spaced[i][form - 1])
        lines = [lines[i] for i in rng.permutation(len(lines))]
        keys = [tuple(tokenize(line)) for line in lines]
        assert len(set(keys)) == 20 and len(set(lines)) > 20     # spacing variants tokenize equal
        out = embed_lines(ckpt_path, lines, tmp_path, "mixed")
        assert out == old_embed_format(lines, ckpt_path)
        alone = {tuple(tokenize(s)): embed_lines(ckpt_path, [s], tmp_path, f"alone{i}") for i, s in enumerate(base)}
        assert out.splitlines(keepends=True) == [alone[key] for key in keys]

    def test_distinct_lines_match_row_formatter(self, trained, tmp_path):
        ckpt_path, lines = trained / "best.ckpt", distinct_sentences(50)
        assert len({tuple(tokenize(line)) for line in lines}) == 50
        assert embed_lines(ckpt_path, lines, tmp_path, "distinct") == old_embed_format(lines, ckpt_path)

    def test_each_distinct_line_tokenizes_once(self, trained, tmp_path, monkeypatch):
        lines = distinct_sentences(5) * 3 + ["THE dog eats the food ."]
        expected = old_embed_format(lines, trained / "best.ckpt")
        calls = []
        real = corpus.tokenize
        monkeypatch.setattr(corpus, "tokenize", lambda text: calls.append(text) or real(text))
        out = embed_lines(trained / "best.ckpt", lines, tmp_path, "counted")
        assert sorted(calls) == sorted(set(lines))
        assert out == expected

    @pytest.mark.parametrize("k", [2, 7])
    def test_repeated_line_gives_copies_of_its_lone_line(self, trained, tmp_path, k):
        line = "the farmer holds the water ."
        one = embed_lines(trained / "best.ckpt", [line], tmp_path, "one")
        assert one.count("\n") == 1
        assert embed_lines(trained / "best.ckpt", [line] * k, tmp_path, "many") == one * k


def repr_lines(rows):
    """The reference text: `repr` of each value widened to a Python float."""
    return ["\t".join(repr(float(v)) for v in row) + "\n" for row in rows]


def numpy_lines(rows):
    """`_embedding_lines` of `rows` through its numpy path, whatever their size."""
    with mock.patch.object(cli, "FORMAT_MIN", 0):
        return cli._embedding_lines(rows)


def edge_float32_rows():
    """Rows of float32 values at the formatter's edges, both signs: zero,
    subnormals, inf and nan; every power of two and its two neighbours; the
    neighbours of 10**k for k in -6..17, which hold the 1e-4 and 1e16
    switches to exponent notation; and integers up to 2**24 (all below 2**16
    and in the last 256, every 251st between)."""
    bits = [0, 1, 2, 3, 0x2AAAAA, 0x400000, 0x7FFFFF, 0x7F800000, 0x7FC00000, 0x7FC00001]
    powers = [1 << i for i in range(23)] + [e << 23 for e in range(1, 255)]
    bits += [b + d for b in powers for d in (-1, 0, 1)]
    tens = np.array([10.0**k for k in range(-6, 18)], np.float32).view(np.uint32).astype(np.int64)
    bits += [int(b) + d for b in tens for d in (-1, 0, 1)]
    ints = np.concatenate([np.arange(65536), np.arange(65536, 2**24 + 1, 251), np.arange(2**24 - 256, 2**24 + 1)])
    values = np.concatenate([np.array(bits, np.uint32).view(np.float32), ints.astype(np.float32)])
    values = np.concatenate([values, -values])
    return np.concatenate([values, np.zeros(-len(values) % 997, np.float32)]).reshape(-1, 997)


class TestEmbeddingLines:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(width=32), min_size=1, max_size=80), st.integers(1, 9))
    def test_random_float32_rows_are_repr(self, values, width):
        rows = np.array(values, np.float32)
        rows = rows[:len(rows) // width * width].reshape(-1, width) if len(rows) >= width else rows[None]
        assert numpy_lines(rows) == repr_lines(rows)

    def test_edge_float32s_are_repr(self):
        rows = edge_float32_rows()
        assert numpy_lines(rows) == repr_lines(rows)

    @pytest.mark.parametrize("shift", [-1e-6, 1e-6])
    def test_log10_rounded_across_a_power_of_ten_is_corrected(self, monkeypatch, shift):
        rows = edge_float32_rows()
        real = np.log10
        monkeypatch.setattr(np, "log10", lambda v: real(v) + shift)
        assert numpy_lines(rows) == repr_lines(rows)

    def test_float64_rows_stay_on_repr(self):
        rows = np.random.default_rng(3).standard_normal((40, 30)) * 0.3
        assert rows.size >= cli.FORMAT_MIN
        assert cli._embedding_lines(rows) == repr_lines(rows)

    def test_few_values_stay_on_repr(self, monkeypatch):
        rows = np.random.default_rng(4).standard_normal((3, 7)).astype(np.float32)
        monkeypatch.setattr(cli, "_format_block", None)
        assert cli._embedding_lines(rows) == repr_lines(rows)


class TestEmbedNumpyFormat:
    """`embed` requests large enough for the numpy formatter."""

    @staticmethod
    def spy_blocks(monkeypatch):
        rows = []
        real = cli._format_block
        monkeypatch.setattr(cli, "_format_block", lambda block: rows.append(len(block)) or real(block))
        return rows

    def test_distinct_lines_and_repeats_match_row_formatter_and_lone_requests(self, trained, tmp_path, monkeypatch):
        ckpt_path, base = trained / "best.ckpt", distinct_sentences(100)
        rng = np.random.default_rng(12)
        lines = base + [base[i] for i in rng.integers(0, len(base), 60)]
        lines = [lines[i] for i in rng.permutation(len(lines))]
        blocks = self.spy_blocks(monkeypatch)
        out = embed_lines(ckpt_path, lines, tmp_path, "many")
        assert blocks == [100]      # 100 distinct rows of 14 values, one block
        assert out == old_embed_format(lines, ckpt_path)
        alone = {s: embed_lines(ckpt_path, [s], tmp_path, f"alone{i}") for i, s in enumerate(base)}
        assert blocks == [100]      # a lone request stays on repr
        assert out.splitlines(keepends=True) == [alone[line] for line in lines]

    def test_blocks_of_whole_rows(self, trained, tmp_path, monkeypatch):
        ckpt_path, lines = trained / "best.ckpt", distinct_sentences(100)
        monkeypatch.setattr(cli, "FORMAT_BLOCK", 45)
        blocks = self.spy_blocks(monkeypatch)
        assert embed_lines(ckpt_path, lines, tmp_path, "blocked") == old_embed_format(lines, ckpt_path)
        assert blocks == [3] * 33 + [1]


class TestParserReuse:
    def test_reused_parser_leaks_no_state(self, trained, tmp_path, capsys):
        sentences = tmp_path / "s.txt"
        sentences.write_text("the dog eats the food .\n", encoding="utf-8")
        ckpt = str(trained / "best.ckpt")

        def embed(*extra):
            return main(["embed", ckpt, str(sentences), *extra])

        build_parser.cache_clear()
        assert main(["train", "c", "d", "--out", str(tmp_path / "bogus"), "--set", "bogus=1"]) == EXIT_USAGE
        assert build_parser().parse_args(["train", "c", "d", "--out", "o"]).set == []
        capsys.readouterr()
        assert embed() == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: sarcse embed") and "--out" in err
        assert embed("--out", str(tmp_path / "reused.tsv")) == EXIT_OK
        assert build_parser() is build_parser()
        build_parser.cache_clear()      # a clean embed as a fresh parser's first call
        assert embed("--out", str(tmp_path / "first.tsv")) == EXIT_OK
        assert (tmp_path / "reused.tsv").read_bytes() == (tmp_path / "first.tsv").read_bytes()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU runs one BLAS thread anyway")
def test_cli_bytes_do_not_depend_on_blas_threads(toy_data_dir, tmp_path):
    """`python -m sarcse` runs one BLAS thread unless its caller sets a count:
    at width 500 a second OpenBLAS thread moves log and checkpoint bits from
    step 2 on, so an unset environment must give the pinned run's bytes."""
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    src = str(Path(cli.__file__).resolve().parent.parent)
    outputs = []
    for pinned in ({}, dict.fromkeys(threads, "1")):
        env = {k: v for k, v in os.environ.items() if k not in threads}
        env.update(pinned, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
        out = tmp_path / f"run{len(outputs)}"
        subprocess.run([sys.executable, "-m", "sarcse", "train", str(toy_data_dir / "toy_corpus.txt"),
                        str(toy_data_dir / "toy_sts_dev.tsv"), "--out", str(out), "--set", "enc_channels=500",
                        "--set", "batch_size=16", "--set", "max_steps=3", "--set", "seed=7"],
                       env=env, check=True, capture_output=True)
        outputs.append([(out / name).read_bytes() for name in ("train_log.csv", "best.ckpt", "last.ckpt")])
    assert outputs[0] == outputs[1]


class TestHarnesses:
    def test_ablate_rows_and_shared_seed(self, data, tmp_path):
        out = tmp_path / "ablate"
        code = main(["ablate", data["corpus"], data["dev"], data["test"], "--out", str(out), *FAST, "--set", "seed=11"])
        assert code == EXIT_OK
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "# seed=11"
        assert lines[1] == "ablation,dev_spearman,test_spearman"
        modes = [line.split(",")[0] for line in lines[2:]]
        assert modes == ["full", "no_sal", "no_sal_no_decoder"]
        # third row ran without any reconstruction loss
        log = (out / "no_sal_no_decoder" / "train_log.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[2] == "0.0" and row.split(",")[3] == "0.0" for row in log)

    def test_sweep_theta_grid(self, data, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "sweep-theta", data["corpus"], data["dev"], data["test"],
            "--values", "0,0.1,0.2,0.3,0.4,0.5,0.6", "--out", str(out), *FAST, "--set", "seed=11",
        ])
        assert code == EXIT_OK
        lines = (out / "theta_sweep.csv").read_text().splitlines()
        assert lines[0] == "# seed=11"
        assert lines[1] == "theta,dev_spearman,test_spearman"
        assert [line.split(",")[0] for line in lines[2:]] == ["0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6"]
        assert (out / "theta_0.3" / "best.ckpt").exists()

    @pytest.mark.parametrize("command", ["ablate", "sweep-theta"])
    def test_bad_test_file_fails_before_training(self, data, tmp_path, command):
        bad = tmp_path / "bad.tsv"
        bad.write_text("4.0\tonly one sentence\n", encoding="utf-8")
        out = tmp_path / "grid"
        assert main([command, data["corpus"], data["dev"], str(bad), "--out", str(out), *FAST]) == EXIT_IO
        assert [p for p in out.glob("*") if p.is_dir()] == []

    def test_sweep_rejects_bad_values(self, data, tmp_path):
        code = main([
            "sweep-theta", data["corpus"], data["dev"], data["test"],
            "--values", "0,banana", "--out", str(tmp_path / "s"),
        ])
        assert code == EXIT_USAGE

    def test_sweep_rejects_empty_values(self, data, tmp_path, capsys):
        out = tmp_path / "s"
        code = main(["sweep-theta", data["corpus"], data["dev"], data["test"], "--values", ",", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "no theta values given" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rejects_values_sharing_a_label(self, data, tmp_path, capsys):
        out = tmp_path / "s"
        code = main([
            "sweep-theta", data["corpus"], data["dev"], data["test"],
            "--values", "0.1,0.1000001", "--out", str(out), *FAST,
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "0.1" in err and "0.1000001" in err
        assert not (out / "theta_0.1").exists()


class TestCommandLineDocs:
    def test_readme_block_names_each_command_and_its_settings(self):
        """The README's command-line block lists exactly the parser's
        commands, and marks `[SETTINGS]` (`--config`, `--set`) on exactly the
        commands that take them."""
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("sarcse ")]
        documented = {line.split()[1]: "[SETTINGS]" in line for line in lines}
        assert len(documented) == len(lines)
        commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
        assert set(documented) == set(commands)
        for command, takes_settings in documented.items():
            options = set(commands[command]._option_string_actions) & {"--config", "--set", "--seed"}
            assert options == ({"--config", "--set"} if takes_settings else set()), command


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE


class TestExitCodes:
    def test_numeric_failure_is_distinct(self, data, tmp_path, capsys):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main([
                "train", data["corpus"], data["dev"], "--out", str(tmp_path / "boom"),
                *FAST, "--set", "lr=1e18", "--set", "tau=1e-12", "--set", "max_steps=30",
            ])
        assert code == EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err

    def test_zero_norm_embedding_is_numeric(self, data, trained, tmp_path, capsys):
        ckpt = load_checkpoint(trained / "best.ckpt")
        ckpt.tensors = {name: np.zeros_like(arr) for name, arr in ckpt.tensors.items()}
        path = tmp_path / "zero.ckpt"
        save_checkpoint(ckpt, path)
        code = main(["eval", str(path), data["test"], "--out", str(tmp_path / "eval")])
        assert code == EXIT_NUMERIC
        assert "zero-norm" in capsys.readouterr().err

    def test_shape_mismatch_with_header_is_io(self, data, trained, tmp_path, capsys):
        ckpt = load_checkpoint(trained / "best.ckpt")
        ckpt.config = {**ckpt.config, "enc_channels": 9}
        path = tmp_path / "altered.ckpt"
        save_checkpoint(ckpt, path)     # altered header, re-sealed checksum
        code = main(["eval", str(path), data["test"], "--out", str(tmp_path / "eval")])
        assert code == EXIT_IO
        assert "enc.k3.kernels" in capsys.readouterr().err

    def test_reference_configuration_trains(self, data, tmp_path):
        # default loss keys with the documented reference batch size
        code = main([
            "train", data["corpus"], data["dev"], "--out", str(tmp_path / "ref"),
            "--set", "embed_dim=8", "--set", "enc_channels=8", "--set", "mix_channels=2",
            "--set", "batch_size=64", "--set", "max_steps=2", "--set", "eval_every=2",
            "--set", "theta=0.1", "--set", "lam=50", "--set", "tau=0.05",
            "--set", "alpha=1", "--set", "beta=2.5e-4", "--set", "gamma=2.5e-4",
        ])
        assert code == EXIT_OK
        text = (tmp_path / "ref" / "config.txt").read_text()
        assert "batch_size = 64" in text and "lam = 50.0" in text
