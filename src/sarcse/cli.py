"""Command-line surface: vocabulary building, training, evaluation,
embedding export, and the ablation / theta-sweep harnesses.

Exit codes: 0 success, 2 usage or configuration errors, 3 I/O and data-format
errors, 4 numeric failures.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import checkpoint as ckpt_io
from . import corpus as corpus_io
from .evaluation import (
    encode_tokens,
    evaluate_pairs,
    token_report,
    write_density_csv,
    write_metrics_csv,
    write_summary,
)
from .trainer import TrainConfig, check_dev_pairs, train, write_log

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

DEFAULTS: dict = TrainConfig().to_flat()

# The `ablate` rows: the paper's ablations as overrides of the resolved config.
ABLATIONS: dict[str, dict] = {
    "full": {},
    "no_sal": {"theta": 1.0},
    "no_sal_no_decoder": {"theta": 1.0, "beta": 0.0, "gamma": 0.0},
}


class ConfigError(ValueError):
    """Bad configuration key, value, or file."""


def _parse_value(key: str, raw: str):
    default = DEFAULTS[key]
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: expected an integer, got {raw!r}") from exc
    if isinstance(default, float):
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: expected a number, got {raw!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"config key {key!r}: expected a finite number, got {raw!r}")
        return value
    return raw


def read_config_file(path: str | Path) -> dict[str, str]:
    """`key = value` lines with `#` comments."""
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            raw[key.strip()] = value.strip()
    return raw


def resolve_config(config_path: Optional[str], overrides: Sequence[str]) -> dict:
    """Merge defaults, an optional config file, and --set overrides."""
    cfg = dict(DEFAULTS)

    def apply(key: str, raw: str, source: str):
        if key not in DEFAULTS:
            known = ", ".join(sorted(DEFAULTS))
            raise ConfigError(f"{source}: unknown config key {key!r} (known keys: {known})")
        cfg[key] = _parse_value(key, raw)

    if config_path:
        for key, raw in read_config_file(config_path).items():
            apply(key, raw, str(config_path))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key=value")
        key, raw = item.split("=", 1)
        apply(key.strip(), raw.strip(), "--set")
    _train_config(cfg)
    return cfg


def _train_config(cfg: dict) -> TrainConfig:
    """The TrainConfig of a resolved config; an out-of-range value is a ConfigError."""
    try:
        return TrainConfig(**cfg)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc


def write_resolved_config(cfg: dict, out_dir: Path) -> None:
    with open(out_dir / "config.txt", "w", encoding="utf-8") as fh:
        for key in sorted(cfg):
            fh.write(f"{key} = {cfg[key]}\n")


def input_checksums(paths: Sequence[str | Path]) -> str:
    """The `inputs.sha256` text: one `sha256  name` line per input file."""
    return "".join(f"{corpus_io.file_sha256(p)}  {Path(p).name}\n" for p in paths)


def _prepare_out(cfg: Optional[dict], out: str, checksums: str) -> Path:
    """Create `out` and write its `config.txt` (unless `cfg` is None) and
    `inputs.sha256`. Commands call it only once every input has loaded, so a
    refused run leaves no output behind."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg is not None:
        write_resolved_config(cfg, out_dir)
    (out_dir / "inputs.sha256").write_text(checksums, encoding="utf-8")
    return out_dir


def _load_train_inputs(cfg: dict, corpus_path: str, dev_path: str) -> tuple[tuple, list[str]]:
    """`train`'s data arguments: corpus sentences, dev pairs (checked as
    `train` checks them), vocabulary, token frequencies and the vectors of
    `pretrained_path` by token id (none when unset); and the paths read, for
    `inputs.sha256`."""
    vocab = corpus_io.build_vocab(corpus_path)
    freq = corpus_io.token_frequency(corpus_path, vocab)
    dev_pairs = corpus_io.load_sts_pairs(dev_path)
    check_dev_pairs(dev_pairs)
    paths, pretrained = [corpus_path, dev_path], {}
    if cfg["pretrained_path"]:
        pretrained = corpus_io.pretrained_vectors(cfg["pretrained_path"], vocab, cfg["embed_dim"])
        paths.append(cfg["pretrained_path"])
    return (corpus_io.load_corpus(corpus_path), dev_pairs, vocab, freq, pretrained), paths


# -- embedding text --------------------------------------------------------------
#
# `embed` writes each value as `repr(float(v))`, Python's shortest decimal that
# reads back as the same float64. A float32 widened to float64 needs 16-17
# digits, past the quick path of repr's dtoa: about 0.7 us a value, most of a
# many-sentence request. `_embedding_lines` computes the same bytes in numpy
# for the values repr writes positionally (1e-4 <= |v| < 1e16); zero, nan, inf
# and the rest keep `repr`.

# Values per numpy formatting block: extra memory stays O(block) for any file.
FORMAT_BLOCK = 32768
# Below this many values, a matrix formats faster through `repr` (a
# single-sentence request at the desk width has 189).
FORMAT_MIN = 600

_POW10 = 10 ** np.arange(18, dtype=np.int64)
_TEN = np.array([float(10**k) for k in range(21)])      # exact doubles
_DECADES = np.array([10.0**e for e in range(-5, 18)])   # 10**e at index e + 5
# 5**k split into a part of at most 21 significant bits and one below 2**26,
# each times 2**k: a 24-bit float32 significand times either is an exact double.
_FIVE_HI = np.array([float((5**k >> 26 << 26) << k) for k in range(21)])
_FIVE_LO = np.array([float((5**k & (1 << 26) - 1) << k) for k in range(21)])

# A field is laid out from source rows: the 17 digit places, then these.
_SIGN, _ZERO, _DOT, _POINT_ZERO, _HOLE = range(17, 22)
_FIELD = 23         # the longest float32 repr, as in '-1.1754943508222875e-38'


def _layout(e: int) -> list[int]:
    """The source rows that spell repr's positional form of a value with
    decimal exponent e. Rows holding zero bytes for a value (the sign of a
    positive one, a fraction's trailing zeros, the '.0' of a fraction) drop
    out of its text."""
    if e < 0:
        rows = [_SIGN, _ZERO, _DOT] + [_ZERO] * (-e - 1) + list(range(17))
    else:
        rows = [_SIGN, *range(e + 1), _DOT, *range(e + 1, 17), _POINT_ZERO]
    return rows + [_HOLE] * (_FIELD - len(rows))


_LAYOUTS = np.array([_layout(e) for e in range(-4, 16)], dtype=np.intp)


def _shortest_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """repr's digits of float32 magnitudes v in [1e-4, 1e16), widened to
    float64: (d, e, n) such that repr writes the first n digits of d, an int64
    in [1e16, 1e17), with decimal exponent e (its other digits are zero)."""
    e = np.floor(np.log10(v)).astype(np.int64)
    # log10 may round across a power of ten. No float32 lies within 2**-31
    # of a power of ten it is not, so the nearest doubles settle e.
    e += (v >= _DECADES[e + 6]).astype(np.int64) - (v < _DECADES[e + 5])
    # N = v * 10**(16 - e) exactly, as an int64 whole part and a fraction
    a, b = v * _FIVE_HI[16 - e], v * _FIVE_LO[16 - e]
    ia, ib = np.floor(a), np.floor(b)
    frac = (a - ia) + (b - ib)      # exact: both are multiples of 2**t for one t >= -18
    carry = np.floor(frac)
    whole = ia.astype(np.int64) + ib.astype(np.int64) + carry.astype(np.int64)
    frac -= carry
    # The decimals that read back as v lie within half a float64 gap of N.
    # dtoa also halves the gap below a power of two, keeps a bound by the
    # parity of the significand and lets a candidate on the upper bound lose
    # a tie. No float32 in range has a digit that one of these decides, or
    # shortest digits that round up to 10**17: scripts/check_embed_format.py
    # over binades -14 to 53 shows it.
    half_gap = np.ldexp(_TEN[16 - e], np.frexp(v)[1] - 54)
    lower = whole + np.ceil(frac - half_gap).astype(np.int64)
    upper = whole + np.floor(frac + half_gap).astype(np.int64)
    z = np.zeros(v.size, np.int64)          # the most trailing zeros of an integer in [lower, upper]
    live = np.arange(v.size)
    for j in range(1, 17):
        hi = upper[live]
        live = live[hi // _POW10[j] * _POW10[j] >= lower[live]]
        if not live.size:
            break
        z[live] = j
    # Of the multiples of 10**z around N, take the one in range, else the
    # nearer, else the one with an even last digit. Both are in range only
    # for 10**z <= 22, where `twice` is exact.
    step = _POW10[z]
    q = whole // step
    down = q * step
    up = down + step
    twice = 2 * ((whole - down).astype(np.float64) + frac)
    nearer_up = (twice > step) | ((twice == step) & ((q & 1) == 1))
    d = np.where((down < lower) | ((up <= upper) & nearer_up), up, down)
    return d, e, 17 - z


def _write_digits(d: np.ndarray, rows: np.ndarray) -> None:
    """The ASCII digits of each d in [1e16, 1e17) into rows[0:17], one place per row."""
    high = (d // 10**9).astype(np.int32)
    low = (d - high.astype(np.int64) * 10**9).astype(np.int32)
    for part, places in ((low, range(16, 7, -1)), (high, range(7, -1, -1))):
        for place in places:
            rest = part // 10
            rows[place] = part - rest * 10 + ord("0")
            part = rest


def _format_block(block: np.ndarray) -> list[str]:
    """`_embedding_lines` of a float32 matrix, computed in numpy."""
    width = block.shape[1]
    with np.errstate(invalid="ignore"):         # widening a signalling nan
        x = block.astype(np.float64).ravel()
    mag = np.abs(x)
    positional = (mag >= 1e-4) & (mag < 1e16)       # False for zero, nan and inf
    d, e, n = _shortest_digits(np.where(positional, mag, 1.0))
    order = np.argsort(e.astype(np.int8), kind="stable")    # one run per layout
    d, e, n = d[order], e[order], n[order]
    src = np.zeros((_HOLE + 1, x.size), np.uint8)
    _write_digits(d, src)
    src[:17] *= np.arange(17)[:, None] < np.maximum(n, e + 1)     # repr drops a fraction's trailing zeros
    src[_SIGN] = np.where(x[order] < 0, ord("-"), 0)
    src[_ZERO] = ord("0")
    src[_DOT] = ord(".")
    src[_POINT_ZERO] = np.where(n <= e + 1, ord("0"), 0)
    fields = np.empty((_FIELD + 1, x.size), np.uint8)
    starts = np.searchsorted(e, np.arange(-4, 17))
    for k, rows in enumerate(_LAYOUTS):
        fields[:_FIELD, starts[k]:starts[k + 1]] = src[rows, starts[k]:starts[k + 1]]
    frame = np.empty((x.size, _FIELD + 1), np.uint8)
    frame[order] = fields.T
    other = np.flatnonzero(~positional)
    texts = np.array([repr(v) for v in x[other].tolist()], dtype=f"S{_FIELD}")    # zero-padded
    frame[other, :_FIELD] = texts.view(np.uint8).reshape(-1, _FIELD)
    frame[:, _FIELD] = ord("\t")
    frame[width - 1::width, _FIELD] = ord("\n")
    text = frame[frame != 0].tobytes().decode("ascii")
    return [line + "\n" for line in text.split("\n")[:-1]]


def _embedding_lines(embs: np.ndarray) -> list[str]:
    """One output line per row of `embs`, byte-identical to
    `"\\t".join(map(repr, row.tolist())) + "\\n"`. A float32 matrix of at
    least FORMAT_MIN values is formatted in numpy, FORMAT_BLOCK values at a
    time; any other goes through `repr`."""
    if embs.dtype != np.float32 or embs.size < FORMAT_MIN:
        return ["\t".join(map(repr, row.tolist())) + "\n" for row in embs]
    step = max(1, FORMAT_BLOCK // embs.shape[1])
    return [line for start in range(0, len(embs), step) for line in _format_block(embs[start:start + step])]


# -- subcommands --------------------------------------------------------------


def cmd_build_vocab(args) -> int:
    vocab = corpus_io.build_vocab(args.corpus)
    freq = corpus_io.token_frequency(args.corpus, vocab)
    out_dir = _prepare_out(None, args.out, input_checksums([args.corpus]))
    corpus_io.save_vocab(vocab, out_dir / "vocab.txt")
    corpus_io.save_frequency(freq, vocab, out_dir / "freq.tsv")
    print(f"vocabulary: {len(vocab)} ids ({len(vocab.tokens)} tokens + reserved) -> {out_dir}")
    return EXIT_OK


def _write_train_outputs(result, out_dir: Path) -> None:
    ckpt_io.save_checkpoint(result.best, out_dir / "best.ckpt")
    ckpt_io.save_checkpoint(result.last, out_dir / "last.ckpt")
    write_log(result.log_rows, out_dir / "train_log.csv")


def cmd_train(args) -> int:
    cfg = resolve_config(args.config, args.set)
    inputs, paths = _load_train_inputs(cfg, args.corpus, args.dev)
    out_dir = _prepare_out(cfg, args.out, input_checksums(paths))
    result = train(_train_config(cfg), *inputs)
    _write_train_outputs(result, out_dir)
    dev = "undefined" if result.best.best_dev is None else f"{result.best.best_dev:.4f}"
    print(f"trained {result.last.step} steps; best dev spearman {dev} -> {out_dir}")
    return EXIT_OK


def _sal_settings(config: dict) -> tuple[float, float]:
    """The checkpoint config's `theta` and `lam`; each must be a finite number."""
    for key in ("theta", "lam"):
        value = config.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ckpt_io.CheckpointError(f"checkpoint config has no finite number {key!r}: {value!r}")
    return float(config["theta"]), float(config["lam"])


def cmd_eval(args) -> int:
    ckpt = ckpt_io.load_checkpoint(args.checkpoint)
    table, params = ckpt_io.unpack_model(ckpt)
    sal = _sal_settings(ckpt.config) if args.token_report else None
    pairs = corpus_io.load_sts_pairs(args.pairs)
    out_dir = _prepare_out(ckpt.config, args.out, input_checksums([args.checkpoint, args.pairs]))
    token_mse = {} if args.token_report else None     # filled by the one encode pass
    report = evaluate_pairs(pairs, ckpt.vocab, table, params, token_mse=token_mse)
    write_metrics_csv(report, out_dir / "metrics.csv")
    write_density_csv(report, out_dir / "density.csv")
    write_summary(report, out_dir / "summary.txt")
    if args.token_report:
        rows = token_report(pairs, ckpt.vocab, ckpt.freq, token_mse, *sal)
        text = "".join(f"{pi},{side},{pos},{tok},{mse!r},{w!r}\n" for pi, side, pos, tok, mse, w in rows)
        (out_dir / "token_report.csv").write_text("pair,side,position,token,recon_mse,weight\n" + text, encoding="utf-8")
    rho = "undefined" if report.spearman_rho is None else f"{report.spearman_rho:.4f}"
    print(f"evaluated {report.pair_count} pairs; spearman {rho} -> {out_dir}")
    return EXIT_OK


def cmd_embed(args) -> int:
    ckpt = ckpt_io.load_checkpoint(args.checkpoint)
    table, params = ckpt_io.unpack_model(ckpt)
    with open(args.sentences, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    tokens_of: dict[str, list[str]] = {}    # each distinct line, tokenized once
    for lineno, line in enumerate(lines, start=1):
        if line not in tokens_of:
            tokens_of[line] = corpus_io.tokenize(line)
        if not tokens_of[line]:
            raise ValueError(f"{args.sentences}:{lineno}: empty sentence")
    if not lines:
        raise ValueError(f"{args.sentences}: holds no sentences")
    embs = encode_tokens(list(tokens_of.values()), ckpt.vocab, table, params)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    text_of = dict(zip(tokens_of, _embedding_lines(embs)))     # repeats share the row and the text
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.writelines(text_of[line] for line in lines)
    print(f"embedded {len(lines)} sentences -> {out_path}")
    return EXIT_OK


def _fmt_rho(value: Optional[float]) -> str:
    return "undefined" if value is None else repr(value)


def _run_grid(args, column: str, grid: dict[str, dict], subdir_prefix: str, table_name: str) -> int:
    """Train once per labelled override set of `grid` under the shared seed,
    into `<out>/<subdir_prefix><label>`, and tabulate each label under
    `column` with its best dev and that checkpoint's test Spearman."""
    cfg = resolve_config(args.config, args.set)
    for overrides in grid.values():
        _train_config({**cfg, **overrides})
    inputs, paths = _load_train_inputs(cfg, args.corpus, args.dev)
    test_pairs = corpus_io.load_sts_pairs(args.test)
    out_dir = _prepare_out(cfg, args.out, input_checksums([*paths, args.test]))
    rows = []
    for label, overrides in grid.items():
        result = train(_train_config({**cfg, **overrides}), *inputs)
        sub = out_dir / f"{subdir_prefix}{label}"
        sub.mkdir(exist_ok=True)
        _write_train_outputs(result, sub)
        table, params = ckpt_io.unpack_model(result.best)
        test = evaluate_pairs(test_pairs, result.best.vocab, table, params).spearman_rho
        rows.append(f"{label},{_fmt_rho(result.best.best_dev)},{_fmt_rho(test)}\n")
    with open(out_dir / table_name, "w", encoding="utf-8") as fh:
        fh.write(f"# seed={cfg['seed']}\n")
        fh.write(f"{column},dev_spearman,test_spearman\n")
        fh.writelines(rows)
    print(f"{column} grid ({len(rows)} rows) -> {out_dir / table_name}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    return _run_grid(args, "ablation", ABLATIONS, "", "ablation.csv")


def cmd_sweep_theta(args) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--values: expected comma-separated numbers, got {args.values!r}") from exc
    if not values:
        raise ConfigError("--values: no theta values given")
    grid = {}       # two values with one label would share a directory and a row
    for value in values:
        label = f"{value:g}"
        if label in grid:
            raise ConfigError(f"theta values {grid[label]['theta']!r} and {value!r} share the label {label}")
        grid[label] = {"theta": value}
    return _run_grid(args, "theta", grid, "theta_", "theta_sweep.csv")


# -- argument parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _add_settings(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument("--config", default=None, help="config file of 'key = value' lines")
    sub_parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                            help="override one config key (repeatable)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; `parse_args` keeps no state in it."""
    parser = _Parser(prog="sarcse", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build vocabulary and token-frequency files")
    p.add_argument("corpus")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_vocab)

    p = sub.add_parser("train", help="train a model and keep the best dev checkpoint")
    p.add_argument("corpus")
    p.add_argument("dev")
    p.add_argument("--out", required=True)
    _add_settings(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on scored pairs")
    p.add_argument("checkpoint")
    p.add_argument("pairs")
    p.add_argument("--out", required=True)
    p.add_argument("--token-report", action="store_true",
                   help="also write per-token reconstruction losses")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("embed", help="write one embedding line per input sentence")
    p.add_argument("checkpoint")
    p.add_argument("sentences")
    p.add_argument("--out", required=True, help="output file")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("ablate", help="train full / no_sal / no_sal_no_decoder under a shared seed")
    p.add_argument("corpus")
    p.add_argument("dev")
    p.add_argument("test")
    p.add_argument("--out", required=True)
    _add_settings(p)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("sweep-theta", help="train once per theta value under a shared seed")
    p.add_argument("corpus")
    p.add_argument("dev")
    p.add_argument("test")
    p.add_argument("--values", default="0,0.1,0.2,0.3,0.4,0.5,0.6",
                   help="comma-separated theta values")
    p.add_argument("--out", required=True)
    _add_settings(p)
    p.set_defaults(fn=cmd_sweep_theta)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"sarcse: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FloatingPointError, ZeroDivisionError, OverflowError) as exc:
        print(f"sarcse: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError, ckpt_io.CheckpointError) as exc:
        print(f"sarcse: {exc}", file=sys.stderr)
        return EXIT_IO
