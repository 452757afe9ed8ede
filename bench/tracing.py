"""Span tracing of sarcse from outside the package.

`Tracer.install()` replaces public functions of the sarcse modules with
timing wrappers, at the names the calling module binds (so
`sarcse.model.conv1d_valid` is wrapped where `encode` looks it up), and
`Tracer.uninstall()` puts the originals back. Nothing under `src/` changes.

Spans are kept in memory as flat arrays and written out by `write_spans`.
Each span has a name, start, end, parent span id and an op id; all spans of
one training step or one request share the op id. Self time is a span's
duration minus the time its direct child spans cover. The VJP of every graph
node a wrapped primitive returns is wrapped too, so VJP time is attributed to
its primitive inside `backward()`.
"""

from __future__ import annotations

import importlib
import os
from array import array
from time import perf_counter

import numpy as np

# (module that binds the name, attribute, span name). Span names start with
# the layer (the sarcse module) that owns the function.
WRAPPED = [
    ("sarcse.corpus", "load_corpus", "corpus.load_corpus"),
    ("sarcse.corpus", "build_vocab", "corpus.build_vocab"),
    ("sarcse.corpus", "token_frequency", "corpus.token_frequency"),
    ("sarcse.corpus", "load_sts_pairs", "corpus.load_sts_pairs"),
    ("sarcse.corpus", "tokenize", "corpus.tokenize"),
    ("sarcse.corpus", "file_sha256", "corpus.file_sha256"),
    ("sarcse.trainer", "make_batch", "corpus.make_batch"),
    ("sarcse.evaluation", "make_batch_tokens", "corpus.make_batch_tokens"),
    ("sarcse.model", "embed", "embeddings.embed"),
    ("sarcse.evaluation", "embed", "embeddings.embed"),
    ("sarcse.trainer", "init_table", "embeddings.init_table"),
    ("sarcse.embeddings", "init_table", "embeddings.init_table"),
    ("sarcse.trainer", "forward_pair", "model.forward_pair"),
    ("sarcse.model", "encode", "model.encode"),
    ("sarcse.evaluation", "encode", "model.encode"),
    ("sarcse.model", "decode", "model.decode"),
    ("sarcse.evaluation", "decode", "model.decode"),
    ("sarcse.trainer", "init_params", "model.init_params"),
    ("sarcse.model", "init_params", "model.init_params"),
    ("sarcse.embeddings", "embedding_lookup", "autodiff.embedding_lookup"),
    ("sarcse.embeddings", "dropout", "autodiff.dropout"),
    ("sarcse.model", "conv1d_valid", "autodiff.conv1d_valid"),
    ("sarcse.model", "transposed_conv1d", "autodiff.transposed_conv1d"),
    ("sarcse.model", "conv2d_valid", "autodiff.conv2d_valid"),
    ("sarcse.model", "transposed_conv2d", "autodiff.transposed_conv2d"),
    ("sarcse.model", "max_pool_time", "autodiff.max_pool_time"),
    ("sarcse.model", "max_unpool_time", "autodiff.max_unpool_time"),
    ("sarcse.model", "stack_rows", "autodiff.stack_rows"),
    ("sarcse.trainer", "backward", "autodiff.backward"),
    ("sarcse.trainer", "info_nce", "losses.info_nce"),
    ("sarcse.trainer", "reconstruction_loss", "losses.reconstruction_loss"),
    ("sarcse.trainer", "token_weights", "losses.token_weights"),
    ("sarcse.evaluation", "token_weights", "losses.token_weights"),
    ("sarcse.trainer", "total_loss", "losses.total_loss"),
    ("sarcse.trainer", "train", "trainer.train"),
    ("sarcse.trainer", "dev_spearman", "trainer.dev_eval"),
    ("sarcse.trainer", "write_log", "trainer.write_log"),
    ("sarcse.trainer", "pack_model", "checkpoint.pack"),
    ("sarcse.checkpoint", "pack_model", "checkpoint.pack"),
    ("sarcse.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("sarcse.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("sarcse.checkpoint", "unpack_model", "checkpoint.unpack_model"),
    ("sarcse.trainer", "encode_tokens", "evaluation.encode_tokens"),
    ("sarcse.cli", "encode_tokens", "evaluation.encode_tokens"),
    ("sarcse.evaluation", "encode_tokens", "evaluation.encode_tokens"),
    ("sarcse.trainer", "spearman", "evaluation.spearman"),
    ("sarcse.evaluation", "spearman", "evaluation.spearman"),
    ("sarcse.trainer", "cosine", "evaluation.cosine"),
    ("sarcse.evaluation", "cosine", "evaluation.cosine"),
    ("sarcse.evaluation", "alignment", "evaluation.alignment"),
    ("sarcse.evaluation", "uniformity", "evaluation.uniformity"),
    ("sarcse.cli", "evaluate_pairs", "evaluation.evaluate_pairs"),
    ("sarcse.cli", "token_report", "evaluation.token_report"),
    ("sarcse.cli", "write_metrics_csv", "evaluation.write_report"),
    ("sarcse.cli", "write_density_csv", "evaluation.write_report"),
    ("sarcse.cli", "write_summary", "evaluation.write_report"),
    ("sarcse.cli", "main", "cli.main"),
]
# A method is wrapped on its class, which every caller shares.
WRAPPED_METHODS = [("sarcse.trainer", "AdamW", "step", "trainer.adamw")]

LAYERS = ("corpus", "embeddings", "model", "autodiff", "losses", "trainer",
          "checkpoint", "evaluation", "cli")
PRIMITIVES = ("conv1d_valid", "transposed_conv1d", "conv2d_valid", "transposed_conv2d",
              "max_pool_time", "max_unpool_time", "embedding_lookup", "dropout")


def _kernel_cost(name, args, out):
    """Computed (flop, bytes) of one forward call, from operand shapes.

    Bytes count each operand read once and the result written once (float
    operands at their itemsize, integer ids and indices at 8 bytes); the
    flop count is the multiply-adds of the dense formula, 2 per MAC.
    These are derived numbers, not hardware counters.
    """
    x = args[0].data
    isz = x.dtype.itemsize
    out_arr = out[0].data if isinstance(out, tuple) else out.data
    if name in ("conv1d_valid", "transposed_conv1d", "conv2d_valid", "transposed_conv2d"):
        k, b = args[1].data, args[2].data
        if name == "conv1d_valid":
            c_out, ks, d = k.shape
            flop = 2 * out_arr.shape[0] * c_out * ks * d
        elif name == "transposed_conv1d":
            c_in, ks, d = k.shape
            flop = 2 * ks * x.shape[0] * c_in * d
        elif name == "conv2d_valid":
            c_out, kh, kw = k.shape
            flop = 2 * c_out * kh * kw * out_arr.shape[1] * out_arr.shape[2]
        else:
            c_in, kh, kw = k.shape
            flop = 2 * c_in * kh * kw * x.shape[1] * x.shape[2]
        return flop, isz * (x.size + k.size + b.size + out_arr.size)
    if name == "max_pool_time":
        return x.size, isz * (x.size + out_arr.size) + 8 * out_arr.size
    if name == "max_unpool_time":
        return 0, isz * (x.size + out_arr.size) + 8 * x.size
    if name == "embedding_lookup":
        ids = np.asarray(args[1])
        return 0, 8 * ids.size + 2 * isz * out_arr.size
    if name == "dropout":
        return 2 * x.size, isz * (2 * x.size + out_arr.size)   # mask draw, scale
    raise KeyError(name)


def _graph_nodes(loss) -> int:
    """Nodes `backward(loss)` visits: the loss and every requires_grad ancestor."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


# Span names whose time is reported together; nested spans of one group
# (build_vocab calling load_corpus) count once.
GROUP_OF = {
    "corpus.load_corpus": "corpus.vocab",
    "corpus.build_vocab": "corpus.vocab",
    "corpus.token_frequency": "corpus.vocab",
    "corpus.load_sts_pairs": "corpus.vocab",
    "corpus.make_batch_tokens": "corpus.make_batch",
    "checkpoint.load_checkpoint": "checkpoint.load",
    "checkpoint.unpack_model": "checkpoint.load",
}

# Per-layer metric prefix -> the end-to-end metric (readable name) it should move.
SHOULD_MOVE = {
    "corpus.vocab": "train.sent_per_s on train-wide; infer.eval_s",
    "corpus.make_batch": "train.step_ms.p50 on train-toy; infer.embed_sent_per_s",
    "embeddings.embed": "train.step_ms.p50 on both train-*",
    "model.forward_pair": "train.step_ms.p50 on train-toy; infer.embed_sent_per_s",
    "model.encode": "train.step_ms.p50 on train-toy; infer.embed_sent_per_s",
    "model.decode": "train.step_ms.p50 on train-toy; infer.eval_s (token report)",
    "autodiff.backward": "train.step_ms.p50 on train-toy",
    "autodiff.nodes_per_step": "train.step_ms.p50 on train-toy",
    "autodiff": "train.step_ms.p50 on train-wide",
    "losses": "train.step_ms.p50 on train-toy",
    "trainer.adamw": "train.step_ms.p50 on train-wide; train.sent_per_s on train-toy",
    "trainer.dev_eval": "train.step_ms.p50 on train-wide; train.sent_per_s on train-toy",
    "checkpoint": "infer.embed1_ms.p50 (load is per request); train.sent_per_s",
    "evaluation.encode_tokens": "infer.embed_sent_per_s",
    "evaluation": "infer.eval_s",
    "cli": "infer.embed1_ms.p50, infer.embed_sent_per_s",
    "errors": "failed_share",
}


def should_move(metric: str) -> str:
    if metric.endswith(".errors"):
        return SHOULD_MOVE["errors"]
    parts = metric.split(".")
    for n in range(len(parts), 0, -1):
        hit = SHOULD_MOVE.get(".".join(parts[:n]))
        if hit:
            return hit
    return ""


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._gid: list[int] = []           # name id -> group id
        self.groups: list[str] = []
        # one entry per finished span, in finishing order
        self.s_id = array("q")
        self.s_name = array("i")
        self.s_parent = array("q")
        self.s_op = array("q")
        self.s_start = array("d")
        self.s_end = array("d")
        self._stack: list[list] = []        # [name id, span id, start, child time]
        self._next_span = 0
        self.op = 0                         # id shared by the spans of one step or request
        self.calls: list[int] = []
        self.self_time: list[float] = []
        self.errors: list[int] = []
        self.total: list[float] = []        # per group, outermost spans only
        self._active: list[int] = []        # per group, open spans
        self.cost = {p: [0, 0] for p in PRIMITIVES}   # summed flop, bytes
        self.nodes: list[int] = []
        self.saved_bytes: list[int] = []
        self.sentences_requested = 0
        self.sentences_unique = 0
        self._undo: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_time.append(0.0)
            self.errors.append(0)
            group = GROUP_OF.get(name, name)
            if group not in self.groups:
                self.groups.append(group)
                self.total.append(0.0)
                self._active.append(0)
            self._gid.append(self.groups.index(group))
        return nid

    def call(self, nid: int, fn, *args, **kwargs):
        """Run `fn` inside a span named `self.names[nid]`."""
        stack = self._stack
        gid = self._gid[nid]
        frame = [nid, self._next_span, 0.0, 0.0]
        self._next_span += 1
        self._active[gid] += 1
        stack.append(frame)
        frame[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[nid] += 1
            raise
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - frame[2]
            if stack:
                stack[-1][3] += dur
                parent = stack[-1][1]
            else:
                parent = -1
            self._active[gid] -= 1
            if not self._active[gid]:
                self.total[gid] += dur
            self.calls[nid] += 1
            self.self_time[nid] += dur - frame[3]
            self.s_id.append(frame[1])
            self.s_name.append(nid)
            self.s_parent.append(parent)
            self.s_op.append(self.op)
            self.s_start.append(frame[2])
            self.s_end.append(end)

    # -- wrappers -----------------------------------------------------------

    def _wrapper(self, span: str, fn):
        nid = self.name_id(span)
        call = self.call
        prim = span[len("autodiff."):] if span.startswith("autodiff.") else None
        if prim in PRIMITIVES:
            vjp_nid = self.name_id(f"autodiff.{prim}.vjp")
            cost = self.cost[prim]

            def wrapped(*args, **kwargs):
                out = call(nid, fn, *args, **kwargs)
                flop, nbytes = _kernel_cost(prim, args, out)
                cost[0] += flop
                cost[1] += nbytes
                node = out[0] if isinstance(out, tuple) else out
                vjp = node._vjp
                if vjp is not None and node is not args[0]:
                    node._vjp = lambda g: call(vjp_nid, vjp, g)
                return out
        elif span == "autodiff.backward":
            def wrapped(loss):
                self.nodes.append(_graph_nodes(loss))
                return call(nid, fn, loss)
        elif span == "checkpoint.save":
            def wrapped(ckpt, path):
                call(nid, fn, ckpt, path)
                self.saved_bytes.append(os.path.getsize(path))
        elif span == "evaluation.encode_tokens":
            def wrapped(token_lists, *args, **kwargs):
                self.sentences_requested += len(token_lists)
                self.sentences_unique += len({tuple(t) for t in token_lists})
                return call(nid, fn, token_lists, *args, **kwargs)
        else:
            def wrapped(*args, **kwargs):
                return call(nid, fn, *args, **kwargs)
        wrapped.__wrapped__ = fn
        return wrapped

    def install(self) -> None:
        for mod_name, attr, span in WRAPPED:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._undo.append((mod, attr, orig))
            setattr(mod, attr, self._wrapper(span, orig))
        for mod_name, cls_name, attr, span in WRAPPED_METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            orig = getattr(cls, attr)
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._wrapper(span, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results --------------------------------------------------------------

    def _at(self, values, name: str) -> float:
        nid = self._name_ids.get(name)
        return 0 if nid is None else values[nid]

    def group_total(self, group: str) -> float:
        return self.total[self.groups.index(group)] if group in self.groups else 0.0

    def self_by_layer(self) -> dict[str, float]:
        """Summed self time (s) per layer; together they cover every root span."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, t in zip(self.names, self.self_time):
            out[name.split(".", 1)[0]] += t
        return out

    def metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric. Times and call counts are per op (training
        step or request); flop and bytes are per forward call."""
        per_ms = 1000.0 / n_ops
        m: dict[str, tuple[float, str]] = {}

        def ms(metric, group):
            m[metric] = (self.group_total(group) * per_ms, "ms")

        def calls(metric, *names):
            m[metric] = (sum(self._at(self.calls, n) for n in names) / n_ops, "count")

        ms("corpus.vocab.ms", "corpus.vocab")
        ms("corpus.make_batch.ms", "corpus.make_batch")
        calls("corpus.make_batch.calls", "corpus.make_batch", "corpus.make_batch_tokens")
        ms("embeddings.embed.ms", "embeddings.embed")
        calls("embeddings.embed.calls", "embeddings.embed")
        ms("model.forward_pair.ms", "model.forward_pair")
        for part in ("encode", "decode"):
            ms(f"model.{part}.ms", f"model.{part}")
            calls(f"model.{part}.calls", f"model.{part}")
        for prim in PRIMITIVES:
            ms(f"autodiff.{prim}.fwd_ms", f"autodiff.{prim}")
            ms(f"autodiff.{prim}.vjp_ms", f"autodiff.{prim}.vjp")
            calls(f"autodiff.{prim}.calls", f"autodiff.{prim}")
            n = max(1, self._at(self.calls, f"autodiff.{prim}"))
            flop, nbytes = self.cost[prim]
            m[f"autodiff.{prim}.mflop"] = (flop / n / 1e6, "MFLOP")
            m[f"autodiff.{prim}.mbytes"] = (nbytes / n / 1e6, "MB")
        ms("autodiff.backward.ms", "autodiff.backward")
        m["autodiff.backward.self_ms"] = (self._at(self.self_time, "autodiff.backward") * per_ms, "ms")
        m["autodiff.nodes_per_step"] = (float(np.mean(self.nodes)) if self.nodes else 0.0, "count")
        ms("losses.info_nce.ms", "losses.info_nce")
        ms("losses.reconstruction_loss.ms", "losses.reconstruction_loss")
        calls("losses.reconstruction_loss.calls", "losses.reconstruction_loss")
        ms("losses.token_weights.ms", "losses.token_weights")
        ms("trainer.adamw.ms", "trainer.adamw")
        ms("trainer.dev_eval.ms", "trainer.dev_eval")
        calls("trainer.dev_eval.calls", "trainer.dev_eval")
        ms("checkpoint.pack.ms", "checkpoint.pack")
        ms("checkpoint.save.ms", "checkpoint.save")
        m["checkpoint.save.bytes"] = (float(np.mean(self.saved_bytes)) if self.saved_bytes else 0.0, "bytes")
        ms("checkpoint.load.ms", "checkpoint.load")
        ms("evaluation.encode_tokens.ms", "evaluation.encode_tokens")
        m["evaluation.encode_tokens.unique_ratio"] = (
            self.sentences_unique / self.sentences_requested if self.sentences_requested else 0.0, "ratio")
        for part in ("uniformity", "spearman", "cosine", "token_report"):
            ms(f"evaluation.{part}.ms", f"evaluation.{part}")
        m["cli.self_ms"] = (self._at(self.self_time, "cli.main") * per_ms, "ms")
        for layer in LAYERS:
            errs = sum(e for name, e in zip(self.names, self.errors) if name.split(".", 1)[0] == layer)
            m[f"{layer}.errors"] = (float(errs), "count")
        return m

    def write_spans(self, path) -> None:
        """Write every span as columns of a compressed .npz file (times in seconds)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            id=np.frombuffer(self.s_id, dtype=np.int64),
            name=np.frombuffer(self.s_name, dtype=np.int32),
            parent=np.frombuffer(self.s_parent, dtype=np.int64),
            op=np.frombuffer(self.s_op, dtype=np.int64),
            start=np.frombuffer(self.s_start, dtype=np.float64),
            end=np.frombuffer(self.s_end, dtype=np.float64),
        )
