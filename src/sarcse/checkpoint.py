"""Versioned binary checkpoint format.

Layout, all integers little-endian:

    magic  b"SARC"
    u16    format version
    u32    header length, then header JSON (config, vocab tokens, corpus
           checksum, optimizer step, best dev score)
    u32    directory length, then directory JSON: per tensor the name,
           shape, dtype, and byte offset into the payload
    payload: raw tensor bytes, concatenated in directory order
    8-byte blake2b checksum of every preceding byte
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .autodiff import Tensor
from .corpus import Vocab
from .model import param_shapes

MAGIC = b"SARC"
VERSION = 1

_FREQ_KEY = "corpus.freq"
_MODEL_SIZES = ("embed_dim", "enc_channels", "mix_channels")


class CheckpointError(Exception):
    """An unreadable checkpoint; the message says where and why."""


@dataclass
class Checkpoint:
    """A model with its vocabulary and corpus token frequencies.

    The format holds no optimizer state: `opt_m` and `opt_v` are always
    empty, and `save_checkpoint` refuses filled ones.
    """

    config: dict
    vocab: Vocab
    freq: np.ndarray    # float64 per vocab id, as `corpus.token_frequency` gives
    tensors: dict[str, np.ndarray]
    opt_m: dict[str, np.ndarray] = field(default_factory=dict)
    opt_v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    best_dev: Optional[float] = None


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    if ckpt.opt_m or ckpt.opt_v:
        raise ValueError(f"{path}: the checkpoint format holds no optimizer moments")
    header = {
        "config": ckpt.config,
        "vocab": ckpt.vocab.tokens,
        "corpus_sha256": ckpt.vocab.corpus_sha256,
        "step": ckpt.step,
        "best_dev": ckpt.best_dev,
    }
    entries: list[tuple[str, np.ndarray]] = [(_FREQ_KEY, ckpt.freq)]
    entries += sorted(ckpt.tensors.items())

    directory = []
    payload = bytearray()
    for name, arr in entries:
        arr = np.ascontiguousarray(arr)
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        directory.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": le.dtype.str,
            "offset": len(payload),
        })
        payload += le.tobytes()

    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<H", VERSION)
    header_bytes = json.dumps(header).encode("utf-8")
    blob += struct.pack("<I", len(header_bytes)) + header_bytes
    dir_bytes = json.dumps(directory).encode("utf-8")
    blob += struct.pack("<I", len(dir_bytes)) + dir_bytes
    blob += payload
    blob += hashlib.blake2b(bytes(blob), digest_size=8).digest()
    # Write a sibling file, then rename it over `path`: a failed save leaves
    # any previous checkpoint at `path` intact.
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(bytes(blob))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _spec(entry, path) -> tuple[str, np.dtype, tuple[int, ...], int]:
    """(name, dtype, shape, offset) of one directory entry; a malformed one is a CheckpointError."""
    try:
        name, shape, offset = entry["name"], tuple(entry["shape"]), entry["offset"]
        dtype = np.dtype(entry["dtype"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed directory entry {entry!r}") from exc
    if not (isinstance(name, str) and isinstance(entry["dtype"], str) and dtype.kind in "biufc"):
        raise CheckpointError(f"{path}: malformed directory entry {entry!r}")
    if not all(type(n) is int and n >= 0 for n in (offset, *shape)):
        raise CheckpointError(f"{path}: tensor {name} has a negative or non-integer offset or dimension")
    return name, dtype, shape, offset


def load_checkpoint(path: str | Path) -> Checkpoint:
    """The checkpoint at `path`, with a model that `unpack_model` can wrap;
    anything else is a CheckpointError that starts with the path."""
    view = memoryview(Path(path).read_bytes())
    if len(view) < len(MAGIC) + 2 + 8:
        raise CheckpointError(f"{path}: file too short to be a checkpoint")
    if view[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {bytes(view[:4])!r}")
    body = view[:-8]
    if hashlib.blake2b(body, digest_size=8).digest() != view[-8:]:
        raise CheckpointError(f"{path}: checksum mismatch (corrupt or truncated payload)")
    (version,) = struct.unpack_from("<H", view, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: format version {version}, expected {VERSION}")

    pos = 6

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(body):
            raise CheckpointError(f"{path}: truncated at byte {pos}")
        chunk = body[pos:pos + n]
        pos += n
        return chunk

    def take_json(what: str):
        try:
            return json.loads(str(take(struct.unpack("<I", take(4))[0]), "utf-8"))
        except ValueError as exc:       # UnicodeDecodeError or JSONDecodeError
            raise CheckpointError(f"{path}: {what} is not UTF-8 JSON: {exc}") from exc

    header = take_json("header")
    if not (isinstance(header, dict) and isinstance(header.get("config"), dict)
            and isinstance(header.get("vocab"), list)):
        raise CheckpointError(f"{path}: header is not an object with a config object and a vocab list")
    tokens = header["vocab"]
    if not all(isinstance(t, str) for t in tokens) or len(set(tokens)) != len(tokens):
        raise CheckpointError(f"{path}: header vocab is not a list of distinct strings")
    directory = take_json("directory")
    if not isinstance(directory, list):
        raise CheckpointError(f"{path}: directory is not a list")
    payload = body[pos:]

    tensors: dict[str, np.ndarray] = {}
    for entry in directory:
        name, dtype, shape, start = _spec(entry, path)
        nbytes = dtype.itemsize * math.prod(shape)
        if start + nbytes > len(payload):
            raise CheckpointError(f"{path}: tensor {name} extends past end of payload")
        # The one copy of each tensor: callers get writable arrays that alias
        # neither the file's bytes nor each other.
        tensors[name] = np.frombuffer(payload[start:start + nbytes], dtype=dtype).reshape(shape).copy()

    config = header["config"]
    for key in _MODEL_SIZES:
        if not (type(config.get(key)) is int and config[key] > 0):
            raise CheckpointError(f"{path}: config {key} is {config.get(key)!r}, expected a positive integer")
    for key in ("theta", "lam"):    # a bool is neither type; nan, inf and an int no float holds fail the bound
        if not (type(config.get(key)) in (int, float) and abs(config[key]) <= sys.float_info.max):
            raise CheckpointError(f"{path}: config {key} is {config.get(key)!r}, expected a finite number")
    vocab = Vocab(tokens, corpus_sha256=header.get("corpus_sha256"))
    sizes = [config[key] for key in _MODEL_SIZES]
    # One frequency per vocab id, and the model at the config's sizes. Other
    # entries, such as older files' optimizer moments, are kept unread.
    expected = {_FREQ_KEY: (len(vocab),), "embedding.weights": (len(vocab), sizes[0]), **param_shapes(*sizes)}
    for name, shape in expected.items():
        if name not in tensors:
            raise CheckpointError(f"{path}: missing {name} tensor")
        arr = tensors[name]
        if arr.dtype.kind != "f" or arr.shape != shape:
            raise CheckpointError(
                f"{path}: {name} is {arr.dtype} of shape {arr.shape}, expected floats of shape {shape}"
            )
    return Checkpoint(
        config=config,
        vocab=vocab,
        freq=tensors.pop(_FREQ_KEY),
        tensors=tensors,
        step=header.get("step", 0),
        best_dev=header.get("best_dev"),
    )


# -- model <-> tensor-dict plumbing ------------------------------------------


def pack_model(table: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {"embedding.weights": table.data, **{name: t.data for name, t in params.items()}}


def unpack_model(ckpt: Checkpoint) -> tuple[Tensor, dict[str, Tensor]]:
    """Wrap the embedding table and conv parameters of a checkpoint that
    `load_checkpoint` returned or `train` built as Tensors. They share memory
    with `ckpt.tensors`, which `load_checkpoint` fills with private copies."""
    names = param_shapes(*(ckpt.config[key] for key in _MODEL_SIZES))
    return Tensor(ckpt.tensors["embedding.weights"]), {name: Tensor(ckpt.tensors[name]) for name in names}
