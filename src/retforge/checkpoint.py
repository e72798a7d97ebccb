"""The one self-describing binary container for every retforge artifact.

Layout: 8-byte magic, u32 little-endian header length, UTF-8 JSON header
(format version, free-form config, ordered blob descriptors: name, shape,
dtype), the raw blobs in descriptor order, then the SHA-256 of every
preceding byte. A blob is `<f8` (parameters), `<f4` (embeddings) or `<i8`
(ids), little-endian on any host. A load checks the header's structure, the
total length, then the digest, so a flipped bit or a cut file is a
FormatError before any array is read. Round-trips are bit-exact. Models use
`save_model`/`load_model`, the evidence index `index.save_index`/`load_index`.
`fingerprint` is the SHA-256 of arrays as they are in memory: with the corpus
object, the key of the context tower's document rows
(`encoder.DualEncoder.embed_documents`).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import typing
from dataclasses import asdict, fields
from typing import Iterable

import numpy as np

from .errors import DomainError, FormatError
from .files import write_atomic

MAGIC = b"RFORGE1\x00"
FORMAT_VERSION = 2
DTYPES = ("<f8", "<f4", "<i8")
DIGEST_SIZE = hashlib.sha256().digest_size


def save_checkpoint(path, config: dict, arrays: dict[str, np.ndarray]) -> None:
    descriptors, blobs = [], []
    for name in sorted(arrays):
        # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d
        arr = np.asarray(arrays[name])
        dtype = arr.dtype.newbyteorder("<").str
        if dtype not in DTYPES:
            raise DomainError(f"array {name!r}: dtype {arr.dtype} is not one of {DTYPES}")
        descriptors.append({"dtype": dtype, "name": name, "shape": list(arr.shape)})
        blobs.append(arr.astype(dtype, copy=False).tobytes())
    header = json.dumps({"format_version": FORMAT_VERSION, "config": config, "params": descriptors},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = bytearray().join([MAGIC, struct.pack("<I", len(header)), header, *blobs])
    payload += hashlib.sha256(payload).digest()  # in place: no second copy of the file
    write_atomic(path, payload)


def fingerprint(arrays: Iterable[np.ndarray]) -> bytes:
    """SHA-256 of each array's dtype, shape and bytes, in order, the bytes
    read through the buffer protocol (no copy of a C-contiguous array). Bytes,
    not values: +0.0 and -0.0, or two NaN payloads, fingerprint apart."""
    digest = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        digest.update(f"{arr.dtype.str}{arr.shape}".encode("ascii"))
        digest.update(arr)
    return digest.digest()


def _is_descriptor(desc) -> bool:
    """{"dtype": one of DTYPES, "name": a string, "shape": a list of ints >= 0}."""
    return (
        isinstance(desc, dict) and isinstance(desc.get("name"), str)
        and desc.get("dtype") in DTYPES and isinstance(desc.get("shape"), list)
        and all(type(n) is int and n >= 0 for n in desc["shape"])
    )


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) + 4:
        raise FormatError(f"{path}: file too short for header")
    if raw[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: bad magic (field: magic)")
    (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
    start = len(MAGIC) + 4
    if start + header_len > len(raw):
        raise FormatError(f"{path}: truncated header (field: header)")
    try:
        header = json.loads(raw[start:start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable header (field: header)") from exc
    if not isinstance(header, dict) or header.get("format_version") != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format_version (field: format_version)")
    if not (isinstance(header.get("config"), dict) and isinstance(header.get("params"), list)):
        raise FormatError(f"{path}: header needs a config object and a params list")
    params = header["params"]
    if not all(map(_is_descriptor, params)) or len({d["name"] for d in params}) < len(params):
        raise FormatError(f"{path}: bad or repeated parameter descriptor (field: params)")
    sizes = [math.prod(d["shape"]) * np.dtype(d["dtype"]).itemsize for d in params]
    offset = start + header_len
    end = offset + sum(sizes)
    if end + DIGEST_SIZE > len(raw):
        raise FormatError(f"{path}: truncated payload (field: payload)")
    if end + DIGEST_SIZE < len(raw):
        raise FormatError(f"{path}: {len(raw) - end - DIGEST_SIZE} trailing bytes after payload")
    if hashlib.sha256(memoryview(raw)[:end]).digest() != raw[end:]:
        raise FormatError(f"{path}: digest does not match the contents (field: checksum)")
    arrays: dict[str, np.ndarray] = {}
    for desc, n_bytes in zip(params, sizes):
        arrays[desc["name"]] = np.frombuffer(
            raw, dtype=desc["dtype"], count=math.prod(desc["shape"]), offset=offset
        ).reshape(desc["shape"]).copy()
        offset += n_bytes
    return header["config"], arrays


def save_model(path, kind: str, config, params) -> None:
    """Write the parameters of a model whose dataclass config is `config`."""
    save_checkpoint(path, {"kind": kind, **asdict(config)}, {p.name: p.data for p in params})


def load_model(path, kind: str, config_cls, build):
    """The `build(config, None)` model (zero weights, no random draw) with
    the saved parameters of a `save_model` checkpoint. FormatError unless the
    kind, the config's field names, types and domain, and the parameter
    names, shapes and dtype (`<f8`) all agree."""
    config, arrays = load_checkpoint(path)
    if config.pop("kind", None) != kind:
        raise FormatError(f"{path}: checkpoint kind is not {kind} (field: kind)")
    types = typing.get_type_hints(config_cls)
    if set(config) != {f.name for f in fields(config_cls)} or any(
        type(value) is not types[name] for name, value in config.items()
    ):
        raise FormatError(f"{path}: config disagrees with {config_cls.__name__} (field: config)")
    try:
        config = config_cls(**config)
    except DomainError as exc:
        raise FormatError(f"{path}: {exc} (field: config)") from None
    model = build(config, None)
    expected = {p.name: (p.data.shape, "<f8") for p in model.parameters()}
    found = {name: (arr.shape, arr.dtype.str) for name, arr in arrays.items()}
    if found != expected:
        wrong = sorted(n for n in expected.keys() | found.keys() if expected.get(n) != found.get(n))
        raise FormatError(f"{path}: parameter names, shapes or dtypes disagree (field: {wrong[0]})")
    for p in model.parameters():
        p.data = arrays[p.name]
    return model
