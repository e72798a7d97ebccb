"""Self-describing binary container for model parameters.

Layout: 8-byte magic, u32 little-endian header length, UTF-8 JSON header
(format version, free-form config, ordered blob descriptors), then raw
little-endian float64 blobs in descriptor order. Round-trips are bit-exact.
`save_model` and `load_model` are how every model is saved and checked on load.
"""

from __future__ import annotations

import json
import math
import struct
import typing
from dataclasses import asdict, fields

import numpy as np

from .errors import FormatError

MAGIC = b"RFORGE1\x00"
FORMAT_VERSION = 1


def save_checkpoint(path, config: dict, arrays: dict[str, np.ndarray]) -> None:
    descriptors = []
    blobs = []
    for name in sorted(arrays):
        # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d
        arr = np.asarray(arrays[name], dtype=np.float64)
        descriptors.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = json.dumps(
        {"format_version": FORMAT_VERSION, "config": config, "params": descriptors},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def _is_descriptor(desc) -> bool:
    """{"name": a string, "shape": a list of non-negative integers}."""
    return (
        isinstance(desc, dict) and isinstance(desc.get("name"), str)
        and isinstance(desc.get("shape"), list)
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
    sizes = [math.prod(d["shape"]) * 8 for d in params]
    offset = start + header_len
    if offset + sum(sizes) > len(raw):
        raise FormatError(f"{path}: truncated blobs (field: params)")
    if offset + sum(sizes) < len(raw):
        raise FormatError(f"{path}: {len(raw) - offset - sum(sizes)} trailing bytes after blobs")
    arrays: dict[str, np.ndarray] = {}
    for desc, n_bytes in zip(params, sizes):
        arrays[desc["name"]] = np.frombuffer(
            raw, dtype="<f8", count=n_bytes // 8, offset=offset
        ).reshape(desc["shape"]).copy()
        offset += n_bytes
    return header["config"], arrays


def save_model(path, kind: str, config, params) -> None:
    """Write the parameters of a model whose dataclass config is `config`."""
    save_checkpoint(path, {"kind": kind, **asdict(config)}, {p.name: p.data for p in params})


def load_model(path, kind: str, config_cls, build):
    """The `build(config)` model with the saved parameters of a `save_model`
    checkpoint. FormatError unless the kind, the config's field names and
    types, and the parameter names and shapes all agree."""
    config, arrays = load_checkpoint(path)
    if config.pop("kind", None) != kind:
        raise FormatError(f"{path}: checkpoint kind is not {kind} (field: kind)")
    types = typing.get_type_hints(config_cls)
    if set(config) != {f.name for f in fields(config_cls)} or any(
        type(value) is not types[name] for name, value in config.items()
    ):
        raise FormatError(f"{path}: config disagrees with {config_cls.__name__} (field: config)")
    model = build(config_cls(**config))
    expected = {p.name: p.data.shape for p in model.parameters()}
    found = {name: arr.shape for name, arr in arrays.items()}
    if found != expected:
        wrong = sorted(n for n in expected.keys() | found.keys() if expected.get(n) != found.get(n))
        raise FormatError(f"{path}: parameter names or shapes disagree (field: {wrong[0]})")
    for p in model.parameters():
        p.data = arrays[p.name]
    return model
