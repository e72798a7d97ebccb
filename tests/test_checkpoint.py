"""The one artifact container: every corrupt header, every flipped bit and
every truncation of a model checkpoint or an index is rejected with
FormatError, or with the config's own DomainError, never another error."""

import hashlib
import io
import json
import struct
from dataclasses import asdict

import numpy as np
import pytest

from retforge import checkpoint
from retforge.checkpoint import DIGEST_SIZE, MAGIC, load_checkpoint, save_checkpoint
from retforge.encoder import DualEncoder, EncoderConfig
from retforge.errors import DomainError, FormatError
from retforge.index import IndexSnapshot, load_index, save_index
from retforge.reader import Reader, ReaderConfig

MODELS = {
    "dual_encoder": lambda: DualEncoder(
        EncoderConfig(vocab_size=7, layers=1, hidden_size=8, heads=2, max_seq_len=2)
    ),
    "reader": lambda: Reader(
        ReaderConfig(vocab_size=7, enc_layers=1, dec_layers=1, hidden_size=8, heads=2,
                     max_seq_len=2, max_answer_len=2)
    ),
}


def header_end(raw: bytes) -> int:
    return len(MAGIC) + 4 + struct.unpack_from("<I", raw, len(MAGIC))[0]


@pytest.fixture()
def load_error(monkeypatch):
    """load_error(load, data): the FormatError or DomainError that `load`
    raises on a file holding `data`, or None if it loads. The corrupt files,
    some 30 000 per model, are served from memory."""
    served = [b""]
    monkeypatch.setattr(checkpoint, "open", lambda path, mode: io.BytesIO(served[0]),
                        raising=False)

    def load_error(load, data: bytes):
        served[0] = data
        try:
            load("corrupt")
        except (FormatError, DomainError) as exc:
            return exc
        return None

    return load_error


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_every_header_bit_flip_and_truncation_is_rejected(kind, tmp_path, load_error):
    model = MODELS[kind]()
    model.save(tmp_path / "model.ckpt")
    raw = (tmp_path / "model.ckpt").read_bytes()
    load = type(model).load
    for i in range(header_end(raw)):
        for bit in range(8):
            flipped = bytearray(raw)
            flipped[i] ^= 1 << bit
            assert load_error(load, bytes(flipped)), f"byte {i} bit {bit} flipped loaded"
    for n in range(len(raw)):
        assert load_error(load, raw[:n]), f"truncation to {n} bytes loaded"
    assert load_error(load, raw) is None


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_a_flipped_bit_in_the_blobs_or_digest_is_a_checksum_error(kind, tmp_path, load_error):
    model = MODELS[kind]()
    model.save(tmp_path / "model.ckpt")
    raw = (tmp_path / "model.ckpt").read_bytes()
    load = type(model).load
    bits = np.random.default_rng(0).integers(0, 8, size=len(raw))
    assert len(raw) - header_end(raw) > DIGEST_SIZE + 1000
    for i in range(header_end(raw), len(raw)):  # one seeded bit of every byte
        flipped = bytearray(raw)
        flipped[i] ^= 1 << int(bits[i])
        error = load_error(load, bytes(flipped))
        assert error and "(field: checksum)" in str(error), f"byte {i} flipped: {error!r}"
    assert load_error(load, raw) is None


def test_every_index_bit_flip_and_truncation_is_rejected(tmp_path, load_error):
    embeddings = np.random.default_rng(0).normal(size=(5, 4)).astype(np.float32)
    save_index(IndexSnapshot(3, np.arange(10, 15), embeddings), tmp_path / "index.ridx")
    raw = (tmp_path / "index.ridx").read_bytes()
    for i in range(len(raw)):
        for bit in range(8):
            flipped = bytearray(raw)
            flipped[i] ^= 1 << bit
            assert load_error(load_index, bytes(flipped)), f"byte {i} bit {bit} flipped loaded"
    for n in range(len(raw)):
        assert load_error(load_index, raw[:n]), f"truncation to {n} bytes loaded"
    assert load_error(load_index, raw) is None


def test_flipped_heads_is_a_format_error(tmp_path):
    path = tmp_path / "model.ckpt"
    model = MODELS["dual_encoder"]()
    # written with its digest: a patched byte is a checksum error
    config = {"kind": "dual_encoder", **asdict(model.config), "heads": 0}
    save_checkpoint(path, config, {p.name: p.data for p in model.parameters()})
    with pytest.raises(FormatError) as caught:
        DualEncoder.load(path)
    assert str(caught.value) == f"{path}: heads must be >= 1, got 0 (field: config)"


V = checkpoint.FORMAT_VERSION


@pytest.mark.parametrize("header, field", [
    ({"format_version": V, "config": [], "params": []}, "config"),
    ({"format_version": V, "config": {}, "params": {}}, "params"),
    ({"format_version": V, "config": {}, "params": [{"shape": [2]}]}, "descriptor"),
    ({"format_version": V, "config": {}, "params": [{"name": "w", "shape": 2}]}, "descriptor"),
    ({"format_version": V, "config": {}, "params": [{"name": "w", "shape": [-1]}]},
     "descriptor"),
    ({"format_version": V, "config": {}, "params": [{"name": "w", "shape": [1.0]}]},
     "descriptor"),
    ({"format_version": V, "config": {}, "params": ["w"]}, "descriptor"),
    ([1], "format_version"),
    ({"format_version": 1, "config": {}, "params": []}, "format_version"),
    ({"format_version": V, "config": {}, "params": [{"name": "w", "shape": [], "dtype": "<f2"}]},
     "descriptor"),
    ({"format_version": V, "config": {}, "params": [{"name": "w", "shape": [], "dtype": ">f8"}]},
     "descriptor"),
])
def test_malformed_header_is_a_format_error(tmp_path, header, field):
    body = json.dumps(header).encode()
    path = tmp_path / "bad.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", len(body)) + body)
    with pytest.raises(FormatError, match=field):
        load_checkpoint(path)


def test_repeated_parameter_name_is_a_format_error(tmp_path):
    path = tmp_path / "w.ckpt"
    save_checkpoint(path, {}, {"w": np.zeros(1)})
    raw = path.read_bytes()
    one = b'{"dtype":"<f8","name":"w","shape":[1]}'
    body = raw[len(MAGIC) + 4:header_end(raw)].replace(one, one + b"," + one)
    path.write_bytes(MAGIC + struct.pack("<I", len(body)) + body + raw[-40:-32] * 2 + raw[-32:])
    with pytest.raises(FormatError, match=r"repeated parameter descriptor \(field: params\)"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda c: c.update(extra=1),
    lambda c: c.pop("heads"),
    lambda c: c.update(heads=2.0),
    lambda c: c.update(heads=True),
])
def test_config_disagreeing_with_the_model_is_a_format_error(tmp_path, edit):
    model = MODELS["dual_encoder"]()
    config = {"kind": "dual_encoder", **asdict(model.config)}
    edit(config)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, config, {p.name: p.data for p in model.parameters()})
    with pytest.raises(FormatError, match=r"\(field: config\)"):
        DualEncoder.load(path)


def test_parameter_shape_or_name_disagreeing_is_a_format_error(tmp_path):
    model = MODELS["dual_encoder"]()
    config = {"kind": "dual_encoder", **asdict(model.config)}
    arrays = {p.name: p.data for p in model.parameters()}
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, config, {**arrays, "q.final_ln_b": np.zeros(9)})
    with pytest.raises(FormatError, match="q.final_ln_b"):
        DualEncoder.load(path)
    save_checkpoint(path, config, {**arrays, "q.extra": np.zeros(1)})
    with pytest.raises(FormatError, match="q.extra"):
        DualEncoder.load(path)


def test_a_float32_parameter_is_a_format_error(tmp_path):
    model = MODELS["dual_encoder"]()
    arrays = {p.name: p.data for p in model.parameters()}
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"kind": "dual_encoder", **asdict(model.config)},
                    {**arrays, "q.final_ln_b": arrays["q.final_ln_b"].astype(np.float32)})
    with pytest.raises(FormatError, match="q.final_ln_b"):
        DualEncoder.load(path)


def test_each_dtype_round_trips_little_endian_and_no_other_saves(tmp_path):
    path = tmp_path / "a.ckpt"
    arrays = {
        "f8": np.array([1.5, -0.0, np.inf]),
        "f4": np.arange(6, dtype=np.float32).reshape(2, 3),
        "i8": np.array([-(2**63), 2**63 - 1]),
        "big": np.array([2.0**-1074, 3.0], dtype=">f8"),
    }
    save_checkpoint(path, {}, arrays)
    raw = path.read_bytes()
    header = json.loads(raw[len(MAGIC) + 4:header_end(raw)])
    assert [(d["name"], d["dtype"]) for d in header["params"]] == [
        ("big", "<f8"), ("f4", "<f4"), ("f8", "<f8"), ("i8", "<i8")]
    assert raw[header_end(raw):header_end(raw) + 8] == np.array(2.0**-1074, "<f8").tobytes()
    assert raw[-DIGEST_SIZE:] == hashlib.sha256(raw[:-DIGEST_SIZE]).digest()
    _, loaded = load_checkpoint(path)
    for name, arr in arrays.items():
        assert loaded[name].dtype.str == arr.dtype.newbyteorder("<").str
        assert loaded[name].astype(arr.dtype).tobytes() == arr.tobytes()
    for bad in (np.zeros(2, np.int32), np.zeros(2, bool), np.zeros(2, np.float16)):
        with pytest.raises(DomainError, match="dtype"):
            save_checkpoint(tmp_path / "bad.ckpt", {}, {"w": bad})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ckpt"]


@pytest.mark.parametrize("config, arrays, field", [
    ({"kind": "reader", "version": 0}, None, "kind"),
    ({"version": 0}, None, "kind"),
    ({"kind": "index", "version": "0"}, None, "version"),
    ({"kind": "index", "version": True}, None, "version"),
    ({"kind": "index", "version": 0, "extra": 1}, None, "version"),
    ({"kind": "index", "version": 0}, {"embeddings": np.zeros((2, 3))}, "params"),
    ({"kind": "index", "version": 0}, {"doc_ids": np.arange(2, dtype=np.float32)}, "params"),
    ({"kind": "index", "version": 0}, {"extra": np.zeros(1)}, "params"),
])
def test_index_of_another_kind_version_or_dtype_is_a_format_error(tmp_path, config, arrays,
                                                                   field):
    good = {"doc_ids": np.arange(2), "embeddings": np.zeros((2, 3), np.float32)}
    path = tmp_path / "index.ridx"
    save_checkpoint(path, config, {**good, **(arrays or {})})
    with pytest.raises(FormatError, match=rf"\(field: {field}\)"):
        load_index(path)

