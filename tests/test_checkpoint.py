"""Model checkpoints: every corrupt header and every truncation is rejected
with FormatError, or with the config's own DomainError, never another error."""

import io
import json
import struct
from dataclasses import asdict

import numpy as np
import pytest

from retforge import checkpoint
from retforge.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from retforge.encoder import DualEncoder, EncoderConfig
from retforge.errors import DomainError, FormatError
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


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_every_header_bit_flip_and_truncation_is_rejected(kind, tmp_path, monkeypatch):
    model = MODELS[kind]()
    model.save(tmp_path / "model.ckpt")
    raw = (tmp_path / "model.ckpt").read_bytes()
    # the corrupt files are served from memory: some 30 000 of them per model
    served = [b""]
    monkeypatch.setattr(checkpoint, "open", lambda path, mode: io.BytesIO(served[0]),
                        raising=False)

    def rejected(data: bytes) -> bool:
        served[0] = data
        try:
            type(model).load("corrupt.ckpt")
        except (FormatError, DomainError):
            return True
        return False

    header_end = len(MAGIC) + 4 + struct.unpack_from("<I", raw, len(MAGIC))[0]
    for i in range(header_end):
        for bit in range(8):
            flipped = bytearray(raw)
            flipped[i] ^= 1 << bit
            assert rejected(bytes(flipped)), f"byte {i} bit {bit} flipped loaded"
    for n in range(len(raw)):
        assert rejected(raw[:n]), f"truncation to {n} bytes loaded"
    assert not rejected(raw)


def test_flipped_heads_is_a_domain_error(tmp_path):
    path = tmp_path / "model.ckpt"
    MODELS["dual_encoder"]().save(path)
    raw = path.read_bytes()
    at = raw.index(b'"heads":2') + len(b'"heads":')
    path.write_bytes(raw[:at] + b"0" + raw[at + 1:])  # "2" -> "0" is one bit
    with pytest.raises(DomainError, match="heads"):
        DualEncoder.load(path)


@pytest.mark.parametrize("header, field", [
    ({"format_version": 1, "config": [], "params": []}, "config"),
    ({"format_version": 1, "config": {}, "params": {}}, "params"),
    ({"format_version": 1, "config": {}, "params": [{"shape": [2]}]}, "descriptor"),
    ({"format_version": 1, "config": {}, "params": [{"name": "w", "shape": 2}]}, "descriptor"),
    ({"format_version": 1, "config": {}, "params": [{"name": "w", "shape": [-1]}]},
     "descriptor"),
    ({"format_version": 1, "config": {}, "params": [{"name": "w", "shape": [1.0]}]},
     "descriptor"),
    ({"format_version": 1, "config": {}, "params": ["w"]}, "descriptor"),
    ([1], "format_version"),
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
    body = raw[12:-8].replace(b'[{"name":"w","shape":[1]}]',
                              b'[{"name":"w","shape":[1]},{"name":"w","shape":[1]}]')
    path.write_bytes(MAGIC + struct.pack("<I", len(body)) + body + raw[-8:] * 2)
    with pytest.raises(FormatError, match="repeated"):
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
    with pytest.raises(FormatError, match="config"):
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
