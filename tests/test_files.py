"""The one file writer: a write that fails leaves the old file whole and no
temporary file, and a new file gets the mode `open` would give it."""

import os
import stat

import numpy as np
import pytest

from retforge import files
from retforge.data import QAExample, save_qa
from retforge.encoder import DualEncoder, EncoderConfig
from retforge.index import IndexSnapshot, save_index

CONFIG = EncoderConfig(vocab_size=7, layers=1, hidden_size=8, heads=2, max_seq_len=2)


def snapshot(version: int) -> IndexSnapshot:
    embeddings = np.random.default_rng(version).normal(size=(3, 8)).astype(np.float32)
    return IndexSnapshot(version=version, doc_ids=np.arange(3), embeddings=embeddings)


# each writes a different file for each n
WRITERS = {
    "retriever.ckpt": lambda path, n: DualEncoder(CONFIG, seed=n).save(path),
    "index.ridx": lambda path, n: save_index(snapshot(n), path),
    "train.jsonl": lambda path, n: save_qa([QAExample(question=f"q{n}", answers=("a",))], path),
}


@pytest.mark.parametrize("step", ["fsync", "replace"])
@pytest.mark.parametrize("name", sorted(WRITERS))
def test_a_failed_write_leaves_the_old_file_and_no_temp_file(tmp_path, monkeypatch, name, step):
    path = tmp_path / name
    WRITERS[name](path, 0)
    before = path.read_bytes()

    def fail(*args):
        raise OSError(f"injected {step} failure")

    monkeypatch.setattr(os, step, fail)
    with pytest.raises(OSError, match="injected"):
        WRITERS[name](path, 1)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [name]
    WRITERS[name](path, 1)
    assert path.read_bytes() != before


def test_a_new_file_gets_the_mode_open_gives_it(tmp_path):
    old = os.umask(0o027)
    try:
        files.write_atomic(tmp_path / "written", b"")
        (tmp_path / "opened").touch()
    finally:
        os.umask(old)
    modes = {stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("written", "opened")}
    assert modes == {0o666 & ~0o027}


def test_jsonl_sorts_keys_keeps_text_and_writes_python_numbers(tmp_path):
    text = files.jsonl([{"b": np.int64(2), "a": "Zoë"}, {"c": np.float64(0.5)}])
    assert text == '{"a": "Zoë", "b": 2}\n{"c": 0.5}\n'
    files.write_atomic(tmp_path / "out.jsonl", text)
    assert (tmp_path / "out.jsonl").read_text(encoding="utf-8") == text
