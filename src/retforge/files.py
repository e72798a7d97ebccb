"""How retforge writes a file, and its one JSON-lines format.

`write_atomic` writes a whole payload to a temporary file beside the target,
fsyncs it and renames it over the target, so a crash mid-write leaves the old
file or the new one, never a torn one.
"""

from __future__ import annotations

import json
import os
import uuid

import numpy as np


def write_atomic(path, payload: bytes | bytearray | str) -> None:
    """Replace `path` with `payload` (a str is written as UTF-8). A new file's
    mode is what `open` gives it: 0o666 less the umask."""
    data = payload.encode("utf-8") if isinstance(payload, str) else payload
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def json_safe(record: dict) -> dict:
    """The record with numpy scalar values as Python numbers."""
    return {k: v.item() if isinstance(v, np.generic) else v for k, v in record.items()}


def jsonl(records) -> str:
    """One JSON object per line, keys sorted, non-ASCII text kept as is."""
    return "".join(
        json.dumps(json_safe(record), ensure_ascii=False, sort_keys=True) + "\n"
        for record in records
    )
