"""Atomic file replacement for every durable store in the package.

The disk cache spill and the per-seed checkpoints both write through
:func:`atomic_write`, so a reader only ever sees a complete record and
an interrupted writer never leaves a partial file under the final name.
"""

from __future__ import annotations

import os
import tempfile
from typing import Union


def atomic_write(path: str, data: Union[str, bytes]) -> None:
    """Replace ``path`` with ``data`` (``str`` is written as UTF-8).

    ``data`` lands in a temp file in the same directory (created if
    missing), which ``os.replace`` then renames over ``path`` in one
    step.  On any failure the temp file is removed and ``path`` is left
    as it was.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


__all__ = ["atomic_write"]
