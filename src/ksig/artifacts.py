"""Artifacts that are written whole or not at all.

Every file ksig writes goes through `replacing`: the writer fills a
temporary file beside the target, and only a writer that returns normally
has it moved onto the target by os.replace, which is atomic within one file
system.  A writer that raises leaves the previous artifact, if any,
unchanged and no temporary file behind.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

__all__ = ["replacing"]


@contextmanager
def replacing(path):
    """Yield a temporary path in the directory of `path`; on a normal exit
    move it onto `path`, on an exception delete it and re-raise."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
