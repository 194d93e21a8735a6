"""Whole-file publication for the on-disk stores (sweep cache, warm-start
snapshots, campaign status): :func:`atomic_write`."""

from __future__ import annotations

import contextlib
import itertools
import os
from pathlib import Path
from typing import Callable

_TMP_COUNTER = itertools.count()


def _unique_tmp(path: Path) -> Path:
    """A tmp name unique per process *and* per call, in ``path``'s own
    directory (same filesystem, so ``os.replace`` stays atomic)."""
    return path.with_name(f".{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp")


def atomic_write(path: Path, write: Callable[[Path], object]) -> None:
    """Publish ``path`` whole: ``write`` fills a fresh tmp file, which
    then replaces ``path``. A reader sees the old file or the new one;
    concurrent writers of one path (threads or processes) each publish
    a whole file, never one torn by another's interleaved writes — the
    race a shared ``path.with_suffix(".tmp")`` has. A failed write
    removes its tmp file and re-raises."""
    tmp = _unique_tmp(path)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
