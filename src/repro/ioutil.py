"""Durable-write and transient-I/O-retry primitives shared by every tier.

Two failure families kept hitting the campaign/distributed/serving
layers through different code paths:

- **torn sidecars** — a JSON sidecar (checkpoint stats, progress file,
  shard plan) replaced via ``tmp.write_text`` +
  ``os.replace`` is atomic against *readers*, but a power cut between
  the rename and the data reaching the platter can still surface the
  old bytes, an empty file, or the new name with torn contents.
  :func:`atomic_write_text` closes that window: write, ``fsync`` the
  temp file, rename, ``fsync`` the directory.
- **transient I/O** — a shared mount hiccuping for one ``EIO`` should
  not kill a coordinator that supervises an hour of shard work.
  :func:`retry_io` retries with seeded, bounded-jitter backoff so a
  thundering herd of retriers decorrelates deterministically.

This module is deliberately near-leaf: stdlib plus :mod:`repro.errors`
only, so any layer can use it without cycles.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path
from typing import Callable, TypeVar

__all__ = ["atomic_write_text", "atomic_write_json", "fsync_dir", "retry_io"]

T = TypeVar("T")


def fsync_dir(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    Best-effort: some filesystems (and all of Windows) refuse directory
    fds; durability then degrades to what ``os.replace`` alone gives,
    which is still atomic against concurrent readers.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write_text(
    path: str | Path, text: str, *, fsync: bool = True
) -> Path:
    """Write ``text`` to ``path`` atomically (write, fsync, rename).

    Readers see either the old contents or the new contents, never a
    mixture, and with ``fsync=True`` (the default) the new contents are
    durable before the rename makes them visible — a crash can no longer
    surface the new name with torn bytes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8", newline="") as fh:
        fh.write(text)
        if fsync:
            fh.flush()
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if fsync:
        fsync_dir(path.parent)
    return path


def atomic_write_json(
    path: str | Path,
    payload: dict,
    *,
    indent: int | None = 2,
    sort_keys: bool = True,
    fsync: bool = True,
) -> Path:
    """:func:`atomic_write_text` for the JSON sidecars every tier writes."""
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys)
    if indent is None:
        text = json.dumps(payload, sort_keys=sort_keys, separators=(",", ":"))
    return atomic_write_text(path, text + "\n", fsync=fsync)


def retry_io(
    fn: Callable[[], T],
    *,
    attempts: int = 3,
    base_delay: float = 0.05,
    jitter: float = 0.5,
    seed: int = 0,
    retry_on: tuple[type[BaseException], ...] = (OSError,),
    on_retry: Callable[[int, BaseException], None] | None = None,
) -> T:
    """Run ``fn`` retrying transient failures with seeded bounded jitter.

    The delay before retry ``k`` (1-based) is
    ``base_delay * k * (1 + jitter * u)`` with ``u`` drawn from a
    ``random.Random(seed)`` private to this call — deterministic for a
    given seed, bounded by ``(1 + jitter)``, and decorrelated between
    callers that pass different seeds.  The final attempt's exception
    propagates unchanged.  ``on_retry(attempt_no, exc)`` observes each
    swallowed failure (the coordinator uses it for accounting).
    """
    if attempts < 1:
        raise ValueError("retry_io needs attempts >= 1")
    rng = random.Random(seed)
    for attempt in range(1, attempts + 1):
        try:
            return fn()
        except retry_on as exc:
            if attempt == attempts:
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            time.sleep(base_delay * attempt * (1.0 + jitter * rng.random()))
    raise AssertionError("unreachable")  # pragma: no cover
