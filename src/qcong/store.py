"""Disk cache for expensive series expansions.

An entry is the one file `<stem>.qs` for its series: the human-inspectable
qseries text dump plus a checksum trailer.  Stem and checksum both cover
the key's identity (form, ring and a fingerprint of the package sources),
so a file read under another key or written by other code is a miss, as
is a corrupt one.  A lookup asks for T terms and is served by the entry's
first T (the prefix of a longer expansion is the shorter one); a put
replaces the entry, so a longer expansion supersedes a shorter one.
Writes are atomic renames.
"""

from __future__ import annotations

import hashlib
import logging
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .qseries import QSeries, dumps, loads

__all__ = ["CacheKey", "Cache", "default_cache", "CACHE_ENV_VAR"]

CACHE_ENV_VAR = "QCONG_CACHE_DIR"

log = logging.getLogger("qcong.store")

_CHECKSUM_PREFIX = "checksum sha256:"


def _source_fingerprint() -> str:
    """sha256 over the package's module sources: editing any of them
    invalidates every cache entry written before."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(f"{path.name}\0".encode() + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


_SOURCE_FINGERPRINT = _source_fingerprint()


@dataclass(frozen=True)
class CacheKey:
    """Identity of one cached series, at any truncation."""

    form: str
    ring: str  # a ring tag: "int", "mod:7", ...

    def identity(self) -> str:
        """Everything an entry depends on; its truncation is not part of it."""
        return f"form={self.form}|ring={self.ring}|build={_SOURCE_FINGERPRINT}"

    def file_stem(self) -> str:
        return hashlib.sha256(self.identity().encode()).hexdigest()[:24]


def _checksum(identity: str, body: str) -> str:
    h = hashlib.sha256(f"{identity}\n".encode())
    h.update(body.encode())
    return h.hexdigest()


class Cache:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def get(self, key: CacheKey, T: int) -> QSeries | None:
        """The first T terms of the stored series for the key; None on miss,
        including when fewer than T are stored."""
        path = self.root / f"{key.file_stem()}.qs"
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError:
            log.warning("cache entry %s unreadable; treating as miss", path)
            return None
        # a file without a trailer has an empty one, which no digest matches
        body, _, trailer = text.rpartition(_CHECKSUM_PREFIX)
        if _checksum(key.identity(), body) != trailer.strip():
            log.warning("cache entry %s fails checksum; treating as miss", path)
            return None
        series = loads(body, limit=T)
        return series if series.T == T else None

    def put(self, key: CacheKey, series: QSeries) -> Path:
        """Atomically store a series in the ring the key names, replacing the
        key's earlier entry."""
        if series.ring.tag != key.ring:
            raise ValueError(f"series ring {series.ring.tag} does not match key {key.ring}")
        body = dumps(series)
        payload = body + f"{_CHECKSUM_PREFIX}{_checksum(key.identity(), body)}\n"
        path = self.root / f"{key.file_stem()}.qs"
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def clear(self) -> int:
        """Remove every cache entry, and any .meta sidecar an older layout
        left; returns the number of files removed."""
        n = 0
        for path in list(self.root.glob("*.qs")) + list(self.root.glob("*.meta")):
            path.unlink(missing_ok=True)
            n += 1
        return n


def default_cache() -> Cache:
    """Cache rooted at $QCONG_CACHE_DIR, else $XDG_CACHE_HOME/qcong, else
    ~/.cache/qcong.  An empty variable counts as unset, so it never means
    the working directory; a relative XDG_CACHE_HOME is ignored, as the XDG
    Base Directory spec asks."""
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    base = xdg if os.path.isabs(xdg) else os.path.expanduser("~/.cache")
    return Cache(os.environ.get(CACHE_ENV_VAR) or os.path.join(base, "qcong"))
