"""Disk cache for expensive series expansions.

An entry is one file, `<stem>-<T>.qs`: the human-inspectable qseries text
dump plus a checksum trailer.  Stem and checksum both cover the key's
identity (form, ring, modulus and a fingerprint of the package sources),
so a file read under another key or written by other code is a miss, as
is a corrupt one.  Lookups may be satisfied by any entry with the same
identity and a truncation at least the requested one (the prefix of a
longer expansion is the shorter one).  Writes are atomic renames.
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
    """Identity of one cached expansion."""

    form: str
    ring: str  # "int" | "rat" | "mod" | "quad"
    modulus: int | None
    T: int

    def identity(self) -> str:
        """Everything an entry depends on except its truncation T."""
        mod = "" if self.modulus is None else str(self.modulus)
        return (
            f"form={self.form}|ring={self.ring}|modulus={mod}"
            f"|build={_SOURCE_FINGERPRINT}"
        )

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

    def get(self, key: CacheKey) -> QSeries | None:
        """Shortest stored series for the key with at least key.T terms,
        truncated down to key.T; None on miss."""
        stem = key.file_stem()
        names = (p.stem[len(stem) + 1 :] for p in self.root.glob(f"{stem}-*.qs"))
        stored = [int(t) for t in names if t.isdecimal()]
        T = min((t for t in stored if t >= key.T), default=None)
        if T is None:
            return None
        path = self.root / f"{stem}-{T}.qs"
        try:
            text = path.read_text()
        except OSError:
            log.warning("cache entry %s unreadable; treating as miss", path)
            return None
        # a file without a trailer has an empty one, which no digest matches
        body, _, trailer = text.rpartition(_CHECKSUM_PREFIX)
        if _checksum(key.identity(), body) != trailer.strip():
            log.warning("cache entry %s fails checksum; treating as miss", path)
            return None
        series = loads(body)
        if series.T != T:
            log.warning("cache entry %s holds T=%d; treating as miss", path, series.T)
            return None
        return series.truncate(key.T)

    def put(self, key: CacheKey, series: QSeries) -> Path:
        """Atomically store a series; its ring and truncation must match the key."""
        ring_tag = key.ring if key.modulus is None else f"{key.ring}:{key.modulus}"
        if series.ring.tag != ring_tag:
            raise ValueError(
                f"series ring {series.ring.tag} does not match key "
                f"({key.ring}, modulus={key.modulus})"
            )
        if series.T != key.T:
            raise ValueError(f"series has T={series.T}, key says T={key.T}")
        body = dumps(series)
        payload = body + f"{_CHECKSUM_PREFIX}{_checksum(key.identity(), body)}\n"
        path = self.root / f"{key.file_stem()}-{key.T}.qs"
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
    """Cache rooted at $QCONG_CACHE_DIR, else the user cache home."""
    root = os.environ.get(CACHE_ENV_VAR)
    if root is None:
        base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
        root = os.path.join(base, "qcong")
    return Cache(root)
