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

_CHECKSUM_PREFIX = b"checksum sha256:"


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


def _checksum(identity: str, body) -> bytes:
    # body: the entry's bytes before its trailer, as any bytes-like object
    h = hashlib.sha256(f"{identity}\n".encode())
    h.update(body)
    return h.hexdigest().encode()


class Cache:
    """Entries under one directory.  Every get reads the whole entry and
    checks its checksum; the series parsed from verified bytes is kept for
    the life of the instance under the key and digest, so a repeat request
    for the same bytes costs a slice, not a parse."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # key identity -> (digest of the entry, the longest prefix parsed or
        # written); a new digest replaces the old one
        self._parsed: dict[str, tuple[bytes, QSeries]] = {}

    def get(self, key: CacheKey, T: int) -> QSeries | None:
        """The first T terms of the stored series for the key; None on miss,
        including when fewer than T are stored."""
        path = self.root / f"{key.file_stem()}.qs"
        series, n_bytes, outcome = self._lookup(key, path, T)
        log.debug("cache get %s T=%d: %s, %d bytes read", path.name, T, outcome, n_bytes)
        return series

    def _lookup(self, key: CacheKey, path: Path, T: int) -> tuple[QSeries | None, int, str]:
        # (the series or None, bytes read, outcome for the log)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None, 0, "miss (no entry)"
        except UnicodeDecodeError as exc:
            log.warning("cache entry %s is not UTF-8; treating as miss", path)
            return None, len(exc.object), "corrupt (not UTF-8)"
        except OSError:
            log.warning("cache entry %s unreadable; treating as miss", path)
            return None, 0, "miss (unreadable)"
        identity = key.identity()
        data = text.encode()
        # a file without a trailer has an empty one, which no digest matches
        cut = data.rfind(_CHECKSUM_PREFIX)
        if cut < 0:
            cut = len(data)
        body = memoryview(data)[:cut]  # a view of the encoded text, not a copy
        digest = _checksum(identity, body)
        if digest != data[cut + len(_CHECKSUM_PREFIX):].strip():
            log.warning("cache entry %s fails checksum; treating as miss", path)
            return None, len(data), "corrupt"
        seen = self._parsed.get(identity)
        if seen is not None and seen[0] == digest and seen[1].T >= T:
            series, source = seen[1], "from memo"
        else:
            # the checksum covers the header, and with a limit loads reads no
            # line past the header's T, so it never reaches the trailer; a
            # stored series shorter than T comes back whole, and is kept
            series, source = loads(text, limit=T), "parsed"
            self._parsed[identity] = (digest, series)
        if series.T < T:
            return None, len(data), f"miss ({series.T} stored, {source})"
        return series.truncate(T), len(data), f"hit ({source})"

    def put(self, key: CacheKey, series: QSeries) -> Path:
        """Atomically store a series in the ring the key names, replacing the
        key's earlier entry."""
        if series.ring.tag != key.ring:
            raise ValueError(f"series ring {series.ring.tag} does not match key {key.ring}")
        identity = key.identity()
        body = dumps(series).encode()
        digest = _checksum(identity, body)
        path = self.root / f"{key.file_stem()}.qs"
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(body)
                fh.write(_CHECKSUM_PREFIX + digest + b"\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._parsed[identity] = (digest, series)
        return path

    def clear(self) -> int:
        """Remove every cache entry, and any .meta sidecar an older layout
        left; returns the number of files removed."""
        self._parsed.clear()
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
