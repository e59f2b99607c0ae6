"""Every series a run reads, built at most once and kept in memory.

A `Cache` holds each series it has built or read under its key's identity
(form, ring and a fingerprint of the package sources) and serves a request
for T terms with its first T; a put replaces it, so a longer expansion
supersedes a shorter one.  Given a root directory, it backs that memory
with one file per series, `<stem>.qs`: the human-inspectable qseries text
dump plus a checksum trailer.  Stem and checksum both cover the identity,
so a file read under another key or written by other code is a miss, as
is a corrupt one.  Each file is read, checked and parsed whole at most
once per instance.  Writes are atomic renames; `Cache(None)` touches no file.

Every digest is SHA-256 from the interpreter's own module (`_sha256`, or
`_sha2` from CPython 3.12 on), the same bytes `hashlib.sha256` gives, so
stems and checksums do not depend on which one ran; `hashlib` is the
fallback where neither is built.
Importing `hashlib` maps OpenSSL's libcrypto, about 3.5 MB of resident
memory in every process, to hash the few hundred KB a run stores or reads.
"""

from __future__ import annotations

import logging
import os
import tempfile
from pathlib import Path
from typing import NamedTuple

from .qseries import QSeries, dumps, loads
from .ring import ModRing

try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

__all__ = ["CacheKey", "Cache", "default_cache", "CACHE_ENV_VAR"]

CACHE_ENV_VAR = "QCONG_CACHE_DIR"

log = logging.getLogger("qcong.store")

_CHECKSUM_PREFIX = b"checksum sha256:"


def _source_fingerprint() -> str:
    """sha256 over the package's module sources: editing any of them
    invalidates every cache entry written before."""
    h = sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(f"{path.name}\0".encode() + sha256(path.read_bytes()).digest())
    return h.hexdigest()


_SOURCE_FINGERPRINT = _source_fingerprint()


class CacheKey(NamedTuple):
    """Identity of one cached series, at any truncation."""

    form: str
    ring: str  # a ring tag: "int", "mod:7", ...

    def identity(self) -> str:
        """Everything an entry depends on; its truncation is not part of it."""
        return f"form={self.form}|ring={self.ring}|build={_SOURCE_FINGERPRINT}"

    def file_stem(self) -> str:
        return sha256(self.identity().encode()).hexdigest()[:24]


def _checksum(identity: str, body) -> bytes:
    # body: the entry's bytes before its trailer, as any bytes-like object
    h = sha256(f"{identity}\n".encode())
    h.update(body)
    return h.hexdigest().encode()


def _unreduced(series: QSeries) -> int | None:
    """Over Z/m, the index of the first coefficient not an int in [0, m), else
    None; for m <= 256 `bytes` first checks every value in C."""
    if not isinstance(series.ring, ModRing):
        return None
    coeffs, m = series.coeffs, series.ring.modulus
    if m <= 256:
        try:
            if not bytes(coeffs).translate(None, bytes(range(m))):
                return None
        except (TypeError, ValueError):
            pass
    return next((n for n, x in enumerate(coeffs) if not (isinstance(x, int) and 0 <= x < m)), None)


class Cache:
    """The series of one run, in memory and, when `root` is a directory,
    on disk under it.  A series served from memory is one this instance
    built, or one whose bytes passed the checksum when it read them."""

    def __init__(self, root: str | Path | None):
        self.root = None if root is None else Path(root)
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        # key identity -> the longest series put, or the one read from the
        # key's file (None when that read missed); a key here is not read again
        self._held: dict[str, QSeries | None] = {}

    def get(self, key: CacheKey, T: int) -> QSeries | None:
        """The first T terms of the series held for the key; None on miss,
        including when fewer than T are held."""
        identity = key.identity()
        if identity in self._held:
            series, n_bytes, source = self._held[identity], 0, "from memo"
        else:
            series, n_bytes, source = self._read(key, identity)
            self._held[identity] = series
        if series is None:
            outcome = "miss (from memo)" if source == "from memo" else source
        elif series.T < T:
            outcome = f"miss ({series.T} stored, {source})"
        else:
            outcome = f"hit ({source})"
        log.debug("cache get %s.qs T=%d: %s, %d bytes read", key.file_stem(), T, outcome, n_bytes)
        return None if series is None or series.T < T else series.truncate(T)

    def _read(self, key: CacheKey, identity: str) -> tuple[QSeries | None, int, str]:
        # (the whole stored series or None, bytes read, outcome for the log)
        if self.root is None:
            return None, 0, "miss (memory only)"
        path = self.root / f"{key.file_stem()}.qs"
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
        data = text.encode()
        # a file without a trailer has an empty one, which no digest matches
        cut = data.rfind(_CHECKSUM_PREFIX)
        if cut < 0:
            cut = len(data)
        if _checksum(identity, memoryview(data)[:cut]) != data[cut + len(_CHECKSUM_PREFIX):].strip():
            log.warning("cache entry %s fails checksum; treating as miss", path)
            return None, len(data), "corrupt"
        # loads parses the body; the trailer matched a hex digest, so it is
        # ASCII, as many characters as bytes
        return loads(text[: len(text) - (len(data) - cut)]), len(data), "read"

    def put(self, key: CacheKey, series: QSeries) -> Path | None:
        """Hold a series in the ring the key names, replacing the key's earlier
        one; with a root, store it atomically too and return its file.  A
        series from outside enters a run here, so one over Z/m must hold
        ints reduced into [0, m), which is checked, not trusted."""
        if series.ring.tag != key.ring:
            raise ValueError(f"series ring {series.ring.tag} does not match key {key.ring}")
        bad = _unreduced(series)
        if bad is not None:
            raise ValueError(f"{key.form} coefficient {bad} is {series.coeffs[bad]}, "
                             f"outside [0, {series.ring.modulus})")
        identity = key.identity()
        path = None
        if self.root is not None:
            body = dumps(series).encode()
            path = self.root / f"{key.file_stem()}.qs"
            fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(body)
                    fh.write(_CHECKSUM_PREFIX + _checksum(identity, body) + b"\n")
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        self._held[identity] = series
        return path

    def clear(self) -> int:
        """Forget every held series and remove every file entry; returns the
        number of files removed."""
        self._held.clear()
        if self.root is None:
            return 0
        n = 0
        for path in list(self.root.glob("*.qs")):
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
