import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcong import store
from qcong.qseries import QSeries
from qcong.ring import QUAD, ZZ, ModRing, QuadInt
from qcong.store import Cache, CacheKey, default_cache


def _series(ring, coeffs, offset24=0):
    return QSeries.from_ints(ring, coeffs, offset24)


def test_get_on_empty_cache_misses(tmp_path):
    cache = Cache(tmp_path)
    assert cache.get(CacheKey("x", "int"), 5) is None


@pytest.mark.parametrize(
    "ring,modulus",
    [(ZZ, None), (ModRing(7), 7), (QUAD, None)],
)
def test_put_get_round_trip(tmp_path, ring, modulus):
    cache = Cache(tmp_path)
    if ring is QUAD:
        s = QSeries(QUAD, 24, [QuadInt(1, -2), QuadInt(0, 8), QuadInt(-3, 0)])
        key = CacheKey("f", "quad")
    else:
        s = _series(ring, [5, -4, 3, 2], offset24=-24)
        key = CacheKey("form", ring.tag)
    cache.put(key, s)
    got = cache.get(key, s.T)
    assert got == s
    assert getattr(got.ring, "modulus", None) == modulus


def test_get_truncates_down_from_longer_entry(tmp_path):
    cache = Cache(tmp_path)
    s = _series(ZZ, list(range(1000)))
    key = CacheKey("big", "int")
    cache.put(key, s)
    got = cache.get(key, 500)
    assert got is not None and got.T == 500
    assert got.coeffs == s.coeffs[:500]


def test_get_misses_when_stored_is_shorter(tmp_path):
    cache = Cache(tmp_path)
    key = CacheKey("x", "int")
    cache.put(key, _series(ZZ, list(range(10))))
    assert cache.get(key, 11) is None


def test_longer_put_replaces_shorter_entry(tmp_path):
    cache = Cache(tmp_path)
    key = CacheKey("x", "mod:7")
    cache.put(key, _series(ModRing(7), [1, 2, 3]))
    longer = _series(ModRing(7), [1, 2, 3, 4, 5, 6])
    cache.put(key, longer)
    assert len(list(tmp_path.glob("*.qs"))) == 1
    assert cache.get(key, 6) == longer
    assert cache.get(key, 3) == longer.truncate(3)


def test_corrupt_file_reports_miss(tmp_path, caplog):
    key = CacheKey("x", "int")
    path = Cache(tmp_path).put(key, _series(ZZ, [1, 2, 3, 4]))
    text = path.read_text()
    path.write_text(text.replace("2", "9", 1))
    with caplog.at_level("WARNING", logger="qcong.store"):
        assert Cache(tmp_path).get(key, 4) is None
    assert "checksum" in caplog.text


def test_change_beyond_the_requested_prefix_fails_checksum(tmp_path, caplog):
    key = CacheKey("x", "int")
    path = Cache(tmp_path).put(key, _series(ZZ, [1, 2, 3, 4]))
    path.write_text(path.read_text().replace("\n4\n", "\n5\n", 1))
    with caplog.at_level("WARNING", logger="qcong.store"):
        assert Cache(tmp_path).get(key, 2) is None
    assert "checksum" in caplog.text


def test_put_rejects_mismatched_metadata(tmp_path):
    cache = Cache(tmp_path)
    s7 = _series(ModRing(7), [1, 2, 3])
    with pytest.raises(ValueError, match="does not match key"):
        cache.put(CacheKey("x", "mod:11"), s7)
    with pytest.raises(ValueError, match="does not match key"):
        cache.put(CacheKey("x", "int"), s7)


def test_distinct_moduli_do_not_collide(tmp_path):
    cache = Cache(tmp_path)
    cache.put(CacheKey("d", "mod:7"), _series(ModRing(7), [1, 2, 3]))
    cache.put(CacheKey("d", "mod:11"), _series(ModRing(11), [4, 5, 6]))
    assert cache.get(CacheKey("d", "mod:7"), 3).coeffs == [1, 2, 3]
    assert cache.get(CacheKey("d", "mod:11"), 3).coeffs == [4, 5, 6]


def test_repeated_put_is_idempotent(tmp_path):
    cache = Cache(tmp_path)
    key = CacheKey("x", "int")
    s = _series(ZZ, [1, 2])
    cache.put(key, s)
    cache.put(key, s)
    assert cache.get(key, 2) == s
    assert len(list(tmp_path.glob("*.qs"))) == 1


def test_clear_removes_everything(tmp_path):
    cache = Cache(tmp_path)
    key = CacheKey("x", "int")
    cache.put(key, _series(ZZ, [1, 2]))
    removed = cache.clear()
    assert removed == 1  # one file per entry
    assert cache.get(key, 2) is None


def test_source_fingerprint_change_turns_hit_into_miss(tmp_path, monkeypatch):
    cache = Cache(tmp_path)
    key = CacheKey("delta_k:3", "mod:7")
    cache.put(key, _series(ModRing(7), [1, 3, 1]))
    assert cache.get(key, 3) is not None
    monkeypatch.setattr(store, "_SOURCE_FINGERPRINT", "0" * 64)
    assert cache.get(key, 3) is None


def test_entry_renamed_to_another_key_fails_checksum(tmp_path, caplog):
    cache = Cache(tmp_path)
    path = cache.put(CacheKey("a", "int"), _series(ZZ, [1, 2, 3]))
    other = CacheKey("b", "int")
    path.rename(tmp_path / f"{other.file_stem()}.qs")
    with caplog.at_level("WARNING", logger="qcong.store"):
        assert cache.get(other, 3) is None
    assert "checksum" in caplog.text


def test_default_cache_respects_env(tmp_path, monkeypatch):
    monkeypatch.setenv("QCONG_CACHE_DIR", str(tmp_path / "qc"))
    cache = default_cache()
    assert cache.root == tmp_path / "qc"
    assert cache.root.is_dir()


@pytest.mark.parametrize(
    "env,want",
    [
        ({"QCONG_CACHE_DIR": ""}, "home/.cache/qcong"),
        ({"QCONG_CACHE_DIR": "", "XDG_CACHE_HOME": ""}, "home/.cache/qcong"),
        ({"XDG_CACHE_HOME": ""}, "home/.cache/qcong"),
        ({"XDG_CACHE_HOME": "relative"}, "home/.cache/qcong"),
        ({"QCONG_CACHE_DIR": "", "XDG_CACHE_HOME": "{tmp}/xdg"}, "xdg/qcong"),
    ],
    ids=["empty-qcong", "both-empty", "empty-xdg", "relative-xdg", "absolute-xdg"],
)
def test_default_cache_ignores_empty_and_relative_env(tmp_path, monkeypatch, env, want):
    # neither an empty variable nor a relative XDG_CACHE_HOME may root the
    # cache in the working directory
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.delenv("QCONG_CACHE_DIR", raising=False)
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value.format(tmp=tmp_path))
    assert default_cache().root == tmp_path / want
    assert list(work.iterdir()) == []


# ---- memory: each entry read at most once per instance ----


@pytest.fixture
def counted_loads(monkeypatch):
    """The T of every series the store parses."""
    calls = []
    real = store.loads

    def counting(text):
        series = real(text)
        calls.append(series.T)
        return series

    monkeypatch.setattr(store, "loads", counting)
    return calls


@pytest.fixture
def counted_reads(monkeypatch):
    """The name of every file read through `Path.read_text`."""
    names = []
    real = Path.read_text

    def counting(path, *args, **kwargs):
        names.append(path.name)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    return names


def _get_lines(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "qcong.store" and r.levelname == "DEBUG"]


def _filled(tmp_path, coeffs, ring=ModRing(7)):
    # an entry written by one Cache, to be read by another
    key = CacheKey("x", ring.tag)
    path = Cache(tmp_path).put(key, _series(ring, coeffs))
    return key, path


def test_second_get_of_a_verified_entry_does_not_parse_again(
    tmp_path, counted_loads, counted_reads, caplog
):
    key, path = _filled(tmp_path, list(range(20)))
    cache = Cache(tmp_path)
    with caplog.at_level("DEBUG", logger="qcong.store"):
        first = cache.get(key, 20)
        second = cache.get(key, 20)
        third = cache.get(key, 9)
    assert counted_loads == [20]
    assert counted_reads == [path.name]
    assert first == second == _series(ModRing(7), list(range(20)))
    assert third == first.truncate(9)
    size = path.stat().st_size
    assert _get_lines(caplog) == [
        f"cache get {path.name} T=20: hit (read), {size} bytes read",
        f"cache get {path.name} T=20: hit (from memo), 0 bytes read",
        f"cache get {path.name} T=9: hit (from memo), 0 bytes read",
    ]


def test_get_parses_the_whole_entry_once_and_serves_every_prefix(
    tmp_path, counted_loads, counted_reads
):
    key, path = _filled(tmp_path, list(range(20)))
    cache = Cache(tmp_path)
    assert cache.get(key, 5).coeffs == [0, 1, 2, 3, 4]
    assert cache.get(key, 3).coeffs == [0, 1, 2]
    assert cache.get(key, 12).coeffs == [n % 7 for n in range(12)]
    assert cache.get(key, 20).coeffs == [n % 7 for n in range(20)]
    assert cache.get(key, 21) is None
    assert counted_loads == [20]
    assert counted_reads == [path.name]


def test_a_file_tampered_with_after_a_read_is_a_miss_for_a_fresh_cache(
    tmp_path, counted_loads, counted_reads, caplog
):
    key, path = _filled(tmp_path, [1, 2, 3, 4])
    cache = Cache(tmp_path)
    verified = cache.get(key, 4)
    assert verified.coeffs == [1, 2, 3, 4]
    path.write_text(path.read_text().replace("\n2\n", "\n5\n", 1))
    counted_reads.clear()
    # the instance that read the file serves the bytes that passed the checksum
    assert cache.get(key, 4) == verified
    assert counted_reads == []
    fresh = Cache(tmp_path)
    with caplog.at_level("DEBUG", logger="qcong.store"):
        assert fresh.get(key, 4) is None
        assert fresh.get(key, 2) is None
    assert "fails checksum" in caplog.text
    assert _get_lines(caplog) == [
        f"cache get {path.name} T=4: corrupt, {path.stat().st_size} bytes read",
        f"cache get {path.name} T=2: miss (from memo), 0 bytes read",
    ]
    assert counted_reads == [path.name]
    assert counted_loads == [4]


def test_a_deleted_entry_is_a_miss_for_a_fresh_cache(tmp_path, counted_reads, caplog):
    key, path = _filled(tmp_path, [1, 2, 3])
    cache = Cache(tmp_path)
    assert cache.get(key, 3).coeffs == [1, 2, 3]
    path.unlink()
    assert cache.get(key, 3).coeffs == [1, 2, 3]
    assert counted_reads == [path.name]
    with caplog.at_level("DEBUG", logger="qcong.store"):
        assert Cache(tmp_path).get(key, 3) is None
    assert _get_lines(caplog) == [f"cache get {path.name} T=3: miss (no entry), 0 bytes read"]


def test_request_past_the_stored_terms_is_still_a_miss(
    tmp_path, counted_loads, counted_reads, caplog
):
    key, path = _filled(tmp_path, list(range(10)))
    cache = Cache(tmp_path)
    with caplog.at_level("DEBUG", logger="qcong.store"):
        assert cache.get(key, 11) is None
        assert cache.get(key, 10) is not None
        assert cache.get(key, 11) is None
    size = path.stat().st_size
    assert _get_lines(caplog) == [
        f"cache get {path.name} T=11: miss (10 stored, read), {size} bytes read",
        f"cache get {path.name} T=10: hit (from memo), 0 bytes read",
        f"cache get {path.name} T=11: miss (10 stored, from memo), 0 bytes read",
    ]
    assert counted_loads == [10]
    assert counted_reads == [path.name]


def test_get_after_a_longer_put_returns_the_longer_series(tmp_path, counted_loads, caplog):
    cache = Cache(tmp_path)
    key = CacheKey("x", "mod:7")
    cache.put(key, _series(ModRing(7), [1, 2, 3]))
    assert cache.get(key, 3).coeffs == [1, 2, 3]
    longer = _series(ModRing(7), [6, 5, 4, 3, 2, 1])
    cache.put(key, longer)
    with caplog.at_level("DEBUG", logger="qcong.store"):
        assert cache.get(key, 6) == longer
        assert cache.get(key, 3) == longer.truncate(3)
    # what a put wrote is served from memory: nothing was parsed
    assert counted_loads == []
    lines = _get_lines(caplog)
    assert len(lines) == 2 and all(": hit (from memo), " in line for line in lines)


def test_a_longer_put_by_another_cache_is_read_by_a_fresh_cache(tmp_path, counted_loads):
    key, _ = _filled(tmp_path, [1, 2, 3])
    cache = Cache(tmp_path)
    assert cache.get(key, 3).coeffs == [1, 2, 3]
    Cache(tmp_path).put(key, _series(ModRing(7), [4, 5, 6, 0]))
    # an instance reads each entry once: it keeps the verified series it read
    assert cache.get(key, 3).coeffs == [1, 2, 3]
    assert cache.get(key, 4) is None
    fresh = Cache(tmp_path)
    assert fresh.get(key, 3).coeffs == [4, 5, 6]
    assert fresh.get(key, 4).coeffs == [4, 5, 6, 0]
    assert counted_loads == [3, 4]


def test_a_fresh_cache_parses_again(tmp_path, counted_loads, counted_reads):
    key, path = _filled(tmp_path, [1, 2, 3])
    for _ in range(2):
        cache = Cache(tmp_path)
        assert cache.get(key, 3).coeffs == [1, 2, 3]
        assert cache.get(key, 3).coeffs == [1, 2, 3]
    assert counted_loads == [3, 3]
    assert counted_reads == [path.name] * 2


def test_non_utf8_entry_is_a_corrupt_miss(tmp_path, caplog):
    key, path = _filled(tmp_path, [1, 2, 3])
    path.write_bytes(path.read_bytes().replace(b"\n2\n", b"\n\xff\n", 1))
    with caplog.at_level("DEBUG", logger="qcong.store"):
        assert Cache(tmp_path).get(key, 3) is None
    assert "not UTF-8" in caplog.text
    assert _get_lines(caplog) == [
        f"cache get {path.name} T=3: corrupt (not UTF-8), {path.stat().st_size} bytes read"
    ]


def _spoil(kind, tmp_path, key, path, monkeypatch):
    # make the entry for `key` at `path` one that must be a miss
    if kind == "tampered":
        path.write_text(path.read_text().replace("\n2\n", "\n5\n", 1))
    elif kind == "not-utf8":
        path.write_bytes(path.read_bytes().replace(b"\n2\n", b"\n\xff\n", 1))
    elif kind == "no-trailer":
        path.write_text(path.read_text().rpartition("checksum")[0])
    elif kind == "renamed":
        # another key's entry under this key's name
        other = Cache(tmp_path).put(CacheKey("y", key.ring), _series(ModRing(7), [1, 2, 3]))
        other.replace(path)
    elif kind == "other-fingerprint":
        # this key's entry as other sources wrote it, under this key's name
        with monkeypatch.context() as m:
            m.setattr(store, "_SOURCE_FINGERPRINT", "0" * 64)
            old = Cache(tmp_path).put(key, _series(ModRing(7), [1, 2, 3]))
        old.replace(path)


@pytest.mark.parametrize(
    "kind", ["tampered", "not-utf8", "no-trailer", "renamed", "other-fingerprint"]
)
def test_a_bad_entry_is_a_miss_on_its_one_read(
    tmp_path, monkeypatch, counted_loads, counted_reads, caplog, kind
):
    key, path = _filled(tmp_path, [1, 2, 3])
    _spoil(kind, tmp_path, key, path, monkeypatch)
    counted_reads.clear()
    cache = Cache(tmp_path)
    with caplog.at_level("WARNING", logger="qcong.store"):
        assert cache.get(key, 3) is None
        assert cache.get(key, 2) is None
    assert counted_reads == [path.name]
    assert len(caplog.records) == 1
    assert counted_loads == []


def test_memory_only_cache_creates_no_file(tmp_path, monkeypatch, counted_reads, caplog):
    # no directory, temporary file or rename, wherever the environment points
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("QCONG_CACHE_DIR", str(tmp_path / "qc"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))

    def forbidden(*args, **kwargs):
        raise AssertionError("a memory-only cache touched the file system")

    monkeypatch.setattr(store.tempfile, "mkstemp", forbidden)
    monkeypatch.setattr(store.os, "replace", forbidden)
    monkeypatch.setattr(Path, "mkdir", forbidden)
    cache = Cache(None)
    assert cache.root is None
    key = CacheKey("x", "mod:7")
    s = _series(ModRing(7), [1, 2, 3, 4])
    with caplog.at_level("DEBUG", logger="qcong.store"):
        assert cache.get(key, 4) is None
        assert cache.put(key, s) is None
        # a series served from memory is the one this instance built
        assert cache.get(key, 4) is s
        assert cache.get(key, 2) == s.truncate(2)
        assert cache.get(key, 5) is None
    assert _get_lines(caplog)[0] == (
        f"cache get {key.file_stem()}.qs T=4: miss (memory only), 0 bytes read"
    )
    assert cache.clear() == 0
    assert cache.get(key, 4) is None
    assert counted_reads == []
    assert list(tmp_path.rglob("*")) == [work]


def test_sha256_gives_hashlib_digests():
    identity = CacheKey("delta3:mod7", "mod:7").identity().encode()
    body = bytes(range(256)) * 4097  # past 1 MB
    for data in (identity, memoryview(body)[3:-5], body):
        assert store.sha256(data).digest() == hashlib.sha256(data).digest()
    h = store.sha256(identity)
    h.update(memoryview(body))
    assert h.hexdigest() == hashlib.sha256(identity + body).hexdigest()


def test_without_the_builtin_sha256_hashlib_gives_the_same_stems_and_checksums():
    key = CacheKey("delta3:mod7", "mod:7")
    body = b"qseries v1 ring=mod:7 offset24=0 T=2\n1\n0\n"
    code = (
        "import hashlib, sys; sys.modules['_sha256'] = sys.modules['_sha2'] = None; "
        "from qcong import store; "
        "assert store.sha256 is hashlib.sha256; "
        f"key = store.CacheKey({key.form!r}, {key.ring!r}); "
        f"print(key.file_stem(), store._checksum(key.identity(), {body!r}).decode())"
    )
    src = Path(store.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [key.file_stem(), store._checksum(key.identity(), body).decode()]
