import pytest

from qcong import store
from qcong.qseries import QSeries
from qcong.ring import QUAD, ZZ, ModRing, QuadInt
from qcong.store import Cache, CacheKey, default_cache


def _series(ring, coeffs, offset24=0):
    return QSeries.from_ints(ring, coeffs, offset24)


def test_get_on_empty_cache_misses(tmp_path):
    cache = Cache(tmp_path)
    assert cache.get(CacheKey("x", "int", None, 5)) is None


@pytest.mark.parametrize(
    "ring,modulus",
    [(ZZ, None), (ModRing(7), 7), (QUAD, None)],
)
def test_put_get_round_trip(tmp_path, ring, modulus):
    cache = Cache(tmp_path)
    if ring is QUAD:
        s = QSeries(QUAD, 24, [QuadInt(1, -2), QuadInt(0, 8), QuadInt(-3, 0)])
        key = CacheKey("f", "quad", None, 3)
    else:
        s = _series(ring, [5, -4, 3, 2], offset24=-24)
        key = CacheKey("form", ring.tag.split(":")[0], modulus, 4)
    cache.put(key, s)
    got = cache.get(key)
    assert got == s


def test_get_truncates_down_from_longer_entry(tmp_path):
    cache = Cache(tmp_path)
    s = _series(ZZ, list(range(1000)))
    cache.put(CacheKey("big", "int", None, 1000), s)
    got = cache.get(CacheKey("big", "int", None, 500))
    assert got is not None and got.T == 500
    assert got.coeffs == s.coeffs[:500]


def test_get_misses_when_stored_is_shorter(tmp_path):
    cache = Cache(tmp_path)
    cache.put(CacheKey("x", "int", None, 10), _series(ZZ, list(range(10))))
    assert cache.get(CacheKey("x", "int", None, 11)) is None


def test_corrupt_file_reports_miss(tmp_path, caplog):
    cache = Cache(tmp_path)
    key = CacheKey("x", "int", None, 4)
    path = cache.put(key, _series(ZZ, [1, 2, 3, 4]))
    text = path.read_text()
    path.write_text(text.replace("2", "9", 1))
    with caplog.at_level("WARNING", logger="qcong.store"):
        assert cache.get(key) is None
    assert "checksum" in caplog.text


def test_put_rejects_mismatched_metadata(tmp_path):
    cache = Cache(tmp_path)
    s7 = _series(ModRing(7), [1, 2, 3])
    with pytest.raises(ValueError, match="does not match key"):
        cache.put(CacheKey("x", "mod", 11, 3), s7)
    with pytest.raises(ValueError, match="T="):
        cache.put(CacheKey("x", "mod", 7, 5), s7)


def test_distinct_moduli_do_not_collide(tmp_path):
    cache = Cache(tmp_path)
    cache.put(CacheKey("d", "mod", 7, 3), _series(ModRing(7), [1, 2, 3]))
    cache.put(CacheKey("d", "mod", 11, 3), _series(ModRing(11), [4, 5, 6]))
    assert cache.get(CacheKey("d", "mod", 7, 3)).coeffs == [1, 2, 3]
    assert cache.get(CacheKey("d", "mod", 11, 3)).coeffs == [4, 5, 6]


def test_repeated_put_is_idempotent(tmp_path):
    cache = Cache(tmp_path)
    key = CacheKey("x", "int", None, 2)
    s = _series(ZZ, [1, 2])
    cache.put(key, s)
    cache.put(key, s)
    assert cache.get(key) == s
    assert len(list(tmp_path.glob("*.qs"))) == 1


def test_clear_removes_everything(tmp_path):
    cache = Cache(tmp_path)
    cache.put(CacheKey("x", "int", None, 2), _series(ZZ, [1, 2]))
    removed = cache.clear()
    assert removed == 1  # one file per entry
    assert cache.get(CacheKey("x", "int", None, 2)) is None


def test_clear_removes_leftover_meta_sidecars(tmp_path):
    (tmp_path / "0123456789abcdef01234567.meta").write_text("{}\n")
    cache = Cache(tmp_path)
    cache.put(CacheKey("x", "int", None, 2), _series(ZZ, [1, 2]))
    assert cache.clear() == 2
    assert list(tmp_path.iterdir()) == []


def test_source_fingerprint_change_turns_hit_into_miss(tmp_path, monkeypatch):
    cache = Cache(tmp_path)
    key = CacheKey("delta_k:3", "mod", 7, 3)
    cache.put(key, _series(ModRing(7), [1, 3, 1]))
    assert cache.get(key) is not None
    monkeypatch.setattr(store, "_SOURCE_FINGERPRINT", "0" * 64)
    assert cache.get(key) is None


def test_entry_renamed_to_another_key_fails_checksum(tmp_path, caplog):
    cache = Cache(tmp_path)
    path = cache.put(CacheKey("a", "int", None, 3), _series(ZZ, [1, 2, 3]))
    other = CacheKey("b", "int", None, 3)
    path.rename(tmp_path / f"{other.file_stem()}-3.qs")
    with caplog.at_level("WARNING", logger="qcong.store"):
        assert cache.get(other) is None
    assert "checksum" in caplog.text


def test_entry_renamed_to_another_T_is_a_miss(tmp_path, caplog):
    cache = Cache(tmp_path)
    key = CacheKey("x", "int", None, 3)
    path = cache.put(key, _series(ZZ, [1, 2, 3]))
    path.rename(tmp_path / f"{key.file_stem()}-5.qs")
    with caplog.at_level("WARNING", logger="qcong.store"):
        assert cache.get(key) is None
    assert "T=3" in caplog.text


def test_stray_file_with_unparsable_T_is_ignored(tmp_path):
    cache = Cache(tmp_path)
    key = CacheKey("x", "int", None, 3)
    cache.put(key, _series(ZZ, [1, 2, 3]))
    (tmp_path / f"{key.file_stem()}-junk.qs").write_text("not a dump\n")
    assert cache.get(key).coeffs == [1, 2, 3]
    assert cache.get(CacheKey("x", "int", None, 4)) is None


def test_default_cache_respects_env(tmp_path, monkeypatch):
    monkeypatch.setenv("QCONG_CACHE_DIR", str(tmp_path / "qc"))
    cache = default_cache()
    assert cache.root == tmp_path / "qc"
    assert cache.root.is_dir()
