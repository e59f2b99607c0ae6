import sys
from collections import Counter
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest import mock

from hypothesis import strategies as st

from qcong import diamond, qseries
from qcong.qseries import QSeries
from qcong.ring import QQ, QUAD, ZZ, IntegerRing, ModRing, QuadInt, QuadRing, RationalRing
from qcong.store import Cache, CacheKey

sys.path.insert(0, str(Path(__file__).parent))

small_ints = st.integers(-40, 40)

quad_elems = st.builds(QuadInt, small_ints, small_ints)

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


def ring_and_elements(ring):
    if ring == ZZ:
        return small_ints
    if ring == QQ:
        return rationals
    if ring == QUAD:
        return quad_elems
    return st.integers(0, ring.modulus - 1)


def series_over(ring, min_T=1, max_T=10, offsets=st.integers(-8, 8)):
    return st.builds(
        lambda off, coeffs: QSeries(ring, off, coeffs),
        offsets,
        st.lists(ring_and_elements(ring), min_size=min_T, max_size=max_T),
    )


def mutate(series: QSeries, index: int, bump: int = 1) -> QSeries:
    """Rebuild a series with one coefficient changed (for self-tests)."""
    coeffs = list(series.coeffs)
    coeffs[index] = series.ring.add(coeffs[index], series.ring.from_int(bump))
    return QSeries(series.ring, series.offset24, coeffs)


class _Seeded(Cache):
    """A memory-only Cache whose seeded keys are never put again."""

    def __init__(self):
        super().__init__(None)
        self.seeded = set()

    def put(self, key, series):
        if key in self.seeded:
            raise AssertionError(f"{key.form} rebuilt: the seeded entry is too short")
        return super().put(key, series)


def seeded_cache(entries: dict[str, QSeries]) -> Cache:
    """A memory-only Cache holding each series under the key a claim reads
    for its form (a row of `diamond._INPUTS`), the way a mutation self-test
    injects an input.  A claim that needs more terms than were seeded fails
    the test rather than quietly building its own."""
    cache = _Seeded()
    for form, series in entries.items():
        modulus = diamond._INPUTS[form][0]
        key = CacheKey(form, (ZZ if modulus is None else ModRing(modulus)).tag)
        cache.put(key, series)
        cache.seeded.add(key)
    return cache


@contextmanager
def counting_parses():
    """Count the per-line parses (`parse_elem` calls) of every ring, by ring
    tag, while the block runs; a body read by stride makes none."""
    parses = Counter()
    with ExitStack() as stack:
        for cls in (IntegerRing, RationalRing, ModRing, QuadRing):
            parse = cls.__dict__["parse_elem"]  # a function, or ZZ's staticmethod(int)

            def counted(ring, s, parse=parse):
                parses[ring.tag] += 1
                return parse.__get__(ring)(s)

            stack.enter_context(mock.patch.object(cls, "parse_elem", counted))
        yield parses


def spy_writer():
    """Spy on the generic dump writer, one call per body it writes; a body
    written by stride makes none."""
    return mock.patch.object(qseries, "_str_lines", wraps=qseries._str_lines)
