"""Value semantics of qcong's immutable types: equality and hashing by
value, read-only fields, validation, reprs, and no silent tuple or
sequence arithmetic."""

import copy
import json
import pickle

import pytest

from qcong.cli import main
from qcong.diamond import Claim, SuiteConfig
from qcong.eta import EtaQuotient
from qcong.ring import QQ, QUAD, ZZ, IntegerRing, ModRing, QuadInt, QuadRing, RationalRing
from qcong.store import CacheKey
from qcong.sturm import ClaimReport, SpaceTag


def _report(**changes):
    fields = dict(
        claim="eq-1.2", weight=None, level=None, modulus=7,
        bound=10, checked=10, passed=True, first_failure=None,
    )
    fields.update(changes)
    return ClaimReport(**fields)


# (make, make_other, a field name, its repr): make() builds equal values on
# each call, make_other() a value of the same type that differs
CASES = {
    "QuadInt": (lambda: QuadInt(1, -2), lambda: QuadInt(-2, 1), "re",
                "QuadInt(re=1, im=-2)"),
    "IntegerRing": (IntegerRing, RationalRing, "tag", "ZZ"),
    "RationalRing": (RationalRing, IntegerRing, "tag", "QQ"),
    "ModRing": (lambda: ModRing(7), lambda: ModRing(11), "modulus", "ModRing(7)"),
    "QuadRing": (QuadRing, IntegerRing, "tag", "QUAD"),
    "EtaQuotient": (lambda: EtaQuotient(((6, 6), (3, 4))),
                    lambda: EtaQuotient(((3, 4), (6, -6))), "factors",
                    "EtaQuotient(factors=((3, 4), (6, 6)))"),
    "CacheKey": (lambda: CacheKey("c", "int"), lambda: CacheKey("c", "mod:11"),
                 "ring", "CacheKey(form='c', ring='int')"),
    "SpaceTag": (lambda: SpaceTag(5, 72, -4), lambda: SpaceTag(5, 504, -4),
                 "level", "SpaceTag(weight=5, level=72, character=-4)"),
    "ClaimReport": (_report, lambda: _report(passed=False, first_failure=3),
                    "passed",
                    "ClaimReport(claim='eq-1.2', weight=None, level=None, "
                    "modulus=7, bound=10, checked=10, passed=True, "
                    "first_failure=None)"),
    "SuiteConfig": (SuiteConfig.quick, SuiteConfig, "eq_1_2_T",
                    "SuiteConfig(eq_1_2_T=1000, thm_1_1_n_max=10, "
                    "chain_T_final=2000, eq_1_4_T=300, thm_1_2_primes=(17, 13, 5), "
                    "thm_1_2_T=100, thm_3_1_T=500, thm_3_1_prime_max=23, "
                    "remark_cases=((5, 50), (13, 20)))"),
    "Claim": (lambda: Claim(len, depth="eq_1_2_T"), lambda: Claim(len), "depth",
              "Claim(run=<built-in function len>, depth='eq_1_2_T', for_prime=None)"),
}


@pytest.mark.parametrize("name", CASES)
def test_equal_values_compare_and_hash_equal(name):
    make, make_other, _, _ = CASES[name]
    a, b, c = make(), make(), make_other()
    assert type(a).__name__ == name
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("name", CASES)
def test_fields_are_read_only(name):
    make, make_other, field, _ = CASES[name]
    a = make()
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(make_other(), field))
    assert a == make()


@pytest.mark.parametrize("name", CASES)
def test_copies_and_pickles_equal(name):
    a = CASES[name][0]()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a) and b == a and hash(b) == hash(a)


@pytest.mark.parametrize("name", CASES)
def test_repr(name):
    make, _, _, text = CASES[name]
    assert repr(make()) == text


def test_rings_equal_their_constants_and_only_them():
    assert IntegerRing() == ZZ and RationalRing() == QQ and QuadRing() == QUAD
    assert hash(IntegerRing()) == hash(ZZ)
    assert ModRing(7) == ModRing(7) and ModRing(7) != ModRing(11)
    assert hash(ModRing(7)) == hash(ModRing(7))
    rings = [ZZ, QQ, QUAD, ModRing(7), ModRing(11)]
    for i, r in enumerate(rings):
        for j, s in enumerate(rings):
            assert (r == s) == (i == j), (r, s)
    assert ZZ != 0 and ModRing(7) != 7 and QuadInt(1, 0) != 1


@pytest.mark.parametrize(
    "make",
    [
        lambda: ModRing(1),
        lambda: ModRing(0),
        lambda: EtaQuotient(((0, 1),)),
        lambda: EtaQuotient(((2, 0),)),
        lambda: EtaQuotient(((2, 1), (3, 1), (2, -1))),
        lambda: SpaceTag(5, 0),
        lambda: SpaceTag(-1, 7),
        lambda: SpaceTag(5, 72, -4).u(0),
        lambda: ModRing(-7),
        lambda: EtaQuotient(((-2, 1),)),
        lambda: EtaQuotient.parse(""),
        lambda: SpaceTag(5, 72, -4).twist(0),
    ],
)
def test_validation_raises_value_error(make):
    with pytest.raises(ValueError):
        make()


def test_eta_quotient_factors_are_sorted_by_d():
    e = EtaQuotient(((14, -1), (1, -3), (7, 1), (2, 1)))
    assert e.factors == ((1, -3), (2, 1), (7, 1), (14, -1))
    assert e == EtaQuotient(tuple(reversed(e.factors)))
    assert EtaQuotient(factors=[(6, 6), (3, 4)]).factors == ((3, 4), (6, 6))


def test_no_sequence_arithmetic_on_arithmetic_types():
    # a tuple base would turn each of these into repetition or concatenation
    q = QuadInt(1, 2)
    e = EtaQuotient(((3, 4), (6, 6)))
    for op in (lambda: q * 3, lambda: e * 3, lambda: q + (1, 2), lambda: q - (1, 2)):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(TypeError):
        3 * q
    with pytest.raises(TypeError):
        3 * e
    with pytest.raises(TypeError):
        e + e


def test_fields_take_keywords_and_defaults():
    assert SpaceTag(5, 72, -4) == SpaceTag(weight=5, level=72, character=-4)
    assert SpaceTag(9, 16).character == 1
    assert SuiteConfig().eq_1_2_T == 5000
    assert SuiteConfig(thm_1_2_T=7).thm_1_2_T == 7
    assert SuiteConfig(thm_1_2_T=7).thm_3_1_T == SuiteConfig().thm_3_1_T
    claim = Claim(len)
    assert (claim.depth, claim.for_prime) == (None, None)
    assert CacheKey(form="c", ring="int") == CacheKey("c", "int")
    assert _report().to_dict()["modulus"] == 7


@pytest.mark.parametrize(
    "argv, bound",
    [
        (("eq-1.2", "--T", "60"), 59),
        (("thm-1.1", "--T", "3"), 1013),
        (("remark:p=13", "--T", "7"), 6),
        (("remark:p=5", "--T", "7"), 6),
    ],
)
def test_verify_depth_flags_override_the_suite_config(capsys, argv, bound):
    before = SuiteConfig()
    assert main(["verify", *argv, "--no-cache"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bound"] == bound and report["pass"] is True
    assert SuiteConfig() == before
