import argparse
import csv
import hashlib
import importlib.util
import io
import json
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import qcong
from qcong import diamond, store
from qcong.cli import _build_parser, main
from qcong.diamond import eq_1_2_lhs
from qcong.forms import FORM_NAMES
from qcong.qseries import dumps, loads
from qcong.ring import primes_up_to

from conftest import counting_parses, mutate


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("QCONG_CACHE_DIR", str(tmp_path / "cache"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_sturm_subcommand(capsys):
    code, out, _ = run_cli(capsys, "sturm", "--k", "5", "--N", "24696")
    assert code == 0 and out.strip() == "23520"
    code, out, _ = run_cli(capsys, "sturm", "--k", "9", "--N", "16")
    assert out.strip() == "18"
    code, out, _ = run_cli(capsys, "sturm", "--k", "5", "--N", "72")
    assert out.strip() == "60"


def test_expand_named_form(capsys):
    code, out, _ = run_cli(capsys, "expand", "--form", "h", "--T", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "qseries v1 ring=int offset24=0 T=10"
    assert [int(x) for x in lines[1:]] == [0, 1, 0, 0, 0, -6, 0, 0, 0, 9]


def test_expand_eta_with_modulus_csv(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--eta", "3^4 6^6", "--T", "6", "--mod", "7",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,coefficient"
    # offset is 2: exponents start at q^2
    assert lines[1] == "2,1"


def test_expand_form_f_is_unknown(capsys):
    # f = f1 + 8 sqrt(-3) f2 has no builder: its two parts are the forms
    for argv in (("--T", "4", "--format", "csv"), ("--T", "4", "--mod", "7")):
        code, out, err = run_cli(capsys, "expand", "--form", "f", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: unknown form 'f'")


@pytest.mark.parametrize("mod", [(), ("--mod", "7")], ids=["exact", "mod7"])
@pytest.mark.parametrize(
    "source",
    [("--form", name.replace("<k>", "3")) for name in FORM_NAMES]
    + [("--eta", "1^1"), ("--eta", "3^4 6^6")],
    ids=lambda s: s[1],
)
def test_expand_csv_is_what_the_csv_module_writes(capsys, source, mod):
    # every cell is an int or an exponent such as 1/24, so the joined rows
    # are the csv module's, quoting included
    code, out, _ = run_cli(capsys, "expand", *source, "--T", "30", *mod)
    series = loads(out)
    code, out, _ = run_cli(capsys, "expand", *source, "--T", "30", *mod, "--format", "csv")
    want = io.StringIO()
    rows = csv.writer(want, lineterminator="\n")
    rows.writerow(["n", "coefficient"])
    for j, c in enumerate(series.coeffs):
        rows.writerow([Fraction(series.offset24, 24) + j, c])
    assert code == 0 and out == want.getvalue()


def test_expand_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "expand", "--eta", "3^4 3^2", "--T", "5")
    assert code == 2 and "repeated" in err


def test_expand_unknown_form_exits_2(capsys):
    code, _, err = run_cli(capsys, "expand", "--form", "zeta", "--T", "5")
    assert code == 2 and "unknown form" in err


def test_expand_delta_k_without_an_integer_k_exits_2(capsys):
    code, out, err = run_cli(capsys, "expand", "--form", "delta_k:x", "--T", "5")
    assert code == 2 and out == ""
    assert "'delta_k:x'" in err and "expected delta_k:<k>" in err


@pytest.mark.parametrize("k", [" 3", "3 ", "+3", "0_3", "\u0663", "3\n"])
def test_expand_delta_k_takes_ascii_digits_only(capsys, k):
    # int() accepts each of these; the form name must not
    name = f"delta_k:{k}"
    code, out, err = run_cli(capsys, "expand", "--form", name, "--T", "3")
    assert code == 2 and out == ""
    assert f"bad form {name!r}: expected delta_k:<k>" in err


@pytest.mark.parametrize("text", ["\u0663^4", "3^\u0664", "3^-\u0664", "\uff13^4"])
def test_eta_factors_take_ascii_digits_only(capsys, text):
    for argv in (("expand", "--eta", text, "--T", "3"), ("metadata", text)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert f"bad eta-quotient factor {text!r} at position 0: expected d^r" in err


@pytest.mark.parametrize("sep", ["\u2003", "\u00a0", "\n", "\t", "\x1c"])
def test_eta_factors_are_separated_by_ascii_spaces_only(capsys, sep):
    # str.split() would take each of these as whitespace
    text = f"3^4{sep}6^6"
    for argv in (("expand", "--eta", text, "--T", "3"), ("metadata", text)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert f"bad eta-quotient factor {text!r} at position 0: expected d^r" in err


def test_eta_text_takes_runs_of_spaces_and_outer_spaces(capsys):
    code, out, _ = run_cli(capsys, "metadata", "  3^4    6^6 ")
    assert code == 0
    assert json.loads(out)["level"] == 72


@pytest.mark.parametrize("m", ["7", "49", "12"])
def test_expand_eta_mod_m_is_the_reduced_exact_expansion(capsys, m):
    # mod 7 the quotient is Frobenius-reduced before it is built; mod 49
    # and mod 12 it is not: either way the dump is the exact one reduced
    eta = "1^-3 2^1 7^1 14^-1"
    code, exact, _ = run_cli(capsys, "expand", "--eta", eta, "--T", "400")
    assert code == 0
    code, out, _ = run_cli(capsys, "expand", "--eta", eta, "--T", "400", "--mod", m)
    assert code == 0
    assert out == dumps(loads(exact).reduce_mod(int(m)))


@pytest.mark.parametrize("op", ["U_\u0662", "twist_\u0667", "T_\uff15", "U_2\n"])
def test_operator_names_take_ascii_digits_only(capsys, op):
    code, out, err = run_cli(
        capsys, "expand", "--form", "E4", "--T", "3", "--apply", op,
        "--weight", "4", "--chi", "1",
    )
    assert code == 2 and out == ""
    assert f"bad operator {op!r}: expected U_d, twist_p, or T_p" in err


def test_expand_apply_pipeline(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--form", "g", "--T", "100", "--mod", "7",
        "--apply", "U_7,twist_7", "--format", "csv",
    )
    assert code == 0


def test_expand_out_file(capsys, tmp_path):
    target = tmp_path / "dump.txt"
    code, out, _ = run_cli(
        capsys, "expand", "--form", "E4", "--T", "3", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[1:] == ["1", "240", "2160"]


def test_expand_out_to_missing_directory_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "dump.txt"
    code, out, err = run_cli(
        capsys, "expand", "--form", "h", "--T", "5", "--out", str(target)
    )
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "source",
    [
        ("--form", "E4"),
        ("--form", "theta0"),
        ("--form", "delta_k:3"),
        ("--form", "f1"),
        ("--eta", "3^4 6^6"),
        ("--eta", "1^1"),
        ("--form", "c"),
        ("--form", "f2"),
        ("--form", "g"),
        ("--form", "F"),
        ("--form", "h"),
    ],
)
def test_expand_truncation_below_1_exits_2(capsys, source):
    code, out, err = run_cli(capsys, "expand", *source, "--T", "0")
    assert code == 2 and out == "" and err.startswith("error:")
    assert "truncation must be at least 1" in err


def test_metadata_subcommand(capsys):
    # the whole line, key order included; 24 does not divide sum(d r) for
    # 1^2 or 1^1 2^-1, and 1^1 2^-1 has weight 0
    for text, want in [
        ("3^4 6^6", '{"weight": 5, "level": 72, "character": -4, '
         '"sum_dr_divisible": true, "sum_inv_divisible": true}'),
        ("4^6", '{"weight": 3, "level": 16, "character": -4, '
         '"sum_dr_divisible": true, "sum_inv_divisible": true}'),
        ("4^8 2^-4", '{"weight": 2, "level": 4, "character": 1, '
         '"sum_dr_divisible": true, "sum_inv_divisible": true}'),
        ("1^2", '{"weight": 1, "level": 12, "character": -4, '
         '"sum_dr_divisible": false, "sum_inv_divisible": true}'),
        ("1^1 2^-1", '{"weight": 0, "level": 48, "character": 8, '
         '"sum_dr_divisible": false, "sum_inv_divisible": true}'),
    ]:
        code, out, _ = run_cli(capsys, "metadata", text)
        assert code == 0 and out == want + "\n", text


def test_verify_eq_1_2_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "eq-1.2", "--T", "60")
    assert code == 0
    rep = json.loads(out)
    assert rep["claim"] == "eq-1.2" and rep["pass"] is True


def test_verify_claim_with_p_suffix(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm-1.2:p=5", "--T", "20")
    assert code == 0
    assert json.loads(out)["claim"] == "thm-1.2:p=5"


def test_verify_precondition_violation_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "thm-1.2:p=3")
    assert code == 2 and "1 mod 4" in err


def test_verify_prime_given_or_missing_against_the_claim_exits_2(capsys):
    for argv, message in [
        (("eq-1.2:p=5",), "eq-1.2 takes no prime"),
        (("sec-2-chain:p=7",), "sec-2-chain takes no prime"),
        (("remark",), "remark needs a prime"),
    ]:
        code, out, err = run_cli(capsys, "verify", *argv, "--T", "30")
        assert code == 2 and out == "" and message in err, argv


def test_verify_flag_the_claim_would_ignore_exits_2(capsys):
    for argv, message in [
        (("eq-1.2", "--T", "0"), "need T >= 10"),
        (("remark:p=5", "--T", "0"), "need T >= 1"),
    ]:
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == "" and message in err, argv


@pytest.mark.parametrize("argv", [("thm-1.2", "--p", "13"), ("thm-1.1", "--n-max", "3")])
def test_verify_takes_a_prime_only_in_the_claim_and_a_depth_only_as_T(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv, "--no-cache"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in err
    assert err.startswith("usage: qcong verify ")


def test_unrecognized_arguments_are_reported_by_the_subcommand(capsys):
    # the usage line is the subcommand's, not the top-level one (verify's
    # case is in the test above)
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--form", "E4", "--T", "3", "--bogus"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: qcong expand ")
    assert err.endswith("qcong expand: error: unrecognized arguments: --bogus\n")


def test_verify_takes_a_claim_a_depth_and_no_cache():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = [a.option_strings or [a.dest] for a in sub.choices["verify"]._actions]
    assert options == [["-h", "--help"], ["claim"], ["--T"], ["--no-cache"]]


def test_every_claim_reads_T():
    # verify gives --T to `depth` or to `for_prime`: a row with neither
    # would drop it, and a `depth` outside SuiteConfig would not run
    fields = set(diamond.SuiteConfig._fields)
    for name, claim in diamond.CLAIMS.items():
        assert claim.depth is None or claim.depth in fields, name
        assert claim.depth or claim.for_prime, name
        if claim.for_prime:
            assert set(claim.for_prime(diamond.SuiteConfig(), 5, 7)) <= fields, name


@pytest.mark.parametrize("claim", ["eq-1.2:", "thm-1.2:"])
def test_verify_claim_with_an_empty_suffix_exits_2(capsys, claim):
    # the colon, not the text after it, opens a suffix: "eq-1.2:" is not eq-1.2
    code, out, err = run_cli(capsys, "verify", claim, "--T", "20", "--no-cache")
    assert code == 2 and out == "" and "bad claim suffix" in err


def test_verify_prime_suffix_without_an_integer_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "thm-1.2:p=abc")
    assert code == 2 and out == ""
    assert "'thm-1.2:p=abc'" in err and "expected thm-1.2:p=<prime>" in err


@pytest.mark.parametrize("p", ["1_3", " 13", "13 ", "+13", "\u0661\u0663", "13\n"])
def test_verify_prime_suffix_takes_ascii_digits_only(capsys, p):
    # int() accepts each of these; the claim name must not
    claim = f"thm-1.2:p={p}"
    code, out, err = run_cli(capsys, "verify", claim, "--T", "5", "--no-cache")
    assert code == 2 and out == ""
    assert f"bad claim {claim!r}: expected thm-1.2:p=<prime>" in err


def test_verify_unknown_claim_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "lemma-9")
    assert code == 2 and "unknown claim" in err


def test_every_claim_key_is_reachable_through_verify(capsys, monkeypatch):
    # the ID typed is the key itself, with a :p= suffix for a claim indexed
    # by a prime; each row's run is replaced by one that records its key
    ran = []
    rows = {
        key: claim._replace(run=lambda config, cache, key=key: ran.append(key) or [])
        for key, claim in diamond.CLAIMS.items()
    }
    monkeypatch.setattr(diamond, "CLAIMS", rows)
    for key, claim in rows.items():
        typed = f"{key}:p=5" if claim.for_prime else key
        code, _, err = run_cli(capsys, "verify", typed, "--T", "20", "--no-cache")
        assert code == 0 and err == "" and ran[-1] == key, typed
    assert ran == list(rows)


def test_a_claim_key_with_a_colon_runs(capsys, monkeypatch):
    # the whole ID is looked up before a :p= suffix is split off, so a key
    # such as eq-1.2:sturm is reached as typed, not refused as a suffix
    ran = []
    rows = dict(diamond.CLAIMS)
    rows["eq-1.2:sturm"] = diamond.Claim(
        lambda config, cache: ran.append(config.eq_1_2_T) or [], depth="eq_1_2_T"
    )
    monkeypatch.setattr(diamond, "CLAIMS", rows)
    code, out, err = run_cli(capsys, "verify", "eq-1.2:sturm", "--T", "32", "--no-cache")
    assert (code, out, err) == (0, "[]\n", "") and ran == [32]
    # the :p= split is unchanged for the other keys
    code, out, err = run_cli(capsys, "verify", "eq-1.2:other", "--no-cache")
    assert code == 2 and out == "" and "bad claim suffix 'other'" in err


def test_verify_sec_2_chain_emits_array(capsys):
    code, out, _ = run_cli(capsys, "verify", "sec-2-chain", "--T", "80")
    assert code == 0
    reports = json.loads(out)
    assert [r["claim"] for r in reports] == [
        "sec-2-chain:a", "sec-2-chain:b", "sec-2-chain:c", "sec-2-chain:d",
    ]


def test_verify_fails_on_a_tampered_entry_with_a_valid_checksum(capsys, tmp_path):
    # the entry is written through Cache.put, so its checksum holds and the
    # store serves it: the claim must fail where it was bumped, never pass
    lhs = mutate(eq_1_2_lhs(120), 57)
    store.Cache(tmp_path / "cache").put(store.CacheKey("eq_1_2_lhs", "mod:7"), lhs)
    code, out, _ = run_cli(capsys, "verify", "eq-1.2", "--T", "120")
    rep = json.loads(out)
    assert code == 1 and rep["pass"] is False and rep["first_failure"] == 57
    code, out, _ = run_cli(capsys, "verify", "eq-1.2", "--T", "120", "--no-cache")
    assert code == 0 and json.loads(out)["pass"] is True


def test_cli_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "eq-1.4", "--T", "40")
    _, out2, _ = run_cli(capsys, "verify", "eq-1.4", "--T", "40")
    assert out1 == out2


def test_cache_clear(capsys):
    run_cli(capsys, "verify", "eq-1.2", "--T", "30")
    code, out, _ = run_cli(capsys, "cache", "clear")
    assert code == 0
    assert json.loads(out)["removed"] >= 1
    code, out, _ = run_cli(capsys, "cache", "clear")
    assert json.loads(out)["removed"] == 0


def test_cache_dir_that_is_a_file_exits_2(capsys, tmp_path, monkeypatch):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    monkeypatch.setenv("QCONG_CACHE_DIR", str(not_a_dir))
    for argv in (("verify", "eq-1.2", "--T", "30"), ("cache", "clear")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")


def test_console_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qcong.cli", "sturm", "--k", "5", "--N", "24696"],
        capture_output=True,
        text=True,
        env={
            "PATH": "",
            "PYTHONPATH": str(Path(qcong.__file__).parent.parent),
            "QCONG_CACHE_DIR": str(tmp_path),
        },
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "23520"


def test_quick_suite_stdout_equals_the_benchmark_reference(tmp_path):
    root = Path(__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "qcong.cli", "suite", "--quick", "--no-cache"],
        capture_output=True,
        env={
            "PATH": "",
            "PYTHONPATH": str(Path(qcong.__file__).parent.parent),
            "QCONG_CACHE_DIR": str(tmp_path),
        },
    )
    assert proc.returncode == 0, proc.stderr
    reference = root / "perfbench" / "reference" / "suite-quick.json"
    assert proc.stdout == reference.read_bytes()


def test_quick_suite_cold_then_warm_stdout_equals_the_benchmark_reference(tmp_path):
    root = Path(__file__).parent.parent
    reference = (root / "perfbench" / "reference" / "suite-quick.json").read_bytes()
    cache = tmp_path / "cache"

    def run():
        proc = subprocess.run(
            [sys.executable, "-m", "qcong.cli", "suite", "--quick"],
            capture_output=True,
            env={
                "PATH": "",
                "PYTHONPATH": str(Path(qcong.__file__).parent.parent),
                "QCONG_CACHE_DIR": str(cache),
            },
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def files():
        # a put replaces its file by a rename, which changes the inode
        return {p.name: (p.stat().st_ino, p.read_bytes()) for p in cache.iterdir()}

    assert run() == reference  # cold: fills the cache
    filled = files()
    assert filled and all(name.endswith(".qs") for name in filled)
    assert run() == reference  # warm: served from the cache
    assert files() == filled


_INTEGER_FLAGS = [
    ("expand", "--form", "E4", "--T", "3", "--mod"),
    ("expand", "--form", "E4", "--T"),
    ("expand", "--form", "E4", "--T", "3", "--apply", "T_2", "--chi", "-4", "--weight"),
    ("expand", "--form", "E4", "--T", "3", "--apply", "T_2", "--weight", "4", "--chi"),
    ("sturm", "--N", "24696", "--k"),
    ("sturm", "--k", "5", "--N"),
    ("verify", "eq-1.2", "--no-cache", "--T"),
]


@pytest.mark.parametrize("value", [" 3", "3 ", "+3", "0_3", "\u0663", "3\n"])
@pytest.mark.parametrize("argv", _INTEGER_FLAGS, ids=lambda a: f"{a[0]} {a[-1]}")
def test_integer_flags_take_ascii_digits_only(capsys, argv, value):
    # int() accepts each of these; argparse's type=int would pass them on
    with pytest.raises(SystemExit) as exc:
        main([*argv, value])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"argument {argv[-1]}: invalid int value: {value!r}" in err


def test_integer_flags_keep_a_leading_minus(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--form", "E4", "--T", "5", "--apply", "T_5",
        "--weight", "4", "--chi", "-4",
    )
    assert code == 0 and loads(out).coeffs == [126]


def test_no_flag_is_read_by_int():
    parsers, actions = [_build_parser()], []
    while parsers:
        for action in parsers.pop()._actions:
            actions.append(action)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    assert sum(a.type is not None for a in actions) == 7
    assert not [a.dest for a in actions if a.type is int]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--T", "5"])  # neither --form nor --eta
    assert exc.value.code == 2


def test_eigenvalue_table_script_smoke(tmp_path):
    script = Path(__file__).parent.parent / "scripts" / "eigenvalue_table.py"

    def run(*args):
        return subprocess.run(
            [sys.executable, str(script), *args],
            capture_output=True,
            text=True,
            env={
                "PATH": "",
                "PYTHONPATH": str(Path(qcong.__file__).parent.parent),
                "QCONG_CACHE_DIR": str(tmp_path),
            },
        )

    proc = run("--prime-max", "13", "--y-depth", "5")
    assert proc.returncode == 0
    # T_5 eigenvalue of f and of its conjugate, and y(5)
    assert proc.stdout.splitlines()[3].split() == ["5", "258", "258", "258"]
    # int() would read "1_3" as 13
    proc = run("--prime-max", "1_3")
    assert proc.returncode == 2 and "invalid int value: '1_3'" in proc.stderr
    # no prime below 2, no recurrence check over an empty n-range: usage
    # errors, not an empty table or a traceback
    for flag, value, least in (("--prime-max", "0", 2), ("--prime-max", "-5", 2), ("--y-depth", "0", 1)):
        proc = run(flag, value)
        assert proc.returncode == 2 and proc.stdout == "", (flag, value)
        assert f"{flag} must be at least {least}, got {value}" in proc.stderr
        assert proc.stderr.startswith("usage:") and "Traceback" not in proc.stderr


_EIGENVALUE_TABLE_13 = """\
   p                lambda(f, T_p)           lambda(conj f, T_p)          y(p)
   2                             0                             0             -
   3                0 + 8*sqrt(-3)                0 - 8*sqrt(-3)             -
   5                           258                           258           258
   7             0 + 1904*sqrt(-3)             0 - 1904*sqrt(-3)             -
  11            0 + 13368*sqrt(-3)            0 - 13368*sqrt(-3)             -
  13                         19138                         19138         19138
"""


def test_eigenvalue_table_script_output_is_pinned():
    # the whole stdout, at a small table and at the defaults (primes to 97)
    script = Path(__file__).parent.parent / "scripts" / "eigenvalue_table.py"
    env = {"PATH": "", "PYTHONPATH": str(Path(qcong.__file__).parent.parent)}

    def run(*args):
        proc = subprocess.run([sys.executable, str(script), *args], capture_output=True, env=env)
        assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
        return proc.stdout

    assert run("--prime-max", "13", "--y-depth", "5").decode() == _EIGENVALUE_TABLE_13
    assert hashlib.sha256(run()).hexdigest() == (
        "3d0deb578b633a03424968387951a7a414e20ddf044f7cf7f104616b2465de34"
    )


def test_eigenvalue_table_script_marks_a_failed_prime(capsys, monkeypatch):
    # a None entry of the table prints in both eigenvalue columns
    script = Path(__file__).parent.parent / "scripts" / "eigenvalue_table.py"
    spec = importlib.util.spec_from_file_location("eigenvalue_table", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "eigenvalue_table", lambda T, p, cache: {2: (0, 0), 3: None})
    monkeypatch.setattr(sys, "argv", ["eigenvalue_table.py", "--prime-max", "3"])
    assert module.main() == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows == [f"{2:>4}  {'0':>28}  {'0':>28}  {'-':>12}",
                    f"{3:>4}  {'(not an eigenform)':>28}  {'(not an eigenform)':>28}  {'-':>12}"]


def test_eigenvalue_table_script_builds_each_series_once(capsys, monkeypatch):
    # the whole table reads through one memory-only Cache, f1 and f2 at the
    # table's length first and c for the largest prime next, so c, f1 and
    # f2 are each built once; before, each y(p) built c and f1 again.  At
    # every p = 1 mod 4 both eigenvalues equal y(p)
    script = Path(__file__).parent.parent / "scripts" / "eigenvalue_table.py"
    spec = importlib.util.spec_from_file_location("eigenvalue_table", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    built = Counter()

    def counted(name):
        build = getattr(diamond, name)

        def wrapped(T):
            built[name] += 1
            return build(T)

        monkeypatch.setattr(diamond, name, wrapped)

    for name in ("c_series", "form_f1", "form_f2"):
        counted(name)
    monkeypatch.setattr(sys, "argv", ["eigenvalue_table.py", "--prime-max", "29", "--y-depth", "5"])
    assert module.main() == 0
    assert built == {"c_series": 1, "form_f1": 1, "form_f2": 1}
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [int(row[0]) for row in rows] == primes_up_to(29)
    assert all(row[1] == row[2] == row[3] for row in rows if int(row[0]) % 4 == 1)


def test_input_cases_script_smoke():
    # one line per row of diamond._INPUTS at the quick suite's depths: its
    # length, median and least CPU and traced peak, then the input's form
    script = Path(__file__).parent.parent / "scripts" / "input_cases.py"

    def run(*args):
        return subprocess.run(
            [sys.executable, str(script), *args], capture_output=True, text=True, env={"PATH": ""}
        )

    proc = run("--quick", "--runs", "1")
    assert proc.returncode == 0, proc.stderr
    head, *lines = proc.stdout.splitlines()
    assert head.split() == ["T", "median", "ms", "least", "ms", "peak", "MB", "input"]
    rows = [line.split(None, 4) for line in lines]
    assert [row[4] for row in rows] == list(diamond._INPUTS)
    depths = {row[4]: int(row[0]) for row in rows}
    # sum delta_3(7n+5) q^n to the quick chain's 7 * 666 + 5 terms, c to
    # thm-1.2's 17 * 99 + 8 + 1 at its largest prime
    assert depths["delta_k:3 7n+5"] == 4667 and depths["c"] == 1692
    assert all(float(row[1]) >= 0 and float(row[2]) >= 0 and float(row[3]) > 0 for row in rows)
    assert run("--runs", "0").returncode == 2


def test_kernel_cases_script_smoke():
    # one line per case of the perfbench kernels battery, each checked, with
    # its CPU and its traced peak, then the total: one format, so --peak is
    # no flag; it and a run count below one are usage errors
    script = Path(__file__).parent.parent / "scripts" / "kernel_cases.py"

    def run(*args):
        return subprocess.run(
            [sys.executable, str(script), *args], capture_output=True, text=True, env={"PATH": ""}
        )

    proc = run("--seed", "1", "--runs", "1")
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert lines[0] == ["case", "median", "ms", "least", "ms", "peak", "MB"] and lines[-1][0] == "all"
    cases = [line[0] for line in lines[1:-1]]
    assert len(cases) == 17 and {"convolve/mod:7/large", "invert/mod:7/large"} <= set(cases)
    assert all(len(line) == 4 and float(line[1]) >= 0 and float(line[3]) > 0 for line in lines[1:-1])
    assert len(lines[-1]) == 3 and float(lines[-1][1]) >= 0
    assert run("--seed", "1", "--runs", "1", "--peak").returncode == 2
    assert run("--seed", "1", "--runs", "0").returncode == 2


def test_a_warm_full_suite_reads_the_mod_7_bodies_by_stride(capsys, monkeypatch):
    # the cold run fills the cache; the warm run reads all six entries back
    # and prints the benchmark's reference bytes.  Only the four bodies that
    # are not one-digit residues mod m <= 10 are parsed line by line: c, f1
    # and f2 over Z and delta_5 mod 11; both mod-7 bodies make no parse
    reference = (Path(__file__).parents[1] / "perfbench" / "reference" / "suite-full.json").read_text()
    code, cold, _ = run_cli(capsys, "suite", "--full")
    assert code == 0 and cold == reference
    reads = []

    def counted_loads(text):
        with counting_parses() as parses:
            series = loads(text)
        reads.append((series.ring.tag, series.T, sum(parses.values())))
        return series

    monkeypatch.setattr(store, "loads", counted_loads)
    code, warm, _ = run_cli(capsys, "suite", "--full")
    assert code == 0 and warm == reference
    assert sorted(reads) == [
        ("int", 2000, 2000),
        ("int", 2000, 2000),
        ("int", 16992, 16992),
        ("mod:11", 2000, 2000),
        ("mod:7", 54882, 0),
        ("mod:7", 54882, 0),
    ]
