import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import qcong
from qcong.cli import main
from qcong.forms import form_f
from qcong.qseries import dumps, loads
from qcong.ring import QUAD, QuadInt


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


def test_expand_quad_csv_rows_have_two_fields(capsys):
    # a Z[sqrt(-3)] coefficient prints as "re,im", so its cell is quoted
    code, out, _ = run_cli(capsys, "expand", "--form", "f", "--T", "4", "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["n", "coefficient"] and len(rows) == 4
    assert all(len(row) == 2 for row in rows)
    coeffs = [QUAD.parse_elem(cell) for _, cell in rows]
    assert coeffs == form_f(4).coeffs
    assert coeffs[3] == QuadInt(0, 8)


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
        ("--form", "f"),
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
    code, _, err = run_cli(capsys, "verify", "thm-1.2", "--p", "3")
    assert code == 2 and "1 mod 4" in err


def test_verify_prime_given_or_missing_against_the_claim_exits_2(capsys):
    for argv, message in [
        (("eq-1.2:p=5",), "eq-1.2 takes no prime"),
        (("eq-1.2", "--p", "5"), "eq-1.2 takes no prime"),
        (("sec-2-chain:p=7",), "sec-2-chain takes no prime"),
        (("remark",), "remark needs a prime"),
    ]:
        code, out, err = run_cli(capsys, "verify", *argv, "--T", "30")
        assert code == 2 and out == "" and message in err, argv


def test_verify_flag_the_claim_would_ignore_exits_2(capsys):
    for argv, message in [
        (("thm-1.1", "--T", "999999"), "thm-1.1 takes no --T"),
        (("eq-1.2", "--n-max", "3"), "eq-1.2 takes no --n-max"),
        (("thm-1.2:p=5", "--p", "13"), "--p 13 differs from the claim's p=5"),
        (("eq-1.2", "--T", "0"), "need T >= 10"),
        (("remark:p=5", "--T", "0"), "need T >= 1"),
    ]:
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == "" and message in err, argv
    code, out, _ = run_cli(capsys, "verify", "thm-1.2:p=5", "--p", "5", "--T", "20")
    assert code == 0 and json.loads(out)["claim"] == "thm-1.2:p=5"


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


def test_verify_sec_2_chain_emits_array(capsys):
    code, out, _ = run_cli(capsys, "verify", "sec-2-chain", "--T", "80")
    assert code == 0
    reports = json.loads(out)
    assert [r["claim"] for r in reports] == [
        "sec-2-chain:a", "sec-2-chain:b", "sec-2-chain:c", "sec-2-chain:d",
    ]


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


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--T", "5"])  # neither --form nor --eta
    assert exc.value.code == 2


def test_eigenvalue_table_script_smoke(tmp_path):
    script = Path(__file__).parent.parent / "scripts" / "eigenvalue_table.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--prime-max", "13", "--y-depth", "5"],
        capture_output=True,
        text=True,
        env={
            "PATH": "",
            "PYTHONPATH": str(Path(qcong.__file__).parent.parent),
            "QCONG_CACHE_DIR": str(tmp_path),
        },
    )
    assert proc.returncode == 0
    # T_5 eigenvalue of f and of its conjugate, and y(5)
    assert proc.stdout.splitlines()[3].split() == ["5", "258", "258", "258"]


def test_kernel_cases_script_smoke():
    # one line per case of the perfbench kernels battery, each checked, then
    # the total; with --peak each case also gets its traced peak; a run
    # count below one is a usage error
    script = Path(__file__).parent.parent / "scripts" / "kernel_cases.py"

    def run(*args):
        return subprocess.run(
            [sys.executable, str(script), *args], capture_output=True, text=True, env={"PATH": ""}
        )

    proc = run("--seed", "1", "--runs", "1")
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert lines[0] == ["case", "median", "ms", "least", "ms"] and lines[-1][0] == "all"
    cases = [line[0] for line in lines[1:-1]]
    assert len(cases) == 17 and {"convolve/mod:7/large", "invert/mod:7/large"} <= set(cases)
    assert all(len(line) == 3 and float(line[1]) >= 0 for line in lines[1:])
    proc = run("--seed", "1", "--runs", "1", "--peak")
    assert proc.returncode == 0, proc.stderr
    peak_lines = [line.split() for line in proc.stdout.splitlines()]
    assert peak_lines[0] == ["case", "median", "ms", "least", "ms", "peak", "MB"]
    assert [line[0] for line in peak_lines] == [line[0] for line in lines]
    assert all(len(line) == 4 and float(line[3]) > 0 for line in peak_lines[1:-1])
    assert len(peak_lines[-1]) == 3 and float(peak_lines[-1][1]) >= 0
    assert run("--seed", "1", "--runs", "0").returncode == 2
