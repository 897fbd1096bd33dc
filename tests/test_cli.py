import io
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter

import pytest
from timelimit import time_limit

import macbeath
from macbeath import census, cli, density, gf, refdata, verify
from macbeath.census import map_census, matrix_oracle, record_from_json
from macbeath.cli import _parsers, main
from macbeath.errors import Inadmissible, IntegrityError
from macbeath.gf import reduce_and_factor
from macbeath.intpoly import s_polynomial
from macbeath.numkit import is_prime, primes_upto


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_psi_table(capsys):
    code, out, err = run(capsys, "psi", "--n", "9")
    assert code == 0 and err == ""
    assert "x^3 - 3*x + 1" in out
    assert "[1, -3, 0, 1]" in out


def test_psi_json(capsys):
    code, out, _ = run(capsys, "psi", "--n", "7", "--format", "json")
    data = json.loads(out)
    assert data["coefficients"] == [-1, -2, 1, 1]
    assert data["at_one"] == -1
    assert data["meta"]["version"]


def test_disc(capsys):
    code, out, _ = run(capsys, "disc", "--m", "3", "--n", "7", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["disc_f1"] == "49"
    assert data["bad_primes"] == [2, 7]


def _trial_division(value, bound):
    value, factors, p = abs(value), {}, 2
    while p <= bound and value > 1:
        while value % p == 0:
            factors[p] = factors.get(p, 0) + 1
            value //= p
        p += 1
    return factors, value


@pytest.mark.parametrize("value", [
    2**5 * 3 * 97,           # a prime cofactor below the bound
    -(7**3) * 1009,          # negative, with a prime cofactor above it
    2 * 1009 * 1013,         # two primes above the bound
    1031 * 1033,             # two primes above the bound and nothing else
    1, -1, 64 * 64, 4099**2,
])
def test_small_prime_factors_matches_trial_division(value):
    assert cli._small_prime_factors(value, bound=1000) == _trial_division(value, 1000)


def test_disc_sieves_only_what_its_discriminant_needs(capsys, monkeypatch):
    asked = []
    sieve = cli.primes_upto
    monkeypatch.setattr(cli, "primes_upto", lambda bound: asked.append(bound) or sieve(bound))
    code, out, _ = run(capsys, "disc", "--n", "7", "--format", "json")
    assert code == 0 and json.loads(out)["bad_primes"] == [2, 7]
    assert asked and max(asked) <= 64


def test_classify_json_round_trips(capsys):
    code, out, _ = run(capsys, "classify", "--m", "3", "--n", "7", "--p", "43",
                       "--format", "json")
    assert code == 0
    record = record_from_json(out)
    assert record == map_census(3, 7, 43)
    assert record.k == 2
    assert sorted(c.field.coeffs(c.s)[0] for c in record.classes) == [25, 29, 36]
    # bit-stable across runs
    _, out2, _ = run(capsys, "classify", "--m", "3", "--n", "7", "--p", "43",
                     "--format", "json")
    assert out == out2


def test_classify_table(capsys):
    code, out, _ = run(capsys, "classify", "--n", "7", "--p", "13")
    assert code == 0
    assert "k=1" in out and "outer l=2" in out.replace("  ", " ")
    assert "parity: l predicted even" in out


@pytest.mark.parametrize("argv, quotient", [
    (("--n", "8", "--p", "3"), "2/4"),
    (("--m", "4", "--n", "8", "--p", "3"), "2/4"),
    (("--m", "6", "--n", "4", "--p", "5"), "1/2"),
])
def test_classify_table_names_a_closed_form_that_is_not_an_integer(capsys, argv, quotient):
    # d does not divide phi(n)/2: the table prints the quotient, json and
    # csv keep the closed-form count -1
    code, out, _ = run(capsys, "classify", *argv)
    assert code == 0 and "= -1" not in out
    assert (f"note: factor count differs from phi(n)/2d = {quotient}, not an integer "
            f"(Galois-folded case)") in out.splitlines()
    code, out, _ = run(capsys, "classify", *argv, "--format", "json")
    assert code == 0 and json.loads(out)["closed_form_count"] == -1
    # an integral closed form keeps its line
    code, out, _ = run(capsys, "classify", "--n", "8", "--p", "7")
    assert "note: factor count differs from phi(n)/2d = 1 (Galois-folded case)" in out


def test_no_command_builds_a_checked_field(capsys, monkeypatch):
    # FieldCtx.checked validates library input; every program path builds
    # its contexts from moduli it reduced itself, so each run below prints
    # what it prints with checked unavailable
    runs = [("classify", "--n", "7", "--p", "43"), ("classify", "--n", "7", "--p", "5"),
            ("classify", "--m", "4", "--n", "9", "--p", "19", "--format", "json"),
            ("classify", "--m", "6", "--n", "13", "--p", "5", "--format", "csv"),
            ("oracle", "--n", "7", "--p", "13"), ("oracle", "--n", "8", "--p", "7"),
            ("oracle", "--n", "11", "--p", "23", "--format", "json"),
            ("sweep", "--n", "7", "--first", "20", "--format", "json"),
            ("pattern", "--n", "11", "--bound", "400", "--workers", "1")]
    pairs = ((7, 13), (9, 5), (11, 23))
    expected = [run(capsys, *argv) for argv in runs]
    routes = [census.route_product(3, n, p) for n, p in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("FieldCtx.checked called on a program path")

    monkeypatch.setattr(gf.FieldCtx, "checked", refuse)
    for argv, before in zip(runs, expected):
        assert before[0] == 0 and run(capsys, *argv) == before, argv
    assert [census.route_product(3, n, p) for n, p in pairs] == routes
    assert all(left == right for left, right in routes)


def test_classify_bad_reduction_exit_code(capsys):
    code, out, err = run(capsys, "classify", "--n", "7", "--p", "7")
    assert code == 1
    assert out == ""  # stdout stays clean
    assert "bad-reduction" in err


def test_classify_inadmissible_exit_code(capsys):
    code, _, err = run(capsys, "classify", "--m", "4", "--n", "5", "--p", "2")
    assert code == 1
    assert "inadmissible" in err


def test_sweep_csv_schema(capsys):
    code, out, _ = run(capsys, "sweep", "--n", "7", "--first", "4",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert re.fullmatch(r"# macbeath \S+ workers=\d+", lines[0])  # no seed field
    assert lines[1] == "p,residue_class,d,q,genus,k,l,parity_ok,class_details"
    assert lines[2].startswith("13,")
    assert lines[-1].startswith("# summary")


def test_seed_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--n", "7", "--first", "4", "--seed", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    code, out, _ = run(capsys, "classify", "--n", "7", "--p", "13", "--format", "json")
    assert code == 0 and json.loads(out)["meta"].keys() == {"version", "workers"}


def test_sweep_requires_exactly_one_mode(capsys):
    for modes in ((), ("--first", "3", "--bound", "99")):
        code, out, err = run(capsys, "sweep", "--n", "7", *modes)
        assert (code, out) == (1, "")
        assert err == "error: invalid-input: set exactly one of first / bound\n"


def test_sweep_json_counts(capsys):
    code, out, _ = run(capsys, "sweep", "--n", "7", "--first", "400",
                       "--format", "json")
    data = json.loads(out)
    assert data["tally"]["counts"] == {"0": 48, "1": 154, "2": 151, "3": 47}
    assert data["tally"]["max_abs_deviation"] == pytest.approx(0.01)


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "7", "--p", "13")
    assert code == 0
    assert out.count("inner") == 1 and out.count("outer") == 2


def test_oracle_class_index_must_name_a_class(capsys):
    # type {3,7} has three classes at p = 13
    argv = ("oracle", "--n", "7", "--p", "13", "--format", "json")
    code, out, _ = run(capsys, *argv)
    witnesses = json.loads(out)["witnesses"]
    assert code == 0 and len(witnesses) == 3
    for index in range(3):
        code, out, err = run(capsys, *argv, "--class-index", str(index))
        assert code == 0 and err == ""
        assert json.loads(out)["witnesses"] == [witnesses[index]]
    for index in (-1, 3, 5):
        code, out, err = run(capsys, *argv, "--class-index", str(index))
        assert code == 1 and out == ""
        assert err == (f"error: invalid-input: class index {index} is out of "
                       f"range for 3 classes\n")


def test_bad_reduction_is_reported_before_an_inadmissible_p(capsys):
    # a prime dividing N, or one the m rule rejects, is a bad reduction
    # exactly when f1 is not squarefree mod p, and inadmissible otherwise
    seen = Counter()
    for m in (3, 4, 6):
        for n in range(7, 31):
            n_mod = n if n % 2 else 2 * n
            for p in primes_upto(29):
                if n_mod % p and not (m == 4 and p == 2 or m == 6 and p in (2, 3)):
                    continue
                squarefree = reduce_and_factor(s_polynomial(m, n), p).squarefree
                code, out, err = run(capsys, "classify", "--m", str(m), "--n", str(n),
                                     "--p", str(p))
                expected = "inadmissible" if squarefree else "bad-reduction"
                assert code == 1 and out == "", (m, n, p)
                assert err.startswith(f"error: {expected}: "), (m, n, p, err)
                seen[expected] += 1
    assert seen == {"bad-reduction": 93, "inadmissible": 58}


def test_pattern_command(capsys):
    code, out, _ = run(capsys, "pattern", "--n", "7", "--bound", "300",
                       "--format", "json")
    data = json.loads(out)
    assert data["skipped"] == [2, 7]
    assert data["bridge_violations"] == 0


@pytest.mark.parametrize("argv", [
    ("classify", "--n", "7", "--p", "43"),
    ("classify", "--m", "4", "--n", "9", "--p", "17"),
    ("oracle", "--n", "13", "--p", "79"),
    ("pattern", "--n", "11", "--bound", "400"),
    ("sweep", "--n", "7", "--first", "40"),
])
def test_json_stdout_matches_the_python_encoder(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    rendered = io.StringIO()
    json.dump(json.loads(out), rendered, sort_keys=True)
    assert out == rendered.getvalue() + "\n"


def test_psi_cap_error_names_the_bound(capsys):
    code, out, err = run(capsys, "psi", "--n", "1000")
    assert code == 1 and out == ""
    assert err == "error: invalid-input: n must be <= 200\n"


def test_predict_command(capsys):
    code, out, _ = run(capsys, "predict", "--n", "7")
    assert code == 0
    assert "full_wreath" in out
    assert "1/8, 3/8, 3/8, 1/8" in out
    code, out, _ = run(capsys, "predict", "--n", "17")
    assert "no density prediction" in out
    code, out, _ = run(capsys, "predict", "--n", "17", "--galois-override",
                       "full_wreath")
    assert "1/256" in out


def test_predict_gives_cycle_densities_for_every_known_structure(capsys):
    code, out, _ = run(capsys, "predict", "--n", "13", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["structure"] == "even_subgroup"
    assert data["cycle_densities"]["6-6"] == [1, 2]
    start = time.perf_counter()
    code, out, _ = run(capsys, "predict", "--n", "199", "--galois-override",
                       "full_wreath", "--format", "json")
    assert time.perf_counter() - start < 1
    assert code == 0 and "1-" * 197 + "1" in json.loads(out)["cycle_densities"]


@pytest.mark.parametrize("argv, message", [
    (("--m", "99", "--n", "5", "--galois-override", "full_wreath"),
     "m=99 is unsupported: the order-99 trace square is irrational"),
    (("--n", "5"), "type {3,5} is not hyperbolic"),
    (("--m", "99", "--n", "7"),
     "m=99 is unsupported: the order-99 trace square is irrational"),
    # no root pairs: rejected as non-hyperbolic before n is read
    *((("--n", n, "--galois-override", "even_subgroup"),
       f"type {{3,{n}}} is not hyperbolic") for n in ("-3", "0", "1", "2")),
])
def test_predict_rejects_the_types_sweep_rejects(capsys, argv, message):
    code, out, err = run(capsys, "predict", *argv)
    assert code == 1 and out == ""
    assert err == f"error: inadmissible: {message}\n"
    m_n = argv[:argv.index("--galois-override")] if "--galois-override" in argv else argv
    assert run(capsys, "sweep", *m_n, "--bound", "100") == (code, out, err)


def test_every_entry_point_rejects_an_inadmissible_type_alike(capsys):
    commands = (("predict",), ("sweep", "--bound", "30"), ("pattern", "--bound", "30"),
                ("classify", "--p", "13"), ("disc",))
    rejected = 0
    for m in (*range(-2, 9), 99):
        for n in range(-3, 7):
            try:
                s_polynomial(m, n)
                continue
            except Inadmissible as exc:
                expected = (1, "", f"error: inadmissible: {exc}\n")
            for command in commands:
                argv = (command[0], "--m", str(m), "--n", str(n), *command[1:])
                assert run(capsys, *argv) == expected, argv
            rejected += 1
    assert rejected == 12 * 10 - 5  # all but {4,5}, {4,6}, {6,4}, {6,5}, {6,6}


def test_predict_keeps_the_curated_m4_n5_model(capsys):
    code, out, err = run(capsys, "predict", "--m", "4", "--n", "5")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "Galois model for type {4,5}: full_wreath (r=2, negative roots=1)",
        "relative densities of Sigma_k: 1/4, 1/2, 1/4",
        "wreath cycle-type densities:",
        "  (1, 1, 1, 1): 1/8",
        "  (1, 1, 2): 1/4",
        "  (2, 2): 3/8",
        "  (4,): 1/4",
    ]


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_sweep_of_an_empty_stream_prints_an_empty_tally(capsys, fmt):
    code, out, err = run(capsys, "sweep", "--n", "7", "--bound", "1", "--format", fmt)
    assert code == 0 and err == ""
    assert "max |freq" not in out
    if fmt == "json":
        assert json.loads(out)["tally"]["total"] == 0
    elif fmt == "table":
        assert out.startswith("swept 0 primes")


@pytest.mark.parametrize("first", ["0", "-1"])
def test_sweep_rejects_a_count_below_one(capsys, first):
    with time_limit(10):
        code, out, err = run(capsys, "sweep", "--n", "7", "--first", first)
    assert code == 1 and out == ""
    assert err.startswith("error: invalid-input: first must be >= 1")


def test_verify_exit_codes(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "table1")
    assert code == 0
    assert "suite table1: PASS" in out
    # a corrupted expectation must be caught and flip the exit status
    monkeypatch.setitem(refdata.PSI_AT_ONE_TABLE, 7, 5)
    code, out, _ = run(capsys, "verify", "table1")
    assert code == 2
    assert "FAIL" in out


@pytest.mark.parametrize("suite", ["parity", "oracle", "patterns"])
@pytest.mark.parametrize("bound", ["0", "1"])
def test_verify_fails_a_bound_with_no_primes(capsys, suite, bound):
    code, out, _ = run(capsys, "verify", suite, "--bound", bound)
    assert code == 2
    *rows, summary = out.splitlines()
    assert rows and all(row.startswith("FAIL ") for row in rows)
    assert summary.startswith(f"suite {suite}: FAIL")


def test_verify_patterns_without_a_model_is_an_integrity_error(capsys, monkeypatch):
    # no prediction to compare with: an error line and exit 1, also under -O
    real = density.galois_model
    monkeypatch.setattr(density, "galois_model",
                        lambda m, n: real(m, n, override=density.UNKNOWN))
    code, out, err = run(capsys, "verify", "patterns", "--bound", "200", "--workers", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: integrity:") and "Traceback" not in err


def test_verify_reports_an_integrity_failure_as_a_failed_item(capsys, monkeypatch):
    # a witness that cannot be built fails the oracle check of its n, naming
    # the class; a census that fails its own checks fails that one example.
    # Both are reports with exit 2, not an error line
    monkeypatch.setattr(gf, "sqrt_in_field", lambda ctx, v: None)
    code, out, err = run(capsys, "verify", "oracle", "--bound", "30", "--workers", "1")
    assert (code, err) == (2, "")
    row = next(row for row in out.splitlines() if row.startswith("FAIL matrix oracle n=7:"))
    assert "'p=3 factor=(1, 0, 2, 1): trace of class (1, 0, 2, 1) does not live in F_q'" in row
    monkeypatch.undo()
    real = census.map_census

    def failing(m, n, p, **kwargs):
        if (m, n, p) == (3, 9, 17):
            raise IntegrityError("class count 2 != phi(n)/2e for (3,9,17)")
        return real(m, n, p, **kwargs)

    monkeypatch.setattr(census, "map_census", failing)
    code, out, err = run(capsys, "verify", "examples")
    assert (code, err) == (2, "")
    failed = [row for row in out.splitlines() if row.startswith("FAIL")]
    assert failed == ["FAIL (3,9,17): expected census record; "
                      "got error: class count 2 != phi(n)/2e for (3,9,17)"]
    assert out.splitlines()[-1].startswith("suite examples: FAIL")


def reconciliation():
    """The appendix suite's printed-tabulation reconciliation check."""
    check, = (c for c in verify.appendix(workers=1).checks
              if c.name == "printed-tabulation reconciliation")
    return check


def test_appendix_reconciles_each_printed_typo(monkeypatch):
    # each typo's fix is a computed member of its sigma list and the printed
    # value is not a swept prime (138 and 2709 are composite, 7481 = 5 mod 7);
    # a correction to a prime of another list, or from a swept prime, fails
    assert reconciliation().ok
    assert not is_prime(138) and not is_prime(2709) and 7481 % 7 == 5
    corrections = refdata.PRINTED_TYPO_CORRECTIONS
    for wrong, named in ((((2, "-"), 138, 167), "138->167"),     # 167 is in sigma_3^+
                         (((3, "-"), 139, 3709), "139->3709")):  # 139 was swept
        monkeypatch.setattr(refdata, "PRINTED_TYPO_CORRECTIONS",
                            corrections[1:] + (wrong,))
        check = reconciliation()
        assert not check.ok and check.actual.endswith(f"typo fixes not computed: ['{named}']")


def test_appendix_refiles_the_misfiled_prime_in_its_own_columns(monkeypatch):
    # the split counts are adjusted in the two columns PRINTED_MISFILED names:
    # a computed sigma_2^- prime printed under sigma_2^+ reconciles with the
    # printed counts that move one prime between the k = 2 columns, and not
    # with those that move it between the k = 1 columns
    assert 83 in refdata.SIGMA2_MINUS
    monkeypatch.setattr(refdata, "PRINTED_MISFILED", ((2, "+"), (2, "-"), 83))
    assert not reconciliation().ok
    monkeypatch.setattr(refdata, "PRINTED_SPLIT_COUNTS", (22, 26, 78, 76, 79, 72, 24, 23))
    check = reconciliation()
    assert check.ok and check.actual == "(22, 26, 78, 76, 79, 72, 24, 23)", check
    monkeypatch.setattr(refdata, "PRINTED_MISFILED", ((2, "+"), (2, "-"), 43))
    assert not reconciliation().ok  # 43 is computed in sigma_2^+, not sigma_2^-


def test_verify_rejects_a_bound_for_a_suite_without_one(capsys):
    code, out, err = run(capsys, "verify", "table1", "--bound", "5")
    assert (code, out, err) == (1, "", "error: invalid-input: suite table1 takes no bound\n")


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "psi", "--n", "8", "--format", "json",
                       "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["coefficients"] == [-2, 0, 1]


@pytest.mark.parametrize("p", ["-13", "0", "1", "15", str((1 << 64) + 13)])
def test_classify_rejects_non_prime_p(capsys, p):
    code, out, err = run(capsys, "classify", "--n", "7", f"--p={p}")
    assert code == 1 and out == ""
    assert err.startswith("error: inadmissible:") and "Traceback" not in err


def test_workers_env_is_resolved_inside_main(capsys, monkeypatch):
    monkeypatch.setenv("MACBEATH_WORKERS", "abc")
    code, out, err = run(capsys, "psi", "--n", "7")
    assert code == 1 and out == ""
    assert err.startswith("error: invalid-input:") and "Traceback" not in err
    monkeypatch.setenv("MACBEATH_WORKERS", "2")
    code, out, _ = run(capsys, "psi", "--n", "7", "--format", "json")
    assert code == 0 and json.loads(out)["meta"]["workers"] == 2
    code, out, _ = run(capsys, "psi", "--n", "7", "--format", "csv")
    assert code == 0 and out.splitlines()[0].endswith(" workers=2")
    code, out, _ = run(capsys, "psi", "--n", "7", "--format", "json", "--workers", "1")
    assert json.loads(out)["meta"]["workers"] == 1


def test_workers_are_clamped_to_the_cpu_count(capsys, monkeypatch):
    # psi starts no pool, so a huge count is safe to pass through main
    cpus = os.cpu_count() or 1
    code, out, _ = run(capsys, "psi", "--n", "7", "--format", "json",
                       "--workers", str(10**9))
    assert code == 0 and json.loads(out)["meta"]["workers"] == cpus
    monkeypatch.setenv("MACBEATH_WORKERS", str(10**9))
    code, out, _ = run(capsys, "psi", "--n", "7", "--format", "json")
    assert code == 0 and json.loads(out)["meta"]["workers"] == cpus


def test_sweep_resumes_twice_from_a_torn_cache(capsys, tmp_path):
    argv = ["sweep", "--n", "7", "--first", "30", "--format", "csv", "--workers", "1"]
    code, fresh, _ = run(capsys, *argv)
    assert code == 0
    cache = tmp_path / "cache.jsonl"
    assert run(capsys, *argv, "--cache", str(cache))[1] == fresh
    whole = cache.read_bytes()
    cache.write_bytes(whole[:-40])  # the last line loses its end
    for _ in range(2):
        code, out, err = run(capsys, *argv, "--cache", str(cache))
        assert (code, out, err) == (0, fresh, "")
        assert cache.read_bytes() == whole
    lines = cache.read_bytes().split(b"\n")
    for bad in (b'{"m": 3, "n"', b'{"m": 3}', b'[3, 7]'):  # mid-file
        cache.write_bytes(b"\n".join(lines[:5] + [bad] + lines[5:]))
        code, out, err = run(capsys, *argv, "--cache", str(cache))
        assert code == 1 and out == ""
        assert err.startswith("error: invalid-input:") and "Traceback" not in err


def test_sweep_of_inadmissible_type_fails_fast(capsys):
    code, out, err = run(capsys, "sweep", "--n", "5", "--first", "5")
    assert code == 1 and out == ""
    assert err.startswith("error: inadmissible:") and "Traceback" not in err
    code, out, err = run(capsys, "sweep", "--m", "5", "--n", "7", "--bound", "100",
                         "--format", "csv")
    assert code == 1 and out == ""
    assert err.startswith("error: inadmissible:")


def _fresh_stdout(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(macbeath.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("MACBEATH_WORKERS", None)
    proc = subprocess.run([sys.executable, "-m", "macbeath.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_parser_is_shared_without_leaking_state(capsys, monkeypatch):
    monkeypatch.delenv("MACBEATH_WORKERS", raising=False)
    assert _parsers() is _parsers()
    first = ["sweep", "--n", "9", "--first", "6", "--format", "csv", "--workers", "1"]
    second = ["classify", "--n", "7", "--p", "13", "--no-traces"]
    code1, out1, _ = run(capsys, *first)
    code2, out2, _ = run(capsys, *second)
    assert code1 == code2 == 0
    assert out1 == _fresh_stdout(first)
    assert out2 == _fresh_stdout(second)


B13 = ["--n", "7", "--p", "13"]


@pytest.mark.parametrize("argv, code, last", [
    ([], 2, "macbeath: error: the following arguments are required: command"),
    (["bogus"], 2, "macbeath: error: argument command: invalid choice: 'bogus'"),
    (["classify", *B13, "extra"], 2, "macbeath: error: unrecognized arguments: extra"),
    (["classify", "--n", "x", "--p", "13"], 2,
     "macbeath classify: error: argument --n: invalid int value: 'x'"),
    (["-h"], 0, "  {psi,disc,classify,oracle,pattern,sweep,predict,verify}"),
    (["classify", "-h"], 0, "  --no-traces           skip the optional trace representatives"),
    (["--format", "json", "classify", *B13], 2,
     "macbeath: error: argument command: invalid choice: 'json'"),
])
def test_argparse_paths_print_what_the_full_parser_prints(capsys, monkeypatch,
                                                          argv, code, last):
    # main hands argv to the named command's parser alone; help, usage and
    # errors must stay what the top-level parser prints for the same argv
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as got:
        main(argv)
    out, err = capsys.readouterr()
    with pytest.raises(SystemExit) as full:
        _parsers()[0].parse_args(argv)
    assert (got.value.code, out, err) == (full.value.code, *capsys.readouterr())
    assert got.value.code == code
    text, other = (out, err) if code == 0 else (err, out)
    assert other == "" and text.startswith("usage: macbeath")
    assert any(line.startswith(last) for line in text.splitlines()), text


def test_a_valid_command_is_parsed_once(capsys, monkeypatch):
    calls = []
    real = cli.argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "parse_known_args", counted)
    assert run(capsys, "classify", *B13, "--format", "json")[0] == 0
    assert calls == ["macbeath classify"]


def test_a_dispatched_command_leaks_no_option_into_the_next(capsys):
    # --class-index set by one call must not narrow the next one
    code1, one, _ = run(capsys, "oracle", *B13, "--class-index", "1", "--format", "json")
    code2, every, _ = run(capsys, "oracle", *B13, "--format", "json")
    assert code1 == code2 == 0
    witnesses = json.loads(every)["witnesses"]
    assert len(witnesses) == len(map_census(3, 7, 13).classes) == 3
    assert json.loads(one)["witnesses"] == witnesses[1:2]


@pytest.mark.parametrize("n,p", [(7, 5), (9, 23), (11, 3), (13, 47)])
def test_oracle_output_matches_the_traced_record(capsys, n, p):
    # the command classifies without traces; the witnesses must be the ones
    # built from the full record
    record = map_census(3, n, p)
    expected = [matrix_oracle(cls) for cls in record.classes]
    code, out, _ = run(capsys, "oracle", "--n", str(n), "--p", str(p),
                       "--format", "json")
    assert code == 0
    got = json.loads(out)["witnesses"]
    assert [w["det_w"] for w in got] == [list(w.det_w) for w in expected]
    assert [w["x"] for w in got] == [[list(c) for c in w.x_matrix] for w in expected]
    assert [w["verdict"] for w in got] == [w.verdict for w in expected]


_COLD_START = """
import contextlib, io, json, os, sys
before = set(sys.modules)  # an interpreter's site hooks may preload some
import macbeath.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [macbeath.cli.main(argv) for argv in json.loads(sys.argv[1])]
try:
    os.waitpid(-1, os.WNOHANG)
    children_left = True
except ChildProcessError:
    children_left = False
print(json.dumps([codes, [name for name in ("dataclasses", "inspect", "multiprocessing",
                                            "threading")
                          if name in sys.modules and name not in before],
                  children_left]))
"""


def _cold_start(commands):
    """Exit codes of the commands, run in-process in a fresh interpreter, which
    of the heavy optional modules the package and the commands loaded, and
    whether a child process was left behind."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(macbeath.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("MACBEATH_WORKERS", None)
    proc = subprocess.run([sys.executable, "-c", _COLD_START, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_one_worker_commands_load_no_heavy_modules():
    codes, loaded, _ = _cold_start([
        ["classify", "--n", "7", "--p", "13"],
        ["oracle", "--n", "7", "--p", "13"],
        ["sweep", "--n", "7", "--first", "20", "--workers", "1"],
        ["pattern", "--n", "7", "--bound", "300", "--workers", "1"]])
    assert codes == [0, 0, 0, 0]
    assert loaded == []


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs to fork workers")
def test_two_worker_commands_fork_without_multiprocessing():
    codes, loaded, children_left = _cold_start([
        ["pattern", "--n", "7", "--bound", "300", "--workers", "2"],
        ["sweep", "--n", "7", "--first", "20", "--workers", "2"],
        ["verify", "parity", "--bound", "300", "--workers", "2"]])
    assert codes == [0, 0, 0]
    assert loaded == []
    assert not children_left


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs to fork workers")
def test_sweep_reports_a_worker_that_dies(capsys, monkeypatch):
    parent = os.getpid()
    real = census.summary  # what a sweep calls on each prime

    def dying(m, n, p):
        if p == 43 and os.getpid() != parent:
            os._exit(3)
        return real(m, n, p)

    monkeypatch.setattr(census, "summary", dying)
    code, out, err = run(capsys, "sweep", "--n", "7", "--first", "20",
                         "--workers", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: worker: ") and "Traceback" not in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
