import io
import json
import os
import re
import subprocess
import sys
import time

import pytest
from timelimit import time_limit

import macbeath
from macbeath import census, refdata
from macbeath.census import map_census, matrix_oracle, record_from_json
from macbeath.cli import build_parser, main
from macbeath.errors import Inadmissible
from macbeath.intpoly import s_polynomial


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


def test_classify_json_round_trips(capsys):
    code, out, _ = run(capsys, "classify", "--m", "3", "--n", "7", "--p", "43",
                       "--format", "json")
    assert code == 0
    record = record_from_json(out)
    assert record == map_census(3, 7, 43)
    assert record.k == 2
    assert sorted(c.s.coeffs[0] for c in record.classes) == [25, 29, 36]
    # bit-stable across runs
    _, out2, _ = run(capsys, "classify", "--m", "3", "--n", "7", "--p", "43",
                     "--format", "json")
    assert out == out2


def test_classify_table(capsys):
    code, out, _ = run(capsys, "classify", "--n", "7", "--p", "13")
    assert code == 0
    assert "k=1" in out and "outer l=2" in out.replace("  ", " ")
    assert "parity: l predicted even" in out


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
    assert build_parser() is build_parser()
    first = ["sweep", "--n", "9", "--first", "6", "--format", "csv", "--workers", "1"]
    second = ["classify", "--n", "7", "--p", "13", "--no-traces"]
    code1, out1, _ = run(capsys, *first)
    code2, out2, _ = run(capsys, *second)
    assert code1 == code2 == 0
    assert out1 == _fresh_stdout(first)
    assert out2 == _fresh_stdout(second)


@pytest.mark.parametrize("n,p", [(7, 5), (9, 23), (11, 3), (13, 47)])
def test_oracle_output_matches_the_traced_record(capsys, n, p):
    # the command classifies without traces; the witnesses must be the ones
    # built from the full record
    record = map_census(3, n, p)
    expected = [matrix_oracle(n, p, cls, record.field.d) for cls in record.classes]
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
    real = census.map_census

    def dying(m, n, p, **kwargs):
        if p == 43 and os.getpid() != parent:
            os._exit(3)
        return real(m, n, p, **kwargs)

    monkeypatch.setattr(census, "map_census", dying)
    code, out, err = run(capsys, "sweep", "--n", "7", "--first", "20",
                         "--workers", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: worker: ") and "Traceback" not in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
