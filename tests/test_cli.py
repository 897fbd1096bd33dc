import json

import pytest

from macbeath import refdata
from macbeath.census import map_census, record_from_json
from macbeath.cli import main


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
    assert lines[0].startswith("# macbeath") and "workers=" in lines[0] and "seed=" in lines[0]
    assert lines[1] == "p,residue_class,d,q,genus,k,l,parity_ok,class_details"
    assert lines[2].startswith("13,")
    assert lines[-1].startswith("# summary")


def test_sweep_requires_exactly_one_mode(capsys):
    code, _, err = run(capsys, "sweep", "--n", "7")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "sweep", "--n", "7", "--first", "3", "--bound", "99")
    assert code == 1


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


def test_verify_exit_codes(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "table1")
    assert code == 0
    assert "suite table1: PASS" in out
    # a corrupted expectation must be caught and flip the exit status
    monkeypatch.setitem(refdata.PSI_AT_ONE_TABLE, 7, 5)
    code, out, _ = run(capsys, "verify", "table1")
    assert code == 2
    assert "FAIL" in out


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
    assert code == 0 and "workers=2 " in out.splitlines()[0]
    code, out, _ = run(capsys, "psi", "--n", "7", "--format", "json", "--workers", "1")
    assert json.loads(out)["meta"]["workers"] == 1
