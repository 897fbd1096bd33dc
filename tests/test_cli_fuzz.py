"""Property test: no small command line ends in a traceback or a hang.

Each example runs `cli.main` in-process with one worker and small values,
including zero and negative ones, under a wall-clock limit.  The exit status
must be 0, 1 or 2, and nothing may escape `main` but argparse's own exit.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from macbeath.cli import main  # noqa: E402
from timelimit import TimeLimit, time_limit  # noqa: E402

LIMIT_S = 5

# option -> the values drawn for it; None leaves the option out
OPTIONS = {
    "--m": st.integers(-2, 8),
    "--n": st.integers(-3, 40),
    "--first": st.integers(-3, 20),
    "--bound": st.integers(-3, 600),
    "--p": st.integers(-3, 300),
    "--galois-override": st.sampled_from(["full_wreath", "even_subgroup", "unknown"]),
}
COMMANDS = {
    "sweep": ("--m", "--n", "--first", "--bound"),
    "pattern": ("--m", "--n", "--bound"),
    "predict": ("--m", "--n", "--galois-override"),
    "classify": ("--m", "--n", "--p"),
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command, "--workers", "1",
            "--format", draw(st.sampled_from(["table", "csv", "json"]))]
    for option in COMMANDS[command]:
        value = draw(st.none() | OPTIONS[option])
        if value is not None:
            argv += [option, str(value)]
    return argv


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_cli_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                time_limit(LIMIT_S):
            code = main(argv)
    except SystemExit as exc:  # argparse rejecting the command line
        code = exc.code
    except TimeLimit:
        raise AssertionError(f"{argv} still running after {LIMIT_S} s") from None
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv


def _exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            time_limit(LIMIT_S):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.integers(-2, 120), st.integers(-3, 8),
       st.none() | OPTIONS["--galois-override"])
def test_predict_accepts_exactly_the_types_sweep_accepts(m, n, override):
    # small n and any m, where the model's own checks do not reach
    argv = ["--m", str(m), "--n", str(n)]
    predicted = _exit(["predict", *argv]
                      + (["--galois-override", override] if override else []))
    swept = _exit(["sweep", "--workers", "1", *argv, "--bound", "30"])
    assert predicted[0] == swept[0] in (0, 1), (m, n, override)
    assert predicted[1] == swept[1], (m, n, override)
