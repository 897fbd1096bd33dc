"""A wall-clock limit for test code that must not hang."""

import contextlib
import signal


class TimeLimit(BaseException):
    """Raised in the main thread when a limit runs out.

    It is not an Exception, so code under test that catches ValueError,
    OSError or Exception cannot swallow it."""


@contextlib.contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise TimeLimit(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
