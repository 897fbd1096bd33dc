"""Print the field-arithmetic work of `classify` + `oracle` over the golden
extension pairs (`EXTENSION_PAIRS` in tests/test_golden.py, read without
importing the test module): `_PackedModulus` builds, `_PackedModulus.reduce`
calls and `_norm` calls; then that of the trace route, `route_product(3, n, p)`
on the same pairs: `_PackedModulus` builds and `pow` calls with exponent >= p;
then the calls of classify + oracle to `gf.sqrt_in_field` and `gf.chi`, the
two entry points that check their value is a reduced residue of its field;
then the census calls of `verify.parity(bound=2000, workers=1)`: `summary`,
which picks each prime's route, the ladder and the factorization it runs,
and `map_census`, which the suite never needs; then the Euclid runs (`gf._gcd`
calls, the one Euclid) of `density.pattern_census(3, n, 10**4, workers=1)`
for n = 7, 11 and 13; then the Frobenius maps (`frobenius_map` calls, each
counting its `times`) of classify + oracle and of the trace route over the
golden pairs, and of that pattern census; last, the `os.fork` calls of one
in-process `pattern --n 7 --bound 2000 --workers 2`, w - 1 = 1 on a host with
at least two CPUs (0 on one CPU).

The counts depend only on the code and the pairs, not on the host, so they
show a change in work that wall time on a noisy host may hide.  Stdlib
only; from the root of a checkout:

    python tools/work_counts.py
"""

import ast
import contextlib
import io
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from macbeath import census, density, gf, verify  # noqa: E402
from macbeath.cli import main  # noqa: E402


def golden_pairs() -> tuple[tuple[int, int], ...]:
    tree = ast.parse((ROOT / "tests" / "test_golden.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "EXTENSION_PAIRS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit("EXTENSION_PAIRS not found in tests/test_golden.py")


def counted(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def work_counts(pairs) -> tuple[dict[str, int], dict[str, int]]:
    """The field arithmetic of classify + oracle over the pairs, and its
    calls to the entry points that check their values."""
    counts = {"_PackedModulus builds": 0, "reduce calls": 0, "_norm calls": 0}
    checks = {"sqrt_in_field calls": 0, "chi calls": 0}
    ring = gf._PackedModulus
    saved = ring.__init__, ring.reduce, gf._norm, gf.sqrt_in_field, gf.chi
    ring.__init__ = counted(counts, "_PackedModulus builds", ring.__init__)
    ring.reduce = counted(counts, "reduce calls", ring.reduce)
    gf._norm = counted(counts, "_norm calls", gf._norm)
    gf.sqrt_in_field = counted(checks, "sqrt_in_field calls", gf.sqrt_in_field)
    gf.chi = counted(checks, "chi calls", gf.chi)
    try:
        for n, p in pairs:
            for command in ("classify", "oracle"):
                with contextlib.redirect_stdout(io.StringIO()):
                    if main([command, "--n", str(n), "--p", str(p), "--format", "json"]):
                        raise SystemExit(f"{command} --n {n} --p {p} failed")
    finally:
        ring.__init__, ring.reduce, gf._norm, gf.sqrt_in_field, gf.chi = saved
    return counts, checks


def route_counts(pairs) -> dict[str, int]:
    """`_PackedModulus` builds and powers of exponent >= p of the trace route,
    `census.route_product(3, n, p)`, over the pairs."""
    counts = {"_PackedModulus builds": 0, "pow calls with exponent >= p": 0}
    ring = gf._PackedModulus
    saved = ring.__init__, ring.pow

    def power(self, a, exp):
        counts["pow calls with exponent >= p"] += exp >= self.p
        return saved[1](self, a, exp)

    ring.__init__, ring.pow = counted(counts, "_PackedModulus builds", ring.__init__), power
    try:
        for n, p in pairs:
            left, right = census.route_product(3, n, p)
            if left != right:
                raise SystemExit(f"route_product(3, {n}, {p}): the two routes differ")
    finally:
        ring.__init__, ring.pow = saved
    return counts


def dispatch_counts() -> dict[str, int]:
    """The census calls of the parity suite to 2000, in one process."""
    names = ("summary", "_ladder", "_factored_classes", "map_census")
    counts = {f"{name} calls": 0 for name in names}
    saved = [getattr(census, name) for name in names]
    for name, fn in zip(names, saved):
        setattr(census, name, counted(counts, f"{name} calls", fn))
    try:
        if not verify.parity(bound=2000, workers=1).passed:
            raise SystemExit("verify.parity(bound=2000) failed")
    finally:
        for name, fn in zip(names, saved):
            setattr(census, name, fn)
    return counts


@contextlib.contextmanager
def frobenius_maps(counts, name):
    """Add to counts[name] the Frobenius maps applied inside, `times` per call."""
    ring = gf._PackedModulus
    real = ring.frobenius_map

    def frobenius_map(self, h, times=1):
        counts[name] = counts.get(name, 0) + times
        return real(self, h, times)

    ring.frobenius_map = frobenius_map
    try:
        yield
    finally:
        ring.frobenius_map = real


def euclid_counts(maps, degrees=(7, 11, 13)) -> dict[str, int]:
    """The Euclid runs of the pattern census of m = 3 to 10^4, per n; its
    Frobenius maps are added to `maps`."""
    counts = {f"n = {n}": 0 for n in degrees}
    saved = gf._gcd
    try:
        for n in degrees:
            gf._gcd = counted(counts, f"n = {n}", saved)
            with frobenius_maps(maps, f"pattern census n = {n}"):
                density.pattern_census(3, n, 10**4, workers=1)
    finally:
        gf._gcd = saved
    return counts


def fork_count() -> int:
    """The os.fork calls of one in-process two-worker pattern census."""
    counts = {"forks": 0}
    real = os.fork
    os.fork = counted(counts, "forks", real)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if main(["pattern", "--n", "7", "--bound", "2000", "--workers", "2"]):
                raise SystemExit("pattern --n 7 --bound 2000 --workers 2 failed")
    finally:
        os.fork = real
    return counts["forks"]


if __name__ == "__main__":
    pairs = golden_pairs()
    maps: dict[str, int] = {}
    with frobenius_maps(maps, "classify + oracle"):
        arithmetic, checks = work_counts(pairs)
    with frobenius_maps(maps, "route_product"):
        route = route_counts(pairs)
    for label, counts in (("classify + oracle", arithmetic),
                          ("route_product", route),
                          ("classify + oracle value checks", checks)):
        print(f"{label} over {len(pairs)} golden extension pairs: "
              + ", ".join(f"{name} {value}" for name, value in counts.items()))
    print("verify parity --bound 2000 census dispatch: "
          + ", ".join(f"{name} {value}" for name, value in dispatch_counts().items()))
    print("pattern census to 10^4, Euclid runs (_gcd): "
          + ", ".join(f"{name} {value}" for name, value in euclid_counts(maps).items()))
    print("Frobenius maps (times summed), golden pairs and pattern census to 10^4: "
          + ", ".join(f"{name} {value}" for name, value in maps.items()))
    print(f"pattern --n 7 --bound 2000 --workers 2, os.fork calls: {fork_count()}")
