"""Command-line interface.

Subcommands: psi, disc, classify, oracle, pattern, sweep, predict, verify.
Exit status is 0 on success, 1 on domain errors (bad reduction, inadmissible
type, bad arguments), 2 when a verification suite fails.  Diagnostics go to
stderr with a machine-readable code; data only ever goes to stdout (or the
--output file).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from . import census, density, verify
from .errors import Error
from .intpoly import discriminant, doubled, psi, psi_at_one, s_polynomial
from .numkit import primes_upto
from ._version import __version__


def _meta(args) -> dict:
    return {"version": __version__, "workers": args.workers}


def _emit(args, payload: dict | None, table_lines: list[str] | None,
          csv_header=None, csv_rows=None) -> None:
    # reads only what args.format prints, so a caller may pass None for the rest
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        if args.format == "json":
            # dumps, unlike dump, runs the C encoder; the bytes are the same
            out.write(json.dumps({"meta": _meta(args), **payload}, sort_keys=True) + "\n")
        elif args.format == "csv":
            meta = _meta(args)
            out.write(f"# macbeath {meta['version']} workers={meta['workers']}\n")
            writer = csv.writer(out, lineterminator="\n")
            if csv_header is None:
                # generic two-column dump of the payload
                writer.writerow(("key", "value"))
                for key, value in sorted(payload.items()):
                    writer.writerow((key, json.dumps(value, sort_keys=True)))
            else:
                writer.writerow(csv_header)
                writer.writerows(csv_rows)
        else:
            for line in table_lines:
                out.write(line + "\n")
    finally:
        if args.output:
            out.close()


def _cmd_psi(args) -> int:
    f = psi(args.n)
    res = psi_at_one(args.n) if args.n >= 3 else None
    payload = {"n": args.n, "coefficients": list(f.coeffs), "pretty": str(f)}
    if res:
        payload["at_one"] = res.direct
    lines = [f"Psi_{args.n}(x) = {f}",
             f"coefficients (ascending): {list(f.coeffs)}"]
    if res:
        lines.append(f"Psi_{args.n}(1) = {res.direct}")
    _emit(args, payload, lines,
          csv_header=("n", "coefficients", "at_one"),
          csv_rows=[(args.n, " ".join(map(str, f.coeffs)),
                     res.direct if res else "")])
    return 0


def _small_prime_factors(value: int, bound: int = 10**5):
    # primes sieved in stages: once limit^2 exceeds what is left, it is 1 or a prime
    value = abs(value)
    factors = {}
    limit = tried = 0
    while limit < bound and limit * limit <= value:
        limit = min(max(64, limit * limit), bound)
        primes = primes_upto(limit)
        for p in primes[tried:]:
            while value % p == 0:
                factors[p] = factors.get(p, 0) + 1
                value //= p
        tried = len(primes)
    if 1 < value <= bound:  # a prime that the whole list would have divided out
        factors[value] = 1
        value = 1
    return factors, value  # value > 1 is an unfactored cofactor


def _cmd_disc(args) -> int:
    f1 = s_polynomial(args.m, args.n)
    d1 = discriminant(f1)
    f2 = doubled(f1)
    d2 = discriminant(f2)
    bad, cofactor = _small_prime_factors(d2)
    payload = {"m": args.m, "n": args.n,
               "f1": list(f1.coeffs), "disc_f1": str(d1),
               "f2": list(f2.coeffs), "disc_f2": str(d2),
               "bad_primes": sorted(bad),
               "unfactored_cofactor": str(cofactor) if cofactor > 1 else None}
    lines = [f"f1 = {f1}", f"disc f1 = {d1}", f"f2 = f1(x^2) = {f2}",
             f"disc f2 = {d2}",
             f"bad primes (dividing disc f2): {sorted(bad)}"
             + (f" plus unfactored cofactor {cofactor}" if cofactor > 1 else "")]
    _emit(args, payload, lines)
    return 0


def _cmd_classify(args) -> int:
    record = census.map_census(args.m, args.n, args.p, traces=not args.no_traces)
    # only the chosen format is built, as in _cmd_sweep
    payload = lines = csv_rows = None
    if args.format == "json":
        payload = census.record_to_dict(record)
    elif args.format == "csv":
        csv_rows = census.record_to_csv_rows(record)
    else:
        lines = [f"type {{{args.m},{args.n}}}, p={args.p}: q={record.field.q} "
                 f"(d={record.field.d}), genus {record.genus}",
                 f"classes: {len(record.classes)}  inner k={record.k}  outer l={record.l}"]
        if record.count_flag:
            closed = record.closed_form_count
            if closed < 0:  # d does not divide phi(n)/2, the sum of the class degrees
                closed = f"{sum(c.e for c in record.classes)}/{record.field.d}, not an integer"
            lines.append(f"note: factor count differs from phi(n)/2d = {closed} "
                         f"(Galois-folded case)")
        for i, c in enumerate(record.classes):
            t_part = f" t={list(c.field.coeffs(c.t))}" if c.t is not None else ""
            lines.append(f"  class {i}: factor={list(c.factor)} s={list(c.field.coeffs(c.s))} "
                         f"chi={c.chi:+d} {c.regularity}{t_part}")
        par = record.parity
        if par.applicable:
            lines.append(f"parity: l predicted {par.predicted}, observed {par.observed} "
                         f"-> {'consistent' if par.consistent else 'VIOLATION'}")
        else:
            lines.append("parity: not applicable (d even or m != 3)")
    _emit(args, payload, lines, csv_header=census.CSV_CLASS_HEADER, csv_rows=csv_rows)
    return 0


def _cmd_oracle(args) -> int:
    # the oracle derives its own trace from each class, so none is kept here
    record = census.map_census(3, args.n, args.p, traces=False)
    targets = record.classes
    if args.class_index is not None:
        if not 0 <= args.class_index < len(targets):
            raise ValueError(f"class index {args.class_index} is out of range "
                             f"for {len(targets)} classes")
        targets = (targets[args.class_index],)
    witnesses = [census.matrix_oracle(cls) for cls in targets]
    payload = lines = None  # only the chosen format is built: csv dumps the payload
    if args.format == "table":
        lines = [f"class s={list(cls.field.coeffs(cls.s))}: {w.verdict}"
                 f"{' (degenerate beta=0 branch)' if w.degenerate else ''}; "
                 f"det w = {list(w.det_w)} in F_p[x]/({list(w.field_modulus)})"
                 for cls, w in zip(targets, witnesses)]
    else:
        payload = {"n": args.n, "p": args.p, "witnesses": [
            {"verdict": w.verdict, "degenerate": w.degenerate,
             "field_modulus": list(w.field_modulus),
             "x": [list(c) for c in w.x_matrix],
             "alpha": list(w.alpha), "beta": list(w.beta), "det_w": list(w.det_w)}
            for w in witnesses]}
    _emit(args, payload, lines)
    return 0


def _cmd_pattern(args) -> int:
    result = density.pattern_census(args.m, args.n, args.bound, workers=args.workers)
    payload = {
        "m": args.m, "n": args.n, "bound": args.bound, "total": result.total,
        "counts": {"-".join(map(str, k)): v for k, v in result.counts.items()},
        "frequencies": {"-".join(map(str, k)): [v.numerator, v.denominator]
                        for k, v in result.frequencies.items()},
        "predicted": None if result.predicted is None else
                     {"-".join(map(str, k)): [v.numerator, v.denominator]
                      for k, v in result.predicted.items()},
        "max_abs_deviation": result.max_abs_deviation,
        "skipped": list(result.skipped),
        "bridge_checked": result.bridge_checked,
        "bridge_violations": result.bridge_violations,
    }
    lines = [f"degree patterns of f1(x^2) mod p for type {{{args.m},{args.n}}}, "
             f"primes <= {args.bound} ({result.total} good, "
             f"skipped {list(result.skipped)})"]
    for pattern, count in result.counts.items():
        freq = result.frequencies[pattern]
        pred = result.predicted.get(pattern) if result.predicted else None
        pred_part = f"  predicted {pred} = {float(pred):.5f}" if pred is not None else ""
        lines.append(f"  {pattern}: {count}  freq {float(freq):.5f}{pred_part}")
    if result.max_abs_deviation is not None:
        lines.append(f"max |freq - predicted| = {result.max_abs_deviation:.5f}")
    lines.append(f"linear-factor bridge: {result.bridge_checked} primes checked, "
                 f"{result.bridge_violations} violations")
    rows = [("-".join(map(str, k)), v, float(result.frequencies[k]))
            for k, v in result.counts.items()]
    _emit(args, payload, lines, csv_header=("pattern", "count", "frequency"),
          csv_rows=rows)
    return 0


def _cmd_sweep(args) -> int:
    stream = density.default_stream(args.m, args.n, first=args.first,
                                    bound=args.bound)
    result = density.sweep(args.m, args.n, stream, workers=args.workers,
                           cache_path=args.cache)
    tally = result.tally
    # only the chosen format is built: a sweep has one record per prime
    payload = lines = csv_rows = None
    if args.format == "json":
        payload = {"tally": density.tally_to_dict(tally),
                   "records": [{"p": r.p, "residue": r.residue, "k": r.k, "l": r.l,
                                "d": r.d, "q": str(r.q), "genus": str(r.genus)}
                               for r in result.records]}
    elif args.format == "csv":
        csv_rows = density.sweep_csv_rows(result)
        csv_rows.append(("# summary", "", "", "", "",
                         " ".join(f"k{k}={v}" for k, v in sorted(tally.counts.items())),
                         "", "", ""))
    else:
        lines = [f"swept {tally.total} primes for type {{{args.m},{args.n}}}"]
        lines.append("counts by k: " + ", ".join(
            f"k={k}: {v}" for k, v in sorted(tally.counts.items())))
        lines.append("split by residue: " + ", ".join(
            f"{k}{s}: {v}" for (k, s), v in sorted(tally.split.items()) if v or k <= 3))
        if tally.predicted is not None:
            lines.append("predicted densities: "
                         + ", ".join(str(f) for f in tally.predicted))
        if tally.max_abs_deviation is not None:
            lines.append(f"max |freq - predicted| = {tally.max_abs_deviation:.5f}")
        if tally.skipped:
            lines.append(f"skipped: {list(tally.skipped)}")
    _emit(args, payload, lines, csv_header=density.SWEEP_CSV_HEADER, csv_rows=csv_rows)
    return 0


def _cmd_predict(args) -> int:
    model = density.galois_model(args.m, args.n, override=args.galois_override)
    payload = {"m": args.m, "n": args.n, "structure": model.structure,
               "r": model.r, "negative_roots": model.negative_roots}
    lines = [f"Galois model for type {{{args.m},{args.n}}}: {model.structure} "
             f"(r={model.r}, negative roots={model.negative_roots})"]
    if model.structure != density.UNKNOWN:
        densities = density.predicted_sigma_densities(model)
        payload["sigma_densities"] = [[f.numerator, f.denominator]
                                      for f in densities]
        lines.append("relative densities of Sigma_k: "
                     + ", ".join(str(f) for f in densities))
        dist = density.wreath_cycle_distribution(args.n, model.structure)
        payload["cycle_densities"] = {"-".join(map(str, k)): [v.numerator,
                                                              v.denominator]
                                      for k, v in dist.items()}
        lines.append("wreath cycle-type densities:")
        for pattern, frac in dist.items():
            lines.append(f"  {pattern}: {frac}")
    else:
        lines.append("no density prediction: Galois structure unknown")
    _emit(args, payload, lines)
    return 0


def _cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, workers=args.workers, bound=args.bound)
    payload = {"suite": report.suite, "passed": report.passed,
               "elapsed": report.elapsed,
               "checks": [{"name": c.name, "ok": c.ok, "expected": c.expected,
                           "actual": c.actual} for c in report.checks]}
    lines = []
    for c in report.checks:
        status = "ok  " if c.ok else "FAIL"
        lines.append(f"{status} {c.name}: expected {c.expected}; got {c.actual}")
    lines.append(f"suite {report.suite}: "
                 f"{'PASS' if report.passed else 'FAIL'} "
                 f"({len(report.checks)} checks, {report.elapsed:.2f}s)")
    _emit(args, payload, lines,
          csv_header=("check", "ok", "expected", "actual"),
          csv_rows=[(c.name, c.ok, c.expected, c.actual) for c in report.checks])
    return 0 if report.passed else 2


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommand parsers by name, built once per
    process and shared: parsing leaves them unchanged, and so must callers."""
    parser = argparse.ArgumentParser(
        prog="macbeath",
        description="Inner/outer regularity census for Macbeath maps over PSL(2,q)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "csv", "json"),
                        default="table")
    common.add_argument("--output", help="write the report here instead of stdout")
    common.add_argument("--workers", type=int,
                        help="parallel workers for sweeps, at most the CPU "
                             "count (default: MACBEATH_WORKERS or 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p_psi = add_parser("psi", help="minimal polynomial of 2cos(2pi/n)")
    p_psi.add_argument("--n", type=int, required=True)
    p_psi.set_defaults(func=_cmd_psi)

    p_disc = add_parser("disc", help="s-polynomial discriminants and bad primes")
    p_disc.add_argument("--m", type=int, default=3)
    p_disc.add_argument("--n", type=int, required=True)
    p_disc.set_defaults(func=_cmd_disc)

    p_cls = add_parser("classify", help="census of the maps for (m, n, p)")
    p_cls.add_argument("--m", type=int, default=3)
    p_cls.add_argument("--n", type=int, required=True)
    p_cls.add_argument("--p", type=int, required=True)
    p_cls.add_argument("--no-traces", action="store_true",
                       help="skip the optional trace representatives")
    p_cls.set_defaults(func=_cmd_classify)

    p_orc = add_parser("oracle", help="matrix witness for the criterion (m=3)")
    p_orc.add_argument("--n", type=int, required=True)
    p_orc.add_argument("--p", type=int, required=True)
    p_orc.add_argument("--class-index", type=int)
    p_orc.set_defaults(func=_cmd_oracle)

    p_pat = add_parser("pattern", help="degree-pattern census of f1(x^2) mod p")
    p_pat.add_argument("--m", type=int, default=3)
    p_pat.add_argument("--n", type=int, required=True)
    p_pat.add_argument("--bound", type=int, required=True)
    p_pat.set_defaults(func=_cmd_pattern)

    p_swp = add_parser("sweep", help="classify primes = +-1 mod N and tally k")
    p_swp.add_argument("--m", type=int, default=3)
    p_swp.add_argument("--n", type=int, required=True)
    p_swp.add_argument("--first", type=int)
    p_swp.add_argument("--bound", type=int)
    p_swp.add_argument("--cache", help="append-mode JSONL cache keyed by (m,n,p)")
    p_swp.set_defaults(func=_cmd_sweep)

    p_prd = add_parser("predict", help="Galois model and predicted densities")
    p_prd.add_argument("--m", type=int, default=3)
    p_prd.add_argument("--n", type=int, required=True)
    p_prd.add_argument("--galois-override",
                       choices=(density.FULL_WREATH, density.EVEN_SUBGROUP,
                                density.UNKNOWN))
    p_prd.set_defaults(func=_cmd_predict)

    p_ver = add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("suite", choices=verify.SUITES)
    p_ver.add_argument("--bound", type=int,
                       help="override the suite's default sweep bound")
    p_ver.set_defaults(func=_cmd_verify)
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    # argv is read once, by the named command's parser; the top-level parser
    # runs only to report what that leaves: no command, or arguments over
    command = commands.get(argv[0]) if argv else None
    args, extra = command.parse_known_args(argv[1:]) if command else (None, True)
    if extra:
        args = parser.parse_args(argv)
    try:
        args.workers = density.clamp_workers(args.workers)
        return args.func(args)
    except Error as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, IndexError) as exc:
        print(f"error: invalid-input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
