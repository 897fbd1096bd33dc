"""The output checks accept correct outputs and catch tampered ones."""

import json

import check_extension_classify
import check_pattern_census
import check_split_sweep
import refmath
from macbeath import census
from workloads import run_cli


def _sweep_csv(n, primes, k_of):
    r = refmath.phi(n) // 2
    N = refmath.trace_modulus(n)
    lines = ["# macbeath 0.1.0 workers=1 seed=0",
             "p,residue_class,d,q,genus,k,l,parity_ok,class_details"]
    for p in primes:
        k = k_of(p)
        lines.append(f"{p},{1 if p % N == 1 else -1},1,{p},"
                     f"{refmath.psl2_genus(n, p)},{k},{r - k},True,k={k};l={r - k}")
    lines.append("# summary,,,,,k0=0,,,")
    return "\n".join(lines) + "\n"


def test_split_sweep_check_accepts_reference_and_program_output():
    n, lower, bound = 9, 400, 1000
    primes = check_split_sweep.stream(n, bound)
    low = [p for p in primes if p <= lower]
    full = _sweep_csv(n, primes, lambda p: refmath.split_k(n, p))
    first = _sweep_csv(n, low, lambda p: refmath.split_k(n, p))
    assert check_split_sweep.check(n, lower, bound, first, full,
                                   len(primes), len(low), 3**4) == []
    code, program = run_cli(["sweep", "--n", str(n), "--bound", str(bound),
                             "--format", "csv"])
    assert code == 0
    assert check_split_sweep.parse_sweep_csv(program) == \
        check_split_sweep.parse_sweep_csv(full)


def test_split_sweep_check_catches_wrong_k_and_cache_counts():
    n, lower, bound = 9, 400, 1000
    primes = check_split_sweep.stream(n, bound)
    low = [p for p in primes if p <= lower]
    victim = primes[-1]
    forged = _sweep_csv(n, primes, lambda p: (refmath.split_k(n, p) + (p == victim)) % 4)
    first = _sweep_csv(n, low, lambda p: refmath.split_k(n, p))
    problems = check_split_sweep.check(n, lower, bound, first, forged,
                                       len(primes), len(low), 3**4)
    assert any(f"p={victim}" in msg for msg in problems)
    full = _sweep_csv(n, primes, lambda p: refmath.split_k(n, p))
    assert check_split_sweep.check(n, lower, bound, first, full,
                                   len(primes) + 1, len(low), 3**4)
    # a prime dropped from the output is caught as well
    assert check_split_sweep.check(n, lower, bound, first, full,
                                   len(primes), len(low), 3**4 * victim)


def _pattern_payload(n, bound):
    f2 = refmath.doubled(refmath.sympy_f1(n))
    disc = refmath.sympy_discriminant(f2)
    N = refmath.trace_modulus(n)
    counts, skipped, split = {}, [], 0
    for p in refmath.primes_upto(bound):
        if disc % p == 0:
            skipped.append(p)
            continue
        key = "-".join(map(str, refmath.sympy_pattern(f2, p)))
        counts[key] = counts.get(key, 0) + 1
        split += p % N in (1, N - 1)
    return {"counts": counts, "total": sum(counts.values()), "skipped": skipped,
            "bridge_checked": split, "bridge_violations": 0}


def test_pattern_check_accepts_program_output_and_catches_tampering():
    n, bound = 7, 3000
    code, text = run_cli(["pattern", "--n", "7", "--bound", str(bound),
                          "--format", "json"])
    assert code == 0
    assert json.loads(text)["counts"] == _pattern_payload(n, bound)["counts"]
    from macbeath import gf, intpoly
    f2 = intpoly.doubled(intpoly.s_polynomial(3, n))
    sample = [13, 29, 101, 2999]
    assert check_pattern_census.check(n, bound, text, sample,
                                      lambda p: gf.degree_pattern(f2, p)) == []

    payload = _pattern_payload(n, bound)
    payload["counts"]["1-1-2-2"] -= 1           # a k = 1 prime reported as k = 0
    payload["counts"]["2-2-2"] += 1
    problems = check_pattern_census.check(n, bound, json.dumps(payload), [],
                                          lambda p: None)
    assert any("linear-factor" in msg for msg in problems)

    payload = _pattern_payload(n, bound)
    payload["counts"]["6"] -= 1
    payload["counts"]["1-5"] = 1
    problems = check_pattern_census.check(n, bound, json.dumps(payload), [],
                                          lambda p: None)
    assert any("unpredicted" in msg for msg in problems)

    problems = check_pattern_census.check(n, bound, text, [13], lambda p: (6,))
    assert any("sympy" in msg for msg in problems)


def _reports(n, p):
    args = ["--n", str(n), "--p", str(p), "--format", "json"]
    code1, classified = run_cli(["classify"] + args)
    code2, witnessed = run_cli(["oracle"] + args)
    assert code1 == code2 == 0
    return classified, witnessed


def _check(n, p, classified, witnessed):
    return check_extension_classify.check(n, p, classified, witnessed,
                                          census.record_from_json,
                                          census.record_to_dict)


def test_extension_check_accepts_program_output():
    # (n, p, d): q = p^3 with p = 3 and 1 mod 4, then d = 2, 4, 3, 6, 8
    cases = ((7, 2011, 3), (7, 2053, 3), (8, 2039, 2), (8, 2027, 4),
             (13, 2011, 3), (13, 2017, 6), (16, 2003, 8))
    for n, p, d in cases:
        assert refmath.signed_order(p, refmath.trace_modulus(n)) == d
        assert _check(n, p, *_reports(n, p)) == []


def test_extension_check_catches_tampering():
    classified, witnessed = _reports(7, 2011)       # 2011 = 3 mod 4: outer
    record = json.loads(classified)
    assert record["classes"][0]["regularity"] == "outer"
    forged = dict(record, k=1, l=0, classes=[dict(record["classes"][0],
                                                  regularity="inner", chi=1)])
    problems = _check(7, 2011, json.dumps(forged), witnessed)
    assert any("inner iff p = 1 mod 4" in msg for msg in problems)
    assert any("oracle verdicts" in msg for msg in problems)

    classified, witnessed = _reports(13, 2011)
    record = json.loads(classified)
    cls = record["classes"][0]
    cls["t"] = [(c + 1) % 2011 for c in cls["t"]]
    problems = _check(13, 2011, json.dumps(record), witnessed)
    assert any("t^2 != 3 - s" in msg for msg in problems)
