"""Output checks for the extension_classify workload.

One (n, p) pair has a `classify --format json` report and an
`oracle --format json` report, with p not = +-1 (mod N), so the maps live
over F_{p^d} with d > 1.  The checks use the paper's rules and the
benchmark's own arithmetic: the n = 7, q = p^3 rule, the parity law with
Psi_n(1) from Table 1, inner-only classes when d/e is even, the class count
phi(n)/2e, t^2 = 3 - s multiplied out modulo the factor, agreement of the
matrix oracle with the character verdict, and the JSON round trip.
"""

from __future__ import annotations

import json

import refmath

# Psi_n(1), Table 1 of the paper
PSI_AT_ONE = {7: -1, 8: -1, 9: -1, 10: -1, 11: -1, 12: -2, 13: 1,
              14: -1, 15: 1, 16: -1, 17: 1, 18: -3, 19: -1}


def check(n: int, p: int, classify_text: str, oracle_text: str,
          record_from_json, record_to_dict) -> list[str]:
    """Problems found in the two reports for (n, p); empty when all is correct.

    `record_from_json` and `record_to_dict` are the program's serializers,
    exercised here only for the round trip.
    """
    where = f"n={n} p={p}"
    record = json.loads(classify_text)
    d = refmath.signed_order(p, refmath.trace_modulus(n))
    q = p**d
    problems = []
    if (record["d"], record["q"], record["genus"]) != (d, str(q), str(refmath.psl2_genus(n, q))):
        problems.append(f"{where}: field/genus {record['d']}, {record['q']}, "
                        f"{record['genus']} != {d}, {q}, {refmath.psl2_genus(n, q)}")
    classes = record["classes"]
    degrees = {len(c["factor"]) - 1 for c in classes} | {c["e"] for c in classes}
    if len(degrees) != 1:
        return problems + [f"{where}: unequal class degrees {degrees}"]
    e = degrees.pop()
    if d % e or len(classes) != refmath.phi(n) // (2 * e):
        problems.append(f"{where}: {len(classes)} classes of degree {e}, expected "
                        f"phi(n)/2e = {refmath.phi(n) // (2 * e)} with e | {d}")
    inner = [c["regularity"] == "inner" for c in classes]
    if (record["k"], record["l"]) != (sum(inner), len(inner) - sum(inner)):
        problems.append(f"{where}: k, l = {record['k']}, {record['l']} do not count "
                        f"the class verdicts")
    if any((c["chi"] == 1) != is_inner for c, is_inner in zip(classes, inner)):
        problems.append(f"{where}: a verdict disagrees with its character")
    if n == 7 and d == 3 and inner != [p % 4 == 1]:
        problems.append(f"{where}: q = p^3 map is {classes[0]['regularity']}, rule "
                        f"says inner iff p = 1 mod 4")
    if d % 2 and (-1) ** record["l"] != refmath.legendre(PSI_AT_ONE[n], p):
        problems.append(f"{where}: (-1)^l = {(-1) ** record['l']} != "
                        f"chi_p(Psi_n(1) = {PSI_AT_ONE[n]})")
    if (d // e) % 2 == 0 and not all(inner):
        problems.append(f"{where}: d/e = {d // e} is even but a class is outer")
    for c in classes:
        if c["t"] is None:
            continue
        target = [(-s) % p for s in c["s"]] or [0]
        target[0] = (target[0] + 3) % p
        while target and target[-1] == 0:
            target.pop()
        if refmath.poly_mulmod(c["t"], c["t"], c["factor"], p) != target:
            problems.append(f"{where}: t^2 != 3 - s modulo the factor {c['factor']}")
    witnesses = json.loads(oracle_text)["witnesses"]
    if [w["verdict"] for w in witnesses] != [c["regularity"] for c in classes]:
        problems.append(f"{where}: oracle verdicts {[w['verdict'] for w in witnesses]} "
                        f"!= classify verdicts {[c['regularity'] for c in classes]}")
    plain = {key: value for key, value in record.items() if key != "meta"}
    if record_to_dict(record_from_json(classify_text)) != plain:
        problems.append(f"{where}: classify JSON does not round-trip")
    return problems
