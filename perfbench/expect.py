"""Expected CLI outputs, computed without importing foursq.

Sequences come from exact powers of 2+sqrt(3); every square root is taken
with math.isqrt.  The renderers reproduce the CLI's documented output bytes
(JSON with indent 2, CSV, aligned table), so an operation is checked by
comparing the sha256 of its stdout with the sha256 of the rendering here.
"""

import csv
import hashlib
import io
import json
import math
import sys
from pathlib import Path

# Expected outputs hold integers far beyond CPython's default 4300-digit
# str limit; this process never runs the program, so lifting it is safe.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

CSV_COLUMNS = ["n", "variant", "a", "r", "b", "c", "s", "admissible"]
REFERENCE = Path(__file__).with_name("census_reference.json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def square_root(v: int):
    if v < 0:
        return None
    r = math.isqrt(v)
    return r if r * r == v else None


# ---- sequences -------------------------------------------------------------

def conic(n: int):
    """(x, y) = (P(n+1), P(n)) from (2+sqrt(3))^|n| = u + v*sqrt(3)."""
    u, v = 1, 0
    bu, bv = 2, 1
    m = abs(n)
    while m:
        if m & 1:
            u, v = u * bu + 3 * v * bv, u * bv + v * bu
        bu, bv = bu * bu + 3 * bv * bv, 2 * bu * bv
        m >>= 1
    y = v if n >= 0 else -v
    return u + 2 * y, y


def seq_value(name: str, n: int) -> int:
    x, y = conic(n)
    if name == "P":
        return y
    if name == "A":
        return x + 2 * y
    return (5 * x - 3 * y - 1) // 2  # R


def seq_range(name: str, lo: int, hi: int) -> list:
    prev, cur = seq_value(name, lo - 1), seq_value(name, lo)
    add = 1 if name == "R" else 0
    out = [cur]
    for _ in range(hi - lo):
        prev, cur = cur, 4 * cur - prev + add
        out.append(cur)
    return out


# ---- families --------------------------------------------------------------

def family_entries(n: int, variant: str):
    """(a, r, b, c) of family member n, from the sequence recurrences:
    a = A(n)^2 + 4, r = A(n)^2 R(n) + A(n+1) - 2 (main) or
    A(n)^2 R(n-1) - A(n-1) - 2 (companion), b = (r^2-1)/a, c = a+b+2r."""
    x, y = conic(n)
    A = x + 2 * y
    a = A * A + 4
    if variant == "main":
        r = A * A * (5 * x - 3 * y - 1) // 2 + (6 * x - y) - 2
    else:
        r = A * A * (3 * x - 7 * y - 1) // 2 - (9 * y - 2 * x) - 2
    b, rem = divmod(r * r - 1, a)
    if rem:
        raise ArithmeticError(f"{variant} {n}: a does not divide r^2-1")
    return a, r, b, a + b + 2 * r


def family(n: int, variant: str) -> dict:
    """Record of family member n; keys match the CLI's JSON record."""
    a, r, b, c = family_entries(n, variant)
    s = square_root(a * b * c + 1)
    if variant == "main" and s is None:
        raise ArithmeticError(f"main {n}: abc+1 is not a square")
    return {"n": n, "variant": variant, "a": a, "r": r, "b": b, "c": c, "s": s,
            "admissible": (a > 1 and b > 1 and c > 1
                           and a != b and a != c and b != c)}


def _record_json(f: dict) -> dict:
    s = f["s"]
    return {
        "n": str(f["n"]), "variant": f["variant"],
        "a": str(f["a"]), "r": str(f["r"]), "b": str(f["b"]), "c": str(f["c"]),
        "s": None if s is None else str(s),
        "admissible": f["admissible"],
        "certificate": None if s is None else {
            "ab": str(abs(f["r"])), "ac": str(abs(f["a"] + f["r"])),
            "bc": str(abs(f["b"] + f["r"])), "abc": str(s),
        },
    }


def _document(command: str, payload: dict) -> str:
    doc = {"schema_version": "1", "command": command, "payload": payload}
    return json.dumps(doc, indent=2) + "\n"


def render_gen(lo: int, hi: int, variant: str, fmt: str) -> str:
    variants = ["main", "companion"] if variant == "both" else [variant]
    records = [_record_json(family(n, v))
               for n in range(lo, hi + 1) for v in variants]
    if fmt == "json":
        return _document("gen", {"records": records})
    rows = [["" if rec[col] is None else str(rec[col]) for col in CSV_COLUMNS]
            for rec in records]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
        return buf.getvalue()
    widths = [max(len(CSV_COLUMNS[i]), *(len(r[i]) for r in rows))
              for i in range(len(CSV_COLUMNS))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(CSV_COLUMNS, widths))]
    lines += ["  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip()
              for r in rows]
    return "\n".join(lines) + "\n"


def verify_outcome(a: int, b: int, c: int):
    """(roots, None, None) on success, else (None, failing name, value)."""
    roots = []
    for name, v in (("ab", a * b + 1), ("ac", a * c + 1),
                    ("bc", b * c + 1), ("abc", a * b * c + 1)):
        root = square_root(v)
        if root is None:
            return None, name, v
        roots.append(root)
    return roots, None, None


def render_verify(a: int, b: int, c: int, fmt: str):
    """(expected exit code, expected stdout)."""
    roots, failure, value = verify_outcome(a, b, c)
    if fmt == "json":
        text = _document("verify", {
            "a": str(a), "b": str(b), "c": str(c),
            "ok": roots is not None,
            "certificate": None if roots is None else dict(
                zip(("ab", "ac", "bc", "abc"), map(str, roots))),
            "first_failure": failure,
            "failing_value": None if value is None else str(value),
        })
    elif roots is not None:
        text = (f"ok ({a},{b},{c}): roots ab={roots[0]} ac={roots[1]} "
                f"bc={roots[2]} abc={roots[3]}\n")
    else:
        text = f"fail ({a},{b},{c}): {failure}+1={value} not square\n"
    return (0 if roots is not None else 1), text


def render_seq(name: str, lo: int, hi: int) -> str:
    return " ".join(str(v) for v in seq_range(name.upper(), lo, hi)) + "\n"


# ---- checks on outputs that are not rendered -------------------------------

def census_reference() -> dict:
    """The reference census: its bound and triples (a, b, c), each triple
    re-verified with isqrt."""
    doc = json.loads(REFERENCE.read_text())
    doc["triples"] = [tuple(t) for t in doc["triples"]]
    for a, b, c in doc["triples"]:
        if verify_outcome(a, b, c)[0] is None:
            raise ValueError(f"reference triple {(a, b, c)} is not a triple")
    return doc


def census_problem(stdout: str, bound: int, reference: dict):
    """None if `search --max bound --format json` output is right, else why.

    The `stats` counters are ignored: algorithm changes legitimately move
    them.  Triples must equal the reference list up to `bound`, and every
    record must carry the isqrt roots as its certificate.
    """
    if bound > reference["bound"]:
        return f"bound {bound} is beyond the reference list"
    try:
        payload = json.loads(stdout)["payload"]
    except (ValueError, KeyError) as exc:
        return f"unparseable output: {exc}"
    want = [t for t in reference["triples"] if t[2] <= bound]
    got = [(int(r["a"]), int(r["b"]), int(r["c"])) for r in payload["triples"]]
    if got != want or payload["bound"] != bound or payload["count"] != len(want):
        return f"triples differ at bound {bound}: got {got}"
    for rec, (a, b, c) in zip(payload["triples"], want):
        roots = [str(v) for v in verify_outcome(a, b, c)[0]]
        cert = rec["certificate"]
        if ([cert["ab"], cert["ac"], cert["bc"], cert["abc"]] != roots
                or rec["r"] != roots[0] or rec["s"] != roots[3]
                or rec["n"] is not None or rec["variant"] != "external"
                or rec["admissible"] is not True):
            return f"record for {(a, b, c)} is wrong: {rec}"
    return None


def prove_problem(stdout: str, fmt: str):
    """None if every identity the prover reports passed, else why."""
    if fmt == "json":
        try:
            payload = json.loads(stdout)["payload"]
        except (ValueError, KeyError) as exc:
            return f"unparseable output: {exc}"
        if payload["core_ok"] is not True or not all(
                it["passed"] for it in payload["identities"]):
            return "an identity failed"
        return None
    lines = stdout.splitlines()
    if not lines or lines[-1] != "core identities: 8/8 pass" or any(
            " FAIL " in line for line in lines):
        return "an identity failed"
    return None
