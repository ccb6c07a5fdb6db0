"""Output checks that do not trust the code under test.

Every check uses the benchmark's own integer arithmetic (nothing from
homspace is imported here):

* closed forms where they are known (Brauer and Picard groups of the
  classical presets, Pic(G/H) = Z^r and group orders of torus models, the
  structure of weight tables and extension groups);
* for the finite semisimple_reports catalogue, the SHA-256 of the ``--json``
  stdout recorded once from the seed code (``golden.json``);
* ``snf`` by its defining properties, so that any correct Smith form with
  other (for instance smaller) transforms still passes.

A check returns a list of problems; an empty list means the output is
correct.  ``CheckUnavailable`` means the check itself cannot run, which makes
the whole benchmark run fail.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from math import lcm, prod

from workloads import TORUS_DENOMINATORS, center_orders

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
TORUS_EXPONENT = lcm(*TORUS_DENOMINATORS)


class CheckUnavailable(Exception):
    """An output check could not run (for example, no recorded digest)."""


def load_golden(path: str = GOLDEN_PATH) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)["digests"]
    except (OSError, ValueError, KeyError) as exc:
        raise CheckUnavailable(f"cannot read recorded digests from {path}: {exc}") from exc


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# integer arithmetic of our own


def xgcd(a: int, b: int):
    """(g, s, t) with s*a + t*b == g == gcd(a, b) >= 0."""
    r0, r1, s0, s1, t0, t1 = a, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (r0, s0, t0) if r0 >= 0 else (-r0, -s0, -t0)


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def det(rows) -> int:
    """Fraction-free Gaussian elimination with row swaps."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def subgroup_order(gens, moduli) -> int:
    """Order of the subgroup generated by ``gens`` in the product of Z/m.

    The lattice L spanned by the generators and the relations m_i e_i
    contains D Z^n for D the product of the moduli, so a triangular basis
    of L can be built with every entry reduced mod D; [Z^n : L] is the
    product of its pivots."""
    n = len(moduli)
    big = prod(moduli)
    rows = [[x % big for x in g] for g in gens]
    rows += [[m if i == j else 0 for j in range(n)] for i, m in enumerate(moduli)]
    index = 1
    for col in range(n):
        pivot = [0] * n
        pivot[col] = big
        rest = []
        for row in rows:
            a = row[col] % big
            if a:
                g, s, t = xgcd(pivot[col], a)
                p_g, a_g = pivot[col] // g, a // g
                new_pivot = [(s * x + t * y) % big for x, y in zip(pivot, row)]
                new_pivot[col] = g
                row = [(p_g * y - a_g * x) % big for x, y in zip(pivot, row)]
                pivot = new_pivot
            rest.append(row)
        index *= pivot[col]
        rows = rest
    return big // index


def parse_group(text: str):
    """'Z^2 x Z/2 x Z/6' -> (2, (2, 6)); '0' -> (0, ())."""
    if text == "0":
        return 0, ()
    free, torsion = 0, []
    for part in text.split(" x "):
        if part == "Z":
            free += 1
        elif part.startswith("Z^"):
            free += int(part[2:])
        elif part.startswith("Z/"):
            torsion.append(int(part[2:]))
        else:
            raise ValueError(f"unreadable group {text!r}")
    return free, tuple(torsion)


def parse_literal(text: str):
    if not text:
        return []
    return [[int(x) for x in row.split(",")] for row in text.split(";")]


# ---------------------------------------------------------------------------
# checks per query kind


def _expect(problems, label, got, want):
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def _closed_form_preset(name: str):
    """(brauer, picard_of_group) of the classical presets, as parsed groups."""
    kind, n = name[:-1].split("(")
    n = int(n)
    trivial = (0, ())
    if kind == "PGL":
        return (0, (n,)), (0, (n,))
    if kind == "SO":
        return ((0, ()), trivial) if n == 2 else ((0, (2,)), (0, (2,)))
    return trivial, trivial  # GL, SL, Sp, Spin: the derived group is simply connected


def check_preset(query, payload, problems):
    brauer, pic_h = _closed_form_preset(query.meta["preset"])
    _expect(problems, "Br(G/H)", parse_group(payload["invariants"]["brauer"]), brauer)
    _expect(problems, "Pic(H)", parse_group(payload["picard_of_group"]), pic_h)
    _expect(problems, "pi1(G/H)", payload["invariants"]["pi1_m"], "0")


def check_weights(query, payload, problems):
    p, k, gens = query.meta["p"], query.meta["k"], query.meta["gens"]
    order = subgroup_order(gens, [p] * k)
    for field in ("pi1", "brauer"):
        free, torsion = parse_group(payload[field])
        _expect(problems, f"{field} order", (free, prod(torsion)), (0, order))
    rows = payload["rows"]
    _expect(problems, "weight rows", len(rows), k * (p - 1))
    for row in rows:
        _expect(problems, f"trivial flag of {row['node']}", row["trivial"], not any(row["restriction"]))


def check_ext(query, payload, problems):
    factors = query.meta["factors"]
    values = [Fraction(v) for v in query.meta["char"]]
    group = " x ".join(f"Z/{d}" for d in factors)
    _expect(problems, "group", payload["group"], group)
    _expect(problems, "Ext^1(Gamma, Z)", payload["ext1_z"], group)
    _expect(problems, "character", payload["character"], query.meta["char"])
    order = lcm(1, *(v.denominator for v in values))
    _expect(problems, "character order", payload["character_order"], order)
    _expect(problems, "round trip", payload["round_trip_ok"], True)
    free, torsion = parse_group(payload["middle_group"])
    # the middle group is Z x ker(chi), and |ker chi| = |Gamma| / ord(chi)
    _expect(problems, "middle group", (free, prod(torsion)), (1, prod(factors) // order))


def torus_orders(meta):
    """Center invariant factors, |Gamma| and |torus image of Gamma|,
    computed from the spec alone."""
    n = TORUS_EXPONENT
    centers = center_orders([tuple(f) for f in meta["factors"]])
    r = meta["r"]
    torus = [[int(Fraction(v) * n) for v in t] for _, t in meta["gluing"]]
    gamma = subgroup_order([list(c) + t for (c, _), t in zip(meta["gluing"], torus)], list(centers) + [n] * r)
    image = subgroup_order(torus, [n] * r)
    return centers, gamma, image


def check_torus(query, payload, problems):
    meta = query.meta
    r = meta["r"]
    centers, gamma, image = torus_orders(meta)
    derived = gamma // image  # |Gamma cap Z(S_sc)| = |pi1 of the derived group|
    if query.command == "describe":
        _expect(problems, "torus rank", payload["torus_rank"], r)
        _expect(problems, "semisimple type", payload["semisimple_type"],
                " x ".join(f"{f}{n}" for f, n in meta["factors"]))
        _expect(problems, "center generator orders", payload["center_generator_orders"], list(centers))
        _expect(problems, "gluing order", payload["gluing_order"], gamma)
        free, torsion = parse_group(payload["gluing_group"])
        _expect(problems, "gluing group order", (free, prod(torsion)), (0, gamma))
        free, torsion = parse_group(payload["pi1"])
        _expect(problems, "pi1(H)", (free, prod(torsion)), (r, derived))
        _expect(problems, "pi1 of the derived group", parse_group(payload["pi1_derived"]), (0, torsion))
        return
    spec = payload["spec"]
    _expect(problems, "spec echo", (spec["semisimple"], spec["torus_rank"], spec["gluing"]),
            ([{"family": f, "rank": n} for f, n in meta["factors"]], r,
             [{"center": c, "torus": t} for c, t in meta["gluing"]]))
    inv = payload["invariants"]
    _expect(problems, "Pic(G/H)", parse_group(inv["pic_group"]), (r, ()))
    basis = inv["pic_lattice_basis"]
    _expect(problems, "Pic lattice shape", [len(row) for row in basis], [r] * r)
    _expect(problems, "[Z^r : X(H)]", abs(det(basis)), image)
    free, torsion = parse_group(inv["brauer"])
    _expect(problems, "Br(G/H)", (free, prod(torsion)), (0, derived))
    _expect(problems, "E_al and Tors H^3", (inv["e_al"], inv["tors_h3_m"]), (inv["brauer"], inv["brauer"]))
    _expect(problems, "pi1(G/H)", inv["pi1_m"], "0")
    _expect(problems, "pi2(G/H)", parse_group(inv["pi2_m"]), (r, torsion))
    _expect(problems, "H^2(G/H)", parse_group(inv["h2_m"]), (r, ()))
    _expect(problems, "Pic(H)", parse_group(payload["picard_of_group"]), (0, torsion))
    _expect(problems, "weight table", "weights" in payload, False)


def check_snf(query, payload, problems):
    m = query.meta["rows"]
    rows, cols = len(m), len(m[0])
    _expect(problems, "matrix echo", parse_literal(payload["matrix"]), m)
    u, d, v = (parse_literal(payload[key]) for key in ("u", "d", "v"))
    _expect(problems, "shapes", ([len(x) for x in u], [len(x) for x in d], [len(x) for x in v]),
            ([rows] * rows, [cols] * rows, [cols] * cols))
    if problems:
        return
    if matmul(matmul(u, m), v) != d:
        problems.append("U * M * V != D")
        return
    diag = [d[i][i] for i in range(min(rows, cols))]
    if any(d[i][j] for i in range(rows) for j in range(cols) if i != j):
        problems.append("D is not diagonal")
    if any(x < 0 for x in diag):
        problems.append("D has a negative entry")
    for a, b in zip(diag, diag[1:]):
        if (a == 0 and b != 0) or (a != 0 and b % a):
            problems.append(f"divisibility chain broken at {a}, {b}")
            break
    _expect(problems, "diagonal field", payload["diagonal"], diag)
    # U and V are unimodular.  For a nonsingular square M, det U * det V =
    # det D / det M, so |det D| == |det M| proves both are +-1 at once.
    det_m = det(m) if rows == cols else 0
    if det_m:
        if abs(prod(diag)) != abs(det_m):
            problems.append("det U * det V != +-1")
    else:
        for name, t in (("U", u), ("V", v)):
            if abs(det(t)) != 1:
                problems.append(f"{name} is not unimodular")


CHECKS = {
    "preset": check_preset,
    "weights": check_weights,
    "ext": check_ext,
    "torus": check_torus,
    "snf": check_snf,
}
DIGEST_CHECKED = ("preset", "weights", "ext")


def check_output(query, stdout: str, golden: dict) -> list:
    """Problems with one successful query's stdout (empty when correct)."""
    kind = query.meta["check"]
    problems = []
    if kind in DIGEST_CHECKED:
        recorded = golden.get(query.key)
        if recorded is None:
            raise CheckUnavailable(f"no recorded digest for {query.key!r}")
        if digest(stdout) != recorded:
            problems.append("stdout differs from the recorded seed output")
    try:
        payload = json.loads(stdout)
        CHECKS[kind](query, payload, problems)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems

