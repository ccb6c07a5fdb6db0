"""Seeded query streams for the three benchmark workloads.

A stream is one fixed *anchor* query (the same for every seed; it is the
query a cold interpreter answers for ``setup_s``) followed by an endless run
of *decks*.  A deck has a fixed composition of query classes, so every seed
exercises the same mix of cheap and expensive work; the seed decides the
order inside each deck and the concrete inputs of each class.  This keeps
latency quantiles comparable across seeds and commits while the inputs still
change with the seed.

Nothing here imports homspace: the program only ever sees the generated
argv, spec documents and matrix literals.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Iterator, Optional


@dataclass
class Query:
    """One CLI invocation.  ``spec`` is a group-spec JSON document that the
    runner writes to a file and passes as ``--spec``; ``meta`` carries what
    the output checks need to know about the input."""

    command: str
    args: tuple
    spec: Optional[str] = None
    meta: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Canonical text of the query, used to look up recorded digests."""
        text = " ".join((self.command,) + self.args)
        return text + (f" --spec {self.spec}" if self.spec is not None else "")

    def argv(self, spec_path: Optional[str]) -> list:
        argv = [self.command, *self.args]
        if self.spec is not None:
            argv += ["--spec", spec_path]
        return argv


def _spec_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# semisimple_reports: presets, weight tables of A1^k / A2^k quotients, ext

PRESET_KINDS = ("SL", "GL", "PGL", "SO", "Sp", "Spin")
# (n values, copies per deck): skewed toward small n
PRESET_LADDER = (((2, 3, 4, 5, 6, 8), 2), ((10, 12, 16, 20, 24, 32), 1), ((48, 64, 96, 128), 1))
PRESET_NS = tuple(n for ns, _ in PRESET_LADDER for n in ns)

# A1^k has center (Z/2)^k, A2^k has (Z/3)^k; quotients by subgroups of
# rank j in {1, ceil(k/2), k}.  Each (p, k, j) slot has a few fixed variants.
WEIGHT_FAMILIES = ((2, 8), (3, 5))  # (p, largest k)
WEIGHT_VARIANTS = 3
EXT_GROUPS = (
    (2,), (3,), (4,), (2, 2), (6,), (8,), (2, 4), (12,), (16,), (4, 4), (2, 2, 2, 2),
    (2, 2, 6), (32,), (6, 6), (64,), (2, 2, 16), (8, 8), (128,), (2, 4, 16), (256,),
    (16, 16), (4, 64), (2, 2, 2, 2, 2, 2, 2, 2),
)
EXT_VARIANTS = 4
CATALOGUE_SEED = "homspace-perfbench-catalogue-v1"


def preset_name(kind: str, n: int) -> str:
    if kind == "Sp" and n % 2:
        n += 1
    if kind == "Spin" and n < 3:
        n = 3
    return f"{kind}({n})"


def preset_query(kind: str, n: int) -> Query:
    name = preset_name(kind, n)
    return Query("invariants", ("--json", "--preset", name), meta={"check": "preset", "preset": name})


def _rank_mod_p(vectors, p: int) -> int:
    rows = [list(v) for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col] * inv
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def weight_slots():
    """(p, k, j) classes of the weights catalogue."""
    slots = []
    for p, kmax in WEIGHT_FAMILIES:
        for k in range(1, kmax + 1):
            for j in sorted({1, (k + 1) // 2, k}):
                slots.append((p, k, j))
    return slots


def weights_query(p: int, k: int, gens) -> Query:
    doc = {
        "semisimple": [{"family": "A", "rank": p - 1}] * k,
        "gluing": [{"center": list(g), "torus": []} for g in gens],
    }
    return Query(
        "weights", ("--json",), spec=_spec_text(doc),
        meta={"check": "weights", "p": p, "k": k, "gens": [list(g) for g in gens]},
    )


def ext_query(factors, values) -> Query:
    group = ",".join(str(d) for d in factors)
    char = ",".join(str(v) for v in values)
    return Query(
        "ext", ("--json", "--group", group, "--char", char),
        meta={"check": "ext", "factors": list(factors), "char": [str(v) for v in values]},
    )


def _catalogue():
    """Fixed variants of the weights and ext classes (independent of the run
    seed, so that every query has a recorded digest)."""
    rng = random.Random(CATALOGUE_SEED)
    weights = {}
    for p, k, j in weight_slots():
        variants = []
        while len(variants) < WEIGHT_VARIANTS:
            gens = [tuple(rng.randrange(p) for _ in range(k)) for _ in range(j)]
            if _rank_mod_p(gens, p) == j:
                variants.append(weights_query(p, k, gens))
        weights[(p, k, j)] = variants
    ext = {}
    for factors in EXT_GROUPS:
        ext[factors] = [
            ext_query(factors, [Fraction(rng.randrange(d), d) for d in factors]) for _ in range(EXT_VARIANTS)
        ]
    return weights, ext


WEIGHTS_CATALOGUE, EXT_CATALOGUE = _catalogue()


def semisimple_catalogue():
    """Every query the semisimple_reports workload can issue."""
    out = [preset_query(kind, n) for kind in PRESET_KINDS for n in PRESET_NS]
    for variants in WEIGHTS_CATALOGUE.values():
        out.extend(variants)
    for variants in EXT_CATALOGUE.values():
        out.extend(variants)
    return out


def semisimple_deck(rng: random.Random):
    deck = []
    for ns, copies in PRESET_LADDER:
        for kind in PRESET_KINDS:
            for n in ns:
                deck.extend(preset_query(kind, n) for _ in range(copies))
    for (p, k, j), variants in WEIGHTS_CATALOGUE.items():
        for _ in range(2 if k <= 4 else 1):
            deck.append(rng.choice(variants))
    for variants in EXT_CATALOGUE.values():
        deck.append(rng.choice(variants))
    rng.shuffle(deck)
    return deck


# ---------------------------------------------------------------------------
# torus_reports: unique wide-torus models over products with a large center

TORUS_PRODUCTS = (
    (("A", 5), ("D", 6), ("E", 7)),
    (("A", 3), ("A", 3), ("D", 4)),
    (("A", 7), ("D", 5)),
    (("A", 2), ("A", 2), ("A", 2), ("E", 6)),
)
TORUS_RANKS = tuple(range(4, 29, 2))
TORUS_DENOMINATORS = (2, 3, 4, 6)


def _center_cyclics(family: str, rank: int) -> tuple:
    """Center of the simply connected simple group, as cyclic orders."""
    if family == "A":
        return (rank + 1,)
    if family in ("B", "C"):
        return (2,)
    if family == "D":
        return (4,) if rank % 2 else (2, 2)
    return {6: (3,), 7: (2,)}.get(rank, ()) if family == "E" else ()


def invariant_factors(cyclic_orders) -> tuple:
    """Invariant factors d1 | d2 | ... of a direct sum of cyclic groups,
    through the prime-power decomposition."""
    powers = {}
    for n in cyclic_orders:
        p = 2
        while n > 1:
            if p * p > n:
                p = n
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    length = max((len(v) for v in powers.values()), default=0)
    factors = [1] * length
    for qs in powers.values():
        qs.sort()
        for i, q in enumerate(qs):
            factors[length - len(qs) + i] *= q
    return tuple(factors)


def center_orders(factors) -> tuple:
    return invariant_factors([c for f, r in factors for c in _center_cyclics(f, r)])


def torus_query(command: str, factors, r: int, gluing) -> Query:
    """``gluing`` lists (center coefficients, torus fractions) pairs."""
    doc = {
        "semisimple": [{"family": f, "rank": n} for f, n in factors],
        "torus_rank": r,
        "gluing": [{"center": list(c), "torus": [str(v) for v in t]} for c, t in gluing],
    }
    return Query(
        command, ("--json",), spec=_spec_text(doc),
        meta={"check": "torus", "factors": [list(f) for f in factors], "r": r,
              "gluing": [(list(c), [str(v) for v in t]) for c, t in gluing]},
    )


def torus_anchor() -> Query:
    factors = TORUS_PRODUCTS[0]
    rng = random.Random(CATALOGUE_SEED + ":torus-anchor")
    return torus_query("invariants", factors, 12, _random_gluing(rng, factors, 12, 3))


def _random_gluing(rng, factors, r, g):
    orders = center_orders(factors)
    gluing = []
    for _ in range(g):
        center = [rng.randrange(d) for d in orders]
        torus = []
        for _ in range(r):
            den = rng.choice(TORUS_DENOMINATORS)
            torus.append(Fraction(rng.randrange(den), den))
        gluing.append((center, torus))
    return gluing


def _max_gluing(r: int) -> int:
    """Gluing generators allowed at torus rank r.  With more generators at
    larger r, a few percent of the models fall into the Hermite-form blow-up
    of span_in_cyclics and take from seconds to minutes, longer than a run
    may last; ``torus_probe`` shows that region instead."""
    return 4 if r <= 16 else 3 if r <= 20 else 2


def torus_probe(seed: int):
    """A model in the blow-up region (about 5 s on the seed code); the same
    for every seed."""
    factors = TORUS_PRODUCTS[2]
    rng = random.Random("torus-probe:10")
    return [torus_query("describe", factors, 22, _random_gluing(rng, factors, 22, 4))]


def torus_deck(rng: random.Random, seen: set):
    deck = []
    slot = 0
    for factors in TORUS_PRODUCTS:
        for r in TORUS_RANKS:
            command = "invariants" if slot % 2 == 0 else "describe"
            g = 2 + slot % (_max_gluing(r) - 1)
            while True:
                q = torus_query(command, factors, r, _random_gluing(rng, factors, r, g))
                if q.spec not in seen:
                    seen.add(q.spec)
                    break
            deck.append(q)
            slot += 1
    rng.shuffle(deck)
    return deck


# ---------------------------------------------------------------------------
# snf_matrices: random matrices with entries in [-9, 9]

SNF_SIZES = tuple(range(8, 13))
SNF_KINDS = ("square", "wide", "deficient")
SNF_COPIES = 2
SNF_PROBE_SIZES = (20, 22, 24)
SNF_PROBE_COPIES = 3


def random_matrix(rng: random.Random, kind: str, n: int):
    if kind == "square":
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    if kind == "wide":
        return [[rng.randint(-9, 9) for _ in range(n + 4)] for _ in range(n)]
    # rank deficient: three rows repeat other rows up to sign
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 3)]
    for _ in range(3):
        src = rng.choice(rows)
        sign = rng.choice((1, -1))
        rows.insert(rng.randrange(len(rows) + 1), [sign * x for x in src])
    return rows


def snf_query(rows) -> Query:
    literal = ";".join(",".join(str(x) for x in row) for row in rows)
    return Query("snf", ("--json", f"--matrix={literal}"), meta={"check": "snf", "rows": rows})


def snf_deck(rng: random.Random):
    deck = [snf_query(random_matrix(rng, kind, n)) for kind, n in product(SNF_KINDS, SNF_SIZES)
            for _ in range(SNF_COPIES)]
    rng.shuffle(deck)
    return deck


def snf_probe(seed: int):
    """Squares of the sizes where Smith transforms often outgrow Python's
    int-to-str digit limit."""
    rng = random.Random(f"snf_probe:{seed}")
    return [snf_query(random_matrix(rng, "square", n)) for n in SNF_PROBE_SIZES for _ in range(SNF_PROBE_COPIES)]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    anchor: Query
    # fixed, so that tails compare across commits; the highest of p90/p95/p99
    # whose run-to-run spread stayed well inside the bound
    tail_percentile: float
    trace_decks: int  # decks per traced pass, a fixed amount of work
    probe: Optional[Callable] = None  # seed -> limit-probe queries, run after the timed ones


WORKLOADS = {
    "semisimple_reports": Workload(preset_query("PGL", 8), 90.0, 1),
    "torus_reports": Workload(torus_anchor(), 95.0, 2, torus_probe),
    "snf_matrices": Workload(
        snf_query(random_matrix(random.Random(CATALOGUE_SEED + ":snf-anchor"), "square", 10)), 95.0, 10, snf_probe
    ),
}


def decks(workload: str, seed: int) -> Iterator[list]:
    """Endless sequence of decks for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    seen = {WORKLOADS[workload].anchor.spec}
    while True:
        if workload == "semisimple_reports":
            yield semisimple_deck(rng)
        elif workload == "torus_reports":
            yield torus_deck(rng, seen)
        else:
            yield snf_deck(rng)
