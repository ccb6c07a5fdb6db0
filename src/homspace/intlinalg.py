"""Exact integer linear algebra: Smith normal forms and solution lattices.

Everything here runs on arbitrary-precision Python integers; there is no
floating point and no fixed-width fast path.  Conventions are pinned so that
serialized matrices compare bit-exactly:

* Smith normal form: ``U @ M @ V == D`` with ``U``, ``V`` unimodular, the
  diagonal of ``D`` nonnegative with each entry dividing the next, zeros
  trailing.  Pivots are chosen by smallest nonzero absolute value.
* Lattice bases are the rows of the row-style Hermite form: pivots
  positive, entries above a pivot reduced into ``[0, pivot)``, so equal
  lattices produce identical matrices whatever route computed them.

Solution lattices ``{x : A x == 0 mod orders}`` (``solution_lattice``) take
a modulus for every row: each order must be positive, and a zero order
raises.  The lattice then contains e*Z^s, e = lcm(orders), and its Hermite
rows come one unknown at a time, from the last, out of an echelon basis of
the span of the later columns in (Z/e)^n, kept in Howell form (Howell
1986): row j's pivot is the least multiple of column j in that span and
the rest of the row a reduced preimage.  Preimages run only over the
columns whose pivot exceeds 1, at most n*log2(e) of them, so an n x s
system costs O(s * (n log e)^2) steps besides the s^2 entries of its
output, and no entry exceeds e.  No Smith form is taken.  Exact kernels
(no modulus), Hermite forms of arbitrary rows and the solver of ``M x = b``
for one right-hand side have no query that reads them: they are test
oracles in ``tests/oracles.py``.

Each elimination carries its transform inside the rows it works on, as
``[A | I]`` (Cohen, GTM 138, Alg. 2.4.8).  When ``U`` is asked for, the
Smith loop's working rows are those of ``[M | U]``, so the row helpers
(``_add_row``, ``_combine_rows`` for the 2x2 extended-gcd step, and
``_clear_below``, which clears a column below its nonzero pivot) move ``U``
along with ``M``.  ``V`` is a list of rows of its own, and each column
operation is one loop over the rows of ``M`` and of ``V``.  A row of the
Howell basis carries its preimage appended the same way.  ``U`` and ``V``
are the whole decomposition, and each is built only when its caller asks
for it.  No ``U^-1`` is carried: a caller
whose relations R are square and nonsingular reads it as ``R V D^-1``,
since ``U R V == D`` (``abgroups.subgroup_from_generators``).

Empty matrices (zero rows or zero columns) are legal everywhere.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import chain
from math import lcm
from operator import index, mul


class IntMatrix:
    """Immutable integer matrix, row-major, arbitrary precision."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        rows, cols = index(rows), index(cols)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data = tuple(map(index, entries))
        if len(data) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(data)}"
            )
        self.rows = rows
        self.cols = cols
        self._entries = data

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        nrows = len(rows)
        if nrows == 0:
            return cls(0, 0 if cols is None else cols, ())
        ncols = len(rows[0]) if cols is None else cols
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(nrows, ncols, flat)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        ncols = len(columns)
        if ncols == 0:
            return cls(0 if rows is None else rows, 0, ())
        nrows = len(columns[0]) if rows is None else rows
        if any(len(c) != nrows for c in columns):
            raise ValueError("ragged columns")
        return cls(nrows, ncols, [x for row in zip(*columns) for x in row])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, (1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def diagonal(cls, values: Sequence[int]) -> "IntMatrix":
        n = len(values)
        return cls(n, n, (values[i] if i == j else 0 for i in range(n) for j in range(n)))

    def __getitem__(self, key: tuple) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self._entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range for {self.rows}x{self.cols}")
        return self._entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range for {self.rows}x{self.cols}")
        return self._entries[j :: self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols, self.rows, (self._entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows))
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        a, b = self._entries, other._entries
        n, m, p = self.rows, self.cols, other.cols
        out = []
        for i in range(n):
            arow = a[i * m : (i + 1) * m]
            for j in range(p):
                out.append(sum(arow[k] * b[k * p + j] for k in range(m)))
        return IntMatrix(n, p, out)

    def apply(self, vector: Sequence[int]) -> tuple:
        """Matrix-vector product, vector as a column."""
        if len(vector) != self.cols:
            raise ValueError(f"vector length {len(vector)} != {self.cols}")
        return tuple(sum(map(mul, self.row(i), vector)) for i in range(self.rows))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._entries))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}, {self.cols}, {list(self._entries)})"


class SnfResult(namedtuple("SnfResult", ("u", "d", "v"))):
    """Smith decomposition ``U @ M @ V == D`` with unimodular transforms."""

    __slots__ = ()

    def diagonal(self) -> tuple:
        n = min(self.d.rows, self.d.cols)
        return tuple(self.d[i, i] for i in range(n))

    def rank(self) -> int:
        return sum(1 for x in self.diagonal() if x != 0)


def _xgcd(a: int, b: int):
    """(g, s, t) with s*a + t*b == g == gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _find_pivot(a: list, t: int, rows: int, cols: int):
    best = None
    best_val = None
    for i in range(t, rows):
        ai = a[i]
        for j in range(t, cols):
            x = ai[j]
            if x != 0 and (best_val is None or abs(x) < best_val):
                best, best_val = (i, j), abs(x)
                if best_val == 1:
                    return best
    return best


def _add_row(a: list, dst: int, src: int, q: int):
    """row[dst] += q * row[src]"""
    a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]


def _combine_rows(a: list, t: int, i: int, col: int):
    """Unimodular 2x2 extended-gcd transform of rows (t, i) that puts
    gcd(a[t][col], a[i][col]) at (t, col) and 0 at (i, col)."""
    rt, ri = a[t], a[i]
    g, s, tt = _xgcd(rt[col], ri[col])
    p_g, x_g = rt[col] // g, ri[col] // g
    a[t] = [s * y + tt * z for y, z in zip(rt, ri)]
    a[i] = [-x_g * y + p_g * z for y, z in zip(rt, ri)]


def _clear_below(a: list, p: int, col: int):
    """Clear column ``col`` below row ``p``, leaving the gcd of the column
    at (p, col).  The pivot at (p, col) must be nonzero, as the Smith
    loop's always is.  A pivot that divides an entry subtracts a multiple
    of row p, and otherwise one ``_combine_rows`` step clears the entry."""
    for i in range(p + 1, len(a)):
        x = a[i][col]
        if x:
            pivot = a[p][col]
            if x % pivot == 0:
                _add_row(a, i, p, -(x // pivot))
            else:
                _combine_rows(a, p, i, col)


def _snf_transform(m: IntMatrix, want_u: bool, want_v: bool):
    """Core SNF loop; returns ``(U, D, V)``, each transform accumulated only
    on demand (None otherwise).

    Entries are cleared by single unimodular 2x2 (extended-gcd) transforms
    rather than repeated Euclidean passes: one transform per cleared entry
    keeps intermediate growth near the size of the matrix minors, where the
    step-by-step chain can blow entries up exponentially."""
    rows, cols = m.rows, m.cols
    # with want_u, the rows of [M | U], so that a row operation moves U
    # along with M; a column operation runs over these rows and V's, and
    # reads only M's first cols columns
    a = m.to_rows()
    if want_u:
        for i, r in enumerate(a):
            r.extend([0] * i + [1] + [0] * (rows - i - 1))
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)] if want_v else []

    def gcd_cols(t, j):
        p, x = a[t][t], a[t][j]
        g, s, tt = _xgcd(p, x)
        p_g, x_g = p // g, x // g
        for r in chain(a, v):
            y, z = r[t], r[j]
            r[t] = s * y + tt * z
            r[j] = -x_g * y + p_g * z

    t = 0
    limit = min(rows, cols)
    while t < limit:
        piv = _find_pivot(a, t, rows, cols)
        if piv is None:
            break
        i, j = piv
        a[t], a[i] = a[i], a[t]
        for r in chain(a, v):
            r[t], r[j] = r[j], r[t]
        while True:
            _clear_below(a, t, t)
            for j in range(t + 1, cols):
                x = a[t][j]
                if x:
                    if x % a[t][t] == 0:
                        q = -(x // a[t][t])
                        for r in chain(a, v):
                            r[j] += q * r[t]
                    else:
                        gcd_cols(t, j)
            if all(a[i][t] == 0 for i in range(t + 1, rows)) and all(
                a[t][j] == 0 for j in range(t + 1, cols)
            ):
                break
        # pivot must divide the whole remaining block, else fold the offending
        # row in and reduce again
        offender = None
        pivot = a[t][t]
        for i in range(t + 1, rows):
            ai = a[i]
            for j in range(t + 1, cols):
                if ai[j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _add_row(a, t, offender, 1)
            continue
        t += 1

    for i in range(limit):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]

    d = IntMatrix(rows, cols, [x for r in a for x in r[:cols]])
    um = IntMatrix(rows, rows, [x for r in a for x in r[cols:]]) if want_u else None
    vm = IntMatrix(cols, cols, [x for r in v for x in r]) if want_v else None
    return um, d, vm


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Diagonalize ``m`` as ``U @ m @ V == D`` with the divisibility chain."""
    u, d, v = _snf_transform(m, want_u=True, want_v=True)
    return SnfResult(u=u, d=d, v=v)


def _insert_howell(basis: list, v: list, e: int):
    """Add a vector of (Z/e)^n, given as ``v`` with its preimage appended,
    to the echelon basis of a span in (Z/e)^n.  ``basis[c]`` is None,
    standing for e*e_c, or a row with its pivot in column c and its own
    preimage appended, so each step below moves a preimage along with its
    row.  Returns (d, w): d the least positive multiple of the vector in
    the span before the call, and w what the pass leaves of ``v``, zero on
    the first n coordinates and, after them, d times the preimage minus a
    preimage of d times the vector in that span.

    Each column takes one step.  Where the pivot g divides the entry x, v
    drops a multiple of the row.  Where it does not, one unimodular 2x2
    gcd transform of (row, v) gives the new row, of pivot h = gcd(g, x),
    and the remainder (g/h)*v - (x/h)*row, and d takes the factor g/h.
    Where column c has no row, a*v becomes its row (a*x = h = gcd(x, e)
    mod e) and the remainder is (e/h)*v.  The basis keeps the Howell property (Howell 1986):
    (e/g)*row lies in the span of the rows after it, for every row of
    pivot g.  That makes d least, and the remainder carries it over:
    (e/h)*(new row) is a multiple of (e/g) times the remainder plus one of
    (e/g)*row, so no vector beyond the remainder needs inserting."""
    d = 1
    for c, row in enumerate(basis):
        x = v[c]
        if not x:
            continue
        if row is None:
            h, a, _ = _xgcd(x, e)
            basis[c] = [a * z % e for z in v]
            f = e // h
            d *= f
            v = [f * z % e for z in v]
            continue
        g = row[c]
        if x % g == 0:
            q = x // g
            v = [(z - q * r) % e for z, r in zip(v, row)]
            continue
        h, a, b = _xgcd(g, x)
        f, q = g // h, x // h
        basis[c] = [(a * r + b * z) % e for r, z in zip(row, v)]
        d *= f
        v = [(f * z - q * r) % e for r, z in zip(row, v)]
    return d, v


def solution_lattice(m: IntMatrix, orders: Sequence[int]) -> IntMatrix:
    """Hermite basis, one row per basis vector, of ``{x : m @ x == 0}`` with
    row i of the product read modulo ``orders[i]``; every order must be
    positive, so the lattice contains e*Z^cols, e their lcm.

    With b_j = ((e/o_i) * m[i][j] mod e)_i, pivot j is the least d_j > 0
    with d_j*b_j in the span V of b_(j+1), ..., b_(s-1) in (Z/e)^n, and the
    rest of row j a preimage of -d_j*b_j over those columns, reduced
    against the later rows.  So the unknowns go from last to first, each
    inserted into a Howell basis of V whose rows carry preimages over the
    columns k > j of pivot d_k > 1 (a reduced row is 0 wherever d_k == 1),
    and the work per unknown depends on n and on those columns, never on
    s.  b_j changes V only when d_j > 1."""
    if len(orders) != m.rows:
        raise ValueError(f"{len(orders)} orders for {m.rows} rows")
    if not all(o > 0 for o in orders):
        raise ValueError(f"solution lattices need positive orders, got {tuple(orders)}")
    n, s = m.rows, m.cols
    e = lcm(*orders)
    scale = [e // o for o in orders]
    basis = [None] * n
    cols, pivots, tails = [], [], []  # columns of pivot > 1, newest last
    out = [None] * s
    for j in range(s - 1, -1, -1):
        # give unknown j a preimage coordinate; it keeps it only if d > 1
        for slot in basis:
            if slot:
                slot.append(0)
        b = [c * x % e for c, x in zip(scale, m.column(j))]
        d, w = _insert_howell(basis, b + [0] * len(cols) + [1], e)
        if d == 1:
            for slot in basis:
                if slot:
                    slot.pop()
        # w[n:-1] is a preimage of -d*b_j; reduce it against the rows of
        # the earlier (rightmost) columns first
        y = w[n:-1]
        for i in range(len(y) - 1, -1, -1):
            t = y[i] // pivots[i]
            if t:
                tail = tails[i]
                for k in range(i + 1):
                    y[k] -= t * tail[k]
        row = [0] * s
        row[j] = d
        for c, z in zip(cols, y):
            row[c] = z
        out[j] = row
        if d > 1:
            cols.append(j)
            pivots.append(d)
            tails.append(y + [d])
    return IntMatrix.from_rows(out, cols=s)


def parse_matrix_literal(text: str) -> IntMatrix:
    """Parse the CLI matrix literal: rows split by ';', entries by ','."""
    text = text.strip()
    if not text:
        return IntMatrix(0, 0, ())
    rows = []
    for part in text.split(";"):
        entries = [e.strip() for e in part.split(",")]
        try:
            rows.append([int(e) for e in entries])
        except ValueError as exc:
            raise ValueError(f"bad matrix entry in {part!r}") from exc
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("rows have different lengths")
    return IntMatrix.from_rows(rows)


def format_matrix_literal(m: IntMatrix) -> str:
    return ";".join(",".join(str(x) for x in m.row(i)) for i in range(m.rows))
