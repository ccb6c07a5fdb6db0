import random
import time
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

from homspace.intlinalg import (
    IntMatrix,
    _snf_transform,
    format_matrix_literal,
    parse_matrix_literal,
    smith_normal_form,
    solution_lattice,
)
from oracles import (
    _hermite_rows,
    det,
    hermite_mod_solution_lattice,
    inverse,
    is_zero_matrix,
    lattice_row_basis,
    snf_kernel,
    snf_solution_lattice,
    solve_integer,
    zero_matrix,
)


def hermite(m):
    """Row-style Hermite form of ``m``, zero rows kept."""
    return IntMatrix.from_rows(_hermite_rows(m.to_rows()), cols=m.cols)


def same_row_lattice(m, h):
    """True when the rows of ``m`` and of ``h`` span the same lattice: each
    row of one is an integer combination of the rows of the other, solved
    through the Smith form."""
    return all(solve_integer(m.transpose(), h.row(i)) is not None for i in range(h.rows)) and all(
        solve_integer(h.transpose(), m.row(i)) is not None for i in range(m.rows)
    )


def minor_gcd_factors(m):
    """Independent oracle: invariant factors from gcds of k x k minors."""

    def minor(rows, cols):
        sub = IntMatrix.from_rows([[m[i, j] for j in cols] for i in rows], cols=len(cols))
        return det(sub)

    factors = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                g = gcd(g, minor(rows, cols))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def random_matrix(rng, max_dim=6, bound=9):
    r = rng.randint(0, max_dim)
    c = rng.randint(0, max_dim)
    return IntMatrix(r, c, [rng.randint(-bound, bound) for _ in range(r * c)])


def assert_snf_contract(m, res):
    assert res.u @ m @ res.v == res.d
    assert abs(det(res.u)) == 1
    assert abs(det(res.v)) == 1
    diag = res.diagonal()
    for i in range(res.d.rows):
        for j in range(res.d.cols):
            if i != j:
                assert res.d[i, j] == 0
    seen_zero = False
    for i, x in enumerate(diag):
        assert x >= 0
        if x == 0:
            seen_zero = True
        else:
            assert not seen_zero, "zeros must trail"
        if i + 1 < len(diag) and x != 0 and diag[i + 1] != 0:
            assert diag[i + 1] % x == 0


class TestSmithNormalForm:
    def test_worked_example(self):
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        res = smith_normal_form(m)
        assert_snf_contract(m, res)
        # hand-checkable: gcd of entries 2, |det| = 8, so factors 2, 4
        assert res.diagonal() == (2, 4)
        assert minor_gcd_factors(m) == [2, 4]

    def test_identity(self):
        m = IntMatrix.identity(2)
        res = smith_normal_form(m)
        assert res.d == IntMatrix.identity(2)

    def test_one_by_one(self):
        res = smith_normal_form(IntMatrix.from_rows([[2]]))
        assert res.d == IntMatrix.from_rows([[2]])

    def test_empty_shapes(self):
        for r, c in [(0, 0), (0, 3), (3, 0)]:
            m = zero_matrix(r, c)
            res = smith_normal_form(m)
            assert res.d == m
            assert res.u == IntMatrix.identity(r)
            assert res.v == IntMatrix.identity(c)

    def test_matches_minor_oracle(self):
        rng = random.Random(20260809)
        for _ in range(120):
            m = random_matrix(rng, max_dim=5)
            res = smith_normal_form(m)
            assert_snf_contract(m, res)
            nonzero = [x for x in res.diagonal() if x != 0]
            assert nonzero == minor_gcd_factors(m)

    def test_diagonal_product_is_det(self):
        rng = random.Random(7)
        count = 0
        while count < 60:
            n = rng.randint(1, 5)
            m = IntMatrix(n, n, [rng.randint(-9, 9) for _ in range(n * n)])
            d = det(m)
            if d == 0:
                continue
            count += 1
            prod = 1
            for x in smith_normal_form(m).diagonal():
                prod *= x
            assert prod == abs(d)


class TestHermiteNormalForm:
    def test_worked_example(self):
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        h = hermite(m)
        assert same_row_lattice(m, h)
        assert h == IntMatrix.from_rows([[2, 0], [0, 4]])

    def test_zero_matrix(self):
        m = zero_matrix(2, 3)
        assert hermite(m) == m

    def test_already_hermite(self):
        m = IntMatrix.from_rows([[1, 5]])
        assert hermite(m) == m

    def test_shape_contract(self):
        rng = random.Random(99)
        for _ in range(150):
            m = random_matrix(rng)
            h = hermite(m)
            assert same_row_lattice(m, h)
            # echelon with positive pivots and reduced entries above
            last_pivot_col = -1
            for i in range(h.rows):
                row = h.row(i)
                nz = [j for j, x in enumerate(row) if x]
                if not nz:
                    assert all(not any(h.row(k)) for k in range(i, h.rows))
                    break
                p = nz[0]
                assert p > last_pivot_col
                last_pivot_col = p
                assert row[p] > 0
                for k in range(i):
                    assert 0 <= h[k, p] < row[p]

    def test_unique_under_row_ops(self):
        rng = random.Random(3)
        for _ in range(40):
            m = random_matrix(rng, max_dim=4)
            if m.rows == 0:
                continue
            rows = m.to_rows()
            for _ in range(6):
                i, k = rng.randrange(m.rows), rng.randrange(m.rows)
                if i != k:
                    q = rng.randint(-3, 3)
                    rows[i] = [a + q * b for a, b in zip(rows[i], rows[k])]
            m2 = IntMatrix.from_rows(rows, cols=m.cols)
            assert hermite(m) == hermite(m2)


class TestIntegerKernel:
    def test_rank_one_relation(self):
        k = snf_kernel(IntMatrix.from_rows([[1, 1]]))
        assert k.to_rows() == [[1], [-1]]

    def test_nonsingular_square(self):
        k = snf_kernel(IntMatrix.from_rows([[2, 1], [1, 1]]))
        assert k.cols == 0

    def test_saturation_example(self):
        # 2x + 4y = 0 forces x = 2t, y = -t; primitive generator (2, -1)
        k = snf_kernel(IntMatrix.from_rows([[2, 4]]))
        assert k.to_rows() == [[2], [-1]]

    def test_kernel_properties(self):
        rng = random.Random(41)
        for _ in range(120):
            m = random_matrix(rng, max_dim=5)
            k = snf_kernel(m)
            assert k.rows == m.cols
            if k.cols:
                assert is_zero_matrix(m @ k)
            # full kernel over Q: dimension must match cols - rank
            rank = smith_normal_form(m).rank()
            assert k.cols == m.cols - rank
            if k.cols:
                # primitive basis: Smith diagonal of the basis matrix is all ones
                assert set(smith_normal_form(k).diagonal()) == {1}


class TestSolveInteger:
    def test_divisible(self):
        assert solve_integer(IntMatrix.from_rows([[2]]), [4]) == (2,)

    def test_parity_obstruction(self):
        assert solve_integer(IntMatrix.from_rows([[2]]), [3]) is None

    def test_worked_example(self):
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        x = solve_integer(m, [2, 6])
        assert x is not None
        assert m.apply(x) == (2, 6)
        assert x == (1, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_integer(IntMatrix.from_rows([[2]]), [1, 2])

    def test_against_brute_force(self):
        rng = random.Random(5)
        for _ in range(80):
            r, c = rng.randint(1, 2), rng.randint(1, 2)
            m = IntMatrix(r, c, [rng.randint(-4, 4) for _ in range(r * c)])
            b = [rng.randint(-6, 6) for _ in range(r)]
            found = None
            bound = 10
            for x0 in range(-bound, bound + 1):
                if found:
                    break
                for x1 in range(-bound, bound + 1) if c == 2 else [0]:
                    x = (x0, x1)[:c]
                    if list(m.apply(x)) == b:
                        found = x
                        break
            got = solve_integer(m, b)
            if found is not None:
                assert got is not None
                assert list(m.apply(got)) == b
            elif got is not None:
                # solver may find solutions outside the brute-force box
                assert list(m.apply(got)) == b
                assert any(abs(v) > bound for v in got)


class TestEntryGrowth:
    def test_dense_inputs_terminate_with_tame_transforms(self):
        # chain elimination used to loop here while entries ran away past
        # thousands of digits; gcd transforms keep the whole run in
        # milliseconds with Bezout coefficients under ~900 digits observed
        rng = random.Random(1)
        bound = 10 ** 2000
        for _ in range(12):
            r, c = rng.randint(6, 10), rng.randint(6, 10)
            m = IntMatrix(r, c, [rng.randint(-99, 99) for _ in range(r * c)])
            res = smith_normal_form(m)
            assert res.u @ m @ res.v == res.d
            assert all(abs(res.u[i, j]) < bound for i in range(r) for j in range(r))
            assert all(abs(res.v[i, j]) < bound for i in range(c) for j in range(c))
            h = hermite(m)
            assert same_row_lattice(m, h)
            assert all(abs(h[i, j]) < bound for i in range(r) for j in range(c))


class TestHelpers:
    def test_lattice_row_basis_canonical(self):
        a = lattice_row_basis([[2, 0], [0, 3], [2, 3]], 2)
        b = lattice_row_basis([[2, 3], [-2, 0]], 2)
        assert a == b

    def test_matrix_literal_round_trip(self):
        m = parse_matrix_literal("2,4;6,8")
        assert m == IntMatrix.from_rows([[2, 4], [6, 8]])
        assert format_matrix_literal(m) == "2,4;6,8"
        assert parse_matrix_literal("").rows == 0

    def test_matrix_literal_errors(self):
        with pytest.raises(ValueError):
            parse_matrix_literal("1,2;3")
        with pytest.raises(ValueError):
            parse_matrix_literal("1,x")

    @pytest.mark.parametrize(
        "cols, method, index", [(2, "row", 2), (2, "row", -1), (2, "column", 2), (2, "column", -1), (0, "column", 0)]
    )
    def test_row_and_column_check_their_index(self, cols, method, index):
        # as m[i, j] does: no piece of another row, no count from the end
        m = IntMatrix(2, cols, range(1, 2 * cols + 1))
        with pytest.raises(IndexError, match=f"{method} {index} out of range for 2x{cols}"):
            getattr(m, method)(index)

    def test_dimensions_are_integers(self):
        # a float dimension was kept, and to_rows and the Smith form failed later
        for rows, cols in ((2.0, 2), (2, 2.0), (2.5, 2)):
            with pytest.raises(TypeError):
                IntMatrix(rows, cols, [1, 2, 3, 4])
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[1, 2], [3, 4]], cols=2.0)
        with pytest.raises(TypeError):
            IntMatrix.from_rows([], cols=2.0)
        with pytest.raises(ValueError):
            IntMatrix(-1, 0, [])

    def test_matmul_shapes(self):
        with pytest.raises(ValueError):
            IntMatrix.identity(2) @ IntMatrix.identity(3)

    def test_from_columns_rejects_ragged_columns(self):
        # every column's length is checked, also when no row is read
        for columns, rows in (([[1, 2], [3]], 0), ([[1, 2], [3]], None), ([[1, 2], [3, 4]], 1), ([[]], 1)):
            with pytest.raises(ValueError, match="ragged columns"):
                IntMatrix.from_columns(columns, rows=rows)
        assert IntMatrix.from_columns([[1, 2], [3, 4], [5, 6]]) == IntMatrix.from_rows([[1, 3, 5], [2, 4, 6]])
        assert IntMatrix.from_columns([(), ()], rows=0) == IntMatrix(0, 2, ())
        assert IntMatrix.from_columns([], rows=3) == IntMatrix(3, 0, ())


# Differential oracle: the library's routes against the former ones kept in
# tests/oracles.py and against sympy.  derandomize keeps tier-1 reproducible.
ORACLE = settings(derandomize=True, deadline=None, max_examples=200)
ORDERS = (1, 2, 3, 4, 6, 9, 12, 60)


@st.composite
def int_matrices(draw, max_dim=6, bound=20):
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    entries = draw(st.lists(st.integers(-bound, bound), min_size=r * c, max_size=r * c))
    return IntMatrix(r, c, entries)


@st.composite
def nonsingular_matrices(draw, max_dim=7, bound=99):
    """L @ W, L lower triangular with a nonzero diagonal and W upper unit
    triangular: a square integer matrix of determinant det(L) != 0.  With
    W = I it is shaped like a transposed Hermite basis."""
    n = draw(st.integers(0, max_dim))
    entry = st.integers(-bound, bound)
    diag = draw(st.lists(entry.filter(bool), min_size=n, max_size=n))
    low = draw(st.lists(entry, min_size=n * n, max_size=n * n))
    up = draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
    lmat = IntMatrix(n, n, (diag[i] if i == j else low[i * n + j] if j < i else 0 for i in range(n) for j in range(n)))
    wmat = IntMatrix(n, n, (1 if i == j else up[i * n + j] if j > i else 0 for i in range(n) for j in range(n)))
    return lmat @ wmat


@st.composite
def congruence_systems(draw):
    m = draw(int_matrices())
    orders = draw(st.lists(st.sampled_from(ORDERS), min_size=m.rows, max_size=m.rows))
    return m, tuple(orders)


WIDE_ORDERS = (1, 2, 3, 4, 6, 12, 60, 10007)


@st.composite
def wide_mod_systems(draw):
    """Up to 4 congruences in up to 48 unknowns, every order nonzero; the
    columns come from a small pool, so zero, repeated and dependent
    columns are common."""
    n = draw(st.integers(0, 4))
    s = draw(st.integers(0, 48))
    orders = draw(st.lists(st.sampled_from(WIDE_ORDERS), min_size=n, max_size=n))
    entry = st.one_of(st.integers(-12, 12), st.integers(0, 10**5))
    pool = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=s, max_size=s))
    return IntMatrix.from_columns([pool[p] for p in picks], rows=n), tuple(orders)


class TestDifferentialOracle:
    @ORACLE
    @given(congruence_systems())
    @example((IntMatrix(0, 0, ()), ()))
    @example((IntMatrix(0, 3, ()), ()))
    @example((IntMatrix.from_rows([[3, 5], [7, -2]]), (1, 1)))
    def test_solution_lattice_matches_snf_kernel_route(self, system):
        m, orders = system
        basis = solution_lattice(m, orders)
        assert basis == snf_solution_lattice(m, orders)
        assert basis.cols == m.cols
        for i in range(basis.rows):
            image = m.apply(basis.row(i))
            assert all(x % o == 0 for x, o in zip(image, orders))

    def test_zero_order_is_rejected(self):
        # a zero order leaves a row without a modulus: the library refuses
        # it, and the oracles' Smith-V route builds such lattices instead
        for m, orders in (
            (IntMatrix(2, 0, ()), (4, 0)),
            (IntMatrix.from_rows([[2, 4, 6]]), (0,)),
            (IntMatrix.from_rows([[2, 4, 6], [1, 1, 1]]), (8, 0)),
            (IntMatrix.from_rows([[1, 2], [3, 4]]), (4, 0)),
        ):
            with pytest.raises(ValueError, match="positive orders"):
                solution_lattice(m, orders)

    @ORACLE
    @given(int_matrices(max_dim=7, bound=99))
    def test_transforms_are_unimodular_whatever_is_asked(self, m):
        # U and V do not depend on which of them is built, and sympy's
        # inverse of each is integral
        u, d, v = _snf_transform(m, want_u=True, want_v=True)
        assert (u, d, None) == _snf_transform(m, want_u=True, want_v=False)
        assert (None, d, v) == _snf_transform(m, want_u=False, want_v=True)
        assert (None, d, None) == _snf_transform(m, want_u=False, want_v=False)
        uinv, vinv = inverse(u), inverse(v)
        assert u @ uinv == uinv @ u == IntMatrix.identity(m.rows)
        assert v @ vinv == vinv @ v == IntMatrix.identity(m.cols)

    @ORACLE
    @given(nonsingular_matrices())
    @example(IntMatrix(0, 0, ()))
    @example(IntMatrix.from_rows([[2, 0], [1, 6]]))
    @example(IntMatrix.from_rows([[12, 0, 0], [5, 1, 0], [7, 0, 12]]))
    def test_u_inverse_reads_as_r_v_over_d(self, r):
        # U R V = D, so column p of R V D^-1 is column p of U^-1, the read
        # that abgroups.subgroup_from_generators makes; U^-1 comes from
        # sympy here, not from the Smith loop
        u, d, v = _snf_transform(r, want_u=True, want_v=True)
        uinv = inverse(u)
        assert u @ uinv == uinv @ u == IntMatrix.identity(r.rows)
        rv = r @ v
        for p in range(r.rows):
            dp = d[p, p]
            assert dp > 0 and all(x % dp == 0 for x in rv.column(p))
            assert tuple(x // dp for x in rv.column(p)) == uinv.column(p)

    @ORACLE
    @given(int_matrices(max_dim=7, bound=99))
    def test_smith_diagonal_matches_sympy(self, m):
        entries = [x for i in range(m.rows) for x in m.row(i)]
        expected = invariant_factors(Matrix(m.rows, m.cols, entries), domain=ZZ)
        assert smith_normal_form(m).diagonal() == tuple(int(x) for x in expected)

    @ORACLE
    @given(wide_mod_systems())
    @example((IntMatrix(3, 0, ()), (4, 6, 10007)))
    @example((IntMatrix(0, 5, ()), ()))
    @example((IntMatrix.from_rows([[3, 5, 7, 1], [2, -4, 9, 8]]), (1, 1)))
    @example((IntMatrix.from_rows([[0, 3, 0, 2, 0], [0, 4, 0, 6, 0]]), (6, 12)))
    @example((IntMatrix.from_rows([[5, 7, 0, 1, 0], [3, 11, 0, 0, 1]]), (12, 12)))
    def test_wide_mod_systems_match_hermite_mod_route(self, system):
        m, orders = system
        basis = solution_lattice(m, orders)
        assert basis == hermite_mod_solution_lattice(m, orders)
        e = lcm(*orders)
        assert basis.rows == basis.cols == m.cols
        for j in range(basis.rows):
            d = basis[j, j]
            assert d > 0 and e % d == 0
            assert all(basis[j, k] == 0 for k in range(j))
            assert all(0 <= basis[i, j] < d for i in range(j))
            image = m.apply(basis.row(j))
            assert all(x % o == 0 for x, o in zip(image, orders))

    def test_mod_route_examples(self):
        # x0 + 2 x1 == 0 mod 4
        assert solution_lattice(IntMatrix.from_rows([[1, 2]]), (4,)) == IntMatrix.from_rows([[2, 1], [0, 2]])
        # every order 1: the whole of Z^s
        assert solution_lattice(IntMatrix.from_rows([[3, 5, 7]]), (1,)) == IntMatrix.identity(3)
        # the last two columns span (Z/12)^2 with unit echelon pivots, so
        # every earlier column has Hermite pivot 1 and a full tail
        m = IntMatrix.from_rows([[5, 7, 0, 1, 0], [3, 11, 0, 0, 1]])
        assert solution_lattice(m, (12, 12)) == IntMatrix.from_rows(
            [[1, 0, 0, 7, 9], [0, 1, 0, 5, 1], [0, 0, 1, 0, 0], [0, 0, 0, 12, 0], [0, 0, 0, 0, 12]]
        )

    def test_wide_mod_system_is_not_cubic(self):
        # the former Hermite pass over [B | I] took about 6 s here
        rng = random.Random(12)
        m = IntMatrix(2, 512, [rng.randrange(12) for _ in range(2 * 512)])
        start = time.perf_counter()
        basis = solution_lattice(m, (12, 12))
        assert time.perf_counter() - start < 1.0
        assert sum(basis[j, j] != 1 for j in range(512)) <= 2 * 3

    def test_larger_systems_against_snf_kernel_route(self):
        # beyond the hypothesis sizes, where the oracle still runs in
        # milliseconds: 6..9 congruences in 8..11 unknowns
        rng = random.Random(77)
        for _ in range(12):
            n, s = rng.randint(6, 9), rng.randint(8, 11)
            m = IntMatrix(n, s, [rng.randint(-9, 9) for _ in range(n * s)])
            orders = tuple(rng.choice((1, 2, 3, 4, 6, 12)) for _ in range(n))
            assert solution_lattice(m, orders) == snf_solution_lattice(m, orders)
