from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    congruence_by_fractions,
    inner_by_fractions,
    matmul_by_fractions,
    reformulated_rows_by_fractions,
)
from weaksdp import (
    Matrix,
    SymBuilder,
    SymMatrix,
    congruence,
    congruences,
    inner,
    inner_general,
    inners,
    inverse,
    random_unimodular,
    rational,
)

small_ints = st.integers(-30, 30)
small_fractions = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def sym(rows):
    return SymMatrix.from_rows(rows)


def entry_lists(size):
    """`size` entries, either all integers or with mixed denominators."""
    return st.sampled_from([small_ints, small_fractions]).flatmap(
        lambda entries: st.lists(entries, min_size=size, max_size=size)
    )


@st.composite
def kernel_operands(draw):
    """A product pair of shapes (n, k) x (k, m), plus two symmetric matrices
    and a square transform of one order; every dimension may be 0."""
    n, k, m, order = (draw(st.integers(0, 4)) for _ in range(4))
    a = Matrix(n, k, tuple(Fraction(v) for v in draw(entry_lists(n * k))))
    b = Matrix(k, m, tuple(Fraction(v) for v in draw(entry_lists(k * m))))
    half = order * (order + 1) // 2
    x = SymMatrix(order, tuple(Fraction(v) for v in draw(entry_lists(half))))
    y = SymMatrix(order, tuple(Fraction(v) for v in draw(entry_lists(half))))
    t = Matrix(order, order, tuple(Fraction(v) for v in draw(entry_lists(order * order))))
    return a, b, x, y, t


def sym_matrices(order, count):
    half = order * (order + 1) // 2
    return st.lists(entry_lists(half), min_size=count, max_size=count).map(
        lambda uppers: tuple(SymMatrix(order, tuple(Fraction(v) for v in u)) for u in uppers)
    )


@st.composite
def combination_operands(draw):
    """k symmetric matrices of one order, an m x k coefficient matrix G in
    which some rows may be all zero, and a square transform T; m, k and the
    order each 0-4."""
    order, k, m = (draw(st.integers(0, 4)) for _ in range(3))
    mats = draw(sym_matrices(order, k))
    coeffs = draw(entry_lists(m * k))
    zero_rows = draw(st.sets(st.integers(0, 3)))
    rows = [[0] * k if r in zero_rows else coeffs[r * k : (r + 1) * k] for r in range(m)]
    g = Matrix(m, k, tuple(Fraction(v) for row in rows for v in row))
    t = Matrix(order, order, tuple(Fraction(v) for v in draw(entry_lists(order * order))))
    return mats, g, t


class TestRational:
    @given(st.integers(), st.integers(min_value=1), st.integers(), st.integers(min_value=1))
    def test_addition_matches_bigint_oracle(self, a, b, c, d):
        # cross-multiplication with explicit gcd reduction, independent of Fraction
        got = Fraction(a, b) + Fraction(c, d)
        num, den = a * d + c * b, b * d
        g = gcd(num, den)
        if g:
            num, den = num // g, den // g
        assert (got.numerator, got.denominator) == (num, den)

    def test_lowest_terms_and_positive_denominator(self):
        q = Fraction(6, -4)
        assert q.numerator == -3 and q.denominator == 2
        assert rational("-6/4") == q

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            rational(0.5)

    def test_bools_rejected(self):
        with pytest.raises(TypeError):
            rational(True)

    @pytest.mark.parametrize("text", ["1/0", "1e100000", "2.0", " 2_0 ", "+1", "1/-2", "\u0663", "7\n"])
    def test_strings_outside_the_grammar_rejected(self, text):
        with pytest.raises(ValueError):
            rational(text)

    @pytest.mark.parametrize("text, value", [("-0", 0), ("12", 12), ("-3/6", Fraction(-1, 2)),
                                             ("1/02", Fraction(1, 2))])
    def test_strings_in_the_grammar_accepted(self, text, value):
        assert rational(text) == value


class TestInner:
    def test_offdiagonal_probe_vanishes(self):
        a1 = sym([[1, 0], [0, 0]])
        for x22 in (0, 5, Fraction(-7, 3)):
            x = sym([[0, 1], [1, x22]])
            assert inner(a1, x) == 0

    def test_identity_gives_order(self):
        for n in (1, 2, 5):
            assert inner(SymMatrix.identity(n), SymMatrix.identity(n)) == n

    def test_swap_pair_doubles(self):
        a2 = sym([[0, 1], [1, 0]])
        x2 = sym([[0, 1], [1, 0]])
        assert inner(a2, x2) == 2

    def test_order_mismatch_raises(self):
        with pytest.raises(ValueError):
            inner(SymMatrix.identity(2), SymMatrix.identity(3))

    @given(st.lists(small_fractions, min_size=6, max_size=6),
           st.lists(small_fractions, min_size=6, max_size=6))
    def test_symmetry(self, ua, ub):
        a = SymMatrix(3, tuple(ua))
        b = SymMatrix(3, tuple(ub))
        assert inner(a, b) == inner(b, a)


class TestCongruence:
    def test_identity_transform(self):
        a = sym([[2, 1], [1, -5]])
        assert congruence(a, Matrix.identity(2)) == a

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            congruence(SymMatrix.identity(2), Matrix.identity(3))

    @given(st.lists(small_ints, min_size=6, max_size=6), st.integers(0, 2**32), st.integers(2, 12))
    @settings(max_examples=60)
    def test_roundtrip_through_exact_inverse(self, upper, seed, budget):
        a = SymMatrix(3, tuple(Fraction(v) for v in upper))
        t = random_unimodular(3, seed, budget, 3)
        assert congruence(congruence(a, t), inverse(t)) == a

    @given(st.lists(small_ints, min_size=6, max_size=6),
           st.lists(small_ints, min_size=6, max_size=6),
           st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_adjoint_identity(self, ua, ux, seed):
        # T^T A T . X == A . T X T^T, exactly
        a = SymMatrix(3, tuple(Fraction(v) for v in ua))
        x = SymMatrix(3, tuple(Fraction(v) for v in ux))
        t = random_unimodular(3, seed, 8, 2)
        assert inner(congruence(a, t), x) == inner(a, congruence(x, t.transpose()))


class TestCongruences:
    @given(combination_operands())
    @settings(max_examples=150)
    def test_rows_match_fraction_reference(self, operands):
        mats, g, t = operands
        rows = list(congruences(mats, g, t))
        assert rows == reformulated_rows_by_fractions(mats, g, t)
        assert all(type(v) is Fraction for row in rows for line in row.to_rows() for v in line)

    @given(st.integers(0, 4).flatmap(lambda order: st.integers(0, 4).flatmap(
        lambda k: st.tuples(sym_matrices(order, k), entry_lists(k)))))
    @settings(max_examples=100)
    def test_one_coefficient_row_with_identity_transform(self, operands):
        mats, coeffs = operands
        order = mats[0].n if mats else 0
        g = Matrix(1, len(mats), tuple(Fraction(v) for v in coeffs))
        t = Matrix.identity(order)
        (row,) = congruences(mats, g, t)
        assert [row] == reformulated_rows_by_fractions(mats, g, t)

    def test_zero_row_and_no_rows(self):
        mats = (sym([[1, 2], [2, 3]]), sym([[Fraction(1, 2), 0], [0, 5]]))
        t = Matrix.from_rows([[1, 1], [0, 1]])
        assert list(congruences(mats, Matrix.zeros(1, 2), t)) == [SymMatrix.zeros(2)]
        assert list(congruences(mats, Matrix.zeros(0, 2), t)) == []

    def test_rows_are_yielded_lazily(self):
        mats = (sym([[1, 0], [0, 1]]),)
        rows = congruences(mats, Matrix.from_rows([[1], [2]]), Matrix.identity(2))
        assert iter(rows) is rows
        assert next(rows) == sym([[1, 0], [0, 1]])
        assert next(rows) == sym([[2, 0], [0, 2]])

    def test_shape_mismatches_raise(self):
        mats = (SymMatrix.identity(2),)
        with pytest.raises(ValueError):
            list(congruences(mats, Matrix.identity(1), Matrix.identity(3)))
        with pytest.raises(ValueError):
            list(congruences(mats, Matrix.identity(1), Matrix.zeros(2, 3)))
        with pytest.raises(ValueError):
            list(congruences(mats, Matrix.zeros(1, 2), Matrix.identity(2)))


class TestInners:
    @given(st.integers(0, 4).flatmap(lambda order: st.integers(0, 4).flatmap(
        lambda k: st.tuples(sym_matrices(order, k), sym_matrices(order, 1)))))
    @settings(max_examples=100)
    def test_match_fraction_loop(self, operands):
        mats, (x,) = operands
        products = inners(mats, x)
        assert products == tuple(inner_by_fractions(mat, x) for mat in mats)
        assert all(type(v) is Fraction for v in products)

    def test_order_mismatch_raises(self):
        with pytest.raises(ValueError):
            inners((SymMatrix.identity(2), SymMatrix.identity(3)), SymMatrix.identity(2))


class TestMatrixBasics:
    def test_from_rows_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            sym([[0, 1], [2, 0]])

    def test_one_based_access(self):
        m = Matrix.from_rows([[1, 2], [3, 4]])
        assert m.at(1, 2) == 2 and m.at(2, 1) == 3
        with pytest.raises(IndexError):
            m.at(0, 1)

    @given(kernel_operands())
    @settings(max_examples=150)
    def test_matmul_int_and_fraction_paths_agree(self, operands):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        b = Matrix.from_rows([[5, 6], [7, 8]])
        c = Matrix.from_rows([[Fraction(1, 2), 2], [3, 4]])
        assert (a @ b).to_rows() == [[19, 22], [43, 50]]
        assert (c @ b).at(1, 1) == Fraction(5, 2) + 14
        # the integer-numerator kernels against plain Fraction loops
        a, b, x, y, t = operands
        product = a @ b
        assert product == matmul_by_fractions(a, b)
        assert all(type(v) is Fraction for row in product.to_rows() for v in row)
        assert inner(x, y) == inner_by_fractions(x, y)
        assert type(inner(x, y)) is Fraction
        assert congruence(x, t) == congruence_by_fractions(x, t)
        # mul_vec is one column of a product, inner_general a 1 x k by k x 1 product
        columns = [tuple(b.at(t + 1, j + 1) for t in range(b.rows)) for j in range(b.cols)]
        want = matmul_by_fractions(a, b)
        for j, column in enumerate(columns):
            assert a.mul_vec(column) == tuple(want.at(i + 1, j + 1) for i in range(a.rows))
        assert inner_general(x.to_matrix(), y.to_matrix()) == inner_by_fractions(x, y)
        gram = matmul_by_fractions(a.transpose(), a)
        assert inner_general(a, a) == sum((gram.at(i, i) for i in range(1, a.cols + 1)), Fraction(0))
        assert type(inner_general(a, a)) is Fraction

    def test_inner_general_is_trace_of_product(self):
        m = Matrix.from_rows([[1, 2, 0], [0, 1, -1]])
        y = Matrix.from_rows([[2, 0, 1], [1, 1, 1]])
        trace = sum((m.transpose() @ y).at(i, i) for i in (1, 2, 3))
        assert inner_general(m, y) == trace

    def test_unit_matrix(self):
        e = SymMatrix.unit(3, 1, 3)
        assert e.at(1, 3) == 1 and e.at(3, 1) == 1 and e.at(1, 1) == 0

    def test_builder_inner_matches_frozen(self):
        b1 = SymBuilder(3)
        b1.set(1, 2, 3)
        b1.set(3, 3, Fraction(1, 2))
        b2 = SymBuilder(3)
        b2.set(1, 2, -1)
        b2.set(3, 3, 4)
        assert b1.inner(b2) == inner(b1.freeze(), b2.freeze())

    def test_principal_submatrix(self):
        a = sym([[1, 2, 3], [2, 4, 5], [3, 5, 6]])
        p = a.principal([1, 3])
        assert p.to_rows() == [[1, 3], [3, 6]]
