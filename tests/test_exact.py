import tracemalloc
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from oracles import (
    congruence_by_fractions,
    congruence_mismatch_by_fractions,
    determinant_by_cofactors,
    inner_by_fractions,
    matmul_by_fractions,
    reformulated_rows_by_fractions,
)
from weaksdp import (
    Matrix,
    SymMatrix,
    congruence,
    congruence_mismatch,
    congruences,
    inner,
    inner_general,
    inner_table,
    inners,
    inverse,
    rational,
    unimodular_pair,
)
from weaksdp import exact
from weaksdp.certify import WeakCertificate
from weaksdp.generator import GenConfig, generate
from weaksdp.exact import (
    DIGIT_LIMIT, _operands, _slot_size, complement_projection, square_rows, text_ratio, upper_offset,
)

small_ints = st.integers(-30, 30)
# a denominator q in 1..12, then a numerator in -30q..30q: every fraction in
# [-30, 30] with a denominator of at most 12, drawn as two integers
small_fractions = st.integers(1, 12).flatmap(
    lambda q: st.integers(-30 * q, 30 * q).map(lambda p: Fraction(p, q)))


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
    which some rows may be all zero, and a square transform T, the identity
    half of the time; m, k and the order each 0-4."""
    order, k, m = (draw(st.integers(0, 4)) for _ in range(3))
    mats = draw(sym_matrices(order, k))
    coeffs = draw(entry_lists(m * k))
    zero_rows = draw(st.sets(st.integers(0, 3)))
    rows = [[0] * k if r in zero_rows else coeffs[r * k : (r + 1) * k] for r in range(m)]
    g = Matrix(m, k, tuple(Fraction(v) for row in rows for v in row))
    t = Matrix(order, order, tuple(Fraction(v) for v in draw(entry_lists(order * order))))
    if draw(st.booleans()):
        t = Matrix.identity(order)
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
        # the constructors' one conversion checks every entry as `rational` does
        for make in (
            lambda: SymMatrix(2, (0.5, 0.25, True)),
            lambda: SymMatrix(1, (True,)),
            lambda: Matrix(1, 2, (0.1, 1)),
            lambda: Matrix.from_rows([[1, 0.5]]),
            lambda: SymMatrix.from_rows([[False]]),
            lambda: SymMatrix.diag([0.5]),
            lambda: Matrix.from_rows([[1, 2]]).mul_vec((0.5, 1)),
        ):
            with pytest.raises(TypeError):
                make()

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

    @given(st.from_regex(r"-?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True)
           | st.text(alphabet="-/0123456789 +_.e\u0663\n", max_size=12) | st.text(max_size=8))
    def test_text_parser_agrees_with_rational(self, text):
        # the reader's parser and `rational` both accept the text, with the
        # same reduced (p, q), or both refuse it with ValueError
        try:
            expected = rational(text).as_integer_ratio()
        except ValueError:
            with pytest.raises(ValueError):
                text_ratio(text)
        else:
            assert text_ratio(text) == expected

    @pytest.mark.parametrize("text", ["1" * DIGIT_LIMIT, "-" + "9" * DIGIT_LIMIT,
                                      "1/" + "2" * DIGIT_LIMIT, "1" * (DIGIT_LIMIT + 1),
                                      "1/" + "2" * (DIGIT_LIMIT + 1), "-" + "3" * (DIGIT_LIMIT + 1) + "/7"])
    def test_text_parser_agrees_with_rational_at_the_digit_limit(self, text):
        if len(text.lstrip("-").partition("/")[0]) > DIGIT_LIMIT or len(text.partition("/")[2]) > DIGIT_LIMIT:
            for parse in (rational, text_ratio):
                with pytest.raises(ValueError):
                    parse(text)
        else:
            assert text_ratio(text) == rational(text).as_integer_ratio()


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


@pytest.mark.parametrize("n", range(0, 13))
def test_upper_offset_numbers_the_upper_cells_row_by_row(n):
    cells = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]  # i <= j, row-major
    assert [upper_offset(n, i, j) for i, j in cells] == list(range(n * (n + 1) // 2))
    # row r of the square holds cell (min(r, s), max(r, s)) at column s
    square = [[(min(r, s), max(r, s)) for s in range(1, n + 1)] for r in range(1, n + 1)]
    rows = square_rows(cells, n)
    assert rows == square and all(type(row) is list for row in rows)
    assert len({id(row) for row in rows}) == n  # new lists, none shared


def test_rows_keep_at_most_four_getters():
    # a getter holds n^2 offsets; eight orders near 300 leave the last four
    exact._mirror.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        square_rows([0] * (300 * 301 // 2), 300)
        one = tracemalloc.get_traced_memory()[0] - base
        for n in range(301, 308):
            square_rows([0] * (n * (n + 1) // 2), n)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        exact._mirror.cache_clear()
    assert one > 300 * 300 * 8  # at least a pointer per offset
    assert held < 4.5 * one


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
        t, t_inverse = unimodular_pair(3, seed, budget, 3)
        assert t @ t_inverse == t_inverse @ t == Matrix.identity(3)
        assert t_inverse == inverse(t)
        assert congruence(congruence(a, t), t_inverse) == a

    @given(st.lists(small_ints, min_size=6, max_size=6),
           st.lists(small_ints, min_size=6, max_size=6),
           st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_adjoint_identity(self, ua, ux, seed):
        # T^T A T . X == A . T X T^T, exactly
        a = SymMatrix(3, tuple(Fraction(v) for v in ua))
        x = SymMatrix(3, tuple(Fraction(v) for v in ux))
        t, t_inverse = unimodular_pair(3, seed, 8, 2)
        assert t @ t_inverse == t_inverse @ t == Matrix.identity(3)
        assert inner(congruence(a, t), x) == inner(a, congruence(x, t.transpose()))


def assert_mismatch_checks(mats, g, t, want):
    """`congruence_mismatch` passes the rows `want` and, when they have an
    entry, names a change of one entry: (1, n) of the last row, so that every
    row before it is compared first."""
    assert congruence_mismatch(mats, g, t, want) is None
    if want and want[-1].n:
        i, n = len(want), want[-1].n
        changed = want[:-1] + [want[-1].add(SymMatrix.unit(n, 1, n))]
        assert congruence_mismatch(mats, g, t, changed) == (i, 1, n)


def cell_kernel_runs(monkeypatch):
    """A list that gains one entry each time `_cell_fields` runs: the
    kernel of every T other than I."""
    runs, kernel = [], exact._cell_fields

    def call(*args):
        runs.append(args)
        return kernel(*args)

    monkeypatch.setattr(exact, "_cell_fields", call)
    return runs


class TestCongruences:
    @given(combination_operands())
    @settings(max_examples=200)
    def test_rows_match_fraction_reference(self, operands):
        mats, g, t = operands
        rows = congruences(mats, g, t)
        want = reformulated_rows_by_fractions(mats, g, t)
        assert rows == want
        assert all(type(v) is Fraction for row in rows for line in row.to_rows() for v in line)
        assert_mismatch_checks(mats, g, t, want)

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
        assert congruences(mats, Matrix.zeros(1, 2), t) == [SymMatrix.zeros(2)]
        assert congruences(mats, Matrix.zeros(0, 2), t) == []

    def test_identity_is_read_off_the_stored_form(self, monkeypatch):
        mats = (sym([[1, 2], [2, 3]]), sym([[Fraction(1, 2), 0], [0, 5]]))
        g = Matrix.from_rows([[1, -2], [3, Fraction(1, 4)]])
        # I, then a permutation (n^2 - n zeros) and a shear: only the first is I
        transforms = (Matrix.identity(2), Matrix.from_rows([[0, 1], [1, 0]]),
                      Matrix.from_rows([[1, 1], [0, 1]]))
        want = [reformulated_rows_by_fractions(mats, g, t) for t in transforms]

        def refuse(*args):
            raise AssertionError("the rows were read through an identity matrix or a kernel they should not be")

        monkeypatch.setattr(Matrix, "identity", refuse)
        kernels = {name: getattr(exact, name) for name in ("_sign_bits", "_cell_fields")}
        # I packs nothing; the permutation and the shear take the cell kernel
        allowed = (set(), set(kernels), set(kernels))
        for t, rows, names in zip(transforms, want, allowed):
            for name, kernel in kernels.items():
                monkeypatch.setattr(exact, name, kernel if name in names else refuse)
            assert congruences(mats, g, t) == rows
            assert congruence_mismatch(mats, g, t, rows) is None
            assert congruence_mismatch(mats, g, t, [rows[0], rows[1].add(SymMatrix.unit(2, 2, 2))]) == (2, 2, 2)

    def test_shape_mismatches_raise(self):
        mats = (SymMatrix.identity(2),)
        with pytest.raises(ValueError):
            congruences(mats, Matrix.identity(1), Matrix.identity(3))
        with pytest.raises(ValueError):
            congruences(mats, Matrix.identity(1), Matrix.zeros(2, 3))
        with pytest.raises(ValueError):
            congruences(mats, Matrix.zeros(1, 2), Matrix.identity(2))


@st.composite
def projection_cases(draw):
    """An order 0-4; a span of up to three symmetric matrices of it with
    mixed denominators, each kept only while the Gram matrix of those kept
    stays nonsingular; and an integer candidate as a packed upper triangle,
    drawn freely or, a third of the time, the numerators of a combination of
    the span, which projects to zero."""
    order = draw(st.integers(0, 4))
    span = []
    for x in draw(sym_matrices(order, draw(st.integers(0, 3)))):
        grown = span + [x]
        if determinant_by_cofactors([[inner_by_fractions(a, b) for b in grown] for a in grown]):
            span.append(x)
    half = order * (order + 1) // 2
    if span and not draw(st.integers(0, 2)):
        combo = SymMatrix.zeros(order)
        for x, c in zip(span, draw(entry_lists(len(span)))):
            combo = combo.add(x.scale(c))
        return order, span, list(stored(combo)[0])
    return order, span, draw(st.lists(st.integers(-30, 30), min_size=half, max_size=half))


def primitive(a):
    """The coprime integer multiple of `a`: its numerators projected with an empty span."""
    return complement_projection(a.n, (), Matrix.zeros(0, 0))(stored(a)[0])


class TestComplementProjection:
    @given(projection_cases())
    @settings(max_examples=100)
    def test_matches_fraction_reference(self, case):
        order, span, upper = case
        ell = len(span)
        inverse_gram = inverse(Matrix(ell, ell, tuple(inner(a, b) for a in span for b in span)))
        got = complement_projection(order, span, inverse_gram)(upper)
        # C - sum_s c_s X_s, c the Gram inverse times the X_s . C, by Fractions
        candidate = SymMatrix(order, tuple(upper))
        coeffs = [sum(h * inner_by_fractions(x, candidate) for h, x in zip(row, span))
                  for row in inverse_gram.to_rows()]
        rows = candidate.to_rows()
        for c, x in zip(coeffs, span):
            rows = [[v - c * w for v, w in zip(line, other)] for line, other in zip(rows, x.to_rows())]
        entries = [v for line in rows for v in line]
        if not any(entries):
            assert got is None
            return
        # the coprime integer multiple with a positive scale, by Fractions
        scale = lcm(*(v.denominator for v in entries))
        divisor = gcd(*(int(v * scale) for v in entries))
        assert got.to_rows() == [[v * scale / divisor for v in line] for line in rows]
        assert all(inner_by_fractions(got, x) == 0 for x in span)
        assert_canonical(got)

    def test_shape_mismatches_raise(self):
        with pytest.raises(ValueError):
            complement_projection(2, (SymMatrix.identity(2), SymMatrix.identity(2)), Matrix.identity(1))
        with pytest.raises(ValueError):
            complement_projection(2, (SymMatrix.identity(2), SymMatrix.identity(3)), Matrix.identity(2))
        with pytest.raises(ValueError):
            complement_projection(2, (SymMatrix.identity(2),), Matrix.identity(1))([1, 0])


wide_ints = st.integers(-2**200, 2**200)
wide_entries = st.one_of(wide_ints.map(Fraction), st.builds(Fraction, wide_ints, st.integers(1, 2**200)))


@st.composite
def wide_combination_operands(draw):
    """Like `combination_operands`, with orders 1-6, entries up to 2^200 in
    magnitude with mixed signs and denominators, and T never the identity."""
    order, k, m = draw(st.integers(1, 6)), draw(st.integers(0, 4)), draw(st.integers(0, 3))

    def entries(count):
        return tuple(draw(st.lists(wide_entries, min_size=count, max_size=count)))

    mats = tuple(SymMatrix(order, entries(order * (order + 1) // 2)) for _ in range(k))
    t = Matrix(order, order, entries(order * order))
    assume(t != Matrix.identity(order))
    return mats, Matrix(m, k, entries(m * k)), t


class TestPackedCongruence:
    @given(wide_combination_operands())
    @settings(max_examples=120, deadline=None)
    def test_wide_entries_match_fraction_reference(self, operands):
        mats, g, t = operands
        want = reformulated_rows_by_fractions(mats, g, t)
        assert congruences(mats, g, t) == want
        assert_mismatch_checks(mats, g, t, want)

    @pytest.mark.parametrize("order", [1, 2, 3, 6])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_result_attains_the_slot_bound(self, order, sign, monkeypatch):
        # every entry of M, G and T has one magnitude and sign, so every result
        # entry is n^2 k |g| |M| |T|^2 exactly, the bound the slot width is sized by;
        # the magnitudes sweep the bound's bit length across several byte boundaries
        k = 2
        cells = order * (order + 1) // 2
        runs = cell_kernel_runs(monkeypatch)
        for bits in range(1, 41):
            mag = 2**bits - 1
            mats = (SymMatrix(order, (Fraction(sign * mag),) * cells),) * k
            g = Matrix(1, k, (Fraction(3),) * k)
            t = Matrix(order, order, (Fraction(5),) * (order * order))
            (row,) = congruences(mats, g, t)
            assert set(row.to_rows()[0]) == {sign * order**2 * k * 3 * mag * 25}, bits
            assert_mismatch_checks(mats, g, t, reformulated_rows_by_fractions(mats, g, t))
        # four rows of G and a sparse T, 5 on the diagonal and down column 1:
        # entry (1, 1) of every row is k |g| |M| (5 n)^2, the bound; the sweep
        # crosses the 8-byte minimum slot into wide slots
        g = Matrix(4, k, (3,) * (4 * k))
        t = Matrix(order, order, tuple(5 if c == r or c == 0 else 0 for r in range(order) for c in range(order)))
        sizes = set()
        for bits in range(1, 81, 5):
            mag = 2**bits - 1
            mats = (SymMatrix(order, (sign * mag,) * cells),) * k
            want = reformulated_rows_by_fractions(mats, g, t)
            bound = k * 3 * mag * (5 * order) ** 2
            assert max(abs(v) for row in want for v in row._u) == bound
            assert all(row._u[0] == sign * bound for row in want), bits
            assert_mismatch_checks(mats, g, t, want)
            sizes.add(max(8, _slot_size(g, _operands(mats, g, t)[1], t)))
        assert min(sizes) == 8 and max(sizes) > 9
        # no T above is I (at order 1 the first sweep's T is 5): every check ran the cell kernel
        assert len(runs) == 40 * 3 + 16 * 2

    def test_mismatch_in_last_entry_of_last_row(self):
        mats = (sym([[1, 2, 0], [2, -3, 4], [0, 4, 5]]), sym([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
        g = Matrix.from_rows([[1, 2], [-1, 3]])
        for t in (Matrix.from_rows([[1, 1, 0], [0, 1, -2], [0, 0, 1]]), Matrix.identity(3)):
            targets = congruences(mats, g, t)
            targets[-1] = targets[-1].add(SymMatrix.unit(3, 3, 3))
            assert congruence_mismatch(mats, g, t, targets) == (2, 3, 3)

    def test_targets_over_another_denominator(self):
        # halves in G put the rows over denominator 2, the targets are integers
        mats = (sym([[1, 3], [3, 5]]), sym([[1, 1], [1, 1]]))
        g = Matrix.from_rows([[Fraction(1, 2), Fraction(1, 2)]])
        t = Matrix.from_rows([[1, 1], [0, 1]])
        (row,) = congruences(mats, g, t)
        assert all(v.denominator == 1 for line in row.to_rows() for v in line)
        assert congruence_mismatch(mats, g, t, [row]) is None
        thirds = row.add(SymMatrix.unit(2, 1, 2, Fraction(1, 3)))
        assert congruence_mismatch(mats, g, t, [thirds]) == (1, 1, 2)

    def test_mismatch_shape_errors(self):
        mats = (SymMatrix.identity(2),)
        with pytest.raises(ValueError):
            congruence_mismatch(mats, Matrix.identity(1), Matrix.identity(2), [])
        with pytest.raises(ValueError):
            congruence_mismatch(mats, Matrix.identity(1), Matrix.identity(2), [SymMatrix.identity(3)])


nonzero_coefficients = st.tuples(st.integers(1, 4), st.sampled_from([1, -1])).map(lambda p: p[0] * p[1])


@st.composite
def elementary_product(draw, order, fractions):
    """The identity of `order` after 0-4 random elementary row operations: a
    swap, a row plus c times another, or a row times c, with c a non-zero
    integer of magnitude at most 4, or with `fractions` such an integer over
    1-3."""
    rows = [[Fraction(int(i == j)) for j in range(order)] for i in range(order)]
    for _ in range(draw(st.integers(0, 4)) if order else 0):
        kind = draw(st.sampled_from(["swap", "add", "scale"]))
        i, j = draw(st.integers(0, order - 1)), draw(st.integers(0, order - 1))
        c = Fraction(draw(nonzero_coefficients), draw(st.integers(1, 3)) if fractions else 1)
        if kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "add" and i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif kind == "scale":
            rows[i] = [c * a for a in rows[i]]
    return Matrix(order, order, tuple(v for row in rows for v in row))


@st.composite
def mismatch_cases(draw):
    """k symmetric matrices of order 1-5, k 1-6, G and T products of a few
    elementary operations (G with some rows zeroed, T the identity a third of
    the time), and as targets the rows of `reformulated_rows_by_fractions`
    with no entry or one drawn entry (i, r, s) changed, by a small amount or
    by one far outside any slot. With up to six rows of G, a T other than I
    is often sparse enough for the cell kernel, 2 nnz(T) <= k n, and often
    not."""
    order, k = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    mats = draw(sym_matrices(order, k))
    g = draw(elementary_product(k, True))
    zero_rows = draw(st.sets(st.integers(0, k - 1)))
    g = Matrix(k, k, tuple(Fraction(0) if r in zero_rows else v
                           for r in range(k) for v in g.row(r + 1)))
    t = Matrix.identity(order)
    if draw(st.integers(0, 2)):
        t = draw(elementary_product(order, draw(st.booleans())))
    targets = reformulated_rows_by_fractions(mats, g, t)
    if draw(st.booleans()):
        i, r = draw(st.integers(0, k - 1)), draw(st.integers(1, order))
        s = draw(st.integers(r, order))
        delta = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(10**40)]))
        targets[i] = targets[i].add(SymMatrix.unit(order, r, s, delta))
    return mats, g, t, targets


class TestSparseCongruence:
    @given(mismatch_cases())
    @settings(max_examples=200, deadline=None)
    def test_first_mismatch_matches_the_fraction_oracle(self, case):
        mats, g, t, targets = case
        want = congruence_mismatch_by_fractions(mats, g, t, targets)
        assert congruence_mismatch(mats, g, t, targets) == want
        assert congruences(mats, g, t) == reformulated_rows_by_fractions(mats, g, t)

    def test_target_outside_the_slot_range(self, monkeypatch):
        mats = (sym([[1, 2, 0], [2, -3, 4], [0, 4, 5]]), sym([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
        # two rows of G and a T of five non-zeros, and four rows and a T of four,
        # both through the cell kernel, whose slots are at least 8 bytes
        for g, t in ((Matrix.from_rows([[1, 2], [0, 0]]), Matrix.from_rows([[1, 1, 0], [0, 1, -2], [0, 0, 1]])),
                     (Matrix.from_rows([[1, 2], [0, 0], [-1, 1], [3, 0]]),
                      Matrix.from_rows([[1, 0, 0], [0, 1, -2], [0, 0, 1]]))):
            rows = congruences(mats, g, t)
            half_range = 1 << (8 * max(8, _slot_size(g, _operands(mats, g, t)[1], t)) - 1)
            runs = cell_kernel_runs(monkeypatch)
            # the first two overflow a slot on either side; -half_range is the lowest slot value
            for value in (half_range, -half_range - 1, -half_range, 10**40):
                out = SymMatrix.unit(3, 2, 3, value)
                assert congruence_mismatch(mats, g, t, [rows[0], out, *rows[2:]]) == (2, 2, 3), value
                # an entry that fits a slot, before one that does not, is named first
                both = rows[0].add(SymMatrix.unit(3, 1, 2)).add(SymMatrix.unit(3, 3, 3, value))
                assert congruence_mismatch(mats, g, t, [both, *rows[1:]]) == (1, 1, 2), value
                # of two differing rows, the first is named
                assert congruence_mismatch(mats, g, t, [both, out, *rows[2:]]) == (1, 1, 2), value
            assert len(runs) == 12
            monkeypatch.undo()

    def test_targets_over_another_denominator_with_zero_coefficients(self, monkeypatch):
        mats = (sym([[1, 3], [3, 5]]), sym([[Fraction(1, 2), 1], [1, 1]]), sym([[2, 0], [0, 2]]))
        g = Matrix.from_rows([[2, 0, 0], [0, 0, 0], [0, Fraction(1, 3), 0]])
        # a shear with three non-zeros and a T with none zero, both through the cell kernel
        for t in (Matrix.from_rows([[1, 0], [1, 1]]), Matrix.from_rows([[1, 1], [1, 2]])):
            want = reformulated_rows_by_fractions(mats, g, t)
            den = _operands(mats, g, t)[0]
            assert [row._d for row in want] == [1, 1, 6] and den == 6  # two rows over another denominator
            runs = cell_kernel_runs(monkeypatch)
            assert congruence_mismatch(mats, g, t, want) is None
            changed = want[2].add(SymMatrix.unit(2, 2, 2, Fraction(1, 7)))
            assert congruence_mismatch(mats, g, t, [want[0], want[1], changed]) == (3, 2, 2)
            assert congruence_mismatch(mats, g, t, [want[0], SymMatrix.unit(2, 1, 2), want[2]]) == (2, 1, 2)
            assert congruence_mismatch(mats, g, t, [want[0], SymMatrix.unit(2, 1, 2), changed]) == (2, 1, 2)
            # a target over another denominator that differs only in a later row is not named early
            later = want[2].add(SymMatrix.unit(2, 1, 1, Fraction(1, 6)))
            assert congruence_mismatch(mats, g, t, [want[0], want[1], later]) == (3, 1, 1)
            assert len(runs) == 5
            monkeypatch.undo()

    def test_the_differential_draws_identity_sparse_and_dense_transforms(self):
        # on fixed seeds, `mismatch_cases` draws T = I, and T on both sides of
        # 2 nnz(T) = m n, so that the differential keeps covering a dense T
        for case_seed in (1, 2, 3):
            kinds = set()

            @seed(case_seed)
            @settings(max_examples=40, deadline=None, database=None)
            @given(mismatch_cases())
            def run(case):
                mats, g, t, targets = case
                nonzeros = t.rows**2 - t._e.count(0)
                kinds.add("I" if t == Matrix.identity(t.rows) else
                          "sparse" if 2 * nonzeros <= g.rows * t.rows else "dense")
                assert congruence_mismatch(mats, g, t, targets) == congruence_mismatch_by_fractions(
                    mats, g, t, targets)

            run()
            assert kinds == {"I", "sparse", "dense"}, case_seed

    def test_generated_certificate_takes_the_cell_kernel(self, monkeypatch):
        cert = WeakCertificate.from_instance(generate(GenConfig(n=20, m=15, k=2, l=2, seed=101, messy=True)))
        g, t = cert.row_ops, cert.transform
        assert 2 * (t.rows**2 - t._e.count(0)) <= g.rows * t.rows  # nnz(T) of a short product of operations
        runs = cell_kernel_runs(monkeypatch)
        assert_mismatch_checks(cert.raw.A, g, t, list(cert.clean.A))
        assert len(runs) == 2

    def test_dense_transform_takes_the_cell_kernel(self, monkeypatch):
        n = 8
        mats = (SymMatrix(n, tuple(range(-17, n * (n + 1) // 2 - 17))),
                SymMatrix(n, tuple((-1) ** p * (p % 7) for p in range(n * (n + 1) // 2))))
        g = Matrix.from_rows([[1, 2], [-3, 1]])
        t = Matrix(n, n, tuple((-1) ** (r + c) * (1 + (3 * r + c) % 4) for r in range(n) for c in range(n)))
        assert 0 not in t._e
        runs = cell_kernel_runs(monkeypatch)
        assert_mismatch_checks(mats, g, t, reformulated_rows_by_fractions(mats, g, t))
        assert len(runs) == 2


@st.composite
def disguise_cases(draw):
    """k symmetric matrices of order 0-5 and an m x k G with some rows zero,
    k and m 0-4, all entries small fractions or all up to 2^200 in magnitude,
    so that a slot spans more than 8 bytes; T a product of a few elementary
    operations, or a third of the time a matrix of such entries."""
    order, k, m = draw(st.integers(0, 5)), draw(st.integers(0, 4)), draw(st.integers(0, 4))
    values = draw(st.sampled_from([small_fractions, wide_entries]))

    def entries(count):
        return tuple(draw(st.lists(values, min_size=count, max_size=count)))

    mats = tuple(SymMatrix(order, entries(order * (order + 1) // 2)) for _ in range(k))
    zero_rows = draw(st.sets(st.integers(0, 3)))
    coeffs = entries(m * k)
    g = Matrix(m, k, tuple(0 if r in zero_rows else v for r in range(m) for v in coeffs[r * k : (r + 1) * k]))
    if draw(st.integers(0, 2)):
        return mats, g, draw(elementary_product(order, draw(st.booleans())))
    return mats, g, Matrix(order, order, entries(order * order))


class TestDisguiseCongruences:
    @given(disguise_cases())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_fraction_reference(self, case):
        mats, g, t = case
        assert congruences(mats, g, t) == reformulated_rows_by_fractions(mats, g, t)


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


class TestInnerTable:
    @given(st.integers(0, 4).flatmap(lambda order: st.tuples(
        st.integers(0, 4).flatmap(lambda m: sym_matrices(order, m)),
        st.integers(0, 4).flatmap(lambda k: sym_matrices(order, k)))))
    @settings(max_examples=100)
    def test_matches_inner_pair_by_pair(self, operands):
        mats, xs = operands
        table = inner_table(mats, xs)
        assert table == tuple(tuple(inner(mat, x) for x in xs) for mat in mats)
        assert all(type(v) is Fraction for row in table for v in row)

    def test_generators_are_read_once(self):
        a, x = sym([[1, 2], [2, 3]]), sym([[Fraction(1, 2), 1], [1, 0]])
        assert inner_table(iter((a, a)), iter((x,))) == ((Fraction(9, 2),),) * 2

    @pytest.mark.parametrize("mats, xs", [
        ((SymMatrix.identity(2),), (SymMatrix.identity(3),)),
        ((), (SymMatrix.identity(2), SymMatrix.identity(3))),
        ((SymMatrix.identity(2), SymMatrix.identity(3)), ()),
    ])
    def test_order_mismatch_raises(self, mats, xs):
        with pytest.raises(ValueError, match="order mismatch"):
            inner_table(mats, xs)


class TestMatrixBasics:
    def test_from_rows_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            sym([[0, 1], [2, 0]])

    @pytest.mark.parametrize("rows", [[[0, 1], [True, 0]], [[0, True], [1, 0]]])
    def test_from_rows_rejects_a_bool_beside_its_equal_number(self, rows):
        # True == 1, but a bool is no exact rational on either side of the diagonal
        with pytest.raises(TypeError):
            SymMatrix.from_rows(rows)

    @pytest.mark.parametrize("rows, expected", [
        ([[Fraction(1, 2), Fraction(-3, 4)], [Fraction(-3, 4), 0]], [[2, -3], [-3, 0]]),
        ([[-6, 4], [4, 10]], [[-3, 2], [2, 5]]),
        ([[0, 0], [0, Fraction(-2, 7)]], [[0, 0], [0, -1]]),
    ])
    def test_primitive_is_the_coprime_integer_multiple(self, rows, expected):
        got = primitive(sym(rows))
        assert got == sym(expected)
        assert all(type(v) is Fraction for row in got.to_rows() for v in row)

    @pytest.mark.parametrize("n", range(5))
    def test_rows_from_the_packed_triangle_match_entry_access(self, n):
        a = SymMatrix(n, tuple(Fraction(k, k % 3 + 1) for k in range(n * (n + 1) // 2)))
        rows = a.to_rows()
        assert rows == [[a.at(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
        assert SymMatrix.from_rows(rows) == a

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
        square_x, square_y = Matrix.from_rows(x.to_rows()), Matrix.from_rows(y.to_rows())
        assert inner_general(square_x, square_y) == inner_by_fractions(x, y)
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
        assert SymMatrix.unit(3, 3, 1, Fraction(-2, 3)) == e.scale(Fraction(-2, 3))
        assert SymMatrix.from_cells(3, {(1, 3): 2, (2, 1): "1/2", (3, 3): -1}) == sym(
            [[0, Fraction(1, 2), 2], [Fraction(1, 2), 0, 0], [2, 0, -1]])
        for i, j in ((0, 1), (1, 4), (4, 4), (-1, 2)):
            with pytest.raises(IndexError):
                SymMatrix.unit(3, i, j)

    def test_principal_submatrix(self):
        a = sym([[1, 2, 3], [2, 4, 5], [3, 5, 6]])
        p = a.principal([1, 3])
        assert p.to_rows() == [[1, 3], [3, 6]]


def stored(a):
    """The stored (numerators, denominator) of a Matrix or a SymMatrix."""
    return (a._e if isinstance(a, Matrix) else a._u), a._d


def assert_canonical(a):
    nums, den = stored(a)
    assert type(den) is int and all(type(v) is int for v in nums)
    assert den >= 1 and gcd(den, *nums) == 1
    if not any(nums):
        assert den == 1


# a value of `small_ints` or of `small_fractions`, as an even choice between
# the two would draw it: the denominator 1 stands for `small_ints` twelve
# times out of 24, and each of 1..12 for `small_fractions` once
mixed_denominators = st.sampled_from((1,) * 12 + tuple(range(1, 13)))
numerators = {q: st.integers(-30 * q, 30 * q) for q in range(1, 13)}
nonzero_factors = st.sampled_from([k for k in range(-6, 7) if k])


def draw_mixed(draw, size):
    """`size` entries with mixed signs and denominators in one list, each a
    denominator, then a numerator, drawn as integers."""
    values = []
    for _ in range(size):
        q = draw(mixed_denominators)
        values.append(Fraction(draw(numerators[q]), q))
    return tuple(values)


@st.composite
def stored_operands(draw):
    """Two symmetric matrices and two general matrices of one shape, a third
    general matrix to multiply by, a scalar, and index lists; orders 0-4."""
    n, rows, cols = (draw(st.integers(0, 4)) for _ in range(3))
    half = n * (n + 1) // 2
    a, b = (SymMatrix(n, draw_mixed(draw, half)) for _ in range(2))
    m, m2 = (Matrix(rows, cols, draw_mixed(draw, rows * cols)) for _ in range(2))
    right = Matrix(cols, 2, draw_mixed(draw, cols * 2))
    (c,) = draw_mixed(draw, 1)
    indices = st.lists(st.integers(1, n), max_size=4) if n else st.just([])
    return a, b, m, m2, right, c, draw(indices), draw(indices)


class TestStoredForm:
    """Matrices store integer numerators over one positive denominator that is
    coprime to them, and 1 for a zero matrix; `==` and `hash` read that form."""

    @given(stored_operands(), nonzero_factors)
    @settings(max_examples=150)
    def test_every_constructor_and_operation_is_canonical(self, operands, k):
        a, b, m, m2, right, c, ri, ci = operands
        n = a.n
        results = [
            a, b, m, m2, SymMatrix.from_rows(a.to_rows()), Matrix.from_rows(m.to_rows()),
            SymMatrix.zeros(n), SymMatrix.identity(n), SymMatrix.diag(a.to_rows()[0] if n else []),
            Matrix.zeros(m.rows, m.cols), Matrix.identity(n), a.scale(c), a.add(b), a.sub(b),
            a.principal(ri), Matrix(len(ri), len(ci), [a.at(r, s) for r in ri for s in ci]),
            Matrix.from_rows(a.to_rows()), m.transpose(), m @ right,
            m.scale(c), m + m2, m - m2, congruence(a, Matrix.identity(n).scale(c)),
        ]
        if n:
            results.append(SymMatrix.unit(n, n, 1, c))
        if a != SymMatrix.zeros(n):
            results.append(primitive(a))
        nums, den = stored(a)
        # the private constructor takes any non-zero denominator, negative too
        results.append(SymMatrix._of(n, [v * k for v in nums], den * k))
        for result in results:
            assert_canonical(result)

    def test_int_entries_are_stored_as_they_are(self):
        ints = [6, -4, 0, 2, 8, 10]
        for made, spelled in ((SymMatrix(3, ints), SymMatrix(3, [Fraction(v) for v in ints])),
                              (Matrix(2, 3, ints), Matrix(2, 3, [str(v) for v in ints]))):
            assert stored(made) == (tuple(ints), 1) and made == spelled
        # entries in a sized container without indexing
        assert SymMatrix(3, dict(enumerate(ints)).values()) == SymMatrix(3, ints)
        assert Matrix(1, 2, {"1/2": 0, "3": 0}.keys()) == Matrix(1, 2, [Fraction(1, 2), 3])
        # a bool or a float beside ints still goes through `rational`, which refuses it
        with pytest.raises(TypeError):
            SymMatrix(1, [True])
        with pytest.raises(TypeError):
            Matrix(1, 2, [1, 1.0])

    @given(stored_operands(), nonzero_factors)
    @settings(max_examples=150)
    def test_equal_values_from_different_routes_are_equal(self, operands, k):
        a, b, m, m2, _, c, _, _ = operands
        rows = a.to_rows()
        # every entry spelled unreduced, k p / k q with k > 0
        spelled = [[f"{abs(k) * v.numerator}/{abs(k) * v.denominator}" for v in row] for row in rows]
        nums, den = stored(a)
        routes = [
            SymMatrix.from_rows(spelled),
            SymMatrix.from_rows(rows),
            a.scale(3).scale(Fraction(1, 3)),
            a.add(b).sub(b),
            a.scale(c).add(a.scale(1 - c)),
            SymMatrix._of(a.n, [v * k for v in nums], den * k),
        ]
        for route in routes:
            assert route == a and hash(route) == hash(a)
        for route in (m.scale(3).scale(Fraction(1, 3)), (m + m2) - m2, m.transpose().transpose()):
            assert route == m and hash(route) == hash(m)
        assert SymMatrix.from_rows([["2/4"]]) == SymMatrix.from_rows([["1/2"]])

    @given(stored_operands())
    @settings(max_examples=150)
    def test_operations_match_a_fraction_loop(self, operands):
        a, b, m, m2, _, c, ri, _ = operands
        ra, rb, rm, rm2 = a.to_rows(), b.to_rows(), m.to_rows(), m2.to_rows()
        assert all(type(v) is Fraction for row in ra + rm for v in row)
        assert a.scale(c).to_rows() == [[c * v for v in row] for row in ra]
        assert a.add(b).to_rows() == [[u + v for u, v in zip(p, q)] for p, q in zip(ra, rb)]
        assert a.sub(b).to_rows() == [[u - v for u, v in zip(p, q)] for p, q in zip(ra, rb)]
        assert m.scale(c).to_rows() == [[c * v for v in row] for row in rm]
        assert (m + m2).to_rows() == [[u + v for u, v in zip(p, q)] for p, q in zip(rm, rm2)]
        assert (m - m2).to_rows() == [[u - v for u, v in zip(p, q)] for p, q in zip(rm, rm2)]
        assert m.transpose().to_rows() == [[rm[r][s] for r in range(m.rows)] for s in range(m.cols)]
        assert (a == SymMatrix.zeros(a.n)) == all(v == 0 for row in ra for v in row)
        idx = sorted(set(ri))
        assert a.principal(ri).to_rows() == [[ra[r - 1][s - 1] for s in idx] for r in idx]
        assert [[a.at(i, j) for j in range(1, a.n + 1)] for i in range(1, a.n + 1)] == ra
        if a != SymMatrix.zeros(a.n):
            # the coprime integer multiple with a positive scale, by Fractions
            scale = lcm(*(v.denominator for row in ra for v in row))
            ints = [[v * scale for v in row] for row in ra]
            g = gcd(*(int(v) for row in ints for v in row))
            assert primitive(a).to_rows() == [[v / g for v in row] for row in ints]

    @given(stored_operands())
    def test_stored_signs_are_the_entries_signs(self, operands):
        a = operands[0]
        for i in range(1, a.n + 1):
            for j in range(1, a.n + 1):
                v = a.at(i, j)
                assert (a._num(i, j) > 0, a._num(i, j) == 0) == (v > 0, v == 0)
