from fractions import Fraction
from math import ceil, floor

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    determinant_by_cofactors,
    gauss_jordan_by_fractions,
    least_definite_shift_by_probes,
    psd_certify_by_steps,
)
from weaksdp import (
    Matrix,
    SdpInstance,
    SplitMix64,
    SymMatrix,
    check_reformulation,
    congruence,
    determinant,
    inverse,
    is_positive_definite,
    least_definite_shift,
    psd_certify,
    reformulated,
    schur_complement,
    unimodular_pair,
)
from weaksdp.linalg import (
    PRIME, BorderedElimination, determinant_residue, random_unimodular, solve_linear,
)


def fractions_between(low, high, max_denominator):
    """Every fraction in [low, high] with a denominator of at most
    `max_denominator`, drawn as two integers: a denominator q, then a
    numerator in ceil(low q)..floor(high q). Every range here holds 0 or 1,
    so p = 0 or p = q is in it for every q, and no draw fails."""
    return st.integers(1, max_denominator).flatmap(
        lambda q: st.integers(ceil(low * q), floor(high * q)).map(lambda p: Fraction(p, q)))


def fractions_within(bound, max_denominator):
    """`fractions_between` of -bound and bound."""
    return fractions_between(-bound, bound, max_denominator)


small_fractions = fractions_within(20, 8)


@st.composite
def square_matrices(draw, max_order=4):
    """Square matrices of order 0..max_order; entries in {-1, 0, 1} half the
    time, so singular matrices and zero leading pivots come up often."""
    n = draw(st.integers(0, max_order))
    entries = draw(st.sampled_from([st.integers(-1, 1), small_fractions]))
    return Matrix(n, n, tuple(Fraction(v) for v in draw(st.lists(entries, min_size=n * n,
                                                                       max_size=n * n))))


tiny_entries = st.one_of(st.integers(-1, 1).map(Fraction), fractions_within(5, 4))
# the non-zero tiny entries, drawn without a filter: a numerator p in -5q..5q-1
# is moved to p + 1 from 0 up, which skips 0 and reaches 5q
nonzero_tiny_entries = st.one_of(
    st.sampled_from([Fraction(-1), Fraction(1)]),
    st.integers(1, 4).flatmap(
        lambda q: st.integers(-5 * q, 5 * q - 1).map(lambda p: Fraction(p + (p >= 0), q))))
couplings = fractions_within(Fraction(1, 2), 4)


@st.composite
def random_symmetric(draw):
    """Symmetric matrices of order 0..6 with small entries, often zero."""
    n = draw(st.integers(0, 6))
    return SymMatrix(n, tuple(draw(st.lists(tiny_entries, min_size=n * (n + 1) // 2,
                                            max_size=n * (n + 1) // 2))))


@st.composite
def low_rank_grams(draw):
    """B^T B with B of rank at most 2: PSD, with a zero residual block left
    after the positive pivots."""
    n, rank = draw(st.integers(0, 6)), draw(st.integers(0, 2))
    b = Matrix(rank, n, tuple(draw(st.lists(tiny_entries, min_size=rank * n, max_size=rank * n))))
    return SymMatrix.from_rows((b.transpose() @ b).to_rows())


@st.composite
def hollow_residuals(draw):
    """Y^T diag(D, H) Y with Y = [[I, C], [0, I]], D a diagonal in [7, 9], H
    hollow with non-zero off-diagonals and |C| <= 1/2. Every H diagonal of
    the product is at most 3 * 9 / 4 < 7, so the D indices are eliminated
    first; that leaves exactly H, and the 2x2 witness is mapped back through
    those steps."""
    q, h = draw(st.integers(0, 3)), draw(st.integers(2, 3))
    n = q + h
    d = draw(st.lists(st.integers(7, 9).map(Fraction), min_size=q, max_size=q))
    hollow = draw(st.lists(nonzero_tiny_entries, min_size=h * (h - 1) // 2,
                           max_size=h * (h - 1) // 2))
    cells = {(i, i): v for i, v in enumerate(d, start=1)}
    pairs = [(r, s) for r in range(q + 1, n + 1) for s in range(r + 1, n + 1)]
    cells.update(zip(pairs, hollow))
    y = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(q):
        for j in range(q, n):
            y[i][j] = draw(couplings)
    return congruence(SymMatrix.from_cells(n, cells), Matrix.from_rows(y))


@st.composite
def low_rank_matrices(draw, rows, cols):
    """rows x cols matrices with entries that are all small integers or have
    mixed denominators; half of them are a product B C through an inner
    dimension of 0-2, so rank deficient whenever both sides exceed it."""
    entries = draw(st.sampled_from([st.integers(-3, 3).map(Fraction), small_fractions]))

    def grid(r, c):
        return Matrix(r, c, tuple(draw(st.lists(entries, min_size=r * c, max_size=r * c))))

    if draw(st.booleans()):
        inner = draw(st.integers(0, 2))
        return grid(rows, inner) @ grid(inner, cols)
    return grid(rows, cols)


@st.composite
def linear_systems(draw):
    """A x = b with A of 0-5 rows and 0-5 columns; b is A x0 (consistent)
    half of the time, otherwise drawn freely (often inconsistent when A is
    rank deficient)."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    a = draw(low_rank_matrices(rows, cols))
    vector = st.lists(small_fractions, min_size=cols, max_size=cols)
    if draw(st.booleans()):
        return a, a.mul_vec(tuple(draw(vector)))
    return a, tuple(draw(st.lists(small_fractions, min_size=rows, max_size=rows)))


def reduced_by_fractions(a: Matrix, extra):
    """Rows [A | extra_i] reduced by the reference Fraction Gauss-Jordan loop,
    with its pivot columns and signed pivot product."""
    rows = [list(a.row(i)) + list(extra[i - 1]) for i in range(1, a.rows + 1)]
    pivot_cols, product = gauss_jordan_by_fractions(rows, a.cols)
    return rows, pivot_cols, product


def quad_form(a: SymMatrix, v) -> Fraction:
    n = a.n
    return sum(a.at(i + 1, j + 1) * v[i] * v[j] for i in range(n) for j in range(n))


class TestSolveLinear:
    def test_identity_system(self):
        sol = solve_linear(Matrix.identity(3), (1, 0, 0))
        assert sol.particular == (1, 0, 0)
        assert sol.nullspace == ()

    def test_inconsistent(self):
        assert solve_linear(Matrix.zeros(1, 1), (1,)) is None

    @given(st.lists(st.integers(-9, 9), min_size=40, max_size=40),
           st.lists(st.integers(-9, 9), min_size=5, max_size=5))
    @settings(max_examples=60)
    def test_random_rectangular_residual(self, entries, rhs):
        a = Matrix(5, 8, tuple(Fraction(v) for v in entries))
        sol = solve_linear(a, tuple(Fraction(v) for v in rhs))
        if sol is None:
            return
        assert a.mul_vec(sol.particular) == tuple(Fraction(v) for v in rhs)
        for basis_vec in sol.nullspace:
            combined = tuple(p + q for p, q in zip(sol.particular, basis_vec))
            assert a.mul_vec(combined) == tuple(Fraction(v) for v in rhs)


    @given(st.lists(small_fractions, min_size=8, max_size=8),
           st.lists(small_fractions, min_size=10, max_size=10),
           st.lists(small_fractions, min_size=5, max_size=5))
    @settings(max_examples=60)
    def test_rank_deficient_consistent_system(self, left, right, x0):
        # A = B C with B 4x2 and C 2x5 has rank at most 2, so at least three
        # free columns; b = A x0 makes the system consistent
        a = Matrix(4, 2, tuple(left)) @ Matrix(2, 5, tuple(right))
        rhs = a.mul_vec(tuple(x0))
        sol = solve_linear(a, rhs)
        assert sol is not None
        assert a.mul_vec(sol.particular) == rhs
        assert len(sol.nullspace) >= 3
        for basis_vec in sol.nullspace:
            assert a.mul_vec(basis_vec) == (0, 0, 0, 0)

    @given(linear_systems())
    @settings(max_examples=150)
    def test_matches_fraction_reference(self, system):
        a, b = system
        rows, pivot_cols, _ = reduced_by_fractions(a, [(Fraction(v),) for v in b])
        sol = solve_linear(a, b)
        if any(row[a.cols] != 0 for row in rows[len(pivot_cols):]):
            assert sol is None
            return
        particular = [Fraction(0)] * a.cols
        for row, c in zip(rows, pivot_cols):
            particular[c] = row[a.cols]
        nullspace = []
        for f in (c for c in range(a.cols) if c not in pivot_cols):
            v = [Fraction(int(c == f)) for c in range(a.cols)]
            for row, c in zip(rows, pivot_cols):
                v[c] = -row[f]
            nullspace.append(tuple(v))
        assert sol.particular == tuple(particular)
        assert sol.nullspace == tuple(nullspace)
        assert all(type(v) is Fraction for v in sol.particular + sum(sol.nullspace, ()))


class TestDeterminant:
    @given(square_matrices())
    @settings(max_examples=150)
    def test_matches_cofactor_expansion(self, a):
        assert determinant(a) == determinant_by_cofactors(a.to_rows())

    @given(st.integers(0, 6).flatmap(lambda n: low_rank_matrices(n, n)))
    @settings(max_examples=100)
    def test_matches_fraction_reference(self, a):
        _, pivot_cols, product = reduced_by_fractions(a, [()] * a.rows)
        got = determinant(a)
        assert got == (product if len(pivot_cols) == a.rows else 0)
        assert type(got) is Fraction

    @pytest.mark.parametrize("rows, expected", [
        ([[0, 1], [1, 0]], -1),
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
        ([[0, 2, 1], [3, 0, 0], [0, 0, 5]], -30),
        ([[0, 0, 0, 1], [0, 0, 2, 0], [0, 3, 0, 0], [4, 0, 0, 0]], 24),
        ([[1, 2], [2, 4]], 0),
        ([[0, 1, 2], [0, 3, 4], [0, 5, 6]], 0),
        ([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [1, 0, 1, 0]], 0),
    ])
    def test_row_swaps_and_singular_cases(self, rows, expected):
        assert determinant(Matrix.from_rows(rows)) == expected == determinant_by_cofactors(rows)


@st.composite
def residue_cases(draw):
    """Square matrices of order 1-6 of three kinds: entries that are small,
    up to 2^70 or small fractions; rank-deficient products through a smaller
    inner dimension; and non-singular integer matrices whose determinant is a
    multiple of PRIME, so singular only modulo the prime: triangular with a
    diagonal entry PRIME k, times a random unimodular matrix."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["entries", "low rank", "multiple of the prime"]))
    if kind == "entries":
        entries = draw(st.sampled_from([st.integers(-2, 2).map(Fraction),
                                        st.integers(-2**70, 2**70).map(Fraction), small_fractions]))
        return Matrix(n, n, tuple(draw(st.lists(entries, min_size=n * n, max_size=n * n))))
    if kind == "low rank":
        return draw(low_rank_matrices(n, n))
    k = draw(st.integers(-3, 3).map(lambda v: v if v else 1))
    at = draw(st.integers(0, n - 1))
    cells = [[(PRIME * k if i == at else draw(nonzero_tiny_entries).numerator) if i == j
              else draw(st.integers(-3, 3)) if i < j else 0 for j in range(n)] for i in range(n)]
    unimodular, _ = unimodular_pair(n, draw(st.integers(0, 2**32)), draw(st.integers(0, 6)), 2)
    return Matrix.from_rows(cells) @ unimodular


class TestDeterminantResidue:
    @given(residue_cases())
    @settings(max_examples=200, deadline=None)
    def test_residue_is_the_determinant_of_the_numerators_modulo_the_prime(self, a):
        residue = determinant_residue(a)
        assert 0 <= residue < PRIME
        assert residue == determinant(a) * a._d**a.rows % PRIME

    @given(residue_cases(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_reformulation_verdict_is_the_determinants(self, a, as_transform):
        # the matrix as T with G = I, or as G with T = I: the reformulation
        # holds by construction, so it fails exactly on det = 0
        n = a.rows
        if as_transform:
            raw = SdpInstance(n, (SymMatrix.identity(n),), (Fraction(1),))
            g, t, name = Matrix.identity(1), a, "T"
        else:
            raw = SdpInstance(1, tuple(SymMatrix.diag([i]) for i in range(1, n + 1)),
                              tuple(map(Fraction, range(n))))
            g, t, name = a, Matrix.identity(1), "G"
        report = check_reformulation(raw, g, t, reformulated(raw, g, t))
        assert bool(report) == (determinant(a) != 0)
        assert report.detail == ("" if report else f"det {name} = 0")

    @pytest.mark.parametrize("rows", [
        [[PRIME]],
        [[2 * PRIME, 1], [PRIME, 1]],
        [[1, 2, 3], [0, PRIME, 5], [0, 0, -1]],
    ])
    def test_singular_only_modulo_the_prime(self, rows):
        a = Matrix.from_rows(rows)
        assert determinant_residue(a) == 0 and determinant(a) != 0
        raw = SdpInstance(a.rows, (SymMatrix.identity(a.rows),), (Fraction(1),))
        assert check_reformulation(raw, Matrix.identity(1), a, reformulated(raw, Matrix.identity(1), a))


class TestInverse:
    @given(square_matrices())
    @settings(max_examples=100)
    def test_inverse_times_matrix_is_identity(self, a):
        if determinant_by_cofactors(a.to_rows()) == 0:
            with pytest.raises(ValueError):
                inverse(a)
            return
        inv = inverse(a)
        assert inv @ a == Matrix.identity(a.rows)
        assert a @ inv == Matrix.identity(a.rows)

    @given(st.integers(0, 6).flatmap(lambda n: low_rank_matrices(n, n)))
    @settings(max_examples=100)
    def test_matches_fraction_reference(self, a):
        n = a.rows
        unit = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
        rows, pivot_cols, _ = reduced_by_fractions(a, unit)
        if len(pivot_cols) < n:
            with pytest.raises(ValueError):
                inverse(a)
            return
        got = inverse(a)
        assert got == Matrix(n, n, tuple(v for row in rows for v in row[n:]))
        assert all(type(v) is Fraction for row in got.to_rows() for v in row)

    def test_fractional_example(self):
        a = Matrix.from_rows([[Fraction(1, 2), Fraction(-2, 3)], [Fraction(3, 4), Fraction(5, 7)]])
        assert inverse(a) @ a == Matrix.identity(2)


class TestPsdCertify:
    def test_swap_matrix_witness(self):
        verdict = psd_certify(SymMatrix.from_rows([[0, 1], [1, 0]]))
        assert not verdict.is_psd
        assert verdict.witness == (1, -1)
        assert verdict.witness_value == -2

    @pytest.mark.parametrize("t", [0, 1, -3, Fraction(7, 2), 100])
    def test_hollow_corner_never_psd(self, t):
        verdict = psd_certify(SymMatrix.from_rows([[0, 1], [1, t]]))
        assert not verdict.is_psd
        assert verdict.witness_value < 0

    def test_nonnegative_diagonal_is_psd(self):
        verdict = psd_certify(SymMatrix.diag([1, 2, 0]))
        assert verdict.is_psd
        assert verdict.reconstruct() == SymMatrix.diag([1, 2, 0])

    def test_zero_pivot_with_nonzero_row_rejected(self):
        a = SymMatrix.from_rows([[1, 0, 2], [0, 0, 1], [2, 1, 5]])
        verdict = psd_certify(a)
        assert not verdict.is_psd
        assert quad_form(a, verdict.witness) == verdict.witness_value < 0

    @given(st.lists(small_fractions, min_size=10, max_size=10))
    @settings(max_examples=150)
    def test_decision_always_certified(self, upper):
        a = SymMatrix(4, tuple(upper))
        verdict = psd_certify(a)
        if verdict.is_psd:
            assert all(d >= 0 for d in verdict.diag)
            assert verdict.reconstruct() == a
        else:
            assert quad_form(a, verdict.witness) == verdict.witness_value
            assert verdict.witness_value < 0

    @given(st.lists(small_fractions, min_size=10, max_size=10))
    @settings(max_examples=80)
    def test_gram_matrices_accepted(self, entries):
        # B^T B is psd for any B; | the factorization must reproduce it exactly
        b = Matrix(2, 5, tuple(entries))
        gram_rows = (b.transpose() @ b).to_rows()
        verdict = psd_certify(SymMatrix.from_rows(gram_rows))
        assert verdict.is_psd
        assert verdict.reconstruct() == SymMatrix.from_rows(gram_rows)

    @given(st.one_of(random_symmetric(), low_rank_grams(), hollow_residuals()))
    @settings(max_examples=300)
    def test_matches_step_by_step_reference(self, a):
        got, want = psd_certify(a), psd_certify_by_steps(a)
        assert got.is_psd == want.is_psd
        assert got.permutation == want.permutation
        assert got.diag == want.diag
        assert got.lower == want.lower
        assert got.witness == want.witness
        assert got.witness_value == want.witness_value

    def test_positive_definite_distinguishes_singular(self):
        assert is_positive_definite(SymMatrix.from_rows([[2, 1], [1, 2]]))
        assert not is_positive_definite(SymMatrix.diag([1, 0]))

    @given(st.one_of(random_symmetric(), low_rank_grams(), hollow_residuals(),
                     low_rank_grams().map(lambda g: g.add(SymMatrix.identity(g.n)))))
    @settings(max_examples=300)
    def test_positive_definite_matches_step_by_step_reference(self, a):
        # the last source is B^T B + I, so positive definite cases come up too
        want = psd_certify_by_steps(a)
        assert is_positive_definite(a) == (want.is_psd and all(d > 0 for d in want.diag))


class TestSchurComplement:
    @staticmethod
    def by_inverse(a: SymMatrix, eliminate, keep) -> SymMatrix:
        """A_KK - A_KE inverse(A_EE) A_EK, formed with the general inverse."""
        def block(rows, cols):
            return Matrix(len(rows), len(cols), [a.at(r, c) for r in rows for c in cols])

        a_ke = block(keep, eliminate)
        product = a_ke @ inverse(block(eliminate, eliminate)) @ a_ke.transpose()
        return SymMatrix.from_rows((block(keep, keep) - product).to_rows())

    @given(st.lists(small_fractions, min_size=20, max_size=20),
           st.permutations([1, 2, 3, 4, 5]), st.integers(1, 4))
    @settings(max_examples=80)
    def test_matches_inverse_formula(self, entries, order, split):
        # B^T B + I is positive definite, so every elimination order succeeds
        b = Matrix(4, 5, tuple(entries))
        a = SymMatrix.from_rows((b.transpose() @ b + Matrix.identity(5)).to_rows())
        eliminate, keep = order[:split], sorted(order[split:])
        assert schur_complement(a, eliminate, keep) == self.by_inverse(a, eliminate, keep)

    def test_non_integer_example(self):
        a = SymMatrix.from_rows([
            [Fraction(3, 2), Fraction(1, 3), Fraction(-1, 4)],
            [Fraction(1, 3), Fraction(5, 7), Fraction(2, 5)],
            [Fraction(-1, 4), Fraction(2, 5), Fraction(9, 4)],
        ])
        got = schur_complement(a, [1], [2, 3])
        assert got == self.by_inverse(a, [1], [2, 3])
        assert got.at(1, 1) == Fraction(5, 7) - Fraction(1, 9) / Fraction(3, 2)

    @given(random_symmetric(), st.data())
    @settings(max_examples=150)
    def test_sparse_mixed_denominators_match_inverse_formula(self, a, data):
        # tiny entries are often zero, so many rows have no coupling to a
        # pivot; a row has at most five off-diagonal entries, each at most 5
        # in size, so a diagonal shift of 40 on the eliminated indices makes
        # that block diagonally dominant, hence positive definite
        indices = data.draw(st.permutations(range(1, a.n + 1)))
        split = data.draw(st.integers(0, a.n))
        eliminate, keep = indices[:split], sorted(indices[split:])
        a = a.add(SymMatrix.diag([40 if i in eliminate else 0 for i in range(1, a.n + 1)]))
        assert schur_complement(a, eliminate, keep) == self.by_inverse(a, eliminate, keep)

    @pytest.mark.parametrize("rows, eliminate, message", [
        ([[2, 1], [1, Fraction(-1, 3)]], [2], "non-positive pivot -1/3 at index 2"),
        # the second pivot is 1/3 - 1/2 only after the first step
        ([[2, 1], [1, Fraction(1, 3)]], [1, 2], "non-positive pivot -1/6 at index 2"),
        ([[4, 2, 0], [2, 1, 0], [0, 0, 1]], [1, 2], "non-positive pivot 0 at index 2"),
    ])
    def test_non_positive_pivot_is_named_by_its_value(self, rows, eliminate, message):
        a = SymMatrix.from_rows(rows)
        keep = [i for i in range(1, a.n + 1) if i not in eliminate]
        with pytest.raises(ValueError, match=f"^{message}$"):
            schur_complement(a, eliminate, keep)

    @pytest.mark.parametrize("pivot", [0, -1, Fraction(-1, 3)])
    def test_non_positive_pivot_rejected(self, pivot):
        a = SymMatrix.from_rows([[2, 1, 0], [1, pivot, 1], [0, 1, 3]])
        with pytest.raises(ValueError):
            schur_complement(a, [2], [1, 3])

    def test_pivot_turned_non_positive_by_elimination_rejected(self):
        # the second pivot is 1 - 2 * 2 / 4 = 0 only after the first step
        a = SymMatrix.from_rows([[4, 2, 0], [2, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError):
            schur_complement(a, [1, 2], [3])

    def test_empty_elimination_is_principal_block(self):
        a = SymMatrix.from_rows([[1, Fraction(1, 2), 3], [Fraction(1, 2), -2, 0], [3, 0, 5]])
        assert schur_complement(a, [], [1, 3]) == a.principal([1, 3])

    @pytest.mark.parametrize("eliminate, keep", [([0], [1]), ([1], [3]), ([], [-1])])
    def test_index_outside_the_order_rejected(self, eliminate, keep):
        with pytest.raises(IndexError):
            schur_complement(SymMatrix.identity(2), eliminate, keep)


@st.composite
def shift_pairs(draw):
    """(C, D) of order 0..5: C symmetric with mixed denominators, as a Schur
    complement next to a padding of 2^-k is, and D a positive diagonal."""
    n = draw(st.integers(0, 5))
    upper = draw(st.lists(small_fractions, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    pad = Fraction(1, 2 ** draw(st.integers(0, 12)))
    c = SymMatrix(n, tuple(upper)).add(SymMatrix.diag([pad] * n))
    d = SymMatrix.diag(draw(st.lists(fractions_between(Fraction(1, 64), 9, 64),
                                     min_size=n, max_size=n)))
    return c, d


@st.composite
def very_negative_pairs(draw):
    """(C, D) of order 1..3: C with diagonal entries near -2^t, t in 10..40,
    and small couplings, so that the answer has an exponent in the tens;
    D a positive diagonal."""
    n = draw(st.integers(1, 3))
    diagonal = [-draw(fractions_between(1, 7, 5)) * 2 ** draw(st.integers(10, 40))
                for _ in range(n)]
    c = SymMatrix(n, tuple(diagonal[i] if i == j else draw(small_fractions)
                           for i in range(n) for j in range(i, n)))
    d = SymMatrix.diag(draw(st.lists(fractions_between(Fraction(1, 16), 9, 16),
                                     min_size=n, max_size=n)))
    return c, d


@st.composite
def coupled_pairs(draw):
    """2 x 2 (C, D) with a small diagonal in C and a coupling of at least
    2^9: the exponent that makes the diagonal positive is at most 6, and
    there the determinant is still negative, so the diagonal bound is not
    the answer."""
    a, c = draw(fractions_within(4, 8)), draw(fractions_within(4, 8))
    b = draw(st.sampled_from([-1, 1])) * draw(st.integers(1, 7)) * 2 ** draw(st.integers(9, 30))
    d = [draw(fractions_between(Fraction(1, 8), 4, 8)) for _ in range(2)]
    return SymMatrix(2, (a, b, c)), SymMatrix.diag(d)


def diagonal_bound(c: SymMatrix, d: SymMatrix) -> Fraction:
    """The least 2^e, e >= 0, with every diagonal entry of C + 2^e D positive."""
    s = Fraction(1)
    while any(c.at(r, r) + s * d.at(r, r) <= 0 for r in range(1, c.n + 1)):
        s *= 2
    return s


class TestLeastDefiniteShift:
    @given(shift_pairs())
    @settings(max_examples=200)
    def test_matches_fraction_probes(self, pair):
        c, d = pair
        gamma = least_definite_shift(c, d)
        assert gamma == least_definite_shift_by_probes(c, d)
        assert is_positive_definite(c.add(d.scale(gamma)))
        assert gamma == 1 or not is_positive_definite(c.add(d.scale(gamma / 2)))

    @given(st.lists(small_fractions, min_size=12, max_size=12),
           st.lists(small_fractions, min_size=6, max_size=6))
    @settings(max_examples=60)
    def test_direction_need_not_be_diagonal(self, entries, upper):
        # B^T B + I is positive definite and has off-diagonal entries
        b = Matrix(4, 3, tuple(entries))
        d = SymMatrix.from_rows((b.transpose() @ b + Matrix.identity(3)).to_rows())
        c = SymMatrix(3, tuple(upper))
        assert least_definite_shift(c, d) == least_definite_shift_by_probes(c, d)

    @given(very_negative_pairs())
    @settings(max_examples=60)
    def test_very_negative_diagonal(self, pair):
        c, d = pair
        assert least_definite_shift(c, d) == least_definite_shift_by_probes(c, d)

    @given(coupled_pairs())
    @settings(max_examples=60)
    def test_coupled_block_beyond_the_diagonal_bound(self, pair):
        c, d = pair
        gamma = least_definite_shift(c, d)
        assert gamma == least_definite_shift_by_probes(c, d)
        assert gamma > diagonal_bound(c, d)

    @pytest.mark.parametrize("c, d", [
        (0, 1), (5, 3), (-1, 1), (-1, Fraction(1, 2)), (Fraction(-3, 7), Fraction(5, 9)),
        (-3 * 2**35, 7), (-(2**40), 1), (Fraction(-(2**41) + 1, 3), Fraction(1, 6)),
    ])
    def test_one_index_takes_one_probe(self, monkeypatch, c, d):
        # the diagonal bound is exact for one index: after the check on D,
        # the search runs a single probe, and it passes
        import weaksdp.linalg

        calls = []
        positive_pivots = weaksdp.linalg._positive_pivots

        def counting(w, count):
            calls.append(count)
            return positive_pivots(w, count)

        monkeypatch.setattr(weaksdp.linalg, "_positive_pivots", counting)
        c, d = SymMatrix.diag([c]), SymMatrix.diag([d])
        gamma = least_definite_shift(c, d)
        assert calls == [1, 1]
        assert gamma == least_definite_shift_by_probes(c, d) == diagonal_bound(c, d)

    def test_already_definite_is_one(self):
        assert least_definite_shift(SymMatrix.identity(2), SymMatrix.identity(2)) == 1
        assert least_definite_shift(SymMatrix.zeros(0), SymMatrix.zeros(0)) == 1

    def test_known_exponent(self):
        # [[-100, 1], [1, -100]] + s I is positive definite iff s > 101
        c = SymMatrix.from_rows([[-100, 1], [1, -100]])
        assert least_definite_shift(c, SymMatrix.identity(2)) == 128
        assert least_definite_shift(c, SymMatrix.diag([Fraction(1, 2), 4])) == 256

    @pytest.mark.parametrize("d", [SymMatrix.diag([1, 0]), SymMatrix.diag([1, -1]),
                                   SymMatrix.from_rows([[1, 1], [1, 1]])])
    def test_direction_not_positive_definite_rejected(self, d):
        with pytest.raises(ValueError, match="positive definite"):
            least_definite_shift(SymMatrix.identity(2), d)

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError, match="order mismatch"):
            least_definite_shift(SymMatrix.identity(2), SymMatrix.identity(3))


@st.composite
def bordered_cases(draw):
    """(A, blocks, lowered): A = (B^T B + I) / q of order 1..6, positive
    definite with mixed denominators; its indices in an ordered partition
    into blocks of 1..3; and for each block, numerators over A's
    denominator by which its diagonal is lowered before it joins."""
    n = draw(st.integers(1, 6))
    b = Matrix(n, n, tuple(draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))))
    q = draw(st.integers(1, 5))
    a = SymMatrix.from_rows(((b.transpose() @ b + Matrix.identity(n)).scale(Fraction(1, q))).to_rows())
    order = draw(st.permutations(range(1, n + 1)))
    blocks = []
    while order:
        size = draw(st.integers(1, min(3, len(order))))
        blocks.append(sorted(order[:size]))
        order = order[size:]
    lowered = [draw(st.lists(st.integers(0, 9), min_size=len(block), max_size=len(block)))
               for block in blocks]
    return a, blocks, lowered


class TestBorderedElimination:
    @given(bordered_cases())
    @settings(max_examples=150)
    def test_complements_match_a_fresh_elimination(self, case):
        # each block joins with its diagonal lowered and gets it back from
        # `eliminate`; its complement is the one a fresh elimination of every
        # earlier index gives. The columns of indices yet to join hold junk,
        # which must not be read
        a, blocks, lowered = case
        rows, den = a._num_rows(), a._d
        elimination = BorderedElimination(a.n, den)
        done: list[int] = []
        for block, lower in zip(blocks, lowered):
            later = [s for s in range(1, a.n + 1) if s not in done and s not in block]
            joined = {r - 1: rows[r - 1][:] for r in block}
            for r, v in zip(block, lower):
                joined[r - 1][r - 1] -= v
                for s in later:
                    joined[r - 1][s - 1] = 1000 + 7 * r * s
            drop = dict(zip(block, lower))
            low = a.add(SymMatrix.diag([Fraction(-drop.get(r, 0), den) for r in range(1, a.n + 1)]))
            assert elimination.join(joined) == schur_complement(low, done, block)
            assert elimination.eliminate(lower)
            done += block

    def test_non_positive_pivot_stops_the_elimination(self):
        # [[1, 1], [1, 1]] joined as two blocks: the complement onto index 2 is 0
        elimination = BorderedElimination(2, 1)
        assert elimination.join({0: [1, 1]}) == SymMatrix.diag([1])
        assert elimination.eliminate([0])
        assert elimination.join({1: [1, 1]}) == SymMatrix.diag([0])
        assert not elimination.eliminate([0])


class TestRandomUnimodular:
    @staticmethod
    def drawn(n, seed, budget, cap) -> Matrix:
        """The U of `unimodular_pair`, checked against the U^-1 drawn with it."""
        u, u_inverse = unimodular_pair(n, seed, budget, cap)
        assert u @ u_inverse == u_inverse @ u == Matrix.identity(n)
        return u

    def test_zero_budget_is_identity(self):
        assert self.drawn(4, 123, 0, 3) == Matrix.identity(4)

    def test_determinants_are_unimodular(self):
        for seed in range(100):
            t = self.drawn(4, seed, 12, 3)
            assert determinant(t) in (1, -1)

    def test_entry_growth_bound(self):
        budget, cap = 10, 2
        for seed in range(25):
            t = self.drawn(3, seed, budget, cap)
            bound = (1 + cap) ** budget
            assert all(abs(v) <= bound for row in t.to_rows() for v in row)

    def test_deterministic(self):
        assert unimodular_pair(5, 42, 20, 2) == unimodular_pair(5, 42, 20, 2)
        assert random_unimodular(5, 42, 20, 2) == unimodular_pair(5, 42, 20, 2)[0]

    def test_order_one(self):
        t = self.drawn(1, 9, 10, 3)
        assert t.to_rows() in ([[1]], [[-1]])


class TestDeterminism:
    def test_splitmix_reference_stream(self):
        # pinned values guard cross-platform reproducibility of every draw
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        rng2 = SplitMix64(42)
        rng3 = SplitMix64(42)
        assert [rng2.randint(0, 9) for _ in range(5)] == [rng3.randint(0, 9) for _ in range(5)]

    @pytest.mark.parametrize("lo, hi, count", [
        # count 0 draws nothing: [] and the state untouched
        (-3, 3, 820), (0, 0, 4), (-3, 3, 0), (1, 2**70, 9), (-(2**65), -(2**64), 3),
    ])
    def test_randints_are_randint_calls(self, lo, hi, count):
        bulk, single = SplitMix64(2026), SplitMix64(2026)
        assert bulk.randints(lo, hi, count) == [single.randint(lo, hi) for _ in range(count)]
        assert bulk.next_u64() == single.next_u64()  # the same state is left behind

    def test_randints_refuse_an_empty_range_as_randint_does(self):
        with pytest.raises(ValueError) as single:
            SplitMix64(2026).randint(3, 2)
        for count in (0, 1, 5):
            with pytest.raises(ValueError) as bulk:
                SplitMix64(2026).randints(3, 2, count)
            assert str(bulk.value) == str(single.value)
