from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import determinant_by_cofactors, psd_certify_by_steps
from weaksdp import (
    Matrix,
    SplitMix64,
    SymBuilder,
    SymMatrix,
    congruence,
    determinant,
    inverse,
    is_positive_definite,
    psd_certify,
    random_unimodular,
    schur_complement,
    solve_linear,
)

small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=8)


@st.composite
def square_matrices(draw, max_order=4):
    """Square matrices of order 0..max_order; entries in {-1, 0, 1} half the
    time, so singular matrices and zero leading pivots come up often."""
    n = draw(st.integers(0, max_order))
    entries = draw(st.sampled_from([st.integers(-1, 1), small_fractions]))
    return Matrix(n, n, tuple(Fraction(v) for v in draw(st.lists(entries, min_size=n * n,
                                                                       max_size=n * n))))


tiny_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
tiny_entries = st.one_of(st.integers(-1, 1).map(Fraction), tiny_fractions)
couplings = st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2), max_denominator=4)


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
    hollow = draw(st.lists(tiny_entries.filter(bool), min_size=h * (h - 1) // 2,
                           max_size=h * (h - 1) // 2))
    middle = SymBuilder(n)
    for i, v in enumerate(d):
        middle.set(i + 1, i + 1, v)
    pairs = [(r, s) for r in range(q + 1, n + 1) for s in range(r + 1, n + 1)]
    for (r, s), v in zip(pairs, hollow):
        middle.set(r, s, v)
    y = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(q):
        for j in range(q, n):
            y[i][j] = draw(couplings)
    return congruence(middle.freeze(), Matrix.from_rows(y))


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


class TestDeterminant:
    @given(square_matrices())
    @settings(max_examples=150)
    def test_matches_cofactor_expansion(self, a):
        assert determinant(a) == determinant_by_cofactors(a.to_rows())

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


class TestSchurComplement:
    @staticmethod
    def by_inverse(a: SymMatrix, eliminate, keep) -> SymMatrix:
        """A_KK - A_KE inverse(A_EE) A_EK, formed with the general inverse."""
        a_ke = a.submatrix(keep, eliminate)
        product = a_ke @ inverse(a.submatrix(eliminate, eliminate)) @ a_ke.transpose()
        return SymMatrix.from_rows((a.submatrix(keep, keep) - product).to_rows())

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


class TestRandomUnimodular:
    def test_zero_budget_is_identity(self):
        assert random_unimodular(4, 123, 0, 3) == Matrix.identity(4)

    def test_determinants_are_unimodular(self):
        for seed in range(100):
            t = random_unimodular(4, seed, 12, 3)
            assert determinant(t) in (1, -1)

    def test_entry_growth_bound(self):
        budget, cap = 10, 2
        for seed in range(25):
            t = random_unimodular(3, seed, budget, cap)
            bound = (1 + cap) ** budget
            assert all(abs(v) <= bound for row in t.to_rows() for v in row)

    def test_deterministic(self):
        assert random_unimodular(5, 42, 20, 2) == random_unimodular(5, 42, 20, 2)

    def test_order_one(self):
        t = random_unimodular(1, 9, 10, 3)
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
