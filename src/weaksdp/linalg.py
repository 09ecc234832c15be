"""Exact linear algebra: elimination, Schur complements, determinants, PSD
certification, least positive-definite shifts, and random unimodular
matrices.

There are two elimination loops, both fraction-free (Bareiss, Math. Comp.
22, 1968): each starts from the stored integer numerators of its input
matrix (all over the matrix's one denominator), eliminates on ints with
exact divisions by the previous pivot, and returns its result either as
numerators over one denominator, for a matrix, or as `Fraction`s where the
API hands out scalars. `_gauss_jordan` is the Gauss-Jordan reduction shared
by `solve_linear`, `determinant` and `inverse`. `_eliminate` is one
symmetric elimination step on a full working grid of numerators;
`psd_certify` (pivoted LDL^T) runs its steps under the max-diagonal pivot
rule, and `_positive_steps` runs them in a given order while the pivots
stay positive: in natural order (`_positive_pivots`) for `schur_complement`
and for each probe of `least_definite_shift`, and block by block for
`BorderedElimination`, which also borders each new block through the steps
already taken, so that the asymptote witness eliminates each index once
across its levels. The one product here, `PsdVerdict.reconstruct`, is one
`congruence` of `exact`, whose transform, built from the factorization, runs
through `exact.congruences`. Apart from both, `determinant_residue` eliminates
modulo the prime 2^61 - 1, on word-sized residues: a non-zero residue
proves a determinant non-zero without the exact elimination.

Positive definiteness is decided in two ways. `is_positive_definite`
reads the verdict of `psd_certify`. Where only yes or no is needed, the
signs of the natural-order pivots of `_positive_pivots` decide it on the
integer grid and no verdict is built: in each probe of
`least_definite_shift`, and in `schur_complement`, which raises ValueError
at the first non-positive pivot, so that eliminating every index and
keeping none tests a whole matrix.

`random_unimodular` is the first of `unimodular_pair`, whose one draw loop
applies each elementary operation to U and the transpose of its inverse to
a second grid, so that the disguise's inverse comes with it and no
elimination runs. No package path calls `solve_linear` or
`random_unimodular`, and the package does not export them; they stay only
while the benchmark's trace list (`perfbench/spans.py`) names them.

The PSD decision of `psd_certify` is a certificate-producing procedure: a positive verdict
carries an exact pivoted LDL^T factorization that reconstructs the input, a
negative verdict carries an explicit rational vector w with w^T A w < 0. Both
sides are checkable by plain arithmetic, which is what downstream verification
relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .exact import Matrix, SymMatrix, congruence
from .prng import SplitMix64

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LinearSolution:
    """One exact solution of A x = b together with a basis of the nullspace of A."""

    particular: tuple[Fraction, ...]
    nullspace: tuple[tuple[Fraction, ...], ...]


def _gauss_jordan(grid: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan reduction of the integer rows `grid`, in
    place, on the first `ncols` columns.

    Columns beyond `ncols` (a right-hand side, an identity block) are carried
    along. The step on pivot p = row_r[c] replaces every other row by
    (p row_i - row_i[c] row_r) // prev, prev being the previous step's pivot
    (1 at first). By Sylvester's identity every such division is exact
    (Bareiss, Math. Comp. 22, 1968), and after the step each pivot row is p
    times the same row of the reduction over Fractions.

    Returns the pivot columns, the determinant of the integer matrix
    (meaningful for a square matrix at full rank) and the last pivot
    `prev`: afterwards row i < rank is prev times row i of the reduced row
    echelon form, and the rows below are zero on the first `ncols` columns.
    """
    pivot_cols: list[int] = []
    sign, prev = 1, 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(grid)) if grid[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
            sign = -sign
        pivot = grid[r]
        p = pivot[c]
        if p < 0:
            # no other row has used row r yet, so negating it negates one
            # input row: the determinant flips sign and the reduced form stays.
            # With positive pivots, a row with a zero in column c is left as
            # it is whenever the pivot repeats.
            pivot[:] = [-v for v in pivot]
            p, sign = -p, -sign
        for i, row in enumerate(grid):
            if i == r:
                continue
            f = row[c]
            if f:
                row[:] = [(p * v - f * w) // prev for v, w in zip(row, pivot)]
            elif p != prev:
                row[:] = [p * v // prev for v in row]
        prev = p
        pivot_cols.append(c)
        r += 1
    return pivot_cols, sign * prev, prev


def solve_linear(a: Matrix, b: Sequence[Fraction]) -> LinearSolution | None:
    """Solve A x = b exactly by Gauss-Jordan elimination of [A | b].

    Returns a particular solution plus a rational nullspace basis when the
    system is consistent, and None when it is infeasible.
    """
    if len(b) != a.rows:
        raise ValueError("right-hand side length does not match row count")
    rhs = Matrix(a.rows, 1, b)
    # A x = b with A = A'/da and b = b'/db is db A' x = da b' on integers
    grid = [[v * rhs._d for v in row] + [a._d * w] for row, w in zip(a._num_rows(), rhs._e)]
    ncols = a.cols
    pivot_cols, _, prev = _gauss_jordan(grid, ncols)
    if any(row[ncols] for row in grid[len(pivot_cols):]):
        return None
    particular = [_ZERO] * ncols
    for row_idx, c in enumerate(pivot_cols):
        particular[c] = Fraction(grid[row_idx][ncols], prev)
    free_cols = [c for c in range(ncols) if c not in set(pivot_cols)]
    basis = []
    for f in free_cols:
        v = [_ZERO] * ncols
        v[f] = _ONE
        for row_idx, c in enumerate(pivot_cols):
            v[c] = Fraction(-grid[row_idx][f], prev)
        basis.append(tuple(v))
    return LinearSolution(tuple(particular), tuple(basis))


def determinant(a: Matrix) -> Fraction:
    """Exact determinant by fraction-free Gauss-Jordan elimination."""
    if not a.is_square():
        raise ValueError("determinant requires a square matrix")
    pivot_cols, det, _ = _gauss_jordan(a._num_rows(), a.cols)
    return Fraction(det, a._d**a.rows) if len(pivot_cols) == a.rows else _ZERO


PRIME = 2**61 - 1
"""The prime of `determinant_residue`."""


def determinant_residue(a: Matrix) -> int:
    """The determinant of A's stored numerators modulo PRIME, in 0..PRIME-1.

    Non-zero only if det A != 0, so a caller that needs det A != 0 runs the
    exact elimination of `determinant` only on a zero residue. Elimination
    modulo the prime runs on word-sized residues, so its cost does not grow
    with the digits of A's entries, and each step rewrites only the columns
    right of its pivot in the rows below it.
    """
    if not a.is_square():
        raise ValueError("determinant requires a square matrix")
    n = a.rows
    rows = [[v % PRIME for v in row] for row in a._num_rows()]
    det = 1
    for c in range(n):
        top = next((r for r in range(c, n) if rows[r][c]), None)
        if top is None:
            return 0
        if top != c:
            rows[c], rows[top] = rows[top], rows[c]
            det = -det
        pivot = rows[c]
        det = det * pivot[c] % PRIME
        inv = pow(pivot[c], -1, PRIME)
        tail = pivot[c + 1 :]
        for r in range(c + 1, n):
            if f := rows[r][c] * inv % PRIME:  # only rows with an entry below the pivot change
                # columns 0..c of the rows below are never read again
                rows[r][c + 1 :] = [(x - f * y) % PRIME for x, y in zip(rows[r][c + 1 :], tail)]
    return det


def inverse(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination of [A | I]; raises ValueError on singular input."""
    if not a.is_square():
        raise ValueError("inverse requires a square matrix")
    n = a.rows
    grid = [row + [int(j == i) for j in range(n)] for i, row in enumerate(a._num_rows())]
    pivot_cols, _, prev = _gauss_jordan(grid, n)
    if len(pivot_cols) < n:
        raise ValueError("matrix is singular")
    # the right block is prev A'^-1 for A = A'/d, and A^-1 = d A'^-1
    return Matrix._of(n, n, [a._d * v for row in grid for v in row[n:]], prev)


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of the exact PSD decision for a symmetric matrix.

    A positive verdict stores a pivoted LDL^T factorization: `permutation` is
    the 1-based elimination order, `diag` the pivots (>= 0), and `lower` the
    unit lower-triangular factor in permuted coordinates, so that
    ``P^T L D L^T P`` reconstructs the input exactly. A negative verdict
    stores a rational `witness` w with ``w^T A w = witness_value < 0``.
    """

    is_psd: bool
    permutation: tuple[int, ...] | None = None
    diag: tuple[Fraction, ...] | None = None
    lower: Matrix | None = None
    witness: tuple[Fraction, ...] | None = None
    witness_value: Fraction | None = None

    def reconstruct(self) -> SymMatrix:
        """Rebuild the certified matrix from the stored factorization."""
        if not self.is_psd:
            raise ValueError("no factorization on a negative verdict")
        n = len(self.permutation)
        # T is L^T with column r moved to column permutation[r], so that
        # T^T D T = P^T L D L^T P
        source = sorted(range(n), key=lambda r: self.permutation[r])
        lower = self.lower._e
        t = Matrix._of(n, n, [lower[r * n + u] for u in range(n) for r in source], self.lower._d)
        return congruence(SymMatrix.diag(self.diag), t)


def _eliminate(w: list[list[int]], pivot: int, rest: Sequence[int], prev: int, new: int = 0) -> int:
    """One symmetric Bareiss step on the full integer working grid `w`, in place.

    With p = w[pivot][pivot], replaces w[r][s] by
    (p w[r][s] - w[r][pivot] w[pivot][s]) // prev for every r, s in `rest`
    (which must not contain `pivot`) with s at or after both r and rest[new],
    keeping both halves of the grid current; a row with w[pivot][r] == 0 is
    just rescaled by p / prev. `prev` is the previous step's pivot, 1 at
    first. Pivoting on the diagonal is Bareiss's reduction of a
    symmetrically permuted matrix, so by Sylvester's identity every division
    is exact, and after k steps on a grid of numerators over `den` every
    trailing entry is prev den times the same entry of the Schur complement.
    Row `pivot` is not touched, so afterwards it still holds the step's
    multipliers times p. Returns p, the next step's `prev`.

    With new = 0 every pair of `rest` takes the step. A positive `new`
    borders: only the columns rest[new:], of rows that joined the grid after
    this step was first taken, are brought through it (`BorderedElimination`).
    """
    row_p = w[pivot]
    p = row_p[pivot]
    for i, r in enumerate(rest):
        f = row_p[r]
        row_r = w[r]
        if f:
            for s in rest[i if i > new else new:]:
                row_r[s] = w[s][r] = (p * row_r[s] - f * row_p[s]) // prev
        elif p != prev:
            for s in rest[i if i > new else new:]:
                row_r[s] = w[s][r] = p * row_r[s] // prev
    return p


def _positive_steps(w: list[list[int]], order: Sequence[int], count: int, prev: int) -> tuple[int, int]:
    """`_eliminate` steps on the grid `w` on order[0], order[1], ..., each
    over the indices after it in `order`, for the first `count` or until a
    pivot is not positive; `prev` is the pivot before the first.

    Returns how many steps were taken and the last step's pivot (`prev` if
    none).
    """
    for t in range(count):
        q = order[t]
        if not w[q][q] > 0:
            return t, prev
        prev = _eliminate(w, q, order[t + 1:], prev)
    return count, prev


class BorderedElimination:
    """One positive-pivot elimination of a symmetric integer grid W whose
    indices join one block at a time, each step taken once.

    W holds numerators over the fixed denominator `den`. `join` puts in the
    full rows of a new block and borders them: it brings them through every
    step taken so far, so the block's entries become prev den times its
    Schur complement against the eliminated indices, prev being the last
    pivot. `eliminate` then adds a diagonal to the block and takes its steps
    while the pivots stay positive. A fresh elimination over the same
    indices would give the same complements, and take every earlier step
    again.
    """

    def __init__(self, n: int, den: int):
        self._w: list[list[int]] = [[0] * n for _ in range(n)]
        self._den = den
        self._order: list[int] = []  # eliminated indices, 0-based, in step order
        self._block: list[int] = []
        self._prev = 1

    def join(self, rows: dict[int, list[int]]) -> SymMatrix:
        """Border the block of the 0-based indices of `rows`, each row of W in
        full, and return its Schur complement, in ascending index order.
        Columns of indices that have not joined yet are not read."""
        w, order = self._w, self._order
        block = self._block = sorted(rows)
        for r in block:
            w[r] = list(rows[r])
        # W is symmetric: the eliminated rows take the new columns too, and
        # each step brings both halves through it, the pivot row's entries
        # being read from those rows
        for q in order:
            row_q = w[q]
            for r in block:
                row_q[r] = w[r][q]
        prev, joined = 1, order + block
        for t, q in enumerate(order):
            prev = _eliminate(w, q, joined[t + 1:], prev, len(order) - t - 1)
        upper = [w[r][s] for k, r in enumerate(block) for s in block[k:]]
        return SymMatrix._of(len(block), upper, self._prev * self._den)

    def eliminate(self, diagonal: Sequence[int]) -> bool:
        """Add `diagonal`, numerators over `den`, to W's diagonal on the joined
        block and take the block's steps in ascending order. False, with the
        elimination left unusable, when a pivot is not positive."""
        w, block = self._w, self._block
        for r, v in zip(block, diagonal):
            w[r][r] += self._prev * v
        done, self._prev = _positive_steps(w, block, len(block), self._prev)
        self._order += block
        return done == len(block)


def psd_certify(a: SymMatrix) -> PsdVerdict:
    """Decide X >= 0 exactly, producing a checkable certificate either way.

    Diagonal-pivoted elimination: while a positive diagonal pivot exists,
    eliminate it and continue on the Schur complement. If a negative diagonal
    appears the corresponding unit vector (mapped back through the eliminations)
    is a witness. If only zero diagonals remain, either the residual block is
    entirely zero (PSD, zero pivots) or some off-diagonal entry survives and a
    2x2 indefinite block yields the witness.

    The elimination runs on the stored numerators (`_eliminate`). All
    trailing entries share one positive denominator, so the pivot choice and
    the sign tests compare integers; L is stored over the lcm of the pivots,
    and the pivots and the witness become `Fraction`s once, at the end.
    """
    n = a.n
    w, den = a._num_rows(), a._d
    remaining = list(range(n))
    order: list[int] = []
    prevs: list[int] = []  # pivot u is w[p_u][p_u] / (prevs[u] den)
    prev = 1
    while remaining:
        pivot = max(remaining, key=lambda r: (w[r][r], -r))
        if not w[pivot][pivot] > 0:
            break
        remaining.remove(pivot)
        order.append(pivot)
        prevs.append(prev)
        prev = _eliminate(w, pivot, remaining, prev)

    # `remaining` is sorted, and only zero or negative diagonals are left in it.
    # A witness is a vector x on `remaining`, extended so that the eliminated
    # coordinates minimise its quadratic form; that form is then x^T S x for
    # the residual Schur complement S, whose entries are w[r][s] / (prev den).
    start: dict[int, Fraction] = {}
    negative = next((r for r in remaining if w[r][r] < 0), None)
    if negative is not None:
        start[negative] = _ONE
        value = w[negative][negative]
    else:
        offdiag = next(((r, s) for i, r in enumerate(remaining) for s in remaining[i + 1:]
                        if w[r][s] != 0), None)
        if offdiag is not None:
            r, s = offdiag
            start = {r: _ONE, s: -_ONE if w[r][s] > 0 else _ONE}
            # S[r][r] = S[s][s] = 0, so x^T S x = 2 x_r x_s S[r][s] = -2 |S[r][s]|
            value = -2 * abs(w[r][s])
    if start:
        # back-substitute through the eliminations, the last pivot first; a
        # pivot row's entries share one denominator, so their ratios are exact
        witness = [start.get(i, _ZERO) for i in range(n)]
        for p in reversed(order):
            row_p = w[p]
            sigma = sum((row_p[s] * v for s, v in enumerate(witness) if v), _ZERO)
            witness[p] = -sigma / row_p[p]
        return PsdVerdict(False, witness=tuple(witness), witness_value=Fraction(value, prev * den))

    # the residual block is identically zero: zero pivots with zero rows
    diag = tuple(Fraction(w[p][p], q * den) for p, q in zip(order, prevs))
    diag += (_ZERO,) * len(remaining)
    dl = lcm(*(w[p][p] for p in order))
    lower = [0] * (n * n)
    for t, p_t in enumerate(order + remaining):
        lower[t * n + t] = dl
        for u, p_u in enumerate(order[:t]):
            # row p_u kept the multipliers of elimination step u times its pivot
            lower[t * n + u] = w[p_u][p_t] * (dl // w[p_u][p_u])
    order += remaining
    return PsdVerdict(True, permutation=tuple(p + 1 for p in order), diag=diag,
                      lower=Matrix._of(n, n, lower, dl))


def is_positive_definite(a: SymMatrix) -> bool:
    """Exact positive-definiteness: PSD with all pivots strictly positive."""
    verdict = psd_certify(a)
    return verdict.is_psd and all(d > 0 for d in verdict.diag)


def _positive_pivots(w: list[list[int]], count: int) -> tuple[int, int]:
    """`_positive_steps` on the grid `w` in natural order, pivot 0 first,
    for the first `count` indices or until a pivot is not positive.

    Returns how many steps were taken and the last step's pivot (1 if none):
    the grid's numerators stand over that `prev` times their input
    denominator. All `count` steps are taken exactly when the leading
    `count` x `count` block is positive definite.
    """
    return _positive_steps(w, range(len(w)), count, 1)


def schur_complement(a: SymMatrix, eliminate: Sequence[int], keep: Sequence[int]) -> SymMatrix:
    """The complement A_KK - A_KE A_EE^{-1} A_EK of the `eliminate` block.

    Symmetric Gaussian elimination of the `eliminate` indices (1-based, in the
    given order) on the principal block over eliminate + keep; every pivot
    must be positive, so success also proves A_EE positive definite. Raises
    ValueError on a non-positive pivot. Row and column t of the result belong
    to index keep[t].
    """
    order = [r - 1 for r in list(eliminate) + list(keep)]
    if any(not 0 <= r < a.n for r in order):
        raise IndexError(f"indices outside order {a.n} (indices are 1-based)")
    size, first = len(order), len(eliminate)
    rows, den = a._num_rows(), a._d
    w = [[rows[r][s] for s in order] for r in order]
    done, prev = _positive_pivots(w, first)
    if done < first:
        value = Fraction(w[done][done], prev * den)
        raise ValueError(f"non-positive pivot {value} at index {order[done] + 1}")
    return SymMatrix._of(
        size - first, [w[r][s] for r in range(first, size) for s in range(r, size)], prev * den
    )


def _least_passing_power_of_two(passes, low: int) -> Fraction:
    """The least 2^e, e >= low, that `passes` (given the int 2^e), for a test
    monotone in e that no e < low passes: gallop e = low, low + 1, low + 2,
    low + 4, ... to the first pass, then bisect down from it, so a result
    b above `low` costs O(log b) tests, and a result of `low` one test."""
    failed, e = low - 1, low
    while not passes(1 << e):
        failed, e = e, low + max(1, 2 * (e - low))
    while e - failed > 1:
        mid = (failed + e) // 2
        if passes(1 << mid):
            e = mid
        else:
            failed = mid
    return Fraction(1 << e)


def least_definite_shift(c: SymMatrix, d: SymMatrix) -> Fraction:
    """The least power of two 2^e, e >= 0, for which C + 2^e D is positive definite.

    D must be positive definite (ValueError otherwise): then the test is
    monotone in e and passes for e large enough. With the stored forms
    C = C'/c and D = D'/d, C + s D is positive definite iff d C' + s c D'
    is, so each probe forms that integer grid and takes natural-order
    elimination steps until a pivot is not positive. A positive definite
    matrix has a positive diagonal, so the least e with every
    d c'_rr + 2^e c d'_rr > 0 is a lower bound on the answer (exact for a
    1 x 1 block); the search gallops, then bisects, from there.
    """
    if c.n != d.n:
        raise ValueError("order mismatch")
    n = c.n
    cw, cden = c._num_rows(), c._d
    dw, dden = d._num_rows(), d._d
    if _positive_pivots([row[:] for row in dw], n)[0] < n:
        raise ValueError("the shift direction D must be positive definite")
    cw = [[dden * v for v in row] for row in cw]
    dw = [[cden * v for v in row] for row in dw]
    low = 0
    for r in range(n):
        # the least e with unit 2^e > need, where the diagonal of D is positive
        need, unit = -cw[r][r], dw[r][r]
        if need >= 0:
            e = max(0, need.bit_length() - unit.bit_length())
            low = max(low, e + (unit << e <= need))

    def passes(s: int) -> bool:
        grid = [[u + s * v for u, v in zip(row_c, row_d)] for row_c, row_d in zip(cw, dw)]
        return _positive_pivots(grid, n)[0] == n

    return _least_passing_power_of_two(passes, low)


def random_unimodular(n: int, seed: int, ops_budget: int, magnitude_cap: int) -> Matrix:
    """Random integral matrix with determinant +-1, built from elementary operations.

    Applies at most `ops_budget` elementary integer row operations (swaps, row
    negations, additions of integer multiples bounded by `magnitude_cap`) to
    the identity. Deterministic for a given seed; entry growth is bounded by
    (1 + magnitude_cap)^ops_budget. `unimodular_pair` draws it, with its
    inverse.
    """
    return unimodular_pair(n, seed, ops_budget, magnitude_cap)[0]


def unimodular_pair(n: int, seed: int, ops_budget: int, magnitude_cap: int) -> tuple[Matrix, Matrix]:
    """(U, U^-1) for the U of `random_unimodular` with the same arguments.

    The draw loop that builds U applies each operation E to the rows of U
    and the transpose of E^-1 to a second grid, which starts as the identity
    too. U^-1 is the product of the inverse operations in reverse order, so
    that grid ends as the transpose of U^-1: a swap and a negation act on
    both grids alike, and adding c times row j to row i of U subtracts c
    times row i from row j of the second grid. No elimination runs.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if ops_budget < 0:
        raise ValueError("ops budget must be >= 0")
    rng = SplitMix64(seed)
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    inverse_columns = [row[:] for row in rows]  # the transpose of U^-1, row by row
    kinds = ["negate"]
    if n >= 2:
        kinds.append("swap")
        if magnitude_cap >= 1:
            kinds.append("add")
    for _ in range(ops_budget):
        kind = rng.choice(kinds)
        if kind == "swap":
            i = rng.randint(0, n - 1)
            j = rng.randint(0, n - 2)
            if j >= i:
                j += 1
            rows[i], rows[j] = rows[j], rows[i]
            inverse_columns[i], inverse_columns[j] = inverse_columns[j], inverse_columns[i]
        elif kind == "negate":
            i = rng.randint(0, n - 1)
            rows[i] = [-v for v in rows[i]]
            inverse_columns[i] = [-v for v in inverse_columns[i]]
        else:
            i = rng.randint(0, n - 1)
            j = rng.randint(0, n - 2)
            if j >= i:
                j += 1
            c = rng.nonzero_int(magnitude_cap)
            rows[i] = [v + c * w for v, w in zip(rows[i], rows[j])]
            inverse_columns[j] = [v - c * w for v, w in zip(inverse_columns[j], inverse_columns[i])]
    return (Matrix._of(n, n, [v for row in rows for v in row], 1),
            Matrix._of(n, n, [v for column in zip(*inverse_columns) for v in column], 1))
