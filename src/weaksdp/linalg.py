"""Exact linear algebra: elimination, Schur complements, determinants, PSD
certification, and random unimodular matrices.

`solve_linear`, `determinant` and `inverse` share one Gauss-Jordan reduction
over `Fraction`s.

The PSD decision here is a certificate-producing procedure: a positive verdict
carries an exact pivoted LDL^T factorization that reconstructs the input, a
negative verdict carries an explicit rational vector w with w^T A w < 0. Both
sides are checkable by plain arithmetic, which is what downstream verification
relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import Matrix, SymMatrix
from .prng import SplitMix64

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LinearSolution:
    """One exact solution of A x = b together with a basis of the nullspace of A."""

    particular: tuple[Fraction, ...]
    nullspace: tuple[tuple[Fraction, ...], ...]


def _gauss_jordan(rows: list[list[Fraction]], ncols: int) -> tuple[list[int], Fraction]:
    """Reduce `rows` in place to reduced row echelon form on the first `ncols` columns.

    Row operations act on whole rows, so columns beyond `ncols` (a right-hand
    side, an identity block) are carried along. Returns the pivot columns and
    the signed product of the pivots, the sign flipped once per row swap: for
    a square matrix at full rank that product is its determinant.
    """
    pivot_cols: list[int] = []
    product = _ONE
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            product = -product
        # rows r.. are zero left of column c, so row operations start at c
        pivot = rows[r]
        pv = pivot[c]
        product *= pv
        pivot[c:] = [v / pv for v in pivot[c:]]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f != 0:
                row[c:] = [v - f * w for v, w in zip(row[c:], pivot[c:])]
        pivot_cols.append(c)
        r += 1
    return pivot_cols, product


def solve_linear(a: Matrix, b: Sequence[Fraction]) -> LinearSolution | None:
    """Solve A x = b exactly by Gauss-Jordan elimination of [A | b].

    Returns a particular solution plus a rational nullspace basis when the
    system is consistent, and None when it is infeasible.
    """
    if len(b) != a.rows:
        raise ValueError("right-hand side length does not match row count")
    rows = [list(a.row(i)) + [Fraction(b[i - 1])] for i in range(1, a.rows + 1)]
    ncols = a.cols
    pivot_cols, _ = _gauss_jordan(rows, ncols)
    if any(row[ncols] != 0 for row in rows[len(pivot_cols):]):
        return None
    particular = [_ZERO] * ncols
    for row_idx, c in enumerate(pivot_cols):
        particular[c] = rows[row_idx][ncols]
    free_cols = [c for c in range(ncols) if c not in set(pivot_cols)]
    basis = []
    for f in free_cols:
        v = [_ZERO] * ncols
        v[f] = _ONE
        for row_idx, c in enumerate(pivot_cols):
            v[c] = -rows[row_idx][f]
        basis.append(tuple(v))
    return LinearSolution(tuple(particular), tuple(basis))


def determinant(a: Matrix) -> Fraction:
    """Exact determinant: the signed pivot product of Gauss-Jordan elimination."""
    if not a.is_square():
        raise ValueError("determinant requires a square matrix")
    pivot_cols, product = _gauss_jordan([list(a.row(i)) for i in range(1, a.rows + 1)], a.cols)
    return product if len(pivot_cols) == a.rows else _ZERO


def inverse(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination of [A | I]; raises ValueError on singular input."""
    if not a.is_square():
        raise ValueError("inverse requires a square matrix")
    n = a.rows
    rows = [list(a.row(i)) + [_ONE if j == i - 1 else _ZERO for j in range(n)] for i in range(1, n + 1)]
    if len(_gauss_jordan(rows, n)[0]) < n:
        raise ValueError("matrix is singular")
    return Matrix(n, n, tuple(rows[i][n + j] for i in range(n) for j in range(n)))


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
        grid = [[_ZERO] * n for _ in range(n)]
        for r in range(n):
            for s in range(r + 1):
                val = sum((self.lower.at(r + 1, t + 1) * self.diag[t] * self.lower.at(s + 1, t + 1)
                           for t in range(s + 1)), _ZERO)
                pr, ps = self.permutation[r] - 1, self.permutation[s] - 1
                grid[pr][ps] = val
                grid[ps][pr] = val
        return SymMatrix.from_rows(grid)


def psd_certify(a: SymMatrix) -> PsdVerdict:
    """Decide X >= 0 exactly, producing a checkable certificate either way.

    Diagonal-pivoted elimination: while a positive diagonal pivot exists,
    eliminate it and continue on the Schur complement. If a negative diagonal
    appears the corresponding unit vector (mapped back through the eliminations)
    is a witness. If only zero diagonals remain, either the residual block is
    entirely zero (PSD, zero pivots) or some off-diagonal entry survives and a
    2x2 indefinite block yields the witness.
    """
    n = a.n
    w = [[a.at(i + 1, j + 1) for j in range(n)] for i in range(n)]
    remaining = list(range(n))
    steps: list[tuple[int, Fraction, dict[int, Fraction]]] = []

    def back_substitute(vec: dict[int, Fraction]) -> tuple[Fraction, ...]:
        for pivot, d, row in reversed(steps):
            sigma = sum((row[s] * v for s, v in vec.items() if s in row), _ZERO)
            vec[pivot] = -sigma / d
        return tuple(vec.get(i, _ZERO) for i in range(n))

    while remaining:
        pivot = max(remaining, key=lambda r: (w[r][r], -r))
        if w[pivot][pivot] > 0:
            d = w[pivot][pivot]
            remaining.remove(pivot)
            row = {s: w[pivot][s] for s in remaining}
            steps.append((pivot, d, row))
            for ri, r in enumerate(remaining):
                wr = w[pivot][r]
                if wr == 0:
                    continue
                for s in remaining[ri:]:
                    ws = w[pivot][s]
                    if ws != 0:
                        upd = w[r][s] - wr * ws / d
                        w[r][s] = upd
                        w[s][r] = upd
            continue
        negative = next((r for r in sorted(remaining) if w[r][r] < 0), None)
        if negative is not None:
            witness = back_substitute({negative: _ONE})
            return PsdVerdict(False, witness=witness, witness_value=_quadratic_form(a, witness))
        offdiag = next(
            ((r, s) for ri, r in enumerate(sorted(remaining)) for s in sorted(remaining)[ri + 1:]
             if w[r][s] != 0),
            None,
        )
        if offdiag is not None:
            r, s = offdiag
            sign = _ONE if w[r][s] > 0 else -_ONE
            witness = back_substitute({r: _ONE, s: -sign})
            return PsdVerdict(False, witness=witness, witness_value=_quadratic_form(a, witness))
        # residual block is identically zero: zero pivots with zero rows
        for r in sorted(remaining):
            steps.append((r, _ZERO, {}))
        remaining = []

    order = tuple(pivot + 1 for pivot, _, _ in steps)
    diag = tuple(d for _, d, _ in steps)
    lower_rows = []
    for t, (pivot_t, _, _) in enumerate(steps):
        row = []
        for u, (_, d_u, row_u) in enumerate(steps[: t + 1]):
            if u == t:
                row.append(_ONE)
            elif d_u == 0:
                row.append(_ZERO)
            else:
                row.append(row_u.get(pivot_t, _ZERO) / d_u)
        row.extend([_ZERO] * (n - t - 1))
        lower_rows.append(row)
    return PsdVerdict(True, permutation=order, diag=diag, lower=Matrix.from_rows(lower_rows) if n else Matrix.zeros(0, 0))


def _quadratic_form(a: SymMatrix, v: Sequence[Fraction]) -> Fraction:
    total = _ZERO
    n = a.n
    for i in range(n):
        if v[i] == 0:
            continue
        total += a.at(i + 1, i + 1) * v[i] * v[i]
        for j in range(i + 1, n):
            if v[j] != 0:
                total += 2 * a.at(i + 1, j + 1) * v[i] * v[j]
    return total


def is_positive_definite(a: SymMatrix) -> bool:
    """Exact positive-definiteness: PSD with all pivots strictly positive."""
    verdict = psd_certify(a)
    return verdict.is_psd and all(d > 0 for d in verdict.diag)


def schur_complement(a: SymMatrix, eliminate: Sequence[int], keep: Sequence[int]) -> SymMatrix:
    """The complement A_KK - A_KE A_EE^{-1} A_EK of the `eliminate` block.

    Symmetric Gaussian elimination of the `eliminate` indices (1-based, in the
    given order) on the principal block over eliminate + keep; every pivot
    must be positive, so success also proves A_EE positive definite. Raises
    ValueError on a non-positive pivot. Row and column t of the result belong
    to index keep[t].
    """
    order = list(eliminate) + list(keep)
    size, first = len(order), len(eliminate)
    # only the upper triangle (s >= r) of the working rows is kept current
    w = [[a.at(r, s) for s in order] for r in order]
    for p in range(first):
        row_p = w[p]
        d = row_p[p]
        if not d > 0:
            raise ValueError(f"non-positive pivot {d} at index {order[p]}")
        for r in range(p + 1, size):
            f = row_p[r] / d
            if f != 0:
                row_r = w[r]
                for s in range(r, size):
                    row_r[s] -= f * row_p[s]
    return SymMatrix(
        size - first,
        tuple(w[r][s] for r in range(first, size) for s in range(r, size)),
    )


def random_unimodular(n: int, seed: int, ops_budget: int, magnitude_cap: int) -> Matrix:
    """Random integral matrix with determinant +-1, built from elementary operations.

    Applies at most `ops_budget` elementary integer row operations (swaps, row
    negations, additions of integer multiples bounded by `magnitude_cap`) to
    the identity. Deterministic for a given seed; entry growth is bounded by
    (1 + magnitude_cap)^ops_budget.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if ops_budget < 0:
        raise ValueError("ops budget must be >= 0")
    rng = SplitMix64(seed)
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
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
        elif kind == "negate":
            i = rng.randint(0, n - 1)
            rows[i] = [-v for v in rows[i]]
        else:
            i = rng.randint(0, n - 1)
            j = rng.randint(0, n - 2)
            if j >= i:
                j += 1
            c = rng.nonzero_int(magnitude_cap)
            rows[i] = [v + c * w for v, w in zip(rows[i], rows[j])]
    return Matrix.from_rows(rows)
