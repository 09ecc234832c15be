"""Exact linear algebra: elimination, Schur complements, determinants, PSD
certification, and random unimodular matrices.

There are two elimination loops over `Fraction`s. `_gauss_jordan` is the
Gauss-Jordan reduction shared by `solve_linear`, `determinant` and `inverse`.
`_eliminate` is one symmetric elimination step on a full working grid; both
`psd_certify` (pivoted LDL^T) and `schur_complement` are a sequence of its
steps. Every product runs through the integer kernels of `exact`: the witness
value w^T A w is `inner(A, w w^T)` and `PsdVerdict.reconstruct` is one
`congruence`.

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

from .exact import Matrix, SymMatrix, congruence, inner
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
        # T is L^T with column r moved to column permutation[r], so that
        # T^T D T = P^T L D L^T P
        source = sorted(range(n), key=lambda r: self.permutation[r])
        lower = self.lower.to_rows()
        t = Matrix(n, n, tuple(lower[r][u] for u in range(n) for r in source))
        return congruence(SymMatrix.diag(self.diag), t)


def _eliminate(w: list[list[Fraction]], pivot: int, rest: Sequence[int]) -> None:
    """One symmetric elimination step on the full working grid `w`, in place.

    Subtracts w[r][p] w[p][s] / w[p][p] from w[r][s] for every r, s in `rest`
    (p = `pivot`, which `rest` must not contain), keeping both halves of the
    grid current. Row p is not touched, so afterwards it still holds the
    step's multipliers times the pivot.
    """
    row_p = w[pivot]
    d = row_p[pivot]
    # only rows and columns with a non-zero entry in row p change
    live = [s for s in rest if row_p[s] != 0]
    for i, r in enumerate(live):
        f = row_p[r] / d
        row_r = w[r]
        for s in live[i:]:
            v = row_r[s] - f * row_p[s]
            row_r[s] = v
            w[s][r] = v


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
    w = a.to_rows()
    remaining = list(range(n))
    order: list[int] = []
    while remaining:
        pivot = max(remaining, key=lambda r: (w[r][r], -r))
        if not w[pivot][pivot] > 0:
            break
        remaining.remove(pivot)
        order.append(pivot)
        _eliminate(w, pivot, remaining)

    # `remaining` is sorted, and only zero or negative diagonals are left in it
    start: dict[int, Fraction] = {}
    negative = next((r for r in remaining if w[r][r] < 0), None)
    if negative is not None:
        start[negative] = _ONE
    else:
        offdiag = next(((r, s) for i, r in enumerate(remaining) for s in remaining[i + 1:]
                        if w[r][s] != 0), None)
        if offdiag is not None:
            r, s = offdiag
            start = {r: _ONE, s: -_ONE if w[r][s] > 0 else _ONE}
    if start:
        # back-substitute through the eliminations, the last pivot first
        witness = [start.get(i, _ZERO) for i in range(n)]
        for p in reversed(order):
            sigma = sum((w[p][s] * v for s, v in enumerate(witness) if v), _ZERO)
            witness[p] = -sigma / w[p][p]
        outer = SymMatrix(n, tuple(u * v for i, u in enumerate(witness) for v in witness[i:]))
        return PsdVerdict(False, witness=tuple(witness), witness_value=inner(a, outer))

    # the residual block is identically zero: zero pivots with zero rows
    order += remaining
    diag = tuple(w[p][p] for p in order)
    lower = [[_ZERO] * n for _ in range(n)]
    for t, p_t in enumerate(order):
        lower[t][t] = _ONE
        for u in range(t):
            if diag[u]:
                # row order[u] kept the multipliers of elimination step u
                lower[t][u] = w[order[u]][p_t] / diag[u]
    return PsdVerdict(True, permutation=tuple(p + 1 for p in order), diag=diag,
                      lower=Matrix(n, n, tuple(v for row in lower for v in row)))


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
    w = [[a.at(r, s) for s in order] for r in order]
    for p in range(first):
        d = w[p][p]
        if not d > 0:
            raise ValueError(f"non-positive pivot {d} at index {order[p]}")
        _eliminate(w, p, range(p + 1, size))
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
