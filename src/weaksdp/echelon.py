"""Semidefinite echelon form: block structures, validation, and the two
executable certificate checks built on it, plus the reformulation that maps a
raw system to the clean system those checks read.

An ordered sequence of symmetric matrices (M_1, ..., M_t) is in semidefinite
echelon form with structure {P_1, ..., P_t} when the P_i are disjoint 1-based
index sets and each M_i is diagonal with strictly positive entries on the
P_i x P_i block, arbitrary on rows/columns indexed by P_1 u ... u P_{i-1},
and zero everywhere else. One walk applies this rule to a matrix's entries,
behind both validation and the echelon step (`next_block`).

Two facts make the form useful, and both are implemented here as exact,
certificate-style checks:

* an echelon prefix (A_1, ..., A_{k+1}) with right-hand side (0, ..., 0, neg)
  proves infeasibility of {X psd : A_i . X = b_i} by forcing rows to zero
  (`check_infeasibility_cert`, `propagate_zero_rows`);
* an echelon sequence (X_1, ..., X_{l+1}) with A X_i = 0 and A X_{l+1} = b
  proves the affine subspace comes arbitrarily close to the PSD cone, and an
  explicit nearby PSD point can be built for any tolerance
  (`check_not_strong_cert`, `asymptote_witness`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress, repeat
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from .exact import (
    Matrix, SymMatrix, congruences, inner, inner_mismatch, inner_table, inners, rational, square_rows,
    upper_offset,
)
from .linalg import BorderedElimination, least_definite_shift, psd_certify, schur_complement

_ZERO = Fraction(0)


def index_set(indices: Iterable[int], n: int) -> frozenset[int]:
    """A validated 1-based index set inside {1, ..., n}, each index given once."""
    indices = tuple(indices)
    for i in indices:
        # checked before the set is built: a set keeps only one of 1 and True
        if not (type(i) is int and 1 <= i <= n):
            raise ValueError(f"index {i!r} is not an integer in 1..{n}")
    result = frozenset(indices)
    if len(result) != len(indices):
        raise ValueError(f"repeated index in {list(indices)}")
    return result


@dataclass(frozen=True)
class Structure:
    """Ordered disjoint index blocks (P_1, ..., P_t) over ambient order n."""

    n: int
    blocks: tuple[frozenset[int], ...]
    # 1-based block number of every index in 1..n; len(blocks) + 1 when uncovered
    _block_of: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(index_set(b, self.n) for b in self.blocks))
        block_of = dict.fromkeys(range(1, self.n + 1), len(self.blocks) + 1)
        for number, b in enumerate(self.blocks, start=1):
            repeated = sorted(i for i in b if block_of[i] < number)
            if repeated:
                raise ValueError(f"blocks are not disjoint: {repeated} repeated")
            block_of.update(dict.fromkeys(b, number))
        object.__setattr__(self, "_block_of", block_of)

    def prefix(self, count: int) -> frozenset[int]:
        """Union of the first `count` blocks."""
        out: set[int] = set()
        for b in self.blocks[:count]:
            out |= b
        return frozenset(out)

    def union(self) -> frozenset[int]:
        return self.prefix(len(self.blocks))

    def residual(self) -> frozenset[int]:
        """Indices of {1..n} not covered by any block."""
        return frozenset(range(1, self.n + 1)) - self.union()


def cell_region(structure: Structure, matrix_index: int, i: int, j: int) -> str:
    """Classify entry (i, j) of the matrix_index-th sequence member.

    Returns "pivot" for the P_i x P_i block (positive diagonal, zero
    off-diagonal), "arbitrary" for rows/columns of earlier blocks, "zero" for
    positions that must vanish. Generation and block rendering classify
    cells through it; validation walks the same regions row by row.
    """
    block_i = structure._block_of[i]
    block_j = structure._block_of[j]
    if block_i < matrix_index or block_j < matrix_index:
        return "arbitrary"
    if block_i == block_j == matrix_index:
        return "pivot"
    return "zero"


@dataclass(frozen=True)
class EchelonViolation:
    matrix_index: int
    position: tuple[int, int]
    rule: str

    def __str__(self) -> str:
        return f"matrix {self.matrix_index} entry {self.position}: {self.rule}"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a check, truthy exactly when it passed.

    `detail` describes the first violation found; `violation` is set when
    that violation is an echelon entry.
    """

    ok: bool
    violation: EchelonViolation | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _first_violation(mat: SymMatrix, live: Sequence[int], block: frozenset[int]):
    """The first cell (r, s), r <= s, in row-major order over the ascending
    indices `live` that no earlier block covers, at which `mat` is not zero
    except a positive diagonal on `block`, with the rule broken; or None."""
    n, u = mat.n, mat._u
    for k, r in enumerate(live):
        row = upper_offset(n, r, 0)  # the rule is linear in s: row + s is the offset of (r, s)
        if r in block and u[row + r] <= 0:
            return (r, r), "block diagonal entry must be positive"
        # off the block the diagonal must be zero like the rest of the row
        for s in live[k + (r in block):]:
            if u[row + s]:
                if r in block and s in block:
                    return (r, s), "block off-diagonal entry must be zero"
                return (r, s), "entry outside block and earlier rows must be zero"
    return None


def validate_echelon(matrices: Sequence[SymMatrix], structure: Structure) -> ValidationReport:
    """Check the echelon conditions exactly; report the first offending entry.

    Member i is walked by `_first_violation` with block P_i on the indices
    P_1, ..., P_{i-1} leave. "Diagonal with positive entries" is enforced
    literally: off-diagonal entries of the pivot block must be exactly zero,
    not merely the block positive definite.
    """
    matrices = tuple(matrices)
    if len(matrices) != len(structure.blocks):
        raise ValueError("structure block count does not match matrix count")
    for m in matrices:
        if m.n != structure.n:
            raise ValueError("matrix order does not match structure order")
    live = list(range(1, structure.n + 1))
    for idx, (mat, block) in enumerate(zip(matrices, structure.blocks), start=1):
        found = _first_violation(mat, live, block)
        if found is not None:
            violation = EchelonViolation(idx, *found)
            return ValidationReport(False, violation, str(violation))
        live = [r for r in live if r not in block]
    return ValidationReport(True)


def next_block(mat: SymMatrix, live: Sequence[int]) -> frozenset[int] | None:
    """The echelon step: the block B of the `live` indices (those earlier
    blocks leave) whose diagonal entry is positive, when the walk of
    `validate_echelon` finds nothing wrong with `mat` and B, else None. It is
    the only block `mat` can be valid with.
    """
    live = sorted(live)
    block = frozenset(r for r in live if mat._num(r, r) > 0)
    return None if _first_violation(mat, live, block) else block


def infer_structure(matrices: Sequence[SymMatrix]) -> Structure | None:
    """Recover a block structure from the matrices alone, or None.

    Each block is the `next_block` of its matrix on the indices earlier blocks
    leave, and the first matrix with none makes the result None; so a
    non-None result is always a valid structure, and the only one.
    """
    matrices = tuple(matrices)
    n = matrices[0].n if matrices else 0
    if any(m.n != n for m in matrices):
        raise ValueError("matrices must share one order")
    live = list(range(1, n + 1))
    blocks: list[frozenset[int]] = []
    for mat in matrices:
        block = next_block(mat, live)
        if block is None:
            return None
        blocks.append(block)
        live = [r for r in live if r not in block]
    return Structure(n, tuple(blocks))


@dataclass(frozen=True)
class SdpInstance:
    """Feasibility system A_i . X = b_i, X psd, over order-n symmetric matrices."""

    n: int
    A: tuple[SymMatrix, ...]
    b: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "A", tuple(self.A))
        object.__setattr__(self, "b", tuple(rational(v) for v in self.b))
        if len(self.A) != len(self.b):
            raise ValueError("constraint matrices and right-hand side differ in length")
        for mat in self.A:
            if mat.n != self.n:
                raise ValueError("constraint order does not match instance order")

    @property
    def m(self) -> int:
        return len(self.A)

    def apply(self, x: SymMatrix) -> tuple[Fraction, ...]:
        """The image (A_1 . X, ..., A_m . X)."""
        return inners(self.A, x)


def reformulated(raw: SdpInstance, g: Matrix, t: Matrix) -> SdpInstance:
    """Apply row operations G and congruence T: row i becomes T^T (sum_j g_ij A_j) T."""
    return SdpInstance(raw.n, tuple(congruences(raw.A, g, t)), g.mul_vec(raw.b))


def inner_product_matrix(inst: SdpInstance, xseq: Sequence[SymMatrix]) -> list[list[Fraction]]:
    """Table of A_i . X_j values, rows over constraints, columns over the sequence."""
    return [list(row) for row in inner_table(inst.A, xseq)]


def check_infeasibility_cert(inst: SdpInstance, k: int, structure: Structure) -> ValidationReport:
    """Does the (k+1)-prefix prove infeasibility?

    Passes iff (A_1, ..., A_{k+1}) is in echelon form with the given (k+1)-block
    structure, b_1 = ... = b_k = 0, and b_{k+1} < 0; otherwise the report
    names the first echelon violation or the offending right-hand side. Any
    negative value is accepted for b_{k+1}; normalization to -1 is a
    presentation choice, not a requirement of the argument.
    """
    if k < 0 or k + 1 > inst.m:
        raise ValueError("need 0 <= k and k+1 constraints present")
    if len(structure.blocks) != k + 1 or structure.n != inst.n:
        raise ValueError("structure must have k+1 blocks over the instance order")
    report = validate_echelon(inst.A[: k + 1], structure)
    if report and (any(inst.b[i] != 0 for i in range(k)) or not inst.b[k] < 0):
        return ValidationReport(False, detail=(
            f"right-hand side prefix {tuple(map(str, inst.b[: k + 1]))} "
            "is not (0, ..., 0, negative)"
        ))
    return report


@dataclass(frozen=True)
class ForcingStep:
    constraint: int
    forced: frozenset[int]


@dataclass(frozen=True)
class ZeroForcingTrace:
    """Step-by-step record of rows forced to zero by the echelon prefix."""

    forced: frozenset[int]
    steps: tuple[ForcingStep, ...]
    final_block: frozenset[int]
    final_rhs: Fraction


def propagate_zero_rows(inst: SdpInstance, k: int, structure: Structure) -> ZeroForcingTrace:
    """Indices whose rows/columns every PSD solution of the first k equations zeroes.

    Constraint i has a positively weighted sum of the P_i diagonal equal to 0
    once earlier rows vanish, which forces the P_i rows/columns of any PSD
    matrix to zero; the trace records one step per constraint. The union of
    the first k blocks is returned together with the contradiction data of
    row k+1.
    """
    if not check_infeasibility_cert(inst, k, structure):
        raise ValueError("instance does not carry a valid infeasibility prefix")
    steps = tuple(ForcingStep(i, structure.blocks[i - 1]) for i in range(1, k + 1))
    return ZeroForcingTrace(
        forced=structure.prefix(k),
        steps=steps,
        final_block=structure.blocks[k],
        final_rhs=inst.b[k],
    )


def check_not_strong_cert(
    inst: SdpInstance, xseq: Sequence[SymMatrix], structure: Structure
) -> ValidationReport:
    """Does (X_1, ..., X_{l+1}) prove the instance is not strongly infeasible?

    Passes iff the sequence is in echelon form with the given structure,
    A_j . X_i = 0 exactly for every constraint j and i <= l, and
    A_j . X_{l+1} = b_j exactly for every j; otherwise the report names the
    first echelon violation or the first mismatched A_r . X_j.
    """
    xseq = tuple(xseq)
    if len(xseq) < 2:
        raise ValueError("need at least two matrices (l >= 1)")
    if any(x.n != inst.n for x in xseq):
        raise ValueError("sequence order does not match instance order")
    report = validate_echelon(xseq, structure)
    if not report:
        return report
    targets = [(0,) * inst.m] * (len(xseq) - 1) + [inst.b]
    mismatch = inner_mismatch(inst.A, xseq, targets)
    if mismatch is not None:
        j, r = mismatch
        got, want = inner(inst.A[r - 1], xseq[j - 1]), targets[j - 1][r - 1]
        return ValidationReport(False, detail=f"A_{r} . X_{j} = {got}, expected {want}")
    return report


@dataclass(frozen=True)
class AsymptoteWitness:
    """An exact PSD point within a prescribed distance of the constraint subspace.

    x_out = X_{l+1} + x_delta + sum_i gammas[i] X_i, with x_out - x_delta lying
    exactly in {A X = b} and the Frobenius norm of x_delta at most the
    requested tolerance.
    """

    x_out: SymMatrix
    x_delta: SymMatrix
    gammas: tuple[Fraction, ...]
    delta: Fraction


_SELF_CHECK_FAILED = "constructed witness failed its own PSD check"


def frobenius_norm_squared(a: SymMatrix) -> Fraction:
    return inner(a, a)


def asymptote_witness(
    inst: SdpInstance,
    xseq: Sequence[SymMatrix],
    structure: Structure,
    eps,
) -> AsymptoteWitness:
    """Build an exact PSD matrix within `eps` of the affine constraint set.

    delta is the largest power of 1/2 whose diagonal padding on the uncovered
    indices has squared norm at most eps^2, found by comparing integers.
    Levels run from i = l down to 1.
    The trailing block S of the accumulated matrix (indices of P_{i+1}, ...,
    P_{l+1} and the uncovered ones) is already positive definite: at the first
    level it is the pivot diagonal of X_{l+1} plus the padding, later the
    previous level proved it. On P_i and S, X_i is only its pivot diagonal
    D_i, so the block over P_i and S is positive definite iff the Schur
    complement of S onto P_i plus gamma_i D_i is. gamma_i is the least power
    of two for which that |P_i|-sized test passes, the same as for the whole
    block; `least_definite_shift` finds it, each probe an integer elimination
    that stops at the first non-positive pivot.

    One elimination carries the levels (`BorderedElimination`), on the
    numerators of every matrix over one denominator; each gamma_i is an
    integer, so the sums stay on it. X_j has entries only in cells with an
    index in P_1, ..., P_j, so S grows by P_i from one level to the next and
    changes only by gamma_i D_i on P_i's diagonal: the first S is
    eliminated once, and each level brings the rows of P_i through the
    steps taken so far, adds gamma_i D_i and eliminates P_i. Those rows come
    from one running grid, X_{l+1} plus the padding plus gamma_j X_j for
    j > i, to which each level adds its gamma_i X_i once its pivots pass, in
    place and only at X_i's non-zero cells, both halves of an off-diagonal
    one; x_out is the upper half of that grid after the last level. A pivot
    that is not positive (a gamma search that stopped short), or a gamma
    that is not an integer, fails the witness as the self-check would. The
    certificate check compares every A_j . X_i with its target on integers
    (`inner_mismatch`, at the non-zero cells of a sparse X_i). Every
    comparison is an exact rational one. The finished matrix is checked
    once more: `schur_complement` eliminating all n indices finds every
    pivot positive, so it is positive definite and hence PSD (by
    construction the last level proved the block over P_1 and every other
    index). No PSD verdict is built here.
    """
    eps = rational(eps)
    if eps <= 0:
        raise ValueError("tolerance must be positive")
    xseq = tuple(xseq)
    if not check_not_strong_cert(inst, xseq, structure):
        raise ValueError("sequence is not a valid certificate for this instance")
    n = inst.n
    ell = len(xseq) - 1
    rest = sorted(structure.residual())
    # delta = 2^-e for the least e >= 0 with |rest| delta^2 <= eps^2 = p^2 / q^2
    p, q = eps.as_integer_ratio()
    e = 0
    while len(rest) * q * q > (p * p) << (2 * e):
        e += 1
    delta = Fraction(1, 1 << e) if rest else _ZERO
    padding = [0] * (n * (n + 1) // 2)
    for r in rest:
        padding[upper_offset(n, r, r)] = 1
    x_delta = SymMatrix._of(n, padding, 1 << e)

    # every sum below runs over one denominator: X_j's numerators times
    # scales[j - 1], and the padding's as den >> e
    den = lcm(x_delta._d, *(x._d for x in xseq))
    scales = [den // x._d for x in xseq]
    # the running grid: X_{l+1} plus the padding, then gamma_j X_j for each level j done
    top = xseq[-1]._u if scales[-1] == 1 else list(map(mul, xseq[-1]._u, repeat(scales[-1])))
    base = square_rows(top, n)
    for r in rest:
        base[r - 1][r - 1] += den >> e
    # the 0-based (row, column) of each packed cell, to place X_i's non-zero cells
    cells = [(r, s) for r in range(n) for s in range(r, n)]
    elimination = BorderedElimination(n, den)
    trailing = sorted(set(rest) | structure.blocks[ell])
    elimination.join({r - 1: base[r - 1] for r in trailing})
    if not elimination.eliminate([0] * len(trailing)):
        raise AssertionError(_SELF_CHECK_FAILED)
    gammas: list[Fraction] = []  # gamma_l, gamma_{l-1}, ...
    for i in range(ell, 0, -1):
        block = sorted(structure.blocks[i - 1])
        upper = xseq[i - 1]._u
        gamma = least_definite_shift(elimination.join({r - 1: base[r - 1] for r in block}),
                                     xseq[i - 1].principal(block))
        # the search returns 2^e with e >= 0, and the grid holds integer sums only
        weight = gamma.numerator * scales[i - 1]
        diagonal = [weight * upper[upper_offset(n, r, r)] for r in block]
        if gamma.denominator != 1 or not elimination.eliminate(diagonal):
            raise AssertionError(_SELF_CHECK_FAILED)
        for (r, s), v in zip(compress(cells, upper), map(mul, compress(upper, upper), repeat(weight))):
            base[r][s] += v
            if r != s:
                base[s][r] += v
        gammas.append(gamma)
    x_out = SymMatrix._of(n, list(chain.from_iterable(row[r:] for r, row in enumerate(base))), den)
    try:
        schur_complement(x_out, range(1, n + 1), ())
    except ValueError:
        raise AssertionError(_SELF_CHECK_FAILED) from None
    return AsymptoteWitness(x_out=x_out, x_delta=x_delta, gammas=tuple(reversed(gammas)), delta=delta)


def check_strong_infeasibility_cert(inst: SdpInstance, y: Sequence) -> bool:
    """Does y certify strong infeasibility: sum_i y_i A_i psd and b^T y = -1?"""
    ys = [rational(v) for v in y]
    if len(ys) != inst.m:
        raise ValueError("multiplier length does not match constraint count")
    if sum((yi * bi for yi, bi in zip(ys, inst.b)), _ZERO) != -1:
        return False
    combo = congruences(inst.A, Matrix(1, inst.m, tuple(ys)), Matrix.identity(inst.n))[0]
    return psd_certify(combo).is_psd
