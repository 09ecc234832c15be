"""Semidefinite echelon form: block structures, validation, and the two
executable certificate checks built on it, plus the reformulation that maps a
raw system to the clean system those checks read.

An ordered sequence of symmetric matrices (M_1, ..., M_t) is in semidefinite
echelon form with structure {P_1, ..., P_t} when the P_i are disjoint 1-based
index sets and each M_i is diagonal with strictly positive entries on the
P_i x P_i block, arbitrary on rows/columns indexed by P_1 u ... u P_{i-1},
and zero everywhere else.

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
from typing import Iterable, Iterator, Sequence

from .exact import Matrix, SymMatrix, SymBuilder, congruences, inner, inners, rational
from .linalg import is_positive_definite, psd_certify, schur_complement

_ZERO = Fraction(0)


def index_set(indices: Iterable[int], n: int) -> frozenset[int]:
    """A validated 1-based index set inside {1, ..., n}."""
    indices = tuple(indices)
    for i in indices:
        # checked before the set is built: a set keeps only one of 1 and True
        if not (type(i) is int and 1 <= i <= n):
            raise ValueError(f"index {i!r} is not an integer in 1..{n}")
    return frozenset(indices)


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
    positions that must vanish. This is the one definition of the regions:
    validation, generation and block rendering all classify cells through it.
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


def validate_echelon(matrices: Sequence[SymMatrix], structure: Structure) -> ValidationReport:
    """Check the echelon conditions exactly; report the first offending entry.

    "Diagonal with positive entries" is enforced literally: off-diagonal
    entries of the pivot block must be exactly zero, not merely the block
    positive definite.
    """
    matrices = tuple(matrices)
    if len(matrices) != len(structure.blocks):
        raise ValueError("structure block count does not match matrix count")
    for m in matrices:
        if m.n != structure.n:
            raise ValueError("matrix order does not match structure order")
    n = structure.n
    for idx, mat in enumerate(matrices, start=1):
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                region = cell_region(structure, idx, i, j)
                if region == "arbitrary":
                    continue
                v = mat.at(i, j)
                if region == "pivot" and i == j:
                    if v > 0:
                        continue
                    rule = "block diagonal entry must be positive"
                elif v == 0:
                    continue
                elif region == "pivot":
                    rule = "block off-diagonal entry must be zero"
                else:
                    rule = "entry outside block and earlier rows must be zero"
                violation = EchelonViolation(idx, (i, j), rule)
                return ValidationReport(False, violation, str(violation))
    return ValidationReport(True)


def infer_structure(matrices: Sequence[SymMatrix]) -> Structure | None:
    """Recover a block structure from the matrices alone, or None.

    Greedy left-to-right: P_i collects the unused indices whose diagonal entry
    is positive and whose row vanishes outside the diagonal except in columns
    of earlier blocks. The candidate is accepted only if full validation
    passes, so a non-None result is always a valid structure.
    """
    matrices = tuple(matrices)
    if not matrices:
        return Structure(0, ())
    n = matrices[0].n
    if any(m.n != n for m in matrices):
        raise ValueError("matrices must share one order")
    used: set[int] = set()
    blocks: list[frozenset[int]] = []
    for mat in matrices:
        block = set()
        for j in range(1, n + 1):
            if j in used or not mat.at(j, j) > 0:
                continue
            if all(mat.at(j, s) == 0 for s in range(1, n + 1) if s != j and s not in used):
                block.add(j)
        blocks.append(frozenset(block))
        used |= block
    structure = Structure(n, tuple(blocks))
    return structure if validate_echelon(matrices, structure).ok else None


@dataclass(frozen=True)
class EchelonSequence:
    """A matrix sequence together with a structure it is valid for.

    Construction enforces the echelon conditions, so holding an
    EchelonSequence is itself a certificate of well-formedness.
    """

    matrices: tuple[SymMatrix, ...]
    structure: Structure

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(self.matrices))
        report = validate_echelon(self.matrices, self.structure)
        if not report:
            raise ValueError(report.detail)

    def __len__(self) -> int:
        return len(self.matrices)


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


def reformulated_rows(raw: SdpInstance, g: Matrix, t: Matrix) -> Iterator[SymMatrix]:
    """Row i of the reformulated system, T^T (sum_j g_ij A_j) T, one row at a
    time, so that a check can stop at the first row that differs."""
    return congruences(raw.A, g, t)


def reformulated(raw: SdpInstance, g: Matrix, t: Matrix) -> SdpInstance:
    """Apply row operations G and congruence T: row i becomes T^T (sum_j g_ij A_j) T."""
    return SdpInstance(raw.n, tuple(reformulated_rows(raw, g, t)), g.mul_vec(raw.b))


def inner_product_matrix(inst: SdpInstance, xseq: Sequence[SymMatrix]) -> list[list[Fraction]]:
    """Table of A_i . X_j values, rows over constraints, columns over the sequence."""
    columns = [inst.apply(x) for x in xseq]
    return [[column[r] for column in columns] for r in range(inst.m)]


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


def normalize_contradiction_row(inst: SdpInstance, k: int) -> SdpInstance:
    """Rescale constraint k+1 by 1/|b_{k+1}| so its right-hand side is exactly -1.

    The checks accept any negative value there, so this is presentation only;
    a positive rescaling of one constraint changes nothing about feasibility
    or about the echelon conditions.
    """
    value = inst.b[k]
    if not value < 0:
        raise ValueError("row k+1 must have a negative right-hand side")
    scale = -1 / value
    matrices = list(inst.A)
    rhs = list(inst.b)
    matrices[k] = matrices[k].scale(scale)
    rhs[k] = rhs[k] * scale
    return SdpInstance(inst.n, tuple(matrices), tuple(rhs))


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
    zeros = (_ZERO,) * inst.m
    for j, x in enumerate(xseq, start=1):
        want = inst.b if j == len(xseq) else zeros
        for r, (got, expect) in enumerate(zip(inst.apply(x), want), start=1):
            if got != expect:
                return ValidationReport(False, detail=f"A_{r} . X_{j} = {got}, expected {expect}")
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


def frobenius_norm_squared(a: SymMatrix) -> Fraction:
    return inner(a, a)


def _least_passing_power_of_two(passes) -> Fraction:
    """The least 2^e, e >= 0, that `passes`, for a test monotone in e: gallop
    e = 0, 1, 2, 4, ... to the first pass, then bisect down from it, so a
    gamma of b bits costs O(log b) tests instead of b."""
    failed, e = -1, 0
    while not passes(Fraction(2**e)):
        failed, e = e, max(1, 2 * e)
    while e - failed > 1:
        mid = (failed + e) // 2
        if passes(Fraction(2**mid)):
            e = mid
        else:
            failed = mid
    return Fraction(2**e)


def asymptote_witness(
    inst: SdpInstance,
    xseq: Sequence[SymMatrix],
    structure: Structure,
    eps,
) -> AsymptoteWitness:
    """Build an exact PSD matrix within `eps` of the affine constraint set.

    delta is the largest power of 1/2 whose diagonal padding on the uncovered
    indices has squared norm at most eps^2. Levels run from i = l down to 1.
    The trailing block S of the accumulated matrix (indices of P_{i+1}, ...,
    P_{l+1} and the uncovered ones) is already positive definite: at the first
    level it is the pivot diagonal of X_{l+1} plus the padding, later the
    previous level proved it. On P_i and S, X_i is only its pivot diagonal
    D_i, so the block over P_i and S is positive definite iff the Schur
    complement of S onto P_i plus gamma_i D_i is. gamma_i is the least power
    of two for which that |P_i|-sized test passes, the same as for the whole
    block; the test is monotone in gamma_i (D_i is positive), so the exponent
    is found by galloping, then bisecting. Every comparison is an exact
    rational one, and the finished matrix is PSD-certified once more.
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
    eps_sq = eps * eps
    if rest:
        delta = Fraction(1)
        while len(rest) * delta * delta > eps_sq:
            delta /= 2
        builder = SymBuilder(n)
        for r in rest:
            builder.set(r, r, delta)
        x_delta = builder.freeze()
    else:
        delta = _ZERO
        x_delta = SymMatrix.zeros(n)

    current = xseq[-1].add(x_delta)
    gammas: list[Fraction] = []
    trailing = sorted(set(rest) | set(structure.blocks[ell]))
    for i in range(ell, 0, -1):
        block = sorted(structure.blocks[i - 1])
        complement = schur_complement(current, trailing, block)
        pivots = xseq[i - 1].principal(block)
        gamma = _least_passing_power_of_two(
            lambda scale: is_positive_definite(complement.add(pivots.scale(scale)))
        )
        current = current.add(xseq[i - 1].scale(gamma))
        gammas.append(gamma)
        trailing = sorted(trailing + block)
    gammas.reverse()

    verdict = psd_certify(current)
    if not verdict.is_psd:
        raise AssertionError("constructed witness failed its own PSD check")
    return AsymptoteWitness(x_out=current, x_delta=x_delta, gammas=tuple(gammas), delta=delta)


def check_strong_infeasibility_cert(inst: SdpInstance, y: Sequence) -> bool:
    """Does y certify strong infeasibility: sum_i y_i A_i psd and b^T y = -1?"""
    ys = [rational(v) for v in y]
    if len(ys) != inst.m:
        raise ValueError("multiplier length does not match constraint count")
    if sum((yi * bi for yi, bi in zip(ys, inst.b)), _ZERO) != -1:
        return False
    combo = next(congruences(inst.A, Matrix(1, inst.m, tuple(ys)), Matrix.identity(inst.n)))
    return psd_certify(combo).is_psd
