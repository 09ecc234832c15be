"""Construction of weakly infeasible SDP instances and bad PSD-cone projections.

The pipeline builds, for chosen k and l, an echelon prefix (A_1, ..., A_{k+1})
with right-hand side (0, ..., 0, -1) and an echelon sequence
(X_1, ..., X_{l+1}) satisfying the base inner-product pattern

    A_i . X_j = 0   for (i, j) != (k+1, l+1),      A_{k+1} . X_{l+1} = -1,

then extends with further constraints orthogonal to X_1, ..., X_l, and
optionally disguises the result by integral row operations and an integral
unimodular congruence. The clean system is weakly infeasible by construction
and the pair (row-op matrix, congruence matrix) is an exact, checkable record
of the disguise.

Stage summary:

* `choose_structures` draws the block structures, keeping the first A-side
  block disjoint from every X-side block and vice versa (the disjointness the
  base pattern forces); later blocks may overlap under the default policy.
* `base_equations` first draws echelon matrices freely, then repairs the base
  pattern one prefix row at a time through `bilinear_solve`, writing only the
  (P_{i-1}, Q_1) blocks; earlier equations are never disturbed because those
  blocks meet no support used before.
* `extend_constraints` projects random integer symmetric matrices exactly
  onto the orthogonal complement of span{X_1, ..., X_l} and scales each
  constraint to integer data: the Gram inverse is built once per call, and
  each candidate is projected with integer coefficients.
* `messify` applies the disguise and records it, with the inverses of its
  two matrices, composed while they are drawn; the disguised system is
  `echelon.reformulated` of the clean one, whose constraints come from
  `exact.congruences`, with a cost that follows the non-zeros of the
  congruence matrix.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

from .exact import (
    Matrix, SymMatrix, check_json_numbers, complement_projection, inner, inner_general, inner_table,
    upper_offset,
)
from .echelon import (
    SdpInstance,
    Structure,
    cell_region,
    check_infeasibility_cert,
    check_not_strong_cert,
    reformulated,
)
from .linalg import inverse, unimodular_pair
from .prng import SplitMix64, derive_seed

_ZERO = Fraction(0)

DISJOINT_ONLY = "disjoint-only"
OVERLAPPING_ALLOWED = "overlapping-allowed"

_STAGE_STRUCTURES = 1
_STAGE_BASE = 2
_STAGE_EXTEND = 3
_STAGE_MESS = 4


@dataclass(frozen=True)
class GenConfig:
    """Parameters of one generated instance; identical configs reproduce bit-exactly."""

    n: int
    m: int
    k: int
    l: int
    seed: int
    entry_range: int = 4
    block_size_range: tuple[int, int] = (1, 2)
    mess_budget: int | None = None
    mess_magnitude: int = 2
    structure_overlap_policy: str = OVERLAPPING_ALLOWED
    messy: bool = False

    def __post_init__(self):
        object.__setattr__(self, "block_size_range", tuple(self.block_size_range))
        if self.k < 1 or self.l < 1:
            raise ValueError("k and l must be >= 1")
        if self.k + 1 > self.m:
            raise ValueError("need k+1 <= m")
        if self.entry_range < 1:
            raise ValueError("entry range must be >= 1")
        lo, hi = self.block_size_range
        if lo < 1 or hi < lo:
            raise ValueError("block size range must satisfy 1 <= lo <= hi")
        if self.structure_overlap_policy not in (DISJOINT_ONLY, OVERLAPPING_ALLOWED):
            raise ValueError(f"unknown overlap policy {self.structure_overlap_policy!r}")
        if self.structure_overlap_policy == DISJOINT_ONLY:
            if lo * (self.k + self.l) > self.n:
                raise ValueError("n too small for disjoint nonempty blocks")
        else:
            if lo * (self.k + 1) > self.n or lo * (self.l + 1) > self.n:
                raise ValueError("n too small for the required nonempty blocks")
        if self.mess_budget is not None and self.mess_budget < 0:
            raise ValueError("mess budget must be >= 0")


def config_json(cfg: GenConfig) -> dict:
    """The configuration as plain JSON data, as recorded in bundles and
    manifests; ValueError for an integer of more than DIGIT_LIMIT digits."""
    data = asdict(cfg)
    check_json_numbers(data)
    return json.loads(json.dumps(data))


@dataclass(frozen=True)
class Provenance:
    """How a disguised instance was produced from its clean form.

    `row_ops` (m x m) and `congruence` (n x n) map clean data to the messy
    instance; both are integral with determinant +-1, so the clean form is
    recovered exactly by their inverses, `row_ops_inverse` and
    `congruence_inverse`. `messify` composes each inverse while it draws the
    disguise, and nothing here checks them: build a Provenance only from
    matrices known to be each other's inverses.
    """

    row_ops: Matrix
    congruence: Matrix
    messy: SdpInstance
    row_ops_inverse: Matrix
    congruence_inverse: Matrix


@dataclass(frozen=True)
class WeakInstance:
    """A verified weakly infeasible system with its full certificate data."""

    clean: SdpInstance
    xseq: tuple[SymMatrix, ...]
    p_structure: Structure
    q_structure: Structure
    k: int
    l: int
    provenance: Provenance | None = None

    def __post_init__(self):
        object.__setattr__(self, "xseq", tuple(self.xseq))
        if len(self.p_structure.blocks) != self.k + 1:
            raise ValueError("A-side structure must have k+1 blocks")
        if len(self.q_structure.blocks) != self.l + 1 or len(self.xseq) != self.l + 1:
            raise ValueError("X-side data must have l+1 members")

    @property
    def raw(self) -> SdpInstance:
        """The instance as published: messy when disguised, clean otherwise."""
        return self.provenance.messy if self.provenance else self.clean


def choose_structures(cfg: GenConfig) -> tuple[Structure, Structure]:
    """Draw the A-side blocks (P_1..P_{k+1}) and X-side blocks (Q_1..Q_{l+1}).

    P_1..P_k and Q_1..Q_l are nonempty; the trailing blocks may be empty.
    P_1 avoids every Q block and Q_1 avoids every P block. Under the
    overlapping policy, later Q blocks may reuse indices of P_2..P_{k+1}.
    """
    rng = SplitMix64(derive_seed(cfg.seed, _STAGE_STRUCTURES))
    lo, hi = cfg.block_size_range
    n, k, l = cfg.n, cfg.k, cfg.l

    def draw_sizes(required: int, capacity: int, optional_tail: bool) -> list[int]:
        sizes = []
        avail = capacity
        for left in range(required, 0, -1):
            cap = min(hi, avail - lo * (left - 1))
            if cap < lo:
                raise ValueError("n too small for requested block sizes")
            size = rng.randint(lo, cap)
            sizes.append(size)
            avail -= size
        if optional_tail:
            sizes.append(rng.randint(0, min(hi, avail)))
        return sizes

    if cfg.structure_overlap_policy == DISJOINT_ONLY:
        # all blocks drawn from one shrinking pool
        pool = list(range(1, n + 1))
        p_sizes = draw_sizes(k, n - lo * l, optional_tail=False)  # room left for Q_1..Q_l
        avail = n - sum(p_sizes)
        q_sizes = draw_sizes(l, avail, optional_tail=False)
        avail -= sum(q_sizes)
        p_tail = rng.randint(0, min(hi, avail))
        avail -= p_tail
        q_tail = rng.randint(0, min(hi, avail))
        p_blocks = [frozenset(rng.take(pool, s)) for s in p_sizes]
        q_blocks = [frozenset(rng.take(pool, s)) for s in q_sizes]
        p_blocks.append(frozenset(rng.take(pool, p_tail)))
        q_blocks.append(frozenset(rng.take(pool, q_tail)))
        return Structure(n, tuple(p_blocks)), Structure(n, tuple(q_blocks))

    # overlapping-allowed: P blocks disjoint among themselves, Q_1 avoids all P,
    # Q_2.. avoid only P_1 (and each other)
    avail = n - lo  # reserve room for a nonempty Q_1 outside all P blocks
    first_cap = min(hi, n - lo * l, avail - lo * (k - 1))  # P_1 must leave Q_2..Q_l room
    if first_cap < lo:
        raise ValueError("n too small for requested block sizes")
    p_sizes = [rng.randint(lo, first_cap)]
    p_sizes += draw_sizes(k - 1, avail - p_sizes[0], optional_tail=True)
    pool_p = list(range(1, n + 1))
    p_blocks = [frozenset(rng.take(pool_p, s)) for s in p_sizes]
    p_all = frozenset().union(*p_blocks)

    pool_q1 = [i for i in range(1, n + 1) if i not in p_all]
    q1_cap = min(hi, len(pool_q1), n - len(p_blocks[0]) - lo * (l - 1))
    q1 = frozenset(rng.take(pool_q1, rng.randint(lo, q1_cap)))

    pool_q = [i for i in range(1, n + 1) if i not in p_blocks[0] and i not in q1]
    q_sizes = draw_sizes(l - 1, len(pool_q), optional_tail=True)
    q_blocks = [q1] + [frozenset(rng.take(pool_q, s)) for s in q_sizes]
    return Structure(n, tuple(p_blocks)), Structure(n, tuple(q_blocks))


def bilinear_solve(
    p: int,
    q: int,
    targets: tuple,
    seed: int,
    entry_range: int = 3,
) -> tuple[Matrix, tuple[Matrix, ...]]:
    """Find M and Y_2, ..., Y_{t+1} in R^{p x q} with M . Y_j = target_j.

    M is a nonzero random integer matrix; each Y_j is a random integer matrix
    corrected along M itself, so the system is satisfied exactly whatever the
    targets are. Deterministic for a given seed.
    """
    if p < 1 or q < 1:
        raise ValueError("block dimensions must be >= 1")
    rng = SplitMix64(seed)
    while True:
        m_entries = [rng.randint(-entry_range, entry_range) for _ in range(p * q)]
        if any(v != 0 for v in m_entries):
            break
    m = Matrix(p, q, m_entries)
    norm_sq = Fraction(sum(v * v for v in m_entries))
    ys = []
    for target in targets:
        r = Matrix(p, q, [rng.randint(-entry_range, entry_range) for _ in range(p * q)])
        correction = (Fraction(target) - inner_general(m, r)) / norm_sq
        ys.append(r + m.scale(correction))
    return m, tuple(ys)


def _draw_echelon(
    rng: SplitMix64, structure: Structure, count: int, entry_range: int
) -> list[list]:
    """Random echelon-form matrices, each as its packed upper triangle:
    positive diagonal on each block, random integers on the earlier-row
    region, zero elsewhere."""
    n = structure.n
    out = []
    for idx in range(1, count + 1):
        upper = []
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                region = cell_region(structure, idx, i, j)
                if region == "arbitrary":
                    upper.append(rng.randint(-entry_range, entry_range))
                elif region == "pivot" and i == j:
                    upper.append(rng.randint(1, entry_range))
                else:
                    upper.append(0)
        out.append(upper)
    return out


def base_equations(
    cfg: GenConfig, p_structure: Structure, q_structure: Structure, seed: int
) -> tuple[tuple[SymMatrix, ...], tuple[SymMatrix, ...]]:
    """Produce (A_1..A_{k+1}) and (X_1..X_{l+1}) satisfying the base pattern.

    After free echelon draws, row i of the pattern (i = 2..k+1) is repaired by
    rewriting the (P_{i-1}, Q_1) blocks of A_i and of X_2..X_{l+1}: the block
    of A_i is zeroed, targets are set to minus half the residuals of A_i
    against X_2..X_{l+1} (minus half of residual+1 at the corner), and
    `bilinear_solve` fills the blocks. Writing a block adds twice its product
    to the inner product, which lands each equation exactly on 0, or on -1 at
    the corner. Equations with X_1, and all of row 1, hold automatically
    because P_1 meets no Q block and Q_1 meets no P block.
    """
    n, k, l = cfg.n, cfg.k, cfg.l
    rng = SplitMix64(seed)
    a_uppers = _draw_echelon(rng, p_structure, k + 1, cfg.entry_range)
    x_uppers = _draw_echelon(rng, q_structure, l + 1, cfg.entry_range)
    q1 = sorted(q_structure.blocks[0])
    for i in range(2, k + 2):
        prev = sorted(p_structure.blocks[i - 2])
        # the (P_{i-1}, Q_1) block row by row; the blocks are disjoint, so no cell is diagonal
        cells = [upper_offset(n, min(r, c), max(r, c)) for r in prev for c in q1]
        a_i = a_uppers[i - 1]
        for p in cells:
            a_i[p] = 0
        residuals = inner_table((SymMatrix(n, a_i),), [SymMatrix(n, x) for x in x_uppers[1:]])[0]
        targets = [-residual / 2 for residual in residuals]
        if i == k + 1:
            targets[-1] = -(residuals[-1] + 1) / 2
        m_block, y_blocks = bilinear_solve(
            len(prev), len(q1), tuple(targets), derive_seed(seed, 100 + i), cfg.entry_range
        )
        for upper, block in zip([a_i] + x_uppers[1:], (m_block,) + y_blocks):
            for p, value in zip(cells, (v for row in block.to_rows() for v in row)):
                upper[p] = value
    return tuple(SymMatrix(n, a) for a in a_uppers), tuple(SymMatrix(n, x) for x in x_uppers)


def extend_constraints(
    a_seq: tuple[SymMatrix, ...],
    xseq: tuple[SymMatrix, ...],
    cfg: GenConfig,
    seed: int,
) -> tuple[tuple[SymMatrix, ...], tuple[Fraction, ...]]:
    """Draw A_{k+2}..A_m orthogonal to X_1..X_l and assemble the right-hand side.

    Each extra constraint is a random integer symmetric matrix C, drawn as
    its packed upper triangle in one `randints` call, minus its exact
    projection onto span{X_1..X_l}: C - sum_s c_s X_s, with the coefficients
    c_s from the Gram system. The inverse of the Gram matrix of X_1..X_l is
    built once per call, and `exact.complement_projection` prepares the X_s
    once with it; each candidate is then projected with integer coefficients
    in one combination-and-gcd pass, which gives the primitive integer
    multiple of the projection, the constraint. Its right-hand side is its
    product with X_{l+1}, and the whole constraint is scaled once more so
    that value is an integer.
    """
    size = cfg.n * (cfg.n + 1) // 2
    ell = len(xseq) - 1
    span = xseq[:ell]
    # X_1..X_l are independent echelon members, so their Gram matrix is nonsingular
    gram_inverse = inverse(Matrix(ell, ell, tuple(v for row in inner_table(span, span) for v in row)))
    project = complement_projection(cfg.n, span, gram_inverse)
    rng = SplitMix64(seed)
    extras: list[SymMatrix] = []
    b_extras: list[Fraction] = []
    for _ in range(cfg.m - (cfg.k + 1)):
        # each candidate's upper triangle drawn row by row, as it is stored
        while (projected := project(rng.randints(-cfg.entry_range, cfg.entry_range, size))) is None:
            pass
        value = inner(projected, xseq[-1])
        if value.denominator != 1:
            projected = projected.scale(value.denominator)
            value = value * value.denominator
        extras.append(projected)
        b_extras.append(value)
    b_full = (_ZERO,) * cfg.k + (Fraction(-1),) + tuple(b_extras)
    return tuple(extras), b_full


def messify(inst: WeakInstance, seed: int, budget: int, magnitude: int) -> WeakInstance:
    """Disguise a clean instance by integral row operations and congruence.

    Messy constraint i is T^T (sum_j g_ij A_j) T with right-hand side (G b)_i,
    where G and T are random unimodular integer matrices; (G, T), their
    inverses and the messy system are recorded so the clean form stays
    exactly recoverable. `unimodular_pair` draws each of G and T with its
    inverse in one loop. The messy system is `echelon.reformulated(clean, G,
    T)`: G and T are short products of elementary operations, so its
    constraints come from `exact.congruences`, whose cost follows the
    non-zeros of T.
    """
    clean = inst.clean
    rng = SplitMix64(seed)
    g, g_inverse = unimodular_pair(clean.m, rng.next_u64(), budget, magnitude)
    t, t_inverse = unimodular_pair(clean.n, rng.next_u64(), budget, magnitude)
    messy = reformulated(clean, g, t)
    return replace(inst, provenance=Provenance(
        row_ops=g, congruence=t, messy=messy, row_ops_inverse=g_inverse, congruence_inverse=t_inverse))


def generate(cfg: GenConfig) -> WeakInstance:
    """Run the full pipeline and self-check the result before returning it."""
    p_structure, q_structure = choose_structures(cfg)
    a_seq, xseq = base_equations(cfg, p_structure, q_structure, derive_seed(cfg.seed, _STAGE_BASE))
    extras, b = extend_constraints(a_seq, xseq, cfg, derive_seed(cfg.seed, _STAGE_EXTEND))
    clean = SdpInstance(cfg.n, a_seq + extras, b)
    instance = WeakInstance(
        clean=clean,
        xseq=xseq,
        p_structure=p_structure,
        q_structure=q_structure,
        k=cfg.k,
        l=cfg.l,
    )
    if cfg.messy:
        budget = cfg.mess_budget if cfg.mess_budget is not None else 2 * (cfg.n + cfg.m)
        instance = messify(instance, derive_seed(cfg.seed, _STAGE_MESS), budget, cfg.mess_magnitude)
    if not check_infeasibility_cert(clean, cfg.k, p_structure):
        raise AssertionError("generated prefix failed its infeasibility check")
    if not check_not_strong_cert(clean, xseq, q_structure):
        raise AssertionError("generated sequence failed its certificate check")
    return instance


@dataclass(frozen=True)
class BadProjectionWitness:
    """Witness that the map X -> (A_1 . X, ..., A_m . X) sends the PSD cone to a
    nonclosed set: b is a limit of images of PSD matrices but not an image."""

    A: tuple[SymMatrix, ...]
    b: tuple[Fraction, ...]
    xseq: tuple[SymMatrix, ...]
    k: int
    p_structure: Structure
    q_structure: Structure


def bad_projection(inst: WeakInstance) -> BadProjectionWitness:
    """Re-expose a verified instance as a nonclosed-image witness.

    Raises ValueError when the input does not actually verify.
    """
    if not check_infeasibility_cert(inst.clean, inst.k, inst.p_structure):
        raise ValueError("input instance is not verified (infeasibility prefix fails)")
    if not check_not_strong_cert(inst.clean, inst.xseq, inst.q_structure):
        raise ValueError("input instance is not verified (closeness certificate fails)")
    return BadProjectionWitness(
        A=inst.clean.A,
        b=inst.clean.b,
        xseq=inst.xseq,
        k=inst.k,
        p_structure=inst.p_structure,
        q_structure=inst.q_structure,
    )


def invert_provenance(prov: Provenance) -> tuple[Matrix, Matrix]:
    """Exact inverses (G^-1, T^-1) recovering the clean system from the messy
    one, as the provenance records them."""
    return prov.row_ops_inverse, prov.congruence_inverse
