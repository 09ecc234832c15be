"""Built-in reference instances.

Each constructor returns exact data together with enough certificate material
to re-verify it from scratch.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import Matrix, SymMatrix, rational
from .echelon import SdpInstance, Structure, infer_structure, reformulated
from .certify import WeakCertificate
from .generator import WeakInstance

_ZERO = Fraction(0)


def me_instance() -> tuple[SdpInstance, WeakCertificate]:
    """Minimal 2x2 weakly infeasible system: x11 = 0, x12 = 1, X psd.

    The certificate rescales the second row by -1/2 (no congruence needed) and
    pairs it with the sequence X_1 = diag(0, 1), X_2 = the swap matrix; k = l = 1.
    """
    a1 = SymMatrix.from_rows([[1, 0], [0, 0]])
    a2 = SymMatrix.from_rows([[0, 1], [1, 0]])
    raw = SdpInstance(2, (a1, a2), (0, 2))
    g = Matrix.from_rows([[1, 0], [0, Fraction(-1, 2)]])
    t = Matrix.identity(2)
    clean = SdpInstance(2, (a1, a2.scale(Fraction(-1, 2))), (0, -1))
    x1 = SymMatrix.from_rows([[0, 0], [0, 1]])
    x2 = SymMatrix.from_rows([[0, 1], [1, 0]])
    cert = WeakCertificate(
        raw=raw,
        row_ops=g,
        transform=t,
        clean=clean,
        k=1,
        xseq=(x1, x2),
        p_structure=Structure(2, (frozenset({1}), frozenset())),
        q_structure=Structure(2, (frozenset({2}), frozenset())),
    )
    return raw, cert


def large_instance() -> tuple[SdpInstance, Matrix, Matrix]:
    """A 4x4, four-constraint system that hides its structure, with the row-op
    matrix G and congruence T that expose it: applying (G, T) yields right-hand
    side (0, 0, -1, -12) and a three-constraint echelon prefix."""
    a1 = SymMatrix.from_rows([
        [8, -1, -9, -2],
        [-1, -26, 3, 39],
        [-9, 3, 10, 3],
        [-2, 39, 3, -16],
    ])
    a2 = SymMatrix.from_rows([
        [5, -3, -6, -2],
        [-3, -6, 5, 21],
        [-6, 5, 7, 2],
        [-2, 21, 2, -11],
    ])
    a3 = SymMatrix.from_rows([
        [-6, -3, 7, 4],
        [-3, 34, 1, -43],
        [7, 1, -8, -5],
        [4, -43, -5, 18],
    ])
    a4 = SymMatrix.from_rows([
        [5, 4, -9, -6],
        [4, -28, 6, 48],
        [-9, 6, 13, 5],
        [-6, 48, 5, -21],
    ])
    raw = SdpInstance(4, (a1, a2, a3, a4), (-44, -22, 44, -68))
    g = Matrix.from_rows([
        [1, 0, 1, 0],
        [0, 2, 1, 0],
        [1, 1, 3, 1],
        [0, 0, 1, 1],
    ]).scale(Fraction(1, 2))
    t = Matrix.from_rows([
        [-1, 1, 1, 1],
        [0, 1, 0, 0],
        [0, -1, 0, 1],
        [0, 0, -1, 0],
    ])
    return raw, g, t


def large_certificate() -> WeakCertificate:
    """Full certificate for `large_instance`: k = l = 2 with overlapping blocks.

    The pinned (1,4) and (2,4) cells of X_2 and X_3 are the values the
    block-filling construction assigns when it repairs the base equations
    for this system; the remaining free entries solve A X_1 = A X_2 = 0 and
    A X_3 = b exactly.
    """
    raw, g, t = large_instance()
    clean = reformulated(raw, g, t)
    p_structure = infer_structure(clean.A[:3])
    if p_structure is None:
        raise AssertionError("reformulated prefix is not in echelon form")
    q_structure = Structure(4, (frozenset({4}), frozenset({2}), frozenset({3})))
    xseq = (
        SymMatrix.unit(4, 4, 4),
        SymMatrix.from_rows([[0, 0, 0, -1], [0, 1, 0, 1], [0, 0, 0, 0], [-1, 1, 0, 0]]),
        SymMatrix.from_rows([
            [0, Fraction(4, 5), 0, 0],
            [Fraction(4, 5), 0, Fraction(2, 5), -5],
            [0, Fraction(2, 5), 1, 0],
            [0, -5, 0, 0],
        ]),
    )
    return WeakCertificate(
        raw=raw,
        row_ops=g,
        transform=t,
        clean=clean,
        k=2,
        xseq=xseq,
        p_structure=p_structure,
        q_structure=q_structure,
    )


def three_by_three(alpha) -> WeakInstance:
    """The 3x3 family with overlapping blocks that purely disjoint schemes miss.

    A_2 carries alpha at (1, 3) and X_2 carries beta = -1/alpha there, so
    A_2 . X_2 = 2 alpha beta + 1 = -1; the third constraint is orthogonal to
    X_1 with right-hand side A_3 . X_2 = 0.
    """
    alpha = rational(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    beta = -1 / alpha
    a1 = SymMatrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    a2 = SymMatrix.from_rows([[0, 0, alpha], [0, 1, 0], [alpha, 0, 0]])
    a3 = SymMatrix.from_rows([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    x1 = SymMatrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    x2 = SymMatrix.from_rows([[0, 0, beta], [0, 1, 0], [beta, 0, 0]])
    return WeakInstance(
        clean=SdpInstance(3, (a1, a2, a3), (0, -1, 0)),
        xseq=(x1, x2),
        p_structure=Structure(3, (frozenset({1}), frozenset({2}))),
        q_structure=Structure(3, (frozenset({3}), frozenset({2}))),
        k=1,
        l=1,
    )


# --- sum-of-squares system for the Motzkin-type sextic ----------------------

_BASE_MONOMIALS: tuple[tuple[int, int], ...] = (
    (2, 0), (0, 2), (1, 0), (0, 1), (1, 1), (1, 2), (2, 1),
)
_CUBICS: tuple[tuple[int, int], ...] = ((3, 0), (0, 3))
# sextic 1 - 3 x^2 y^2 + x^2 y^4 + x^4 y^2; the constant pairs with the
# objective row and is deliberately absent from the feasibility system
_TARGET_COEFFS = {(2, 2): Fraction(-3), (2, 4): Fraction(1), (4, 2): Fraction(1)}


def motzkin_monomial_groups(include_cubics: bool = False):
    """Monomial vector z and the grouping of z z^T cells by their product.

    Returns (z, groups) where groups maps each nonconstant exponent pair to
    the list of (i, j) positions (i <= j, 1-based) producing it.
    """
    z = list(_BASE_MONOMIALS) + (list(_CUBICS) if include_cubics else []) + [(0, 0)]
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i in range(len(z)):
        for j in range(i, len(z)):
            mono = (z[i][0] + z[j][0], z[i][1] + z[j][1])
            if mono == (0, 0):
                continue
            groups.setdefault(mono, []).append((i + 1, j + 1))
    return z, groups


def motzkin_sos(include_cubics: bool = False) -> tuple[SdpInstance, tuple[SymMatrix, ...]]:
    """SOS coefficient-matching system for the sextic, already in echelon form.

    One constraint per distinct nonconstant monomial of z z^T, matching its
    coefficient in the sextic; the right-hand side of the x^2 y^2 row is -3.
    The returned sequence (X_1, X_2, X_3) satisfies A X_1 = A X_2 = 0 and
    A X_3 = b exactly. The infeasibility prefix is the first five constraints
    (seven with `include_cubics`).
    """
    z, groups = motzkin_monomial_groups(include_cubics)
    dim = len(z)
    const = dim
    named = ([(6, 0), (0, 6)] if include_cubics else []) + [
        (4, 0), (0, 4), (2, 0), (0, 2), (2, 2)
    ]
    rest = sorted((m for m in groups if m not in set(named)), key=lambda m: (m[0] + m[1], m))
    ordering = named + rest
    matrices = tuple(SymMatrix.from_cells(dim, dict.fromkeys(groups[mono], 1)) for mono in ordering)
    b = tuple(_TARGET_COEFFS.get(mono, _ZERO) for mono in ordering)
    inst = SdpInstance(dim, matrices, b)

    x1 = SymMatrix.unit(dim, const, const)
    x2 = SymMatrix.from_cells(dim, {(3, 3): 2, (4, 4): 2, (1, const): -1, (2, const): -1})
    x3 = SymMatrix.from_cells(dim, {(5, 5): 1, (6, 6): 1, (7, 7): 1, (4, 7): -1, (3, 6): -1})
    return inst, (x1, x2, x3)


def motzkin_prefix_length(include_cubics: bool = False) -> int:
    """k of the built-in infeasibility prefix (the contradiction row is k+1)."""
    return 6 if include_cubics else 4


def motzkin_certificate(include_cubics: bool = False) -> WeakCertificate:
    """Identity-reformulation certificate: the system is born in echelon form."""
    inst, xseq = motzkin_sos(include_cubics)
    k = motzkin_prefix_length(include_cubics)
    p_structure = infer_structure(inst.A[: k + 1])
    q_structure = infer_structure(xseq)
    if p_structure is None or q_structure is None:
        raise AssertionError("built-in system lost its echelon form")
    return WeakCertificate(
        raw=inst,
        row_ops=Matrix.identity(inst.m),
        transform=Matrix.identity(inst.n),
        clean=inst,
        k=k,
        xseq=xseq,
        p_structure=p_structure,
        q_structure=q_structure,
    )
