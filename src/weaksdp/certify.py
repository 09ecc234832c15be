"""Full weak-infeasibility certificates: reformulation checking, end-to-end
verification, and a sieve detector for systems already in echelon form.

A certificate bundles a raw instance with the pair (G, T) of exact matrices
encoding elementary row operations and a congruence transform, the resulting
clean system, the prefix length k, and the echelon sequence X_1..X_{l+1}.
Verification re-derives everything from the raw data with exact arithmetic:
no step trusts a stored intermediate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .exact import Matrix, SymMatrix, congruence_mismatch
from .echelon import (
    SdpInstance,
    Structure,
    ValidationReport,
    check_infeasibility_cert,
    check_not_strong_cert,
    next_block,
)
from .linalg import determinant, determinant_residue


@dataclass(frozen=True)
class WeakCertificate:
    """Everything a third party needs to confirm weak infeasibility of `raw`.

    `row_ops` (G, m x m) and `transform` (T, n x n) map raw to clean:
    clean_i = T^T (sum_j G[i][j] raw_j) T and clean_b = G raw_b.
    """

    raw: SdpInstance
    row_ops: Matrix
    transform: Matrix
    clean: SdpInstance
    k: int
    xseq: tuple[SymMatrix, ...]
    p_structure: Structure
    q_structure: Structure

    def __post_init__(self):
        object.__setattr__(self, "xseq", tuple(self.xseq))

    @property
    def l(self) -> int:
        return len(self.xseq) - 1

    @classmethod
    def from_instance(cls, instance) -> "WeakCertificate":
        """Certificate for a generated instance.

        For a disguised instance the published system is the messy one and
        (G, T) are the exact inverses of the disguise; for a clean instance
        the reformulation is the identity.
        """
        from .generator import WeakInstance, invert_provenance

        if not isinstance(instance, WeakInstance):
            raise TypeError("expected a WeakInstance")
        if instance.provenance is not None:
            g, t = invert_provenance(instance.provenance)
            raw = instance.provenance.messy
        else:
            g = Matrix.identity(instance.clean.m)
            t = Matrix.identity(instance.clean.n)
            raw = instance.clean
        return cls(
            raw=raw,
            row_ops=g,
            transform=t,
            clean=instance.clean,
            k=instance.k,
            xseq=instance.xseq,
            p_structure=instance.p_structure,
            q_structure=instance.q_structure,
        )


def check_reformulation(raw: SdpInstance, g: Matrix, t: Matrix, clean: SdpInstance) -> ValidationReport:
    """Exact check that (G, T) turns `raw` into `clean`.

    Requires det G != 0 and det T != 0, each decided modulo a prime first:
    only a zero `determinant_residue` runs the exact `determinant`. Then
    verifies entrywise that clean_b = G raw_b and
    clean_i = T^T (sum_j g_ij raw_j) T for every i, comparing integer
    numerators, through `congruence_mismatch`: T = I only combines, and any
    other T runs the cell kernel over all rows of G at once, at a cost that
    grows with nnz(T) n. The report names the first failure:
    "det G = 0", "det T = 0", "b row i" or "row i entry (r, s)".
    """
    if raw.n != clean.n or raw.m != clean.m:
        raise ValueError("raw and clean instances differ in shape")
    if g.rows != raw.m or g.cols != raw.m or t.rows != raw.n or t.cols != raw.n:
        raise ValueError("reformulation matrices have inconsistent dimensions")
    for name, mat in (("G", g), ("T", t)):
        if determinant_residue(mat) == 0 and determinant(mat) == 0:
            return ValidationReport(False, detail=f"det {name} = 0")
    for i, (got, want) in enumerate(zip(g.mul_vec(raw.b), clean.b), start=1):
        if got != want:
            return ValidationReport(False, detail=f"b row {i}")
    mismatch = congruence_mismatch(raw.A, g, t, clean.A)
    if mismatch is not None:
        return ValidationReport(False, detail="row {} entry ({}, {})".format(*mismatch))
    return ValidationReport(True)


@dataclass(frozen=True)
class SubCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """Itemized result of the full verification; machine-readable for CI gates."""

    checks: tuple[SubCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(
            {
                "passed": self.passed,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
                ],
            },
            indent=2,
        )

    def summary(self) -> str:
        lines = [f"{'PASS' if c.passed else 'FAIL'}  {c.name}" + (f"  ({c.detail})" if c.detail else "")
                 for c in self.checks]
        lines.append("verification: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _sub_check(name: str, check, *args) -> SubCheck:
    """Run one certificate check; malformed input fails it with the error text."""
    try:
        report = check(*args)
    except ValueError as exc:
        return SubCheck(name, False, str(exc))
    return SubCheck(name, report.ok, report.detail)


def verify_weak_infeasibility(cert: WeakCertificate) -> VerificationReport:
    """Run every sub-check of the certificate and report them individually.

    Passes iff k >= 1, l >= 1, (G, T) exactly reformulates raw into clean, the
    clean (k+1)-prefix proves infeasibility, and the X sequence proves the
    instance is not strongly infeasible.
    """
    checks: list[SubCheck] = []
    k_ok = cert.k >= 1
    checks.append(SubCheck("prefix length k >= 1", k_ok, f"k = {cert.k}"))
    l_ok = len(cert.xseq) >= 2
    checks.append(SubCheck("sequence length l >= 1", l_ok, f"l = {len(cert.xseq) - 1}"))

    checks.append(_sub_check(
        "reformulation (G, T)", check_reformulation, cert.raw, cert.row_ops, cert.transform, cert.clean))

    name = "infeasibility prefix"
    if k_ok:
        checks.append(_sub_check(name, check_infeasibility_cert, cert.clean, cert.k, cert.p_structure))
    else:
        checks.append(SubCheck(name, False, "skipped: k < 1"))
    name = "closeness certificate"
    if l_ok:
        checks.append(_sub_check(name, check_not_strong_cert, cert.clean, cert.xseq, cert.q_structure))
    else:
        checks.append(SubCheck(name, False, "skipped: l < 1"))
    return VerificationReport(tuple(checks))


@dataclass(frozen=True)
class SieveDetection:
    """Echelon prefix found by greedy facial reduction on an instance as given.

    `permutation` lists constraint indices with the detected prefix first;
    `structure` has k+1 blocks (the final one may be empty) and the permuted
    prefix passes the infeasibility check with it.
    """

    k: int
    structure: Structure
    permutation: tuple[int, ...]


def sieve_detect(inst: SdpInstance) -> SieveDetection | None:
    """Greedy facial-reduction sieve over the constraints as given.

    Each round takes the echelon step (`next_block`) on the surviving indices
    once for every pending constraint with b_i <= 0. The first with b_i < 0
    and a block is detected: its product with any PSD matrix supported on the
    survivors is nonnegative, a contradiction, and its block may be empty.
    Otherwise the first with b_i = 0 and a non-empty block is eliminated with
    that block. Returns None when neither exists, which is the expected
    outcome on disguised instances.
    """
    survivors = list(range(1, inst.n + 1))
    used: list[int] = []
    blocks: list[frozenset[int]] = []
    pending = list(range(1, inst.m + 1))
    while True:
        steps = [(i, next_block(inst.A[i - 1], survivors)) for i in pending if inst.b[i - 1] <= 0]
        for i, block in steps:
            if block is not None and inst.b[i - 1] < 0:
                permutation = tuple(used) + (i,) + tuple(j for j in pending if j != i)
                structure = Structure(inst.n, tuple(blocks) + (block,))
                return SieveDetection(k=len(used), structure=structure, permutation=permutation)
        # every step left with a block has b_i = 0
        i, block = next(((i, block) for i, block in steps if block), (0, None))
        if not block:
            return None
        used.append(i)
        blocks.append(block)
        pending.remove(i)
        survivors = [s for s in survivors if s not in block]


def permuted_instance(inst: SdpInstance, permutation: tuple[int, ...]) -> SdpInstance:
    """Reorder constraints by the given 1-based permutation."""
    return SdpInstance(
        inst.n,
        tuple(inst.A[i - 1] for i in permutation),
        tuple(inst.b[i - 1] for i in permutation),
    )
