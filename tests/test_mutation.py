"""Soundness under single-entry mutation: raise one entry of a valid
certificate by 1 at a time and hold the verifier's verdict to an independent
Fraction oracle."""

from dataclasses import replace

import pytest

from weaksdp import (
    GenConfig,
    Matrix,
    SdpInstance,
    SymMatrix,
    WeakCertificate,
    generate,
    large_certificate,
    me_instance,
    three_by_three,
    verify_weak_infeasibility,
)

from oracles import weak_certificate_by_fractions

CERTIFICATES = {
    "me": lambda: me_instance()[1],
    "large": large_certificate,
    "3x3": lambda: WeakCertificate.from_instance(three_by_three("3/5")),
    "messy-n5": lambda: WeakCertificate.from_instance(
        generate(GenConfig(n=5, m=4, k=1, l=2, seed=10, messy=True))),
}


def _sym_plus_ones(mat):
    n = mat.n
    return [mat.add(SymMatrix.unit(n, i, j)) for i in range(1, n + 1) for j in range(i, n + 1)]


def _matrix_plus_ones(mat):
    cells = mat.rows * mat.cols
    return [mat + Matrix(mat.rows, mat.cols, [int(c == at) for c in range(cells)]) for at in range(cells)]


def _instance_mutants(inst):
    for i, mat in enumerate(inst.A):
        for changed in _sym_plus_ones(mat):
            yield SdpInstance(inst.n, inst.A[:i] + (changed,) + inst.A[i + 1:], inst.b)
    for i in range(inst.m):
        yield SdpInstance(inst.n, inst.A, inst.b[:i] + (inst.b[i] + 1,) + inst.b[i + 1:])


def mutants(cert):
    """Every certificate that differs from `cert` by +1 in one entry of raw A_i,
    raw b, G, T, clean A_i, clean b or an X_j."""
    for raw in _instance_mutants(cert.raw):
        yield replace(cert, raw=raw)
    for g in _matrix_plus_ones(cert.row_ops):
        yield replace(cert, row_ops=g)
    for t in _matrix_plus_ones(cert.transform):
        yield replace(cert, transform=t)
    for clean in _instance_mutants(cert.clean):
        yield replace(cert, clean=clean)
    for j, x in enumerate(cert.xseq):
        for changed in _sym_plus_ones(x):
            yield replace(cert, xseq=cert.xseq[:j] + (changed,) + cert.xseq[j + 1:])


@pytest.mark.parametrize("name", CERTIFICATES)
def test_verdict_on_every_single_entry_mutant_matches_the_oracle(name):
    cert = CERTIFICATES[name]()
    assert verify_weak_infeasibility(cert).passed and weak_certificate_by_fractions(cert)
    disagreements = []
    for number, mutant in enumerate(mutants(cert)):
        verdict = verify_weak_infeasibility(mutant).passed
        if verdict != weak_certificate_by_fractions(mutant):
            disagreements.append((number, verdict))
    assert disagreements == []
