import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest

from weaksdp import (
    GenConfig,
    Matrix,
    SdpInstance,
    SplitMix64,
    SymMatrix,
    WeakCertificate,
    cell_region,
    check_infeasibility_cert,
    check_reformulation,
    generate,
    infer_structure,
    inverse,
    large_certificate,
    large_instance,
    me_instance,
    motzkin_certificate,
    motzkin_sos,
    permuted_instance,
    reformulated,
    sieve_detect,
    three_by_three,
    verify_weak_infeasibility,
)

from oracles import congruence_mismatch_by_fractions


class TestCheckReformulation:
    def test_identity(self):
        raw, _ = me_instance()
        assert check_reformulation(raw, Matrix.identity(2), Matrix.identity(2), raw)

    def test_printed_large_pair(self):
        raw, g, t = large_instance()
        clean = reformulated(raw, g, t)
        assert clean.b == (0, 0, -1, -12)
        assert check_reformulation(raw, g, t, clean)

    def test_single_entry_perturbation_fails(self):
        raw, g, t = large_instance()
        clean = reformulated(raw, g, t)
        rows = t.to_rows()
        rows[0][0] += 1
        assert not check_reformulation(raw, g, Matrix.from_rows(rows), clean)

    def test_singular_row_ops_rejected(self):
        raw, _ = me_instance()
        assert not check_reformulation(raw, Matrix.zeros(2, 2), Matrix.identity(2), raw)

    def test_equivalence_under_inversion(self):
        # (G, T) maps raw to clean iff (G^-1, T^-1) maps clean to raw
        raw, g, t = large_instance()
        clean = reformulated(raw, g, t)
        assert check_reformulation(raw, g, t, clean)
        assert check_reformulation(clean, inverse(g), inverse(t), raw)


def _large_with(*, b=None, entry=None):
    """The printed large pair with clean b_3 changed, or +1 at one upper
    entry (i, r, s) of a clean matrix; returns raw, G, T and that clean."""
    raw, g, t = large_instance()
    clean = reformulated(raw, g, t)
    matrices = list(clean.A)
    if entry is not None:
        i, r, s = entry
        matrices[i - 1] = matrices[i - 1].add(SymMatrix.unit(4, r, s))
    return raw, g, t, SdpInstance(4, tuple(matrices), clean.b if b is None else b)


class TestReformulationDetail:
    def test_passing_report_is_truthy_with_no_detail(self):
        raw, g, t, clean = _large_with()
        report = check_reformulation(raw, g, t, clean)
        assert report.ok is True and bool(report) and report.detail == ""

    def test_singular_row_ops(self):
        raw, _, t, clean = _large_with()
        report = check_reformulation(raw, Matrix.zeros(4, 4), t, clean)
        assert not report and report.detail == "det G = 0"

    def test_singular_transform(self):
        raw, g, _, clean = _large_with()
        rows = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        report = check_reformulation(raw, g, Matrix.from_rows(rows), clean)
        assert not report and report.detail == "det T = 0"

    def test_right_hand_side_row(self):
        raw, g, t, clean = _large_with(b=(0, 0, -2, -12))
        report = check_reformulation(raw, g, t, clean)
        assert not report and report.detail == "b row 3"

    @pytest.mark.parametrize("entry", [(1, 1, 1), (2, 2, 3), (4, 4, 4)])
    def test_matrix_entry(self, entry):
        raw, g, t, clean = _large_with(entry=entry)
        report = check_reformulation(raw, g, t, clean)
        assert not report and report.detail == "row {} entry ({}, {})".format(*entry)

    def test_verification_carries_the_detail(self):
        import json

        cert = large_certificate()
        b = list(cert.clean.b)
        b[0] += 1
        report = verify_weak_infeasibility(replace(cert, clean=SdpInstance(4, cert.clean.A, tuple(b))))
        doc = json.loads(report.to_json())
        (check,) = [c for c in doc["checks"] if c["name"] == "reformulation (G, T)"]
        assert check == {"name": "reformulation (G, T)", "passed": False, "detail": "b row 1"}


class TestVerifyWeakInfeasibility:
    def test_minimal_example_passes(self):
        _, cert = me_instance()
        report = verify_weak_infeasibility(cert)
        assert report.passed
        assert cert.k == 1 and cert.l == 1

    def test_large_example_passes_with_k_l_two(self):
        cert = large_certificate()
        report = verify_weak_infeasibility(cert)
        assert report.passed
        assert cert.k == 2 and cert.l == 2

    def test_dropping_first_x_fails(self):
        _, cert = me_instance()
        truncated = WeakCertificate(
            raw=cert.raw,
            row_ops=cert.row_ops,
            transform=cert.transform,
            clean=cert.clean,
            k=cert.k,
            xseq=cert.xseq[1:],
            p_structure=cert.p_structure,
            q_structure=type(cert.q_structure)(2, (cert.q_structure.blocks[0],)),
        )
        report = verify_weak_infeasibility(truncated)
        assert not report.passed
        failed = [c.name for c in report.checks if not c.passed]
        assert "sequence length l >= 1" in failed

    def test_report_is_machine_readable(self):
        import json

        _, cert = me_instance()
        doc = json.loads(verify_weak_infeasibility(cert).to_json())
        assert doc["passed"] is True
        assert len(doc["checks"]) == 5


def _tamper_raw_diagonal(cert):
    """+1 on raw A_1 at (1, 1): (G, T) no longer maps raw to clean."""
    n = cert.raw.n
    matrices = (cert.raw.A[0].add(SymMatrix.unit(n, 1, 1)),) + cert.raw.A[1:]
    return replace(cert, raw=SdpInstance(n, matrices, cert.raw.b))


def _tamper_contradiction_rhs(cert):
    """clean b_{k+1} = +1, with raw b moved along so that (G, T) still holds."""
    b = list(cert.clean.b)
    b[cert.k] = Fraction(1)
    raw = SdpInstance(cert.raw.n, cert.raw.A, inverse(cert.row_ops).mul_vec(b))
    return replace(cert, raw=raw, clean=SdpInstance(cert.clean.n, cert.clean.A, b))


def _tamper_zero_cell(cert):
    """A 1 in the first cell of X_1 that must be zero."""
    n = cert.raw.n
    i, j = next(
        (i, j) for i in range(1, n + 1) for j in range(i, n + 1)
        if cell_region(cert.q_structure, 1, i, j) == "zero"
    )
    return replace(cert, xseq=(cert.xseq[0].add(SymMatrix.unit(n, i, j)),) + cert.xseq[1:])


def _tamper_pivot_diagonal(cert):
    """The first pivot diagonal entry of X_2 set to zero."""
    n = cert.raw.n
    i = min(cert.q_structure.blocks[1])
    x2 = cert.xseq[1]
    x2 = x2.sub(SymMatrix.unit(n, i, i).scale(x2.at(i, i)))
    return replace(cert, xseq=(cert.xseq[0], x2) + cert.xseq[2:])


class TestReportDetails:
    # the exact text of each failing sub-check, recorded from an earlier
    # revision; the reformulation's since it names its first differing entry
    @pytest.mark.parametrize("tamper, failures", [
        (_tamper_raw_diagonal, {
            "reformulation (G, T)": "row 1 entry (1, 1)",
        }),
        (_tamper_contradiction_rhs, {
            "infeasibility prefix":
                "right-hand side prefix ('0', '0', '1') is not (0, ..., 0, negative)",
            "closeness certificate": "A_3 . X_3 = -1, expected 1",
        }),
        (_tamper_zero_cell, {
            "closeness certificate":
                "matrix 1 entry (1, 1): entry outside block and earlier rows must be zero",
        }),
        (_tamper_pivot_diagonal, {
            "closeness certificate": "matrix 2 entry (2, 2): block diagonal entry must be positive",
        }),
    ])
    def test_first_violation_of_each_failing_check(self, tamper, failures):
        report = verify_weak_infeasibility(tamper(large_certificate()))
        assert {c.name: c.detail for c in report.checks if not c.passed} == failures


class TestSieveDetect:
    def test_sos_system_detected_without_reformulation(self):
        inst, _ = motzkin_sos()
        detection = sieve_detect(inst)
        assert detection is not None
        assert detection.k == 4
        assert detection.permutation[:5] == (1, 2, 3, 4, 5)
        assert [sorted(b) for b in detection.structure.blocks] == [[1], [2], [3], [4], [5]]

    def test_minimal_clean_system_detected(self):
        _, cert = me_instance()
        detection = sieve_detect(cert.clean)
        assert detection is not None and detection.k == 1
        # the contradiction row has an empty diagonal block
        assert detection.structure.blocks[1] == frozenset()

    def test_disguised_system_not_detected(self):
        raw, _, _ = large_instance()
        assert sieve_detect(raw) is None

    def test_detection_implies_valid_prefix(self):
        for seed in (0, 1, 2, 3):
            instance = generate(GenConfig(n=5, m=4, k=2, l=1, seed=seed))
            detection = sieve_detect(instance.clean)
            assert detection is not None
            reordered = permuted_instance(instance.clean, detection.permutation)
            assert check_infeasibility_cert(reordered, detection.k, detection.structure)

    def test_stalls_without_zero_rhs_rows(self):
        inst = SdpInstance(2, (SymMatrix.identity(2),), (5,))
        assert sieve_detect(inst) is None


class TestCertificateFromInstance:
    def test_clean_instance_gets_identity_reformulation(self):
        instance = three_by_three(Fraction(3, 5))
        cert = WeakCertificate.from_instance(instance)
        assert cert.raw == instance.clean
        assert cert.row_ops == Matrix.identity(3)
        assert verify_weak_infeasibility(cert).passed

    def test_messy_instance_inverts_disguise(self):
        instance = generate(GenConfig(n=5, m=4, k=1, l=2, seed=10, messy=True))
        cert = WeakCertificate.from_instance(instance)
        assert cert.raw == instance.provenance.messy
        assert verify_weak_infeasibility(cert).passed

    def test_sos_certificate(self):
        cert = motzkin_certificate()
        assert verify_weak_infeasibility(cert).passed
        assert cert.k == 4 and cert.l == 2

    def test_dense_transform_through_the_verifier(self):
        # a long disguise leaves no zero in T: the whole verifier on a dense T
        instance = generate(GenConfig(n=8, m=3, k=1, l=2, seed=7, messy=True, mess_budget=200))
        cert = WeakCertificate.from_instance(instance)
        assert 0 not in cert.transform._e
        assert verify_weak_infeasibility(cert).passed
        rng = SplitMix64(7)
        for c in range(cert.raw.m):
            raw = SdpInstance(cert.raw.n, _plus_one(cert.raw.A, rng, c), cert.raw.b)
            report = verify_weak_infeasibility(replace(cert, raw=raw))
            (check,) = [check for check in report.checks if not check.passed]
            i, r, s = congruence_mismatch_by_fractions(raw.A, cert.row_ops, cert.transform, cert.clean.A)
            assert (check.name, check.detail) == ("reformulation (G, T)", f"row {i} entry ({r}, {s})")
        # +1 on the last clean entry before the diagonal: every earlier entry is compared first
        n, m = cert.clean.n, cert.clean.m
        clean = SdpInstance(n, cert.clean.A[:-1] + (cert.clean.A[-1].add(SymMatrix.unit(n, n - 1, n)),), cert.clean.b)
        report = check_reformulation(cert.raw, cert.row_ops, cert.transform, clean)
        assert report.detail == f"row {m} entry ({n - 1}, {n})"


def _plus_one(mats, rng, c):
    """Copy of `mats` with one entry of member c, drawn by `rng`, raised by 1."""
    n = mats[c].n
    i = rng.randint(1, n)
    j = rng.randint(i, n)
    return mats[:c] + (mats[c].add(SymMatrix.unit(n, i, j)),) + mats[c + 1:]


def test_sieve_and_inference_match_earlier_revision(sweep):
    # sha256 over sieve_detect and infer_structure results on every fifth sweep
    # config, recorded from an earlier revision: the raw and clean instances,
    # their (k+1)-prefixes and X sequences, and copies with one entry raised
    # by 1 per prefix member (and b_{k+1} raised by 1), so some fail
    instances, _ = sweep
    sieved, inferred = [], []
    for cfg, instance, _, _ in instances[::5]:
        rng = SplitMix64(cfg.seed)
        k = instance.k
        for inst in (instance.raw, instance.clean):
            variants = [inst, SdpInstance(inst.n, inst.A, inst.b[:k] + (inst.b[k] + 1,) + inst.b[k + 1:])]
            variants += [SdpInstance(inst.n, _plus_one(inst.A, rng, c), inst.b) for c in range(k + 1)]
            for variant in variants:
                found = sieve_detect(variant)
                sieved.append("None\n" if found is None else
                              f"{found.k} {[sorted(b) for b in found.structure.blocks]} {found.permutation}\n")
            prefix = inst.A[: k + 1]
            for mats in [prefix] + [_plus_one(prefix, rng, c) for c in range(k + 1)]:
                structure = infer_structure(mats)
                inferred.append("None\n" if structure is None else f"{[sorted(b) for b in structure.blocks]}\n")
        xseq = instance.xseq
        for mats in [xseq] + [_plus_one(xseq, rng, c) for c in range(len(xseq))]:
            structure = infer_structure(mats)
            inferred.append("None\n" if structure is None else f"{[sorted(b) for b in structure.blocks]}\n")
    assert sum(line == "None\n" for line in sieved) not in (0, len(sieved))
    assert sum(line == "None\n" for line in inferred) not in (0, len(inferred))
    digests = [hashlib.sha256("".join(lines).encode()).hexdigest() for lines in (sieved, inferred)]
    assert digests == [
        "842a6530a6dc4676eb03cf888baeb5a0e34e1c52322136622736386ef5a7a146",
        "a9d685538bb0a1df8f004b01754e12d1518f5954c4e68e5afd04a7dfdd331146",
    ]
