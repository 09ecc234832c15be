import hashlib
from fractions import Fraction

import pytest

from weaksdp import (
    Matrix,
    NativeBundle,
    SymMatrix,
    WeakCertificate,
    check_not_strong_cert,
    infer_structure,
    inner,
    inner_product_matrix,
    large_certificate,
    large_instance,
    library_build,
    me_instance,
    motzkin_certificate,
    motzkin_monomial_groups,
    motzkin_sos,
    propagate_zero_rows,
    read_native,
    read_sdpa,
    reformulated,
    sieve_detect,
    three_by_three,
    validate_echelon,
    verify_weak_infeasibility,
    write_native,
)


class TestMinimalExample:
    def test_raw_data(self):
        raw, _ = me_instance()
        assert raw.b == (0, 2)
        assert raw.A[0] == SymMatrix.from_rows([[1, 0], [0, 0]])
        assert raw.A[1] == SymMatrix.from_rows([[0, 1], [1, 0]])

    def test_certificate_verifies(self):
        _, cert = me_instance()
        assert verify_weak_infeasibility(cert).passed
        assert cert.clean.A[1] == cert.raw.A[1].scale(Fraction(-1, 2))

    def test_zero_row_propagation(self):
        _, cert = me_instance()
        trace = propagate_zero_rows(cert.clean, cert.k, cert.p_structure)
        assert trace.forced == {1}


class TestLargeExample:
    def test_reformulation_yields_expected_rhs(self):
        raw, g, t = large_instance()
        clean = reformulated(raw, g, t)
        assert clean.b == (0, 0, -1, -12)

    def test_prefix_is_echelon_with_three_blocks(self):
        raw, g, t = large_instance()
        clean = reformulated(raw, g, t)
        structure = infer_structure(clean.A[:3])
        assert structure is not None
        assert len(structure.blocks) == 3
        assert validate_echelon(clean.A[:3], structure).ok

    def test_narrated_construction_values(self):
        cert = large_certificate()
        clean = cert.clean
        assert clean.A[1].at(1, 4) == Fraction(1, 2)
        assert clean.A[2].at(2, 4) == 1
        printed_a4 = Matrix.from_rows([
            [-1, -2, -1, 3],
            [-2, 2, -1, 2],
            [-1, -1, 0, -1],
            [3, 2, -1, 0],
        ]).scale(Fraction(1, 2))
        assert clean.A[3].to_rows() == printed_a4.to_rows()
        assert cert.xseq[1].at(1, 4) == -1 and cert.xseq[1].at(2, 4) == 1
        assert cert.xseq[2].at(1, 4) == 0 and cert.xseq[2].at(2, 4) == -5

    def test_full_certificate_verifies_with_k_l_two(self):
        cert = large_certificate()
        assert cert.k == 2 and cert.l == 2
        assert verify_weak_infeasibility(cert).passed

    def test_extension_rhs_is_product_with_last_member(self):
        cert = large_certificate()
        assert inner(cert.clean.A[3], cert.xseq[-1]) == -12

    def test_bundle_bytes_match_earlier_revision(self, tmp_path):
        # sha256 of the .wsdp bytes, recorded from an earlier revision that
        # solved for the X sequence: writing it as data must not change it
        cert = large_certificate()
        path = tmp_path / "large.wsdp"
        write_native(NativeBundle(instance=cert.raw, certificate=cert, label="large"), path)
        digest = "8d8165684508214d0c23aa2e82a33624eda2db3eecefac50bb936f521dedd9c3"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestThreeByThree:
    @pytest.mark.parametrize("alpha", [1, -2, Fraction(3, 5)])
    def test_family_verifies(self, alpha):
        instance = three_by_three(alpha)
        assert verify_weak_infeasibility(WeakCertificate.from_instance(instance)).passed
        assert instance.clean.b == (0, -1, 0)

    def test_alpha_one_data(self):
        instance = three_by_three(1)
        a2 = instance.clean.A[1]
        x2 = instance.xseq[1]
        assert a2.at(1, 3) == 1 and x2.at(1, 3) == -1
        assert a2.at(1, 3) * x2.at(1, 3) == -1

    def test_base_pattern(self):
        instance = three_by_three(-2)
        assert instance.xseq[1].at(1, 3) == Fraction(1, 2)
        table = inner_product_matrix(instance.clean, instance.xseq)
        assert table == [[0, 0], [0, -1], [0, 0]]

    def test_third_constraint_orthogonal(self):
        instance = three_by_three(Fraction(3, 5))
        a3 = instance.clean.A[2]
        assert inner(a3, instance.xseq[0]) == 0
        assert inner(a3, instance.xseq[1]) == 0  # hence b_3 = 0

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            three_by_three(0)


class TestSosSystem:
    def test_certificate_equations(self):
        inst, xseq = motzkin_sos()
        assert all(v == 0 for v in inst.apply(xseq[0]))
        assert all(v == 0 for v in inst.apply(xseq[1]))
        assert inst.apply(xseq[2]) == inst.b

    def test_squared_cross_term_rhs(self):
        inst, _ = motzkin_sos()
        assert inst.b[4] == -3  # the x^2 y^2 matching row

    def test_constraint_count_matches_expansion_oracle(self):
        z, groups = motzkin_monomial_groups()
        inst, _ = motzkin_sos()
        assert inst.m == len(groups)
        # independent recount: distinct nonconstant products of monomial pairs
        products = {
            (z[i][0] + z[j][0], z[i][1] + z[j][1])
            for i in range(len(z))
            for j in range(i, len(z))
        }
        assert inst.m == len(products) - 1

    def test_sieve_detects_prefix(self):
        inst, _ = motzkin_sos()
        detection = sieve_detect(inst)
        assert detection is not None and detection.k == 4

    def test_cubic_extension_still_verifies(self):
        cert = motzkin_certificate(include_cubics=True)
        assert cert.k == 6
        assert verify_weak_infeasibility(cert).passed
        inst, xseq = motzkin_sos(include_cubics=True)
        assert check_not_strong_cert(inst, xseq, cert.q_structure)


class TestLibraryBuild:
    def test_smoke_profile(self, tmp_path):
        manifest = library_build(tmp_path, "smoke")
        assert manifest["count"] == 8  # 2 categories x 2 pairs x clean+messy
        for entry in manifest["instances"]:
            assert entry["verification"] == "pass"
            native = tmp_path / entry["files"]["native"]
            bundle = read_native(native)
            assert verify_weak_infeasibility(bundle.certificate).passed
            sdpa = read_sdpa(tmp_path / entry["files"]["sdpa"])
            assert sdpa == bundle.instance
            for image in entry["files"]["images"]:
                assert (tmp_path / image).exists()

    def test_clean_messy_pairing(self, tmp_path):
        manifest = library_build(tmp_path, "smoke")
        by_name = {e["name"]: e for e in manifest["instances"]}
        clean = read_native(tmp_path / by_name["miniature-clean-01"]["files"]["native"])
        messy = read_native(tmp_path / by_name["miniature-messy-01"]["files"]["native"])
        assert clean.certificate.clean == messy.certificate.clean
        assert clean.instance != messy.instance

    def test_smoke_tree_matches_earlier_revision(self, tmp_path):
        # sha256 over every file of the tree, manifest.json included, recorded
        # from an earlier revision: one "<sha256>  <path>" line per file, in
        # path order
        library_build(tmp_path, "smoke")
        listing = "".join(
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(tmp_path).as_posix()}\n"
            for path in sorted(p for p in tmp_path.rglob("*") if p.is_file())
        )
        digest = "900c619ec2be2a525c4dd6abca5dc41377128114563909a59685d20e022001f9"
        assert hashlib.sha256(listing.encode()).hexdigest() == digest

    def test_default_tree_matches_earlier_revision(self, default_library):
        # the same listing over the 727 files of the default profile, so the
        # n = 20/40 native, SDPA and CBF bytes are pinned too
        root, _, _ = default_library
        listing = "".join(
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root).as_posix()}\n"
            for path in sorted(p for p in root.rglob("*") if p.is_file())
        )
        digest = "d7c2ad63d0000a91983c8cb6f1d21c89cf8d7e5b0170387f8b3cc0f23f1a2ef3"
        assert hashlib.sha256(listing.encode()).hexdigest() == digest

    def test_rebuild_is_byte_identical(self, tmp_path):
        root_a = tmp_path / "a"
        root_b = tmp_path / "b"
        library_build(root_a, "smoke")
        library_build(root_b, "smoke")
        files_a = sorted(p.relative_to(root_a) for p in root_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(root_b) for p in root_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (root_a / rel).read_bytes() == (root_b / rel).read_bytes(), rel
