from dataclasses import replace
from fractions import Fraction

import pytest

from weaksdp import (
    GenConfig,
    Matrix,
    SdpInstance,
    Structure,
    SymMatrix,
    WeakCertificate,
    WeakInstance,
    bad_projection,
    base_equations,
    bilinear_solve,
    check_infeasibility_cert,
    check_not_strong_cert,
    check_reformulation,
    choose_structures,
    extend_constraints,
    generate,
    inner,
    inner_general,
    inner_product_matrix,
    inverse,
    invert_provenance,
    messify,
    reformulated,
    three_by_three,
    verify_weak_infeasibility,
)
from weaksdp.formats import NativeBundle, bundle_to_json, write_native
import hashlib
import itertools
import json


def base_cfg(**kw):
    defaults = dict(n=6, m=5, k=2, l=2, seed=11, entry_range=3)
    defaults.update(kw)
    return GenConfig(**defaults)


class TestGenConfig:
    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            GenConfig(n=3, m=3, k=0, l=1, seed=0)

    def test_m_too_small_rejected(self):
        with pytest.raises(ValueError):
            GenConfig(n=3, m=1, k=1, l=1, seed=0)

    def test_no_room_rejected(self):
        with pytest.raises(ValueError):
            GenConfig(n=2, m=3, k=2, l=1, seed=0)
        with pytest.raises(ValueError):
            GenConfig(n=3, m=3, k=2, l=2, seed=0, structure_overlap_policy="disjoint-only")


    def test_config_json_refuses_integers_past_the_digit_limit(self):
        # 10^4300 has 4301 digits: json.dumps would hit the interpreter's limit
        from weaksdp.exact import DIGIT_LIMIT
        from weaksdp.generator import config_json

        for cfg in (GenConfig(n=4, m=3, k=1, l=1, seed=10**DIGIT_LIMIT),
                    GenConfig(n=4, m=3, k=1, l=1, seed=0, block_size_range=(1, 10**DIGIT_LIMIT))):
            with pytest.raises(ValueError, match=f"more than DIGIT_LIMIT = {DIGIT_LIMIT} digits"):
                config_json(cfg)
        longest = 10**DIGIT_LIMIT - 1
        assert config_json(GenConfig(n=4, m=3, k=1, l=1, seed=longest))["seed"] == longest


class TestChooseStructures:
    def test_required_blocks_nonempty(self):
        p, q = choose_structures(base_cfg())
        assert all(p.blocks[i] for i in range(2))
        assert all(q.blocks[i] for i in range(2))
        assert len(p.blocks) == 3 and len(q.blocks) == 3

    def test_disjointness_conditions_500_draws(self):
        for seed in range(500):
            cfg = base_cfg(seed=seed, structure_overlap_policy="overlapping-allowed")
            p, q = choose_structures(cfg)
            q_union = q.union()
            p_union = p.union()
            assert not (p.blocks[0] & q_union)
            assert not (q.blocks[0] & p_union)

    def test_minimal_two_by_two_layout(self):
        cfg = GenConfig(n=2, m=2, k=1, l=1, seed=5)
        p, q = choose_structures(cfg)
        assert len(p.blocks[0]) == 1 and len(q.blocks[0]) == 1
        assert p.blocks[0] != q.blocks[0]
        assert p.blocks[1] == frozenset() and q.blocks[1] == frozenset()

    def test_overlapping_layout_producible(self):
        # some seed yields P = ({1},{2}), Q = ({3},{2}): a later X block reusing
        # a later A block, impossible under the disjoint-only policy
        target_p = (frozenset({1}), frozenset({2}))
        target_q = (frozenset({3}), frozenset({2}))
        found = None
        for seed in range(4000):
            cfg = GenConfig(n=3, m=3, k=1, l=1, seed=seed,
                            structure_overlap_policy="overlapping-allowed",
                            block_size_range=(1, 1))
            p, q = choose_structures(cfg)
            if p.blocks == target_p and q.blocks == target_q:
                found = seed
                break
        assert found is not None

    def test_structures_match_earlier_revision(self):
        # sha256 over the structures drawn for a sweep of configs under both
        # policies, recorded from an earlier revision: one line per config,
        # the P and Q blocks as sorted lists, or the error a config raises
        lines = []
        for policy in ("overlapping-allowed", "disjoint-only"):
            for n, k, l, sizes in itertools.product(
                    range(2, 13), (1, 2, 3), (1, 2, 3), ((1, 1), (1, 2), (2, 3))):
                for seed in range(5):
                    try:
                        cfg = GenConfig(n=n, m=k + 1, k=k, l=l, seed=seed, block_size_range=sizes,
                                        structure_overlap_policy=policy)
                        p, q = choose_structures(cfg)
                        drawn = [[sorted(b) for b in p.blocks], [sorted(b) for b in q.blocks]]
                    except ValueError as exc:
                        drawn = str(exc)
                    lines.append(f"{policy} {n} {k} {l} {sizes} {seed}: {drawn}\n")
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "edc06213090dc350009fc41a7733ac4408a523b1dd60c578222d229244f6f2b0"

    def test_disjoint_only_policy_never_overlaps(self):
        for seed in range(200):
            cfg = base_cfg(seed=seed, structure_overlap_policy="disjoint-only")
            p, q = choose_structures(cfg)
            assert not (p.union() & q.union())


class TestBilinearSolve:
    def test_zero_targets(self):
        m, ys = bilinear_solve(2, 3, (Fraction(0), Fraction(0)), seed=1)
        assert any(v != 0 for row in m.to_rows() for v in row)
        assert all(inner_general(m, y) == 0 for y in ys)

    def test_scalar_case_halves(self):
        m, ys = bilinear_solve(1, 1, (Fraction(-1, 2),), seed=3)
        alpha = m.at(1, 1)
        beta = ys[0].at(1, 1)
        assert alpha * beta == Fraction(-1, 2)
        assert 2 * alpha * beta == -1

    def test_general_targets(self):
        targets = (Fraction(3), Fraction(-5), Fraction(7))
        m, ys = bilinear_solve(2, 3, targets, seed=9)
        assert tuple(inner_general(m, y) for y in ys) == targets


class TestBaseEquations:
    def test_inner_product_pattern(self):
        cfg = base_cfg()
        p, q = choose_structures(cfg)
        a_seq, xseq = base_equations(cfg, p, q, seed=77)
        for i, a in enumerate(a_seq, start=1):
            for j, x in enumerate(xseq, start=1):
                expected = -1 if (i, j) == (cfg.k + 1, cfg.l + 1) else 0
                assert inner(a, x) == expected

    def test_constraint_matrices_integral(self):
        cfg = base_cfg()
        p, q = choose_structures(cfg)
        a_seq, _ = base_equations(cfg, p, q, seed=77)
        assert all(v.denominator == 1 for a in a_seq for row in a.to_rows() for v in row)


class TestExtendConstraints:
    def test_orthogonality_and_rhs(self):
        cfg = base_cfg(m=7)
        p, q = choose_structures(cfg)
        a_seq, xseq = base_equations(cfg, p, q, seed=8)
        extras, b = extend_constraints(a_seq, xseq, cfg, seed=9)
        assert len(extras) == cfg.m - cfg.k - 1
        assert b[: cfg.k] == (0,) * cfg.k and b[cfg.k] == -1
        for offset, a in enumerate(extras):
            assert all(inner(a, x) == 0 for x in xseq[: cfg.l])
            assert inner(a, xseq[-1]) == b[cfg.k + 1 + offset]

    def test_projections_match_earlier_revision(self, sweep):
        # sha256 over the extra constraints A_{k+2}..A_m and the right-hand
        # side b of every sweep config, as stored numerators and denominators,
        # recorded from an earlier revision that projected through Fractions
        instances, _ = sweep
        digest = hashlib.sha256()
        for cfg, instance, _, _ in instances:
            extras = instance.clean.A[cfg.k + 1:]
            stored = ([(a._u, a._d) for a in extras], [v.as_integer_ratio() for v in instance.clean.b])
            digest.update(f"{stored}\n".encode())
        assert digest.hexdigest() == "dc26c64c8d4a52a7d8b4b6d7fe79f894480cc38c9c65812176eff2e43d676696"

    def test_minimal_m_skips_extension(self):
        cfg = base_cfg(m=3)
        p, q = choose_structures(cfg)
        a_seq, xseq = base_equations(cfg, p, q, seed=8)
        extras, b = extend_constraints(a_seq, xseq, cfg, seed=9)
        assert extras == ()
        assert b == (0, 0, -1)


class TestStructureInferenceRoundTrip:
    def test_generated_structures_recoverable_from_matrices_alone(self):
        from weaksdp import infer_structure

        for seed in range(12):
            instance = generate(base_cfg(seed=seed, m=6))
            assert infer_structure(instance.clean.A[: instance.k + 1]) == instance.p_structure
            assert infer_structure(instance.xseq) == instance.q_structure


class TestMessify:
    def test_zero_budget_is_identity_disguise(self):
        instance = generate(base_cfg())
        disguised = messify(instance, seed=4, budget=0, magnitude=2)
        assert disguised.provenance.messy == instance.clean
        assert disguised.provenance.row_ops == Matrix.identity(instance.clean.m)

    def test_recorded_inverses_are_the_inverses(self):
        # T of order n = 1..8 and G of order m = 9 - n, every budget 0..2(n + m)
        # and caps 0..3: cap 0 leaves out the add kind, and order 1 the add
        # and swap kinds. messify reads only the clean system, and its messy
        # system is the reformulation by the recorded G and T.
        for n in range(1, 9):
            m = 9 - n
            clean = SdpInstance(n, tuple(SymMatrix.identity(n).scale(i) for i in range(1, m + 1)),
                                (0,) * m)
            blocks = Structure(n, ({1}, ()))
            instance = WeakInstance(clean, (SymMatrix.zeros(n),) * 2, blocks, blocks, k=1, l=1)
            for budget in range(2 * (n + m) + 1):
                for cap in range(4):
                    prov = messify(instance, seed=100 * n + 4 * budget + cap, budget=budget,
                                   magnitude=cap).provenance
                    g_inv, t_inv = invert_provenance(prov)
                    assert g_inv == inverse(prov.row_ops) and t_inv == inverse(prov.congruence)
                    assert prov.row_ops @ g_inv == Matrix.identity(m)
                    assert prov.congruence @ t_inv == Matrix.identity(n)
                    assert prov.messy == reformulated(clean, prov.row_ops, prov.congruence)

    def test_roundtrip_through_inverse(self):
        for seed in range(20):
            instance = generate(base_cfg(seed=seed, messy=True))
            g_inv, t_inv = invert_provenance(instance.provenance)
            assert check_reformulation(instance.provenance.messy, g_inv, t_inv, instance.clean)

    def test_messy_data_integral(self):
        instance = generate(base_cfg(messy=True))
        raw = instance.raw
        assert all(v.denominator == 1 for a in raw.A for row in a.to_rows() for v in row)
        assert all(v.denominator == 1 for v in raw.b)

    @pytest.mark.parametrize("policy", ["disjoint-only", "overlapping-allowed"])
    @pytest.mark.parametrize("l", [1, 2, 3])
    @pytest.mark.parametrize("n, m", [(5, 4), (10, 8), (20, 15)])
    def test_messy_without_provenance_is_clean_generation(self, policy, l, n, m):
        # library_build derives each clean instance this way, from the messy one
        cfg = GenConfig(n=n, m=m, k=min(3, n - 1 - l), l=l, seed=n * l,
                        structure_overlap_policy=policy, messy=True)
        messy = generate(cfg)
        assert replace(messy, provenance=None) == generate(replace(cfg, messy=False))

    def test_messy_is_forward_image_of_clean(self):
        instance = generate(base_cfg(messy=True))
        prov = instance.provenance
        assert reformulated(instance.clean, prov.row_ops, prov.congruence) == prov.messy


class TestGenerate:
    def test_two_by_two_variant_of_minimal_example(self):
        instance = generate(GenConfig(n=2, m=2, k=1, l=1, seed=7))
        assert instance.clean.b == (0, -1)
        table = inner_product_matrix(instance.clean, instance.xseq)
        assert table == [[0, 0], [0, -1]]
        assert len(instance.p_structure.blocks[0]) == 1
        assert len(instance.q_structure.blocks[0]) == 1

    def test_three_by_three_shape_reachable(self):
        # overlapping policy admits the 3x3 layout with a shared later block
        found = False
        for seed in range(400):
            instance = generate(GenConfig(n=3, m=3, k=1, l=1, seed=seed,
                                          block_size_range=(1, 1)))
            p, q = instance.p_structure, instance.q_structure
            if p.blocks[1] and p.blocks[1] == q.blocks[1]:
                found = True
                break
        assert found

    def test_deterministic_and_byte_identical(self):
        cfg = base_cfg(messy=True)
        first = generate(cfg)
        second = generate(cfg)
        assert first == second
        cert = WeakCertificate.from_instance(first)
        doc = json.dumps(bundle_to_json(NativeBundle(instance=first.raw, certificate=cert)))
        doc2 = json.dumps(bundle_to_json(NativeBundle(instance=second.raw,
                                                      certificate=WeakCertificate.from_instance(second))))
        assert doc == doc2

    # sha256 of the .wsdp bytes, recorded from an earlier revision: a refactor
    # of the generator, the reformulation or the writer must leave them unchanged
    @pytest.mark.parametrize("messy, digest", [
        (False, "f3d16045094df489da680bc81f66e750e1546b6851036fb804bd3fa187f9b206"),
        (True, "ad1ceffc546210de9b332531454e3cdd5fcd96c88e5e130e15d30f06e6fd3926"),
    ])
    def test_native_bytes_match_earlier_revision(self, tmp_path, messy, digest):
        instance = generate(GenConfig(n=10, m=8, k=2, l=2, seed=7, messy=messy))
        bundle = NativeBundle(instance=instance.raw, certificate=WeakCertificate.from_instance(instance))
        path = tmp_path / "instance.wsdp"
        write_native(bundle, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_outputs_verify(self):
        for seed in range(25):
            cfg = base_cfg(seed=seed, messy=(seed % 2 == 0))
            instance = generate(cfg)
            report = verify_weak_infeasibility(WeakCertificate.from_instance(instance))
            assert report.passed

    def test_wider_blocks_and_both_policies(self):
        for policy in ("overlapping-allowed", "disjoint-only"):
            for seed in range(8):
                cfg = GenConfig(n=12, m=6, k=2, l=3, seed=seed, block_size_range=(2, 3),
                                structure_overlap_policy=policy, messy=(seed % 3 == 0))
                instance = generate(cfg)
                assert verify_weak_infeasibility(WeakCertificate.from_instance(instance)).passed

    def test_tight_room_boundaries(self):
        # exactly enough indices for the required nonempty blocks
        tight_disjoint = GenConfig(n=5, m=6, k=2, l=3, seed=1,
                                   structure_overlap_policy="disjoint-only")
        assert verify_weak_infeasibility(
            WeakCertificate.from_instance(generate(tight_disjoint))).passed
        tight_overlap = GenConfig(n=6, m=7, k=5, l=5, seed=2)
        assert verify_weak_infeasibility(
            WeakCertificate.from_instance(generate(tight_overlap))).passed


class TestBadProjection:
    def test_packaging_and_checks(self):
        instance = generate(base_cfg())
        witness = bad_projection(instance)
        assert witness.A == instance.clean.A
        assert check_infeasibility_cert(instance.clean, witness.k, witness.p_structure)
        assert check_not_strong_cert(instance.clean, witness.xseq, witness.q_structure)

    def test_three_by_three_witness(self):
        instance = three_by_three(1)
        witness = bad_projection(instance)
        assert witness.b == (0, -1, 0)

    def test_minimal_example_as_witness(self):
        from weaksdp import WeakInstance, me_instance

        _, cert = me_instance()
        instance = WeakInstance(
            clean=cert.clean, xseq=cert.xseq,
            p_structure=cert.p_structure, q_structure=cert.q_structure,
            k=cert.k, l=cert.l,
        )
        witness = bad_projection(instance)
        assert witness.k == 1 and len(witness.xseq) == 2

    def test_sos_system_as_witness(self):
        from weaksdp import WeakInstance, motzkin_certificate

        cert = motzkin_certificate()
        instance = WeakInstance(
            clean=cert.clean, xseq=cert.xseq,
            p_structure=cert.p_structure, q_structure=cert.q_structure,
            k=cert.k, l=cert.l,
        )
        witness = bad_projection(instance)
        assert witness.k == 4

    def test_witness_of_witness_is_same_data(self):
        instance = three_by_three(1)
        first = bad_projection(instance)
        second = bad_projection(instance)
        assert first == second

    def test_unverified_input_rejected(self):
        instance = generate(base_cfg())
        broken = type(instance)(
            clean=type(instance.clean)(instance.clean.n, instance.clean.A,
                                       (1,) + instance.clean.b[1:]),
            xseq=instance.xseq,
            p_structure=instance.p_structure,
            q_structure=instance.q_structure,
            k=instance.k,
            l=instance.l,
        )
        with pytest.raises(ValueError):
            bad_projection(broken)
