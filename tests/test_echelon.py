import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from weaksdp import (
    EchelonViolation,
    GenConfig,
    Matrix,
    SdpInstance,
    Structure,
    SymMatrix,
    asymptote_witness,
    check_infeasibility_cert,
    check_not_strong_cert,
    check_strong_infeasibility_cert,
    frobenius_norm_squared,
    generate,
    infer_structure,
    inner_mismatch,
    large_certificate,
    me_instance,
    motzkin_certificate,
    motzkin_prefix_length,
    motzkin_sos,
    propagate_zero_rows,
    psd_certify,
    validate_echelon,
)
from weaksdp.echelon import next_block
from weaksdp.paper_instances import motzkin_monomial_groups

from oracles import (
    closeness_detail_by_fractions,
    echelon_violation_by_fractions,
    inner_by_fractions,
    inner_mismatch_by_fractions,
    rational_grid,
    search_strong_infeasibility_multiplier,
    witness_by_full_doubling,
)


def sym(rows):
    return SymMatrix.from_rows(rows)


def blocks(n, *sets):
    return Structure(n, tuple(frozenset(s) for s in sets))


ME_CLEAN = SdpInstance(
    2,
    (sym([[1, 0], [0, 0]]), sym([[0, Fraction(-1, 2)], [Fraction(-1, 2), 0]])),
    (0, -1),
)
ME_X = (sym([[0, 0], [0, 1]]), sym([[0, 1], [1, 0]]))


class TestStructure:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            blocks(3, {1, 2}, {2})

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            blocks(2, {3})

    def test_residual(self):
        s = blocks(4, {1}, {3})
        assert s.residual() == {2, 4}


class TestValidateEchelon:
    def test_minimal_pair_passes(self):
        report = validate_echelon(ME_CLEAN.A, blocks(2, {1}, set()))
        assert report.ok

    def test_sos_prefix_passes(self):
        inst, _ = motzkin_sos()
        report = validate_echelon(inst.A[:5], blocks(8, {1}, {2}, {3}, {4}, {5}))
        assert report.ok

    def test_nonpositive_diagonal_fails(self):
        report = validate_echelon([sym([[0, 1], [1, 0]])], blocks(2, {1}))
        assert not report.ok
        assert report.violation.matrix_index == 1
        assert report.violation.position == (1, 1)
        assert "positive" in report.violation.rule

    def test_offdiagonal_inside_block_fails(self):
        report = validate_echelon([sym([[1, 1], [1, 1]])], blocks(2, {1, 2}))
        assert not report.ok
        assert report.violation.position == (1, 2)

    def test_stray_entry_fails(self):
        report = validate_echelon([sym([[1, 0, 0], [0, 0, 2], [0, 2, 0]])], blocks(3, {1}))
        assert not report.ok
        assert report.violation.position == (2, 3)

    def test_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            validate_echelon([SymMatrix.identity(2)], blocks(2, {1}, {2}))


@st.composite
def echelon_cases(draw):
    """A structure of order 1-6 with up to 4 blocks, empty blocks and
    uncovered indices included, and one member per block. Each member is in
    echelon form, entries from {-1, 0, 1, 2}, before up to two of the cells
    no earlier block covers are overwritten, mostly from the same set: so a
    sequence passes or fails at any member, cell and rule."""
    n = draw(st.integers(1, 6))
    count = draw(st.integers(0, 4))
    owner = draw(st.lists(st.integers(0, count), min_size=n, max_size=n))  # 0: uncovered
    structure = Structure(n, tuple(
        frozenset(r for r in range(1, n + 1) if owner[r - 1] == b) for b in range(1, count + 1)))
    values = st.sampled_from((-1, 0, 1, 2))
    cells = [(r, s) for r in range(1, n + 1) for s in range(r, n + 1)]
    mats, earlier = [], set()
    for block in structure.blocks:
        free = draw(st.integers(0, 4 ** len(cells) - 1))  # one base-4 digit per cell
        upper = [(free >> 2 * c) % 4 - 1 if r in earlier or s in earlier
                 else int(r == s and r in block) for c, (r, s) in enumerate(cells)]
        live = [c for c, (r, s) in enumerate(cells) if r not in earlier and s not in earlier]
        for _ in range(draw(st.integers(0, 2)) if live else 0):
            upper[draw(st.sampled_from(live))] = draw(values | st.fractions(-2, 2, max_denominator=3))
        mats.append(SymMatrix(n, upper))
        earlier |= block
    return tuple(mats), structure


class TestValidationAgainstFractions:
    @given(echelon_cases())
    @settings(max_examples=200, deadline=None)
    def test_report_matches_fraction_reference(self, case):
        mats, structure = case
        report = validate_echelon(mats, structure)
        want = echelon_violation_by_fractions(mats, structure)
        if want is None:
            assert (report.ok, report.violation, report.detail) == (True, None, "")
        else:
            number, position, rule = want
            assert not report.ok
            assert report.violation == EchelonViolation(number, position, rule)
            assert report.detail == f"matrix {number} entry {position}: {rule}"


class TestInferStructure:
    def test_minimal_sequence(self):
        structure = infer_structure(ME_X)
        assert structure is not None
        assert structure.blocks == (frozenset({2}), frozenset())

    def test_idempotent_with_validation(self):
        # whenever inference succeeds, validation against the inferred
        # structure passes (the echelon step accepts what validation accepts)
        inst, xseq = motzkin_sos()
        for family in (inst.A[:5], xseq, ME_X):
            structure = infer_structure(family)
            assert structure is not None
            assert validate_echelon(family, structure).ok

    def test_empty_list(self):
        structure = infer_structure(())
        assert structure is not None and structure.blocks == ()

    def test_non_echelon_returns_none(self):
        assert infer_structure([sym([[0, 1], [1, 0]])]) is None

    def test_sos_sequence(self):
        _, xseq = motzkin_sos()
        structure = infer_structure(xseq)
        assert structure.blocks == (frozenset({8}), frozenset({3, 4}), frozenset({5, 6, 7}))


class TestNextBlock:
    def test_block_is_the_positive_live_diagonal(self):
        mat = sym([[5, 1, 0], [1, 2, 0], [0, 0, 0]])
        assert next_block(mat, [2, 3]) == frozenset({2})
        assert next_block(mat, [1, 2, 3]) is None  # (1, 2) is live and non-zero
        assert next_block(mat, []) == frozenset()

    def test_negative_live_diagonal_has_no_block(self):
        mat = SymMatrix.diag([1, -1, 0])
        assert next_block(mat, [1, 2, 3]) is None
        assert next_block(mat, [1, 3]) == frozenset({1})

    def test_only_block_validation_accepts(self):
        # every 3x3 matrix with entries in {-1, 0, 1}, after a first member
        # whose block is the complement of `live`: validation accepts the
        # matrix with block B iff B is the step's block
        indices = (1, 2, 3)
        subsets = [frozenset(c) for r in range(4) for c in itertools.combinations(indices, r)]
        for upper in itertools.product((-1, 0, 1), repeat=6):
            mat = SymMatrix(3, upper)
            for live in subsets:
                earlier = frozenset(indices) - live
                first = SymMatrix.diag([int(r in earlier) for r in indices])
                step = next_block(mat, sorted(live))
                accepted = [b for b in subsets if b <= live
                            and validate_echelon((first, mat), blocks(3, earlier, b)).ok]
                assert accepted == ([] if step is None else [step])


class TestInfeasibilityCert:
    def test_minimal_example(self):
        assert check_infeasibility_cert(ME_CLEAN, 1, blocks(2, {1}, set()))

    def test_sos_system_with_rhs_minus_three(self):
        inst, _ = motzkin_sos()
        k = motzkin_prefix_length()
        assert k == 4
        assert inst.b[4] == -3
        assert check_infeasibility_cert(inst, 4, blocks(8, {1}, {2}, {3}, {4}, {5}))

    def test_zero_contradiction_row_rejected(self):
        inst = SdpInstance(2, ME_CLEAN.A, (0, 0))
        assert not check_infeasibility_cert(inst, 1, blocks(2, {1}, set()))

    def test_malformed_structure_raises(self):
        with pytest.raises(ValueError):
            check_infeasibility_cert(ME_CLEAN, 1, blocks(2, {1}))


class TestPropagateZeroRows:
    def test_minimal_example_forces_first_row(self):
        trace = propagate_zero_rows(ME_CLEAN, 1, blocks(2, {1}, set()))
        assert trace.forced == {1}
        assert [s.constraint for s in trace.steps] == [1]
        assert trace.final_rhs == -1

    def test_sos_system_forces_four_rows(self):
        inst, _ = motzkin_sos()
        trace = propagate_zero_rows(inst, 4, blocks(8, {1}, {2}, {3}, {4}, {5}))
        assert trace.forced == {1, 2, 3, 4}
        assert trace.final_rhs == -3

    def test_k_zero_forces_nothing(self):
        inst = SdpInstance(1, (SymMatrix.diag([1]),), (-1,))
        trace = propagate_zero_rows(inst, 0, blocks(1, {1}))
        assert trace.forced == frozenset()
        assert trace.steps == ()

    def test_precondition_enforced(self):
        bad = SdpInstance(2, ME_CLEAN.A, (0, 1))
        with pytest.raises(ValueError):
            propagate_zero_rows(bad, 1, blocks(2, {1}, set()))


class TestNotStrongCert:
    def test_minimal_example(self):
        assert check_not_strong_cert(ME_CLEAN, ME_X, blocks(2, {2}, set()))

    def test_sos_system(self):
        inst, xseq = motzkin_sos()
        structure = infer_structure(xseq)
        assert check_not_strong_cert(inst, xseq, structure)

    def test_perturbed_last_member_fails(self):
        x2 = ME_X[1].add(SymMatrix.unit(2, 1, 1))
        assert not check_not_strong_cert(ME_CLEAN, (ME_X[0], x2), blocks(2, {2}, set()))

    def test_short_sequence_raises(self):
        with pytest.raises(ValueError):
            check_not_strong_cert(ME_CLEAN, (ME_X[0],), blocks(2, {2}))


CLOSENESS_CERTIFICATES = (
    lambda: me_instance()[1],
    large_certificate,
    lambda: generate(GenConfig(n=5, m=4, k=1, l=2, seed=10)),
    lambda: generate(GenConfig(n=6, m=5, k=2, l=3, seed=11, structure_overlap_policy="overlapping-allowed")),
)
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)
positive_fractions = st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6)


@st.composite
def changed_closeness_certificates(draw):
    """A valid closeness certificate over mixed denominators (each A_i and b_i
    scaled by one non-zero fraction, each X_j with j <= l by a positive one),
    then one X entry or one b entry moved by a fraction, zero at times."""
    cert = draw(st.sampled_from(CLOSENESS_CERTIFICATES))()
    inst, xseq, structure = cert.clean, cert.xseq, cert.q_structure
    scales = [draw(positive_fractions) * draw(st.sampled_from((1, -1))) for _ in range(inst.m)]
    a = [mat.scale(c) for mat, c in zip(inst.A, scales)]
    b = [v * c for v, c in zip(inst.b, scales)]
    xs = [x.scale(draw(positive_fractions)) for x in xseq[:-1]] + [xseq[-1]]
    delta = draw(small_fractions)
    if draw(st.booleans()):
        j = draw(st.integers(0, len(xs) - 1))
        r, s = sorted(draw(st.integers(1, inst.n)) for _ in range(2))
        xs[j] = xs[j].add(SymMatrix.unit(inst.n, r, s, delta))
    else:
        i = draw(st.integers(0, inst.m - 1))
        b[i] += delta
    return SdpInstance(inst.n, a, b), tuple(xs), structure


def edge_closeness_case(a_rows, xseq, structure, shift=0):
    """A closeness case of order len(a_rows[0]) whose b meets every A_r . X_{l+1}
    (by the oracle), the last value moved by `shift`."""
    a = tuple(SymMatrix.from_rows(rows) for rows in a_rows)
    b = [inner_by_fractions(mat, xseq[-1]) for mat in a]
    b[-1] += shift
    return SdpInstance(len(a_rows[0]), a, b), xseq, structure


# sequences whose X's sit at the edges of the inner kernel, which reads only
# the non-zero cells of a sparse X: one cell on the diagonal, two cells one of
# them off it, order 1, an all-zero X and an X with no zero cell
EDGE_A = ([[0, 1, 2], [1, 5, -1], [2, -1, 3]], [[0, -2, 1], [-2, 1, 4], [1, 4, 7]])
EDGE_X = (SymMatrix.unit(3, 1, 1, 2), SymMatrix.from_cells(3, {(2, 2): 3, (1, 3): -4}))
EDGE_CLOSENESS = [
    edge_closeness_case(EDGE_A, EDGE_X, blocks(3, {1}, {2})),
    edge_closeness_case(EDGE_A, EDGE_X, blocks(3, {1}, {2}), shift=1),
    edge_closeness_case(([[0]], [[Fraction(7, 2)]]), (SymMatrix(1, [2]), SymMatrix.zeros(1)), blocks(1, {1}, set())),
    edge_closeness_case(([[0, 1, 2], [1, 0, 3], [2, 3, 0]],), (
        SymMatrix.diag([1, 2, 3]), SymMatrix.from_rows([[2, -1, 3], [-1, Fraction(7, 5), 1], [3, 1, -8]])),
        blocks(3, {1, 2, 3}, set()), shift=Fraction(-1, 5)),
]


class TestClosenessAgainstFractions:
    @given(changed_closeness_certificates())
    @example(EDGE_CLOSENESS[0])
    @example(EDGE_CLOSENESS[1])
    @example(EDGE_CLOSENESS[2])
    @example(EDGE_CLOSENESS[3])
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_reference(self, case):
        inst, xseq, structure = case
        targets = [(0,) * inst.m] * (len(xseq) - 1) + [inst.b]
        assert inner_mismatch(inst.A, xseq, targets) == inner_mismatch_by_fractions(inst.A, xseq, targets)
        want = closeness_detail_by_fractions(inst, xseq, structure)
        report = check_not_strong_cert(inst, xseq, structure)
        if want is None:
            assert not report and report.violation is not None
        else:
            assert (report.ok, report.detail) == (want == "", want)

    def test_targets_must_match_the_table(self):
        with pytest.raises(ValueError):
            inner_mismatch(ME_CLEAN.A, ME_X, [(0, 0)])
        with pytest.raises(ValueError):
            inner_mismatch(ME_CLEAN.A, ME_X, [(0,), (0, -1)])


class TestAsymptoteWitness:
    def test_minimal_example_eps_one(self):
        w = asymptote_witness(ME_CLEAN, ME_X, blocks(2, {2}, set()), 1)
        assert psd_certify(w.x_out).is_psd
        assert ME_CLEAN.apply(w.x_out.sub(w.x_delta)) == ME_CLEAN.b
        assert frobenius_norm_squared(w.x_delta) <= 1
        assert w.x_out.at(2, 2) >= 1 and w.x_out.at(1, 1) <= 1

    def test_two_by_two_determinant_condition(self):
        eps = Fraction(1, 10)
        w = asymptote_witness(ME_CLEAN, ME_X, blocks(2, {2}, set()), eps)
        gamma = w.gammas[0]
        assert frobenius_norm_squared(w.x_delta) <= eps * eps
        assert w.delta * gamma > 1  # 2x2 leading determinant is positive
        assert gamma > 10

    def test_no_residual_block_means_zero_padding(self):
        x1 = sym([[0, 0], [0, 1]])
        x2 = sym([[1, 0], [0, 0]])
        inst = SdpInstance(2, (SymMatrix.zeros(2),), (0,))
        structure = blocks(2, {2}, {1})
        w = asymptote_witness(inst, (x1, x2), structure, Fraction(1, 100))
        assert w.x_delta == SymMatrix.zeros(2)
        assert w.delta == 0
        assert psd_certify(w.x_out).is_psd

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            asymptote_witness(ME_CLEAN, ME_X, blocks(2, {2}, set()), 0)


CRITERION_7_TOLERANCES = (Fraction(1), Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000))

# (n, l, overlap policy): l = 1..5, n up to 20, both policies, sized so the
# full-doubling reference stays within a few seconds in total
ORACLE_CONFIGS = (
    (20, 1, "disjoint-only"),
    (20, 1, "overlapping-allowed"),
    (12, 2, "disjoint-only"),
    (12, 2, "overlapping-allowed"),
    (12, 3, "disjoint-only"),
    (6, 3, "overlapping-allowed"),
    (6, 4, "disjoint-only"),
    (6, 4, "overlapping-allowed"),
    (6, 5, "overlapping-allowed"),
)


def _assert_matches_full_doubling(inst, xseq, structure):
    for eps in CRITERION_7_TOLERANCES:
        assert asymptote_witness(inst, xseq, structure, eps) == witness_by_full_doubling(
            inst, xseq, structure, eps
        )


@pytest.mark.parametrize("n, l, policy", ORACLE_CONFIGS)
def test_witness_matches_full_doubling_on_generated(n, l, policy):
    instance = generate(GenConfig(n=n, m=l + 3, k=1, l=l, seed=77 * l + n, entry_range=3,
                                  structure_overlap_policy=policy))
    _assert_matches_full_doubling(instance.clean, instance.xseq, instance.q_structure)


@given(st.integers(1, 4), st.integers(1, 3), st.sampled_from(["disjoint-only", "overlapping-allowed"]),
       st.integers(0, 4), st.integers(0, 2**32 - 1), st.sampled_from(CRITERION_7_TOLERANCES))
@settings(max_examples=100, deadline=None)
def test_carried_elimination_matches_full_doubling(l, largest, policy, spare, seed, eps):
    # blocks of 1..largest indices, so a level borders up to three rows
    # through the steps of every earlier level
    instance = generate(GenConfig(n=l + 2 + spare, m=l + 2, k=1, l=l, seed=seed, entry_range=3,
                                  block_size_range=(1, largest), structure_overlap_policy=policy))
    args = (instance.clean, instance.xseq, instance.q_structure, eps)
    assert asymptote_witness(*args) == witness_by_full_doubling(*args)


def test_witness_certifies_once_and_sums_on_integers(monkeypatch):
    # the gamma probes, the level sums and the final self-check run on integer
    # numerators: no PSD verdict is built, the one elimination over the full
    # order is the self-check at the end, and no entry is read out as a Fraction
    import weaksdp.echelon
    import weaksdp.linalg

    verdicts, eliminations = [], []
    positive_pivots = weaksdp.linalg._positive_pivots

    def counting(a):
        verdicts.append(a.n)
        return psd_certify(a)

    def recording(w, count):
        eliminations.append((len(w), count))
        return positive_pivots(w, count)

    def forbidden(*args):
        raise AssertionError("Fraction entry access inside asymptote_witness")

    instance = generate(GenConfig(n=10, m=6, k=1, l=3, seed=5, entry_range=3))
    for module in (weaksdp.linalg, weaksdp.echelon):
        monkeypatch.setattr(module, "psd_certify", counting)
    monkeypatch.setattr(weaksdp.linalg, "_positive_pivots", recording)
    for cls, names in ((SymMatrix, ("at", "to_rows")), (Matrix, ("at", "row", "to_rows"))):
        for name in names:
            monkeypatch.setattr(cls, name, forbidden)
    for eps in CRITERION_7_TOLERANCES:
        verdicts.clear()
        eliminations.clear()
        witness = asymptote_witness(instance.clean, instance.xseq, instance.q_structure, eps)
        assert verdicts == []
        assert [call for call in eliminations if call[1] == 10] == [(10, 10)]
        assert eliminations[-1] == (10, 10)
        assert len(witness.gammas) == 3


def _zero_complement_certificate():
    """l = 2 over blocks {1}, {2}, {3}: X_3 is zero on row 2, so the
    complement onto P_2 is exactly 0 and a zero gamma_2 leaves a zero pivot
    at the inner level."""
    xseq = (sym([[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
            sym([[0, 1, 0], [1, 1, 0], [0, 0, 0]]),
            sym([[0, 0, 1], [0, 0, 0], [1, 0, 1]]))
    return SdpInstance(3, (SymMatrix.diag([0, 0, 1]),), (1,)), xseq, blocks(3, {1}, {2}, {3})


def _generated_certificate(l):
    instance = generate(GenConfig(n=10, m=l + 5, k=1, l=l, seed=5, entry_range=3))
    return instance.clean, instance.xseq, instance.q_structure


@pytest.mark.parametrize("shift, certificate", [
    pytest.param(Fraction(0), lambda: _generated_certificate(1), id="shift0"),
    pytest.param(Fraction(1, 2**30), lambda: _generated_certificate(1), id="shift1"),
    pytest.param(Fraction(0), lambda: _generated_certificate(3), id="l3-shift0"),
    pytest.param(Fraction(0), _zero_complement_certificate, id="l2-zero-pivot"),
])
def test_witness_self_check_refuses_a_short_shift(monkeypatch, shift, certificate):
    # a gamma search that stops short leaves a matrix that is not positive
    # semidefinite, and the witness refuses it at the level whose pivot is
    # not positive, before any later level borders through that pivot and
    # before the final check
    import weaksdp.echelon

    args = certificate()
    # with the real search the same certificate has a witness
    assert asymptote_witness(*args, Fraction(1, 10)) == witness_by_full_doubling(*args, Fraction(1, 10))
    final_checks = []
    monkeypatch.setattr(weaksdp.echelon, "least_definite_shift", lambda c, d: shift)
    monkeypatch.setattr(weaksdp.echelon, "schur_complement", lambda *call: final_checks.append(call))
    with pytest.raises(AssertionError, match="^constructed witness failed its own PSD check$"):
        asymptote_witness(*args, Fraction(1, 10))
    assert final_checks == []


def test_witnesses_match_earlier_revision(sweep):
    # one sha256 over the stored numerators and denominators of every witness
    # of every fifth sweep config at the four criterion-7 tolerances, recorded
    # from an earlier revision
    instances, _ = sweep
    digest = hashlib.sha256()
    for _, instance, _, _ in instances[::5]:
        for eps in CRITERION_7_TOLERANCES:
            w = asymptote_witness(instance.clean, instance.xseq, instance.q_structure, eps)
            stored = (w.x_out._u, w.x_out._d, w.x_delta._u, w.x_delta._d,
                      [g.as_integer_ratio() for g in w.gammas], w.delta.as_integer_ratio())
            digest.update(f"{stored}\n".encode())
    assert digest.hexdigest() == "96dc4509703a11169e5ae72f0c7078a0ba6e37f0111f767de0751f95a2a59e13"


@pytest.mark.parametrize("make_cert", [
    lambda: me_instance()[1],
    large_certificate,
    motzkin_certificate,
    lambda: motzkin_certificate(include_cubics=True),
], ids=["me", "large", "motzkin", "motzkin-cubics"])
def test_witness_matches_full_doubling_on_paper_certificates(make_cert):
    cert = make_cert()
    _assert_matches_full_doubling(cert.clean, cert.xseq, cert.q_structure)


class TestStrongInfeasibilityCert:
    def test_zero_multiplier_rejected(self):
        assert not check_strong_infeasibility_cert(ME_CLEAN, (0, 0))

    def test_wrong_inner_product_rejected(self):
        # b^T y = -2 here, so the certificate must be refused even though the
        # matrix combination is psd
        inst = SdpInstance(1, (SymMatrix.diag([1]),), (-2,))
        assert not check_strong_infeasibility_cert(inst, (1,))

    def test_fixed_level_sos_variant_is_strongly_infeasible(self):
        # adding the constant-monomial row at level 1 makes the system strongly
        # infeasible; a monomial-evaluation search finds an exact multiplier
        inst, _ = motzkin_sos()
        groups = motzkin_monomial_groups()[1]

        def monomial_of(mat):
            for mono, pairs in groups.items():
                if SymMatrix.from_cells(8, dict.fromkeys(pairs, 1)) == mat:
                    return mono
            raise AssertionError("constraint is not a monomial-matching row")

        fixed = SdpInstance(
            8,
            inst.A + (SymMatrix.unit(8, 8, 8),),
            inst.b + (Fraction(0),),  # constant row at level 1: E_88 . X = 1 - 1
        )
        monomials = [monomial_of(mat) for mat in inst.A] + [(0, 0)]
        y = search_strong_infeasibility_multiplier((fixed, monomials), rational_grid(2))
        assert y is not None
        assert check_strong_infeasibility_cert(fixed, y)

    def test_weakly_infeasible_system_has_no_eval_certificate(self):
        raw, cert = me_instance()
        assert not check_strong_infeasibility_cert(cert.clean, (1, 0))
        assert not check_strong_infeasibility_cert(cert.clean, (0, 1))
