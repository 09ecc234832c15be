import weaksdp
from weaksdp import LibraryProfile, WeakCertificate, generate, library_build, verify_weak_infeasibility

from workloads import CATEGORIES, EXPECTED_FAILURES, failed_checks, gen_config, library_draw, stratified_draws, tamper


def test_library_draw_matches_what_library_build_draws(tmp_path):
    profile = LibraryProfile(name="t", categories=(("miniature", 5, 4), ("small", 10, 8)),
                             pairs_per_category=2, base_seed=2024)
    manifest = library_build(tmp_path, profile)
    for entry in manifest["instances"]:
        cat_index = 1 if entry["category"] == "miniature" else 2
        pair_index = int(entry["name"].rsplit("-", 1)[1])
        k, l, seed = library_draw(2024, cat_index, pair_index, entry["n"], entry["m"])
        assert (entry["k"], entry["l"], entry["seed"]) == (k, l, seed)


def test_stratified_draws_interleave_equal_counts_of_each_l():
    draws = stratified_draws(7, CATEGORIES[1], 3)
    assert [l for _, l, _ in draws] == [1, 2, 3] * 3
    assert len({seed for _, _, seed in draws}) == 9


def test_each_tamper_kind_fails_exactly_its_sub_checks():
    k, l, seed = library_draw(11, 2, 1, 10, 8)
    messy = WeakCertificate.from_instance(generate(gen_config(10, 8, k, l, seed, True)))
    clean = WeakCertificate.from_instance(generate(gen_config(10, 8, k, l, seed, False)))
    assert failed_checks(verify_weak_infeasibility(clean)) == EXPECTED_FAILURES["clean"]
    assert failed_checks(verify_weak_infeasibility(messy)) == EXPECTED_FAILURES["messy"]
    for kind in ("tamper-reform", "tamper-prefix", "tamper-close"):
        report = verify_weak_infeasibility(tamper(messy, kind))
        assert failed_checks(report) == EXPECTED_FAILURES[kind], kind
        assert not report.passed


def test_timed_calls_go_through_the_package_namespace():
    # the tracer patches weaksdp's modules, so operations must look names up there
    import workloads

    for name in ("read_native", "read_sdpa", "sieve_detect", "asymptote_witness"):
        assert not hasattr(workloads, name)
    assert workloads.weaksdp is weaksdp
