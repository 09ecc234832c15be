"""The three workloads: a pool of operations made at set-up from the seed,
the timed operation, and the check of its output (run outside the timed
region). A round runs every operation of the pool once.

Every workload draws its instances the way `library_build` draws them, from
the default library profile, but stratified by l: a pool holds the same
number of instances with l = 1, 2 and 3. The cost of an instance depends
mostly on l, so without the strata the mix of l in a pool, and with it every
timing, would swing from one seed to the next.
"""

from __future__ import annotations

import hashlib
import itertools
import shutil
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import weaksdp
from weaksdp import (
    LIBRARY_PROFILES,
    GenConfig,
    LibraryProfile,
    NativeBundle,
    SdpInstance,
    SplitMix64,
    SymMatrix,
    WeakCertificate,
    cell_region,
    check_infeasibility_cert,
    derive_seed,
    frobenius_norm_squared,
    generate,
    inverse,
    library_build,
    permuted_instance,
    psd_certify,
    verify_weak_infeasibility,
    write_native,
    write_sdpa,
)

PROFILE = LIBRARY_PROFILES["default"]
CATEGORIES = PROFILE.categories  # (label, n, m): 5/4, 10/8, 20/15, 40/25

# Sub-check names as `verify_weak_infeasibility` reports them.
REFORMULATION = "reformulation (G, T)"
PREFIX = "infeasibility prefix"
CLOSENESS = "closeness certificate"

# Bundle kinds of the verify workload and the sub-checks each must fail.
# Setting b_{k+1} to +1 also breaks the closeness certificate, because
# A_{k+1} . X_{l+1} = -1 no longer matches it; no other check may fail.
EXPECTED_FAILURES = {
    "clean": frozenset(),
    "messy": frozenset(),
    "tamper-reform": frozenset({REFORMULATION}),
    "tamper-prefix": frozenset({PREFIX, CLOSENESS}),
    "tamper-close": frozenset({CLOSENESS}),
}

# Operations call the package through `weaksdp.<name>`, never through a name
# imported here, so that the tracer, which patches the package's modules,
# sees the call.

TOLERANCES = (Fraction(1), Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000))


@dataclass(frozen=True)
class Op:
    """One operation: `kind` tags its spans, `payload` is what it works on."""

    index: int
    kind: str
    payload: object


def library_draw(base_seed: int, cat_index: int, pair_index: int, n: int, m: int):
    """(k, l, seed) of one pair, drawn exactly as `library_build` draws it."""
    rng = SplitMix64(derive_seed(base_seed, cat_index * 1000 + pair_index))
    k = rng.randint(1, min(3, m - 1, n - 1))
    l = rng.randint(1, min(3, n - 1))
    return k, l, rng.next_u64()


def stratify(draws, n: int, per_l: int) -> list:
    """The first `per_l` items for each possible l from `draws`, an iterator of
    (l, item) pairs, interleaved l = 1, 2, 3, 1, ... An item whose stratum is
    already full is skipped, so within a stratum the items keep the
    distribution they were drawn with."""
    strata = {l: [] for l in range(1, min(3, n - 1) + 1)}
    for l, item in draws:
        if len(strata[l]) < per_l:
            strata[l].append(item)
        if all(len(items) == per_l for items in strata.values()):
            return [item for group in zip(*strata.values()) for item in group]


def stratified_draws(base_seed: int, category, per_l: int):
    """`per_l` library draws (k, l, seed) for each possible l, from pair
    indices 1, 2, ... of one of the default profile's categories, drawn at
    its position there."""
    _, n, m = category
    cat_index = CATEGORIES.index(category) + 1
    draws = (library_draw(base_seed, cat_index, pair, n, m) for pair in itertools.count(1))
    return stratify(((draw[1], draw) for draw in draws), n, per_l)


def gen_config(n: int, m: int, k: int, l: int, seed: int, messy: bool) -> GenConfig:
    """The configuration `library_build` uses for one instance of a pair."""
    return GenConfig(
        n=n, m=m, k=k, l=l, seed=seed,
        entry_range=PROFILE.entry_range,
        block_size_range=PROFILE.block_size_range,
        mess_magnitude=PROFILE.mess_magnitude,
        messy=messy,
    )


def tamper(cert: WeakCertificate, kind: str) -> WeakCertificate:
    """A copy of `cert` built to fail verification in the named way."""
    n = cert.raw.n
    if kind == "tamper-reform":
        # +1 on a diagonal entry of raw A_1: every clean row that uses A_1 moves
        # by g_i1 T^T e_1 e_1^T T != 0, so (G, T) no longer maps raw to clean.
        matrices = (cert.raw.A[0].add(SymMatrix.unit(n, 1, 1)),) + cert.raw.A[1:]
        return replace(cert, raw=SdpInstance(n, matrices, cert.raw.b))
    if kind == "tamper-prefix":
        # clean b_{k+1} = +1, with raw b moved along so that (G, T) still holds
        b = list(cert.clean.b)
        b[cert.k] = Fraction(1)
        clean = SdpInstance(n, cert.clean.A, b)
        raw = SdpInstance(n, cert.raw.A, inverse(cert.row_ops).mul_vec(b))
        return replace(cert, raw=raw, clean=clean)
    if kind == "tamper-close":
        i, j = next(
            (i, j) for i in range(1, n + 1) for j in range(i, n + 1)
            if cell_region(cert.q_structure, 1, i, j) == "zero"
        )
        xseq = (cert.xseq[0].add(SymMatrix.unit(n, i, j)),) + cert.xseq[1:]
        return replace(cert, xseq=xseq)
    raise ValueError(f"unknown tamper kind {kind!r}")


def failed_checks(report) -> frozenset[str]:
    return frozenset(check.name for check in report.checks if not check.passed)


def hash_tree(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


class Library:
    """`library_build` of one clean/messy pair per operation, from the default
    profile's three smaller categories: per category, `per_l` base seeds
    whose pair takes l = 1, as many with l = 2 and as many with l = 3. Every
    round rebuilds the same pool, so from the second round on each build is
    also the check that a rebuild is byte-identical.

    The n=40 category is left out. One of its pairs takes 2.5 to 5.6 s to
    generate and verify on a 2-core machine, so a run could hold only a few,
    and its figures followed the draw more than the code."""

    name = "library"
    item = "instance"

    def __init__(self, seed: int, categories=CATEGORIES[:3], per_l: int = 6):
        self.seed = seed
        self.categories = tuple(categories)
        self.per_l = per_l
        self.workdir: Path | None = None
        self.pool: list[Op] = []
        self._hashes: dict[int, dict[str, str]] = {}

    @staticmethod
    def profile(category, base_seed: int, pairs: int = 1) -> LibraryProfile:
        return LibraryProfile(
            name="bench", categories=(category,), pairs_per_category=pairs,
            base_seed=base_seed, entry_range=PROFILE.entry_range,
            block_size_range=PROFILE.block_size_range, mess_magnitude=PROFILE.mess_magnitude,
        )

    def setup(self, workdir: Path) -> None:
        """A fixed build, the same for every seed, settles first-call costs:
        two pairs of each category at the default profile's base seed.
        Then the pool's base seeds are drawn from the benchmark seed; a
        one-category build draws its pair at category index 1, pair index 1."""
        self.workdir = workdir
        self._hashes = {}
        for category in self.categories:
            library_build(workdir / "warmup", self.profile(category, PROFILE.base_seed, pairs=2))
        shutil.rmtree(workdir / "warmup")
        candidates = (derive_seed(self.seed, t) for t in itertools.count())
        pool = []
        for category in self.categories:
            _, n, m = category
            draws = ((library_draw(base_seed, 1, 1, n, m)[1], base_seed) for base_seed in candidates)
            for base_seed in stratify(draws, n, self.per_l):
                pool.append(Op(len(pool), category[0], (category, base_seed)))
        self.pool = pool

    def items(self, op: Op) -> int:
        return 2

    def run(self, op: Op):
        return weaksdp.library_build(self.workdir / f"op{op.index}", self.profile(*op.payload))

    def check(self, op: Op, manifest) -> bool:
        """Manifest count and statuses; every rebuild hashes like the first build."""
        out = self.workdir / f"op{op.index}"
        hashes = hash_tree(out)
        shutil.rmtree(out)
        return (
            self._hashes.setdefault(op.index, hashes) == hashes
            and manifest["count"] == self.items(op)
            and all(entry["verification"] == "pass" for entry in manifest["instances"])
        )


class Verify:
    """read_native, read_sdpa, verify_weak_infeasibility and sieve_detect on
    medium bundles: per drawn pair a clean, a messy and three tampered ones."""

    name = "verify"
    item = "bundle"

    def __init__(self, seed: int, category=CATEGORIES[2], per_l: int = 3):
        self.seed = seed
        self.category = category
        self.per_l = per_l
        self.pool: list[Op] = []

    def setup(self, workdir: Path) -> None:
        label, n, m = self.category
        pool = []
        draws = stratified_draws(self.seed, self.category, self.per_l)
        for number, (k, l, seed) in enumerate(draws):
            disguised = generate(gen_config(n, m, k, l, seed, True))
            clean = WeakCertificate.from_instance(replace(disguised, provenance=None))
            messy = WeakCertificate.from_instance(disguised)
            certs = {"clean": clean, "messy": messy}
            for kind in ("tamper-reform", "tamper-prefix", "tamper-close"):
                certs[kind] = tamper(messy, kind)
            for kind, cert in certs.items():
                stem = workdir / f"{label}-{number:02d}-{kind}"
                native, sdpa = stem.with_suffix(".wsdp"), stem.with_suffix(".dat-s")
                write_native(NativeBundle(instance=cert.raw, certificate=cert, label=stem.name), native)
                write_sdpa(cert.raw, sdpa, label=stem.name)
                pool.append(Op(len(pool), kind, (native, sdpa)))
        self.pool = pool

    def items(self, op: Op) -> int:
        return 1

    def run(self, op: Op):
        native, sdpa = op.payload
        bundle = weaksdp.read_native(native)
        published = weaksdp.read_sdpa(sdpa)
        report = weaksdp.verify_weak_infeasibility(bundle.certificate)
        detection = weaksdp.sieve_detect(bundle.instance)
        return bundle, published, report, detection

    def check(self, op: Op, result) -> bool:
        bundle, published, report, detection = result
        if failed_checks(report) != EXPECTED_FAILURES[op.kind] or published != bundle.instance:
            return False
        if detection is None:
            return True
        prefix = permuted_instance(bundle.instance, detection.permutation)
        return check_infeasibility_cert(prefix, detection.k, detection.structure)


class Witness:
    """asymptote_witness on small clean instances at each criterion-7
    tolerance."""

    name = "witness"
    item = "witness"

    def __init__(self, seed: int, category=CATEGORIES[1], per_l: int = 12):
        self.seed = seed
        self.category = category
        self.per_l = per_l
        self.pool: list[Op] = []

    def setup(self, workdir: Path) -> None:
        """Draws the instances and certifies each one first, so that no
        witness is asked of an instance that is not weakly infeasible."""
        _, n, m = self.category
        pool = []
        for k, l, seed in stratified_draws(self.seed, self.category, self.per_l):
            instance = generate(gen_config(n, m, k, l, seed, False))
            if not verify_weak_infeasibility(WeakCertificate.from_instance(instance)).passed:
                raise RuntimeError(f"witness input (k={k}, l={l}, seed={seed}) is not certified")
            for eps in TOLERANCES:
                pool.append(Op(len(pool), f"l{l}", (instance, eps)))
        self.pool = pool

    def items(self, op: Op) -> int:
        return 1

    def run(self, op: Op):
        instance, eps = op.payload
        return weaksdp.asymptote_witness(instance.clean, instance.xseq, instance.q_structure, eps)

    def check(self, op: Op, witness) -> bool:
        """Criterion 7: x_out is PSD, x_out - x_delta solves A X = b exactly,
        and |x_delta|^2 <= eps^2."""
        instance, eps = op.payload
        return (
            psd_certify(witness.x_out).is_psd
            and instance.clean.apply(witness.x_out.sub(witness.x_delta)) == instance.clean.b
            and frobenius_norm_squared(witness.x_delta) <= eps * eps
        )


WORKLOADS = {w.name: w for w in (Library, Verify, Witness)}
