"""The library builder.

`library_build` produces a clean/messy paired collection across size
categories, exporting every instance in the native, SDPA and CBF formats plus
block renderings, with a manifest recording seeds, configurations and
verification status.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .certify import WeakCertificate, verify_weak_infeasibility
from .generator import GenConfig, config_json, generate
from .formats import NativeBundle, render_blocks, write_cbf, write_native, write_sdpa
from .prng import SplitMix64, derive_seed


@dataclass(frozen=True)
class LibraryProfile:
    """Sizes and counts for one library build; categories are (label, n, m)."""

    name: str
    categories: tuple[tuple[str, int, int], ...]
    pairs_per_category: int
    base_seed: int
    entry_range: int = 3
    block_size_range: tuple[int, int] = (1, 2)
    mess_magnitude: int = 2


LIBRARY_PROFILES = {
    "default": LibraryProfile(
        name="default",
        categories=(("miniature", 5, 4), ("small", 10, 8), ("medium", 20, 15), ("large", 40, 25)),
        pairs_per_category=10,
        base_seed=0x5EED_2026,
    ),
    "smoke": LibraryProfile(
        name="smoke",
        categories=(("miniature", 5, 4), ("small", 10, 8)),
        pairs_per_category=2,
        base_seed=0x5EED_2026,
    ),
}


def library_build(root, profile="default") -> dict:
    """Generate, verify and export the paired clean/messy instance library.

    Each pair is generated once, from the messy config; its clean instance is
    the messy one without the provenance, as `generate` of the clean config
    would return it. Every instance is verified before anything is written;
    the manifest lists per-instance seeds, configurations, file paths and
    verification status. Rebuilding with the same profile reproduces every
    file byte for byte.
    """
    if isinstance(profile, str):
        profile = LIBRARY_PROFILES[profile]
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for cat_index, (label, n, m) in enumerate(profile.categories, start=1):
        cat_dir = root / label
        cat_dir.mkdir(exist_ok=True)
        image_dir = cat_dir / "images"
        for pair_index in range(1, profile.pairs_per_category + 1):
            rng = SplitMix64(derive_seed(profile.base_seed, cat_index * 1000 + pair_index))
            k = rng.randint(1, min(3, m - 1, n - 1))
            l = rng.randint(1, min(3, n - 1))
            seed = rng.next_u64()
            messy_cfg = GenConfig(
                n=n, m=m, k=k, l=l, seed=seed,
                entry_range=profile.entry_range,
                block_size_range=profile.block_size_range,
                mess_magnitude=profile.mess_magnitude,
                messy=True,
            )
            messy = generate(messy_cfg)
            # messify is the last stage and only sets the provenance, so
            # this is exactly generate() of the clean config
            pair = (
                ("clean", replace(messy_cfg, messy=False), replace(messy, provenance=None)),
                ("messy", messy_cfg, messy),
            )
            for kind, cfg, instance in pair:
                cert = WeakCertificate.from_instance(instance)
                report = verify_weak_infeasibility(cert)
                if not report.passed:
                    raise RuntimeError(f"library instance failed verification:\n{report.summary()}")
                name = f"{label}-{kind}-{pair_index:02d}"
                config = config_json(cfg)  # the bundle and the manifest share it
                bundle = NativeBundle(
                    instance=instance.raw,
                    certificate=cert,
                    generation={"seed": seed, "config": config},
                    label=name,
                )
                native_path = cat_dir / f"{name}.wsdp"
                sdpa_path = cat_dir / f"{name}.dat-s"
                cbf_path = cat_dir / f"{name}.cbf"
                write_native(bundle, native_path)
                write_sdpa(instance.raw, sdpa_path, label=name)
                write_cbf(instance.raw, cbf_path, label=name)
                images = render_blocks(
                    instance.clean.A[: k + 1], instance.p_structure, image_dir, stem=f"{name}_A"
                )
                images += render_blocks(
                    instance.xseq, instance.q_structure, image_dir, stem=f"{name}_X"
                )
                entries.append({
                    "name": name,
                    "category": label,
                    "kind": kind,
                    "n": n,
                    "m": m,
                    "k": k,
                    "l": l,
                    "seed": seed,
                    "config": config,
                    "files": {
                        "native": str(native_path.relative_to(root)),
                        "sdpa": str(sdpa_path.relative_to(root)),
                        "cbf": str(cbf_path.relative_to(root)),
                        "images": [str(p.relative_to(root)) for p in images],
                    },
                    "verification": "pass",
                })
    manifest = {"profile": profile.name, "count": len(entries), "instances": entries}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="ascii")
    return manifest
