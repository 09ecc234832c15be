"""Command-line front end: generate, verify, sieve, witness, export, render,
library, paper-instance.

Exit codes are a contract: 0 success, 1 verification/detection failure,
2 usage error, 3 I/O or parse error. Integer options accept ``-?[0-9]+``
and rational options exact rational syntax ("1/1000"), each integer of at
most DIGIT_LIMIT digits; nothing is ever parsed through floating point. A
value outside an option's range (``--eps`` not positive, ``--alpha`` zero)
is a usage error too.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exact import check_digit_limit, rational, strict_int
from .echelon import asymptote_witness, frobenius_norm_squared
from .certify import WeakCertificate, sieve_detect, verify_weak_infeasibility
from .generator import DISJOINT_ONLY, OVERLAPPING_ALLOWED, GenConfig, config_json, generate
from .formats import (
    NativeBundle,
    NativeFormatError,
    SdpaFormatError,
    read_native,
    render_blocks,
    write_cbf,
    write_native,
    write_sdpa,
)
from . import library, paper_instances

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _rational_flag(text: str):
    try:
        return rational(text)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r} ({exc})") from exc


def _int_flag(text: str) -> int:
    """An integer flag: ASCII ``-?[0-9]+`` with at most DIGIT_LIMIT digits."""
    try:
        return strict_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _ranged(parse, ok, message: str):
    """A flag type: `parse`, then a usage error with `message` unless `ok(value)`."""
    def flag(text: str):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value
    return flag


_positive_int = _ranged(_int_flag, lambda value: value >= 1, "must be >= 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weaksdp",
        description="Construct, verify and export weakly infeasible semidefinite programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate an instance and write a native bundle")
    p_gen.add_argument("--n", type=_positive_int, required=True)
    p_gen.add_argument("--m", type=_positive_int, required=True)
    p_gen.add_argument("--k", type=_positive_int, required=True)
    p_gen.add_argument("--l", type=_positive_int, required=True)
    p_gen.add_argument("--seed", type=_int_flag, default=0)
    p_gen.add_argument("--entry-range", type=_positive_int, default=4)
    p_gen.add_argument("--overlap", choices=[OVERLAPPING_ALLOWED, DISJOINT_ONLY],
                       default=OVERLAPPING_ALLOWED)
    p_gen.add_argument("--messy", action="store_true")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_verify = sub.add_parser("verify", help="verify the certificate in a bundle")
    p_verify.add_argument("path")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_sieve = sub.add_parser("sieve", help="greedy echelon detection on the instance as stored")
    p_sieve.add_argument("path")
    p_sieve.add_argument("--json", action="store_true")
    p_sieve.set_defaults(func=_cmd_sieve)

    p_wit = sub.add_parser("witness", help="exact PSD point within --eps of the constraint set")
    p_wit.add_argument("path")
    p_wit.add_argument("--eps", type=_ranged(_rational_flag, lambda eps: eps > 0, "must be > 0"),
                       default=rational("1/100"))
    p_wit.set_defaults(func=_cmd_witness)

    p_exp = sub.add_parser("export", help="emit the stored instance in a solver format")
    p_exp.add_argument("path")
    p_exp.add_argument("--format", choices=["dat-s", "cbf"], required=True)
    p_exp.add_argument("--out", required=True)
    p_exp.set_defaults(func=_cmd_export)

    p_render = sub.add_parser("render", help="render echelon block structure to SVG")
    p_render.add_argument("path")
    p_render.add_argument("--outdir", required=True)
    p_render.set_defaults(func=_cmd_render)

    p_lib = sub.add_parser("library", help="build the paired clean/messy instance library")
    p_lib.add_argument("--root", required=True)
    p_lib.add_argument("--profile", choices=sorted(library.LIBRARY_PROFILES), default="default")
    p_lib.set_defaults(func=_cmd_library)

    p_paper = sub.add_parser("paper-instance", help="materialize a built-in reference instance")
    p_paper.add_argument("--name", choices=["me", "large", "3x3", "motzkin"], required=True)
    p_paper.add_argument("--alpha", type=_ranged(_rational_flag, lambda alpha: alpha != 0,
                                                 "must be nonzero"),
                         default=rational(1), help="parameter for the 3x3 family")
    p_paper.add_argument("--out")
    p_paper.set_defaults(func=_cmd_paper_instance)
    return parser


def _require_certificate(bundle: NativeBundle) -> WeakCertificate:
    if bundle.certificate is None:
        raise ValueError("bundle carries no certificate")
    return bundle.certificate


def _cmd_generate(args) -> int:
    try:
        cfg = GenConfig(
            n=args.n, m=args.m, k=args.k, l=args.l, seed=args.seed,
            entry_range=args.entry_range,
            structure_overlap_policy=args.overlap,
            messy=args.messy,
        )
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    instance = generate(cfg)
    cert = WeakCertificate.from_instance(instance)
    report = verify_weak_infeasibility(cert)
    bundle = NativeBundle(
        instance=instance.raw,
        certificate=cert,
        generation={"seed": cfg.seed, "config": config_json(cfg)},
    )
    write_native(bundle, args.out)
    print(report.summary())
    print(f"wrote {args.out}")
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_verify(args) -> int:
    bundle = read_native(args.path)
    cert = _require_certificate(bundle)
    report = verify_weak_infeasibility(cert)
    print(report.to_json() if args.json else report.summary())
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_sieve(args) -> int:
    bundle = read_native(args.path)
    detection = sieve_detect(bundle.instance)
    if detection is None:
        print(json.dumps({"detected": False}) if args.json else "NotDetected")
        return EXIT_FAIL
    blocks = [sorted(b) for b in detection.structure.blocks]
    if args.json:
        print(json.dumps({
            "detected": True,
            "k": detection.k,
            "blocks": blocks,
            "permutation": list(detection.permutation),
        }))
    else:
        print(f"detected echelon prefix: k = {detection.k}")
        print(f"constraint order: {list(detection.permutation)}")
        print(f"blocks: {blocks}")
    return EXIT_PASS


def _cmd_witness(args) -> int:
    bundle = read_native(args.path)
    cert = _require_certificate(bundle)
    witness = asymptote_witness(cert.clean, cert.xseq, cert.q_structure, args.eps)
    rows = witness.x_out.to_rows()
    norm, eps_squared = frobenius_norm_squared(witness.x_delta), args.eps * args.eps
    values = [v for row in rows for v in row] + [norm, eps_squared, witness.delta, *witness.gammas]
    try:
        check_digit_limit([p for v in values for p in v.as_integer_ratio()])
    except ValueError as exc:
        print(f"usage error: --eps is too small to print its witness: {exc}", file=sys.stderr)
        return EXIT_USAGE
    lines = ["psd point within tolerance of the clean constraint set:"]
    lines += ["  " + " ".join(str(v) for v in row) for row in rows]
    lines.append(f"distance bound: |X_delta|^2 = {norm} <= eps^2 = {eps_squared}")
    lines.append(f"delta = {witness.delta}, multipliers = {[str(g) for g in witness.gammas]}")
    print("\n".join(lines))
    return EXIT_PASS


def _cmd_export(args) -> int:
    bundle = read_native(args.path)
    if args.format == "dat-s":
        write_sdpa(bundle.instance, args.out, label=bundle.label)
    else:
        write_cbf(bundle.instance, args.out, label=bundle.label)
    print(f"wrote {args.out}")
    return EXIT_PASS


def _cmd_render(args) -> int:
    bundle = read_native(args.path)
    cert = _require_certificate(bundle)
    written = render_blocks(cert.clean.A[: cert.k + 1], cert.p_structure, args.outdir, stem="A")
    written += render_blocks(cert.xseq, cert.q_structure, args.outdir, stem="X")
    print(f"wrote {len(written)} images to {args.outdir}")
    return EXIT_PASS


def _cmd_library(args) -> int:
    manifest = library.library_build(args.root, args.profile)
    print(f"built {manifest['count']} instances under {args.root}")
    return EXIT_PASS


def _cmd_paper_instance(args) -> int:
    if args.name == "me":
        cert = paper_instances.me_instance()[1]
    elif args.name == "large":
        cert = paper_instances.large_certificate()
    elif args.name == "3x3":
        cert = WeakCertificate.from_instance(paper_instances.three_by_three(args.alpha))
    else:
        cert = paper_instances.motzkin_certificate()
    report = verify_weak_infeasibility(cert)
    print(report.summary())
    if args.out:
        write_native(NativeBundle(instance=cert.raw, certificate=cert, label=args.name), args.out)
        print(f"wrote {args.out}")
    return EXIT_PASS if report.passed else EXIT_FAIL


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_IO
    except (SdpaFormatError, NativeFormatError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
