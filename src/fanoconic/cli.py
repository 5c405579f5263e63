"""Command-line surface: certificates, instance runs, and class queries.

Every subcommand renders one document dict, as indented JSON or as a text
summary built from the same dict, so the JSON view always carries at least
what the text view shows.  The document is the library's answer as it is:
build_certificate and run_instance return it whole, and base_locus and
classify return it but for the leading "m".  All randomness is seeded (default printed in
the header) and the renderers iterate dicts in insertion order, making
repeated runs byte-identical.

Exit codes: 0 success, 1 a verification that ran and failed, 2 bad usage
or unparsable input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .conicbundle import build_certificate
from .cones import chamber_decomposition, classify, effective_cone, nef_cone
from .coxring import base_locus, count_sections
from .picard import ConstructionParams, DivisorClassY, parse_divisor_class
from .verifier import run_instance

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 100
DEFAULT_COEFF_RANGE = 100
# time, memory and output grow linearly with --samples (see README)
MAX_SAMPLES = 10000
# the big-int cost of each sample grows faster than the digits of the range
MAX_COEFF_RANGE = 10 ** 9


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of the fanoconic command, built once per process."""
    parser = argparse.ArgumentParser(
        prog="fanoconic",
        description="Exact checks for a family of conic divisors X -> Y over "
                    "projectivized split bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_class=False):
        p.add_argument("--m", type=int, required=True,
                       help="family parameter, at least 2")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if with_class:
            p.add_argument("--class", dest="cls", required=True,
                           help='divisor class like "2D-4H"')

    p = sub.add_parser("certificate",
                       help="build and validate the divisor-level certificate")
    common(p)

    p = sub.add_parser("verify", help="run the sampled instance audit")
    common(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--coeff-range", type=int, default=DEFAULT_COEFF_RANGE)
    p.add_argument("--perturb", action="store_true",
                   help="add random higher-order terms to the sections")

    p = sub.add_parser("baselocus", help="base locus strata of a class")
    common(p, with_class=True)

    p = sub.add_parser("classify", help="positivity flags of a class")
    common(p, with_class=True)

    p = sub.add_parser("h0", help="dimension of the space of sections")
    common(p, with_class=True)

    p = sub.add_parser("cones", help="nef/effective cones and Mori chambers")
    common(p)

    return parser


# -- text renderers ---------------------------------------------------------


def _render_certificate(doc: dict) -> str:
    lines = [f"conic divisor certificate  m={doc['m']}"]
    dims = doc["dims"]
    lines.append("dimensions: " + " ".join(f"{k}={v}" for k, v in dims.items()))
    lines.append("classes on Y: " + ", ".join(
        f"{k} = {v}" for k, v in doc["classes"].items()))
    lines.append("classes on Z: " + ", ".join(
        f"{k} = {v}" for k, v in doc["classes_on_Z"].items()))
    lines.append("Sym2 twists: " + ", ".join(doc["sym2_summands"]))
    checks = doc["checks"]
    n_pass = sum(1 for c in checks if c["pass"])
    lines.append(f"checks: {n_pass}/{len(checks)} pass")
    for c in checks:
        mark = "ok" if c["pass"] else "FAIL"
        lines.append(f"  [{mark}] {c['name']}: {c['computed']}")
        if not c["pass"]:
            lines.append(f"         expected {c['expected']}")
    lines.append(f"valid: {doc['valid']}")
    return "\n".join(lines)


def _render_report(doc: dict) -> str:
    head = (f"instance verification  m={doc['m']} seed={doc['seed']} "
            f"samples={doc['n_samples']} coeff_range={doc['coeff_range']} "
            f"perturb={doc['perturb']}")
    lines = [head]
    lines.append("section terms: " + " ".join(
        f"{k}={v}" for k, v in doc["section_terms"].items()))
    v = doc["v_fibers"]
    lines.append(
        f"V fibers: {v['double_line']}/{v['count']} double lines, "
        f"sigma nonzero {v['sigma_nonzero']}/{v['count']}, "
        f"z-grid gradient ok {v['grid_ok']}/{v['count']}")
    g = doc["generic_fibers"]
    lines.append(
        f"generic fibers: {g['smooth_conic']}/{g['count']} smooth conics, "
        f"{g['line_pair']} on the discriminant "
        f"({g['line_pair_smooth']} nodes audited smooth)")
    lines.append(f"boundary identity dF|_W: {doc['boundary_identity']}")
    c = doc["chart_lines"]
    lines.append(
        f"chart lines: det squarefree {c['squarefree']}/{c['count']} "
        f"({c['resampled_zero']} resampled)")
    f = doc["fiber_lines"]
    lines.append(
        f"fiber lines: det degree 6 on {f['degree_six']}/{f['count']} "
        f"({f['resampled_zero']} resampled)")
    lines.append(f"failures: {len(doc['failures'])}")
    for fail in doc["failures"]:
        detail = " ".join(f"{k}={v}" for k, v in fail.items() if k != "check")
        lines.append(f"  [FAIL] {fail['check']} {detail}".rstrip())
    lines.append(f"passed: {doc['passed']}")
    return "\n".join(lines)


def _render_baselocus(doc: dict) -> str:
    lines = [f"base locus  m={doc['m']}  class {doc['class']}"]
    lines.append("strata: " + (", ".join(doc["strata"]) or "none"))
    if doc["raw_primes"]:
        lines.append("minimal primes: " + "; ".join(
            ",".join(p) for p in doc["raw_primes"]))
    return "\n".join(lines)


def _render_classify(doc: dict) -> str:
    flags = [k for k in ("effective", "big", "movable", "nef", "ample")]
    parts = [(k if doc[k] else f"not {k}") for k in flags]
    return f"classify  m={doc['m']}\n{doc['class']}: " + ", ".join(parts)


def _render_h0(doc: dict) -> str:
    return f"sections  m={doc['m']}\nh0({doc['class']}) = {doc['h0']}"


def _render_cones(doc: dict) -> str:
    def rays(rr):
        return ", ".join(f"({a},{b})" for a, b in rr)
    lines = [f"cones  m={doc['m']}"]
    lines.append(f"nef cone rays: {rays(doc['nef_rays'])}")
    lines.append(f"effective = movable cone rays: {rays(doc['effective_rays'])}")
    for ch in doc["chambers"]:
        lines.append(f"chamber {ch['label']}: rays {rays(ch['rays'])}")
    lines.append("interior walls: "
                 + (", ".join(doc["interior_wall_classes"]) or "none"))
    return "\n".join(lines)


# -- command bodies ---------------------------------------------------------
#
# Each takes the params, the class (None but for baselocus, classify and h0)
# and the parsed arguments, all built once in main.


def cmd_certificate(params, cls_, args) -> tuple[int, dict, str]:
    doc = build_certificate(params)
    return (0 if doc["valid"] else 1), doc, _render_certificate(doc)


def cmd_verify(params, cls_, args) -> tuple[int, dict, str]:
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    if args.samples > MAX_SAMPLES:
        raise ValueError(f"--samples must be at most {MAX_SAMPLES}")
    if args.coeff_range < 1:
        raise ValueError("--coeff-range must be at least 1")
    if args.coeff_range > MAX_COEFF_RANGE:
        raise ValueError(f"--coeff-range must be at most {MAX_COEFF_RANGE}")
    doc = run_instance(params, seed=args.seed, n_samples=args.samples,
                       coeff_range=args.coeff_range, perturb=args.perturb)
    return (0 if doc["passed"] else 1), doc, _render_report(doc)


def cmd_baselocus(params, cls_, args) -> tuple[int, dict, str]:
    doc = {"m": params.m, **base_locus(cls_, params)}
    return 0, doc, _render_baselocus(doc)


def cmd_classify(params, cls_, args) -> tuple[int, dict, str]:
    doc = {"m": params.m, **classify(cls_, params)}
    return 0, doc, _render_classify(doc)


def cmd_h0(params, cls_, args) -> tuple[int, dict, str]:
    # the count is printed, so it may have at most as many digits as str()
    # converts; count_sections gives up early on a count far past that
    digits = sys.get_int_max_str_digits()
    limit = 10 ** digits - 1 if digits else None
    h0 = count_sections(cls_, params, limit=limit)
    if limit is not None and h0 > limit:
        raise ValueError(f"h0({cls_}) at m = {params.m} has more than {digits} "
                         "digits, the limit for printing an integer")
    doc = {"m": params.m, "class": str(cls_), "h0": h0}
    return 0, doc, _render_h0(doc)


def cmd_cones(params, cls_, args) -> tuple[int, dict, str]:
    dec = chamber_decomposition(params)
    interior = dec["walls"][1:-1]
    doc = {
        "m": params.m,
        "nef_rays": [list(r) for r in nef_cone(params)],
        "effective_rays": [list(r) for r in effective_cone(params)],
        **dec,
        "interior_walls": interior,
        "interior_wall_classes": [str(DivisorClassY(a, b)) for a, b in interior],
    }
    return 0, doc, _render_cones(doc)


_COMMANDS = {
    "certificate": cmd_certificate,
    "verify": cmd_verify,
    "baselocus": cmd_baselocus,
    "classify": cmd_classify,
    "h0": cmd_h0,
    "cones": cmd_cones,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # m is checked first, then the class of the class queries
        params = ConstructionParams(args.m)
        cls_ = parse_divisor_class(args.cls) if "cls" in args else None
        code, doc, text = _COMMANDS[args.command](params, cls_, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
