"""Output checks for the benchmark, computed apart from fanoconic.

Each check compares a CLI answer with an independent computation made
here (monomial enumeration, binomial double sums, intersection pairings,
plain monomial evaluation and Fraction elimination) or with a property the
method must have.  None compares with a saved copy of earlier output, so a
later change that corrects the method is not failed for it.

Every function returns a list of problems; an empty list means the answer
is correct.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

# det S restricted to a fiber line has degree Delta . ell_f, with the
# discriminant class Delta = 6D - 4mH and ell_f . (D, H) = (1, 0).
FIBER_LINE_DEGREE = 6
RANK_TO_TYPE = {3: "SMOOTH_CONIC", 2: "LINE_PAIR", 1: "DOUBLE_LINE", 0: "WHOLE_PLANE"}
SUBSAMPLE = 3

_CLASS_Y = re.compile(r"^(-?\d+)D([+-]\d+)H$")
_CLASS_Z = re.compile(r"^(-?\d+)ξ([+-]\d+)D([+-]\d+)H$")


def _flag(argv, name):
    return argv[argv.index(name) + 1]


# -- divisor-class arithmetic, coded apart from fanoconic.picard ----------


def parse_class(text: str) -> tuple[int, int]:
    match = _CLASS_Y.match(text)
    if not match:
        raise ValueError(f"not a class on Y: {text!r}")
    return int(match.group(1)), int(match.group(2))


def parse_class_z(text: str) -> tuple[int, int, int]:
    match = _CLASS_Z.match(text)
    if not match:
        raise ValueError(f"not a class on Z: {text!r}")
    return tuple(int(g) for g in match.groups())


def pairings(a: int, b: int) -> tuple[int, int]:
    """(aD + bH) . ell_f and (aD + bH) . ell_V, with D.ell_f = H.ell_V = 1
    and D.ell_V = H.ell_f = 0."""
    return a, b


def is_effective(m: int, a: int, b: int) -> bool:
    return a >= 0 and b + 2 * m * a >= 0


def expected_stratum(m: int, a: int, b: int) -> str:
    if not is_effective(m, a, b):
        return "FULL"
    return "V" if b < 0 else "EMPTY"


def h0_double_sum(m: int, a: int, b: int) -> int:
    """Monomials y0^k0 y1^k1 y2^k2 x^alpha of degree (a, b), summed over
    (k1, k2) with k0 = a - k1 - k2 >= 0; x^alpha has degree
    b + 2m(k1 + k2) in 3m + 1 variables."""
    if a < 0:
        return 0
    n = 3 * m
    per_total = {}
    total = 0
    for k1 in range(a + 1):
        for k2 in range(a - k1 + 1):
            s = k1 + k2
            count = per_total.get(s)
            if count is None:
                d = b + 2 * m * s
                count = per_total[s] = comb(d + n, n) if d >= 0 else 0
            total += count
    return total


@lru_cache(maxsize=None)
def monomial_count(m: int, a: int, b: int) -> int:
    """Size of the monomial basis of (a, b), by listing every monomial."""
    n_x = 3 * m + 1
    total = 0
    for k1 in range(a + 1):
        for k2 in range(a - k1 + 1):
            d = b + 2 * m * (k1 + k2)
            if d >= 0:
                total += sum(1 for _ in combinations_with_replacement(range(n_x), d))
    return total


# -- class queries ----------------------------------------------------------


def check_query(argv, code: int, stdout: str) -> list[str]:
    kind, m = argv[0], int(_flag(argv, "--m"))
    if code != 0:
        return [f"{kind}: exit code {code}"]
    try:
        doc = json.loads(stdout)
        problems = [] if doc["m"] == m else [f"{kind}: m is {doc['m']}, asked {m}"]
        if kind == "certificate":
            return problems + _check_certificate(m, doc)
        a, b = parse_class(next(arg for arg in argv if arg.startswith("--class="))[8:])
        if doc["class"] != f"{a}D{b:+d}H":
            problems.append(f"{kind}: answered for class {doc['class']}")
        if kind == "baselocus":
            want = [expected_stratum(m, a, b)]
            if doc["strata"] != want:
                problems.append(f"baselocus m={m} {a},{b}: {doc['strata']} != {want}")
        elif kind == "h0":
            want = h0_double_sum(m, a, b)
            if doc["h0"] != want:
                problems.append(f"h0 m={m} {a},{b}: {doc['h0']} != {want}")
        elif kind == "classify":
            problems += _check_flags(m, a, b, doc)
        else:
            problems.append(f"unknown query {kind}")
        return problems
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{kind}: malformed answer ({exc!r})"]


def _check_flags(m, a, b, doc) -> list[str]:
    on_f, on_v = pairings(a, b)
    want = {
        "effective": is_effective(m, a, b),
        "big": a > 0 and b + 2 * m * a > 0,
        "nef": on_f >= 0 and on_v >= 0,
        "ample": on_f > 0 and on_v > 0,
    }
    return [f"classify m={m} {a},{b}: {k}={doc[k]}, want {v}"
            for k, v in want.items() if doc[k] is not v]


def _check_certificate(m, doc) -> list[str]:
    problems = []
    if doc["valid"] is not True:
        problems.append(f"certificate m={m}: not valid")
    failed = [c["name"] for c in doc["checks"] if c["pass"] is not True]
    if failed:
        problems.append(f"certificate m={m}: failed checks {failed}")
    classes = doc["classes"]
    anti_k = parse_class(classes["antiK_Y"])
    if anti_k != (3, 1 - m):
        problems.append(f"certificate m={m}: -K_Y = {anti_k}")
    on_v = pairings(*anti_k)[1]
    if on_v != 1 - m or on_v >= 0:
        problems.append(f"certificate m={m}: -K_Y . ell_V is not 1-m < 0")
    if parse_class(classes["Delta"]) != (6, -4 * m):
        problems.append(f"certificate m={m}: Delta = {classes['Delta']}")
    if parse_class_z(doc["classes_on_Z"]["antiK_Z_minus_X"]) != (1, 0, 1):
        problems.append(f"certificate m={m}: -K_Z - X = "
                        f"{doc['classes_on_Z']['antiK_Z_minus_X']}")
    if doc["dims"]["dim_X"] != 3 * m + 3:
        problems.append(f"certificate m={m}: dim X = {doc['dims']['dim_X']}")
    return problems


# -- the instance audit -------------------------------------------------------


def eval_terms(terms: dict, point) -> int:
    """Value of a polynomial given as {exponent tuple: coefficient}."""
    top = max((max(e) for e in terms), default=0)
    powers = []
    for v in point:
        row = [1]
        for _ in range(top):
            row.append(row[-1] * v)
        powers.append(row)
    total = 0
    for exps, c in terms.items():
        for v, e in enumerate(exps):
            if e:
                c *= powers[v][e]
        total += c
    return total


def fraction_rank(rows) -> int:
    """Rank by plain Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0])):
        piv = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][col] / a[rank][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def own_diagnosis(sections: dict, point) -> tuple[int, int]:
    """(rank of S, value of sigma) at a point, without fanoconic."""
    e = {name: eval_terms(terms, point) for name, terms in sections.items()}
    rows = [[e["s1"], e["s2"], e["lam1"]],
            [e["s2"], e["s3"], e["lam2"]],
            [e["lam1"], e["lam2"], e["sigma"]]]
    return fraction_rank(rows), e["sigma"]


def program_sections(seed: int, perturb: bool, coeff_range: int) -> dict:
    """The m = 2 section matrix the verify run audits, drawn through the
    public `instantiate_sections`, as plain term dicts."""
    from fanoconic import ConstructionParams, instantiate_sections

    matrix = instantiate_sections(ConstructionParams(2), seed,
                                  coeff_range=coeff_range, perturb=perturb)
    return {name: dict(poly.terms) for name, poly in matrix.named_entries()}


def check_verify(argv, code: int, stdout: str, sections) -> list[str]:
    """Check one `fanoconic verify --m 2 --format json` answer.

    sections(seed, perturb, coeff_range) returns the drawn entries as term
    dicts, for re-diagnosing a subsample of the reported points.
    """
    if code != 0:
        return [f"verify: exit code {code}"]
    seed, n = int(_flag(argv, "--seed")), int(_flag(argv, "--samples"))
    coeff_range, perturb = int(_flag(argv, "--coeff-range")), "--perturb" in argv
    try:
        doc = json.loads(stdout)
        problems = _check_report(doc, seed, n, coeff_range, perturb)
        if not problems:
            problems += _rediagnose(doc, sections(seed, perturb, coeff_range), seed)
        return problems
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"verify: malformed report ({exc!r})"]


def _check_report(doc, seed, n, coeff_range, perturb) -> list[str]:
    problems = []

    def want(label, got, expected):
        if got != expected:
            problems.append(f"verify {label}: {got!r} != {expected!r}")

    want("header", (doc["m"], doc["seed"], doc["n_samples"], doc["coeff_range"],
                    doc["perturb"]), (2, seed, n, coeff_range, perturb))
    want("passed", doc["passed"], True)
    want("failures", doc["failures"], [])

    v = doc["v_fibers"]
    for key in ("count", "double_line", "sigma_nonzero", "grid_ok"):
        want(f"v_fibers.{key}", v[key], n)
    want("v_fibers.samples", [s["fiber"] for s in v["samples"]], ["DOUBLE_LINE"] * n)

    g = doc["generic_fibers"]
    want("generic_fibers.count", g["count"], n)
    want("smooth_conic + line_pair", g["smooth_conic"] + g["line_pair"], n)
    want("line_pair_smooth", g["line_pair_smooth"], g["line_pair"])
    for s in g["samples"]:
        if s["fiber"] not in ("SMOOTH_CONIC", "LINE_PAIR"):
            problems.append(f"verify generic fiber {s['fiber']}")
        if s["fiber"] == "LINE_PAIR" and s.get("node_smooth") is not True:
            problems.append("verify line pair without a smooth node")

    want("boundary_identity", doc["boundary_identity"], "PASS")

    c = doc["chart_lines"]
    want("chart_lines.count", c["count"], n)
    want("chart_lines.squarefree", c["squarefree"], n)
    want("chart_lines.samples", [s["squarefree"] for s in c["samples"]], [True] * n)

    f = doc["fiber_lines"]
    if f["count"] < 1:
        problems.append("verify: no fiber lines")
    want("fiber_lines.degree_six", f["degree_six"], f["count"])
    want("fiber_lines.samples", [s["degree"] for s in f["samples"]],
         [FIBER_LINE_DEGREE] * f["count"])

    lam_terms = monomial_count(2, 2, -2)
    want("lam1 terms", doc["section_terms"]["lam1"], lam_terms)
    want("lam2 terms", doc["section_terms"]["lam2"], lam_terms)
    return problems


def _rediagnose(doc, sections, seed) -> list[str]:
    problems = []
    rng = random.Random(f"subsample:{seed}")
    v_samples = doc["v_fibers"]["samples"]
    for i in rng.sample(range(len(v_samples)), min(SUBSAMPLE, len(v_samples))):
        s = v_samples[i]
        rank, sigma = own_diagnosis(sections, tuple(s["x"]) + (s["y0"], 0, 0))
        if RANK_TO_TYPE[rank] != s["fiber"]:
            problems.append(f"verify V point {i}: rank {rank}, reported {s['fiber']}")
        if (sigma != 0) is not s["sigma_nonzero"]:
            problems.append(f"verify V point {i}: sigma = {sigma}, "
                            f"reported nonzero={s['sigma_nonzero']}")
    g_samples = doc["generic_fibers"]["samples"]
    for i in rng.sample(range(len(g_samples)), min(SUBSAMPLE, len(g_samples))):
        s = g_samples[i]
        rank, _ = own_diagnosis(sections, tuple(s["x"]) + tuple(s["y"]))
        if RANK_TO_TYPE[rank] != s["fiber"]:
            problems.append(f"verify generic point {i}: rank {rank}, "
                            f"reported {s['fiber']}")
    return problems
