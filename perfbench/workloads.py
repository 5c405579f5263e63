"""Workload definitions and the seeded inputs each workload feeds fanoconic.

A workload is a list of command lines for the `fanoconic` CLI, all made
from the benchmark seed.  The program only ever sees these command lines;
the seed itself never reaches it except through the derived `--seed` of a
verify run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

COEFF_RANGE = 100
QUERY_MS = (2, 3, 5)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    kind "verify" is a single `fanoconic verify --m 2` process; kind
    "queries" is a batch of certificate and class queries answered in one
    process.  The size fields of the other kind are ignored.
    """

    name: str
    kind: str
    perturb: bool = False
    samples: int = 0
    cert_ms: tuple = ()
    grid_per_m: int = 0
    big_a: tuple = ()

    @property
    def setup_mode(self) -> str:
        """What the set-up probe draws after `import fanoconic`."""
        if self.kind != "verify":
            return "none"
        return "perturb" if self.perturb else "default"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-default", "verify", perturb=False, samples=6),
        Workload("verify-perturb", "verify", perturb=True, samples=3),
        Workload("class-queries", "queries", cert_ms=tuple(range(2, 10)),
                 grid_per_m=40, big_a=(300, 600, 900, 1200)),
    )
}


def verify_seed(seed: int) -> int:
    """The `--seed` handed to `fanoconic verify` for a benchmark seed."""
    return random.Random(f"verify:{seed}").randrange(10 ** 6)


def class_text(a: int, b: int) -> str:
    return f"{a}D{b:+d}H"


def make_batch(workload: Workload, seed: int) -> list[list[str]]:
    """The CLI argument lists of one round of the workload, from the seed."""
    if workload.kind == "verify":
        argv = ["verify", "--m", "2", "--seed", str(verify_seed(seed)),
                "--samples", str(workload.samples),
                "--coeff-range", str(COEFF_RANGE), "--format", "json"]
        if workload.perturb:
            argv.insert(-2, "--perturb")
        return [argv]

    rng = random.Random(f"queries:{seed}")
    batch = [["certificate", "--m", str(m), "--format", "json"]
             for m in workload.cert_ms]
    classes = []
    for m in QUERY_MS:
        for _ in range(workload.grid_per_m):
            a = rng.randint(-2, 12)
            b = rng.randint(-2 * m * max(a, 0) - 4, 12)
            classes.append((m, a, b))
    # Large a: base_locus walks O(a^2) patterns here.  |b| stays below a/4,
    # so the share of patterns skipped for b < 0 is under 1/64 and the cost
    # depends on a alone, whatever the seed.
    for a in workload.big_a:
        m = rng.choice(QUERY_MS)
        classes.append((m, a, rng.randint(-(a // 4), a // 4)))
    for m, a, b in classes:
        for query in ("baselocus", "h0", "classify"):
            batch.append([query, "--m", str(m), f"--class={class_text(a, b)}",
                          "--format", "json"])
    return batch
