"""The benchmark's workloads: seeded streams of `dhardy` argv lists.

Every op is one `dhardy` command. A workload is an endless stream of op
blocks made from the workload seed, so the same seed gives the same ops in the
same order. Inside a block each op shape appears a fixed number of times and
the size parameter is drawn stratified over its range. A timed run executes
whole blocks only, so every run sees the same mix of shapes and sizes, which
keeps run-to-run figures steady across seeds. The untimed warm-up op of each
workload has a fixed shape (the largest of the workload where that matters),
so it also pins peak memory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterator

MC_SAMPLES = 16384
MC_GENERATORS = (
    ("zeta", ()),
    ("zeta-power", ("--alpha", "1.5")),
    ("fractional-primitive", ("--beta", "1")),
)
MC_PS = (0.5, 1.0, 1.5, 3.0)
MC_N = (100, 600)

FUZZ_CORPORA = (1, 2)
# records per fuzz case with the default p-grid and inequalities:
# disc-upper 2 + disc-lower 3 + hl-upper 2 + hl-lower 3 + squarefree-lower 3 + divisor-chain 1
FUZZ_RECORDS_PER_CASE = 14

# kind -> (subcommand argv before the size flag, size flag, size range)
EXACT_KINDS = {
    "psi-conv-k2": (("pseudomoment", "--k", "2", "--alpha", "1.5"), "--N", (200, 600)),
    "psi-conv-k3": (("pseudomoment", "--k", "3", "--alpha", "1"), "--N", (40, 100)),
    "psi-pair": (("pseudomoment", "--k", "2", "--alpha", "1"), "--N", (10_000, 100_000)),
    "psi-l2": (("pseudomoment", "--k", "1", "--alpha", "1.5"), "--N", (2_000, 20_000)),
    "cnp": (("cnp-scan", "--p", "0.5"), "--X", (2_000, 20_000)),
}
EXACT_STRATA = 4

WORKLOADS = ("mc_dense", "fuzz_sparse", "exact_moments")

# ops in the traced run: one whole block (mc_dense, exact_moments) or twelve (fuzz_sparse)
TRACE_OPS = {"mc_dense": 12, "fuzz_sparse": 24, "exact_moments": 20}


@dataclass
class Op:
    """One `dhardy` command; `params` holds what the output check needs."""

    kind: str
    argv: list[str]
    params: dict = field(default_factory=dict)


def _stratified(rng: random.Random, lo: int, hi: int, strata: int) -> list[int]:
    """One integer in [lo, hi] from each of `strata` equal slices, in random order."""
    order = list(range(strata))
    rng.shuffle(order)
    width = hi - lo + 1
    return [lo + int(width * (s + rng.random()) / strata) for s in order]


def _seed(rng: random.Random) -> str:
    return str(rng.getrandbits(62))


def norm_op(generator: str, N: int, p: float, seed: str) -> Op:
    extra = dict(MC_GENERATORS)[generator]
    argv = ["norm", "--method", "mc", "--hl-report", "--samples", str(MC_SAMPLES),
            "--generator", generator, *extra, "--N", str(N), "--p", repr(p),
            "--seed", seed, "--threads", "1"]
    return Op("norm", argv, {"generator": generator, "N": N, "p": p})


def fuzz_op(corpus: int, seed: str) -> Op:
    argv = ["fuzz", "--corpus", str(corpus), "--seed", seed, "--threads", "1"]
    return Op("fuzz", argv, {"corpus": corpus})


def exact_op(kind: str, size: int, seed: str) -> Op:
    head, flag, _ = EXACT_KINDS[kind]
    argv = [*head, flag, str(size), "--seed", seed, "--threads", "1"]
    return Op(kind, argv, {"size": size})


def _mc_dense(rng: random.Random) -> list[Op]:
    shapes = [(g, p) for g, _ in MC_GENERATORS for p in MC_PS]
    rng.shuffle(shapes)
    return [norm_op(generator, N, p, _seed(rng))
            for (generator, p), N in zip(shapes, _stratified(rng, *MC_N, len(shapes)))]


def _fuzz_sparse(rng: random.Random) -> list[Op]:
    corpora = list(FUZZ_CORPORA)
    rng.shuffle(corpora)
    return [fuzz_op(corpus, _seed(rng)) for corpus in corpora]


def _exact_moments(rng: random.Random) -> list[Op]:
    block = []
    for kind, (_, _, (lo, hi)) in EXACT_KINDS.items():
        block.extend((kind, size) for size in _stratified(rng, lo, hi, EXACT_STRATA))
    rng.shuffle(block)
    return [exact_op(kind, size, _seed(rng)) for kind, size in block]


_BLOCKS = {"mc_dense": _mc_dense, "fuzz_sparse": _fuzz_sparse, "exact_moments": _exact_moments}


def blocks(workload: str, seed: int) -> Iterator[list[Op]]:
    """The endless stream of op blocks of `workload` for `seed`."""
    rng = random.Random(seed)
    while True:
        yield _BLOCKS[workload](rng)


def first_ops(workload: str, seed: int, count: int) -> list[Op]:
    return list(islice(chain.from_iterable(blocks(workload, seed)), count))


def warmup_op(workload: str) -> Op:
    """The fixed, untimed op that `setup_s` includes."""
    if workload == "mc_dense":
        return norm_op("zeta-power", MC_N[1], 1.5, "1")
    if workload == "fuzz_sparse":
        return fuzz_op(2, "1")
    # the largest convolution sets the workload's peak memory
    return exact_op("psi-conv-k2", EXACT_KINDS["psi-conv-k2"][2][1], "1")
