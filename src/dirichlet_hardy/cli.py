"""Command-line front end.

Subcommands: norm, pseudomoment, scan, hl-check, partial-sum, cnp-scan,
omega-hist, euler-const, fuzz. Each parses its flags, makes one call into
`experiments`, which picks the route, sieves the prime table and builds every
record, and renders the records. Every run echoes its resolved parameters,
including the seed, and writes json, jsonl, or csv atomically.

Exit codes: 0 success, 1 fuzz or hl-check violations beyond the slack of
--hl-report, 2 usage error or a value the library rejects, 3 resource limit (the
memory cap or the float range), 4 internal error (a library invariant failed, or a record
holds a value with no output form).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from dataclasses import dataclass

from . import __version__
from .dseries import DirichletPolynomial, GeneratorSpec
from .errors import ResourceLimitError
from .experiments import (
    HL_INEQUALITIES,
    FuzzConfig,
    hardy_norm,
    hl_fuzz_suite,
    maximal_order_scan,
    omega_concentration,
    partial_sum_ratio_probe,
    partial_sum_witness,
    pseudomoment,
    pseudomoment_constants,
    pseudomoment_scan,
)
from .report import ResultDocument, render, write_atomic

TOOL = "dhardy"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit directly
        raise UsageError(message)


@dataclass
class Command:
    subcommand: str
    args: argparse.Namespace


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _grid(text: str) -> list[int]:
    try:
        points = [float(part) for part in text.split(",") if part.strip()]
        if all(point.is_integer() for point in points):
            return [int(point) for point in points]
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"grid must be comma-separated integers, got {text!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog=TOOL, description=__doc__)
    parser.add_argument("--version", action="version", version=f"{TOOL} {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=["json", "jsonl", "csv"], default="json")
    common.add_argument("--seed", type=int, help="64-bit seed (default: from entropy, echoed)")
    common.add_argument("--threads", type=_positive_int, default=1)

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_norm = sub.add_parser("norm", parents=[common], help="quasi-norm of a polynomial")
    p_norm.add_argument("--p", type=_positive_float, required=True)
    p_norm.add_argument("--method", choices=["auto", "l2", "even", "mc"], default="auto")
    p_norm.add_argument("--samples", type=_positive_int, default=20000)
    p_norm.add_argument("--input", help="JSON file with {\"coeffs\": [[n, re, im], ...]}")
    p_norm.add_argument("--generator", choices=[
        "zeta", "zeta-power", "euler-power", "extremal-product",
        "fractional-primitive", "duality-witness"])
    p_norm.add_argument("--N", type=_positive_int)
    p_norm.add_argument("--alpha", type=_positive_float)
    p_norm.add_argument("--beta", type=_positive_float)
    p_norm.add_argument("--gen-p", type=_positive_float, help="p parameter of the generator")
    p_norm.add_argument("--prime-bound", type=_positive_int)
    p_norm.add_argument("--prime-count", type=_positive_int)
    p_norm.add_argument("--hl-report", action="store_true",
                        help="attach the weighted-inequality report")

    p_psi = sub.add_parser("pseudomoment", parents=[common], help="Psi_{k,alpha}(N)")
    p_psi.add_argument("--N", type=_positive_int, required=True)
    p_psi.add_argument("--k", type=_positive_float, required=True)
    p_psi.add_argument("--alpha", type=_positive_float, default=1.0)
    p_psi.add_argument("--method", choices=["exact", "mc"], default="exact")
    p_psi.add_argument("--samples", type=_positive_int, default=20000)

    p_scan = sub.add_parser("scan", parents=[common], help="pseudomoment growth scan")
    p_scan.add_argument("--k", type=_positive_float, required=True)
    p_scan.add_argument("--alpha", type=_positive_float, default=1.0)
    p_scan.add_argument("--grid", type=_grid, required=True,
                        help="comma-separated increasing truncations, at least 4")
    p_scan.add_argument("--method", choices=["exact", "mc"], default="exact")
    p_scan.add_argument("--samples", type=_positive_int, default=20000)

    p_hl = sub.add_parser("hl-check", parents=[common],
                          help="weighted-inequality corpus check at one exponent")
    p_hl.add_argument("--p", type=_positive_float, required=True)
    p_hl.add_argument("--corpus", type=int, required=True)
    p_hl.add_argument("--support", type=_positive_int, default=FuzzConfig.max_support)
    p_hl.add_argument("--max-index", type=_positive_int, default=FuzzConfig.max_index)
    p_hl.add_argument("--samples", type=_positive_int, default=FuzzConfig.samples)

    p_ps = sub.add_parser("partial-sum", parents=[common],
                          help="partial-sum witness or truncation-ratio probe")
    p_ps.add_argument("--mode", choices=["witness", "probe"], default="witness")
    p_ps.add_argument("--p", type=_positive_float, required=True)
    p_ps.add_argument("--k", type=_positive_int, help="prime count for the witness")
    p_ps.add_argument("--samples", type=_positive_int, default=100000)
    p_ps.add_argument("--probe-N", type=_positive_int, help="truncation for probe mode")
    p_ps.add_argument("--generator", choices=["zeta", "euler-power"], default="zeta")
    p_ps.add_argument("--N", type=_positive_int, help="generator truncation for probe mode")
    p_ps.add_argument("--prime-bound", type=_positive_int)

    p_cnp = sub.add_parser("cnp-scan", parents=[common],
                           help="maximal order of the coefficient functional bound")
    p_cnp.add_argument("--p", type=_positive_float, required=True)
    p_cnp.add_argument("--X", type=_positive_int, required=True)

    p_om = sub.add_parser("omega-hist", parents=[common],
                          help="prime-factor-count histogram and concentration window")
    p_om.add_argument("--x", type=_positive_int, required=True)
    p_om.add_argument("--C", type=_positive_float, required=True)

    p_ec = sub.add_parser("euler-const", parents=[common],
                          help="asymptotic pseudomoment constants")
    p_ec.add_argument("--k", type=_positive_float, required=True)
    p_ec.add_argument("--prime-limit", type=_positive_int, default=100000)
    p_ec.add_argument("--leading-factor", action="store_true",
                      help="also evaluate the arithmetic leading factor (integer k)")

    p_fz = sub.add_parser("fuzz", parents=[common], help="inequality fuzz suite")
    p_fz.add_argument("--corpus", type=int, default=FuzzConfig.corpus)
    p_fz.add_argument("--p-grid", default=",".join(f"{p:.17g}" for p in FuzzConfig.p_values))
    p_fz.add_argument("--inequalities", default=",".join(FuzzConfig.inequalities))
    p_fz.add_argument("--support", type=_positive_int, default=FuzzConfig.max_support)
    p_fz.add_argument("--max-index", type=_positive_int, default=FuzzConfig.max_index)
    p_fz.add_argument("--max-degree", type=_positive_int, default=FuzzConfig.max_degree)
    p_fz.add_argument("--samples", type=_positive_int, default=FuzzConfig.samples)
    p_fz.add_argument("--nodes", type=_positive_int, default=FuzzConfig.nodes)
    p_fz.add_argument("--invert", action="store_true",
                      help="self-test: flip every comparison and expect violations")
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser of every `parse` in a process, built once: parse_args leaves it unchanged."""
    return build_parser()


def parse(argv: list[str]) -> Command:
    """Parse argv; value ranges the library checks are left to it (exit 2 either way)."""
    args = _parser().parse_args(argv)
    if args.subcommand == "norm":
        if bool(args.input) == bool(args.generator):
            raise UsageError("norm needs exactly one of --input or --generator")
        if args.generator and not args.N:
            raise UsageError("--generator requires --N")
        generator_flags = [name for name in ("N", "alpha", "beta", "gen_p", "prime_bound", "prime_count")
                           if getattr(args, name) is not None]
        if args.input and generator_flags:
            raise UsageError("--input takes no generator flags, got "
                             + ", ".join("--" + name.replace("_", "-") for name in generator_flags))
    if args.subcommand == "partial-sum":
        if args.mode == "witness" and not args.k:
            raise UsageError("witness mode requires --k")
        if args.mode == "probe" and not (args.probe_N and args.N):
            raise UsageError("probe mode requires --probe-N and --N")
    return Command(subcommand=args.subcommand, args=args)


def execute(cmd: Command) -> tuple[ResultDocument, int]:
    args = cmd.args
    seed = args.seed if args.seed is not None else int.from_bytes(os.urandom(8), "big") >> 1
    started = time.monotonic()
    warnings: list[str] = []
    exit_code = 0

    if cmd.subcommand == "norm":
        if args.input:
            with open(args.input, encoding="utf-8") as handle:
                f = DirichletPolynomial.from_json(handle.read())
        else:
            f = GeneratorSpec(
                kind=args.generator, N=args.N, alpha=args.alpha, p=args.gen_p,
                prime_bound=args.prime_bound, prime_count=args.prime_count, beta=args.beta,
            )
        records = [hardy_norm(f, args.p, args.method, args.samples, seed, workers=args.threads,
                              report=args.hl_report)]
    elif cmd.subcommand == "pseudomoment":
        records = [pseudomoment(args.N, args.k, args.alpha, args.method, samples=args.samples,
                                seed=seed, workers=args.threads)]
    elif cmd.subcommand == "scan":
        records = pseudomoment_scan(args.k, args.alpha, args.grid, args.method,
                                    samples=args.samples, seed=seed, workers=args.threads)
    elif cmd.subcommand in ("hl-check", "fuzz"):
        corpus = dict(corpus=args.corpus, max_support=args.support, max_index=args.max_index,
                      samples=args.samples, seed=seed, workers=args.threads)
        if cmd.subcommand == "hl-check":
            config = FuzzConfig(inequalities=HL_INEQUALITIES, p_values=(args.p,), **corpus)
        else:
            config = FuzzConfig(
                inequalities=tuple(s for s in args.inequalities.split(",") if s),
                p_values=tuple(float(s) for s in args.p_grid.split(",") if s),
                max_degree=args.max_degree, nodes=args.nodes, invert=args.invert, **corpus,
            )
        records = hl_fuzz_suite(config)
        violations = records[-1].extra["summary"]["violation"]
        if violations:
            exit_code = 1
            warnings.append(f"{violations} violation(s) beyond slack")
    elif cmd.subcommand == "partial-sum":
        if args.mode == "witness":
            records = [partial_sum_witness(args.p, args.k, args.samples, seed, workers=args.threads)]
        else:
            spec = GeneratorSpec(kind=args.generator, N=args.N, alpha=1.0,
                                 prime_bound=args.prime_bound or args.N)
            records = [partial_sum_ratio_probe(spec, args.probe_N, args.p, args.samples, seed,
                                               workers=args.threads)]
    elif cmd.subcommand == "cnp-scan":
        records = [maximal_order_scan(args.X, args.p)]
    elif cmd.subcommand == "omega-hist":
        records = [omega_concentration(args.x, args.C)]
    elif cmd.subcommand == "euler-const":
        records = pseudomoment_constants(args.k, args.prime_limit, args.leading_factor, seed)
        tail = max(records[0].extra["tail_bound_upper"], records[0].extra["tail_bound_lower"])
        warnings.append(f"Euler tails bounded by {tail:.3e} in log scale")

    doc = ResultDocument(
        tool=TOOL,
        version=__version__,
        command=[cmd.subcommand] + _echo_args(args),
        seed=seed,
        threads=args.threads,
        warnings=warnings,
        records=records,
        wall_time_s=time.monotonic() - started,
    )
    return doc, exit_code


def _echo_args(args: argparse.Namespace) -> list[str]:
    parts = []
    for key, value in sorted(vars(args).items()):
        if key in ("subcommand",) or value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            parts.append(flag)
        elif isinstance(value, list):
            parts.extend([flag, ",".join(map(str, value))])
        else:
            parts.extend([flag, str(value)])
    return parts


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cmd = parse(argv)
        doc, exit_code = execute(cmd)
    except UsageError as exc:
        print(f"{TOOL}: usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"{TOOL}: invalid arguments: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"{TOOL}: internal error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"{TOOL}: i/o error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"{TOOL}: resource limit: {exc}", file=sys.stderr)
        return 3
    except OverflowError:  # a power mean past the float range
        print(f"{TOOL}: resource limit: a value passed the float range", file=sys.stderr)
        return 3
    text = render(doc, cmd.args.format)
    if cmd.args.out:
        write_atomic(cmd.args.out, text)
    else:
        sys.stdout.write(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
