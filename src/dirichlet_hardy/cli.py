"""Command-line front end.

Subcommands: norm, pseudomoment, scan, hl-check, partial-sum, cnp-scan,
omega-hist, euler-const, fuzz. Every run echoes its resolved parameters,
including the seed, and writes json, jsonl, or csv atomically.

Exit codes: 0 success, 1 fuzz or hl-check violations beyond the slack of
--hl-report, 2 usage error or a value the library rejects, 3 resource limit,
4 internal error (a library invariant check failed).
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
from .arith import PrimeTable, pseudomoment_leading_factor, pseudomoment_ratio_bounds, sieve_primes
from .bounds import HL_INEQUALITIES, hl_report
from .dseries import DirichletPolynomial, GeneratorSpec, generate
from .errors import ResourceLimitError, memory_cap_bytes
from .experiments import (
    DISC_INEQUALITIES,
    ExperimentRecord,
    FuzzConfig,
    hl_fuzz_suite,
    maximal_order_scan,
    omega_concentration,
    partial_sum_ratio_probe,
    partial_sum_witness,
    pseudomoment,
    pseudomoment_scan,
)
from .norms import even_norm_exact, l2_norm, mc_norm
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
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _grid(text: str) -> list[int]:
    try:
        points = [int(float(part)) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be comma-separated integers, got {text!r}")
    return points


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
    p_hl.add_argument("--support", type=_positive_int, default=64)
    p_hl.add_argument("--max-index", type=_positive_int, default=1000)
    p_hl.add_argument("--samples", type=_positive_int, default=20000)

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
    p_fz.add_argument("--corpus", type=int, default=500)
    p_fz.add_argument("--p-grid", default="0.5,1,1.3333333333333333,3,5")
    p_fz.add_argument("--inequalities", default=",".join(FuzzConfig().inequalities))
    p_fz.add_argument("--support", type=_positive_int, default=64)
    p_fz.add_argument("--max-index", type=_positive_int, default=1000)
    p_fz.add_argument("--max-degree", type=_positive_int, default=8)
    p_fz.add_argument("--samples", type=_positive_int, default=20000)
    p_fz.add_argument("--nodes", type=_positive_int, default=16384)
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
    if args.subcommand == "partial-sum":
        if args.mode == "witness" and not args.k:
            raise UsageError("witness mode requires --k")
        if args.mode == "probe" and not (args.probe_N and args.N):
            raise UsageError("probe mode requires --probe-N and --N")
    return Command(subcommand=args.subcommand, args=args)


def _table(*limits: int) -> PrimeTable:
    """The prime table of a run: covers every limit, and at least 1000."""
    return sieve_primes(max(1000, *limits))


def _norm_records(args, seed: int) -> list[ExperimentRecord]:
    if args.input:
        with open(args.input, encoding="utf-8") as handle:
            f = DirichletPolynomial.from_json(handle.read())
        table = _table(f.length)
    else:
        table = _table(args.N)
        spec = GeneratorSpec(
            kind=args.generator, N=args.N, alpha=args.alpha, p=args.gen_p,
            prime_bound=args.prime_bound, prime_count=args.prime_count, beta=args.beta,
        )
        f = generate(spec, table)
    method = args.method
    if method == "auto":
        if args.p == 2.0:
            method = "l2"
        elif args.p > 0 and float(args.p / 2).is_integer():
            method = "even"
        else:
            method = "mc"
    if method == "l2":
        if args.p != 2.0:
            raise UsageError("--method l2 requires --p 2")
        est = l2_norm(f)
    elif method == "even":
        if not float(args.p / 2).is_integer():
            raise UsageError("--method even requires p = 2k for integer k")
        est = even_norm_exact(f, int(args.p / 2))
    else:
        est = mc_norm(f, args.p, args.samples, seed, table, args.threads)
    extra = {"length": f.length, "support_size": len(f)}
    if args.hl_report:
        extra["hl_report"] = hl_report(f, args.p, est, table).to_dict()
    params = {"p": args.p, "method": est.method, "samples": est.samples,
              "seed": est.seed, "generator": args.generator, "N": args.N}
    std_error = est.std_error if est.method == "monte_carlo" else None
    return [ExperimentRecord(experiment="norm", params=params, value=est.value, normalizer=1.0,
                             ratio=est.value, std_error=std_error, extra=extra)]


def _fuzz_records(config: FuzzConfig) -> tuple[list[ExperimentRecord], int]:
    """The fuzz suite's records closed by a summary record, and the violation count."""
    limits = [config.max_index]
    if DISC_INEQUALITIES.keys() & set(config.inequalities):
        # the disc checks lift degree d to the index 2^d; a sieve takes at least a byte per
        # index, so past the cap's bit length every degree is beyond any sieve the cap allows
        limits.append(2 ** min(config.max_degree, memory_cap_bytes().bit_length()))
    result = hl_fuzz_suite(config, _table(*limits))
    violations = result.summary["violation"]
    summary = ExperimentRecord(
        experiment="fuzz-summary",
        params={"seed": config.seed, "samples": config.samples, "method": "summary"},
        value=float(violations),
        normalizer=float(config.corpus),
        ratio=violations / config.corpus if config.corpus else 0.0,
        extra={"summary": result.summary, "violations": result.violations,
               "inequalities": list(config.inequalities), "p_values": list(config.p_values)},
    )
    return result.records + [summary], violations


def execute(cmd: Command) -> tuple[ResultDocument, int]:
    args = cmd.args
    seed = args.seed if args.seed is not None else int.from_bytes(os.urandom(8), "big") >> 1
    started = time.monotonic()
    warnings: list[str] = []
    exit_code = 0

    if cmd.subcommand == "norm":
        records = _norm_records(args, seed)
    elif cmd.subcommand == "pseudomoment":
        records = [pseudomoment(args.N, args.k, args.alpha, args.method, samples=args.samples,
                                seed=seed, workers=args.threads)]
    elif cmd.subcommand == "scan":
        records, slope = pseudomoment_scan(args.k, args.alpha, args.grid, args.method,
                                           samples=args.samples, seed=seed, workers=args.threads)
        exponent = (args.k * args.alpha) ** 2
        records.append(ExperimentRecord(
            experiment="scan-slope",
            params={"k": args.k, "alpha": args.alpha, "method": args.method,
                    "grid": ",".join(map(str, args.grid)), "seed": seed},
            value=slope, normalizer=exponent, ratio=slope / exponent,
            extra={"regressor": "log log N"},
        ))
    elif cmd.subcommand in ("hl-check", "fuzz"):
        if cmd.subcommand == "hl-check":
            config = FuzzConfig(
                inequalities=HL_INEQUALITIES,
                p_values=(args.p,), corpus=args.corpus, max_support=args.support,
                max_index=args.max_index, samples=args.samples, seed=seed, workers=args.threads,
            )
        else:
            config = FuzzConfig(
                inequalities=tuple(s for s in args.inequalities.split(",") if s),
                p_values=tuple(float(s) for s in args.p_grid.split(",") if s),
                corpus=args.corpus, max_support=args.support, max_index=args.max_index,
                max_degree=args.max_degree, samples=args.samples, nodes=args.nodes,
                seed=seed, invert=args.invert, workers=args.threads,
            )
        records, violations = _fuzz_records(config)
        if violations:
            exit_code = 1
            warnings.append(f"{violations} violation(s) beyond slack")
    elif cmd.subcommand == "partial-sum":
        if args.mode == "witness":
            rec = partial_sum_witness(args.p, args.k, args.samples, seed, workers=args.threads)
        else:
            table = _table(args.N)
            spec = GeneratorSpec(kind=args.generator, N=args.N, alpha=1.0,
                                 prime_bound=args.prime_bound or args.N)
            f = generate(spec, table)
            rec = partial_sum_ratio_probe(f, args.probe_N, args.p, args.samples, seed,
                                          table, args.threads)
        records = [rec]
    elif cmd.subcommand == "cnp-scan":
        records = [maximal_order_scan(args.X, args.p, _table(args.X))]
    elif cmd.subcommand == "omega-hist":
        records = [omega_concentration(args.x, args.C, _table(args.x))]
    elif cmd.subcommand == "euler-const":
        upper, lower = pseudomoment_ratio_bounds(args.k, args.prime_limit)
        params = {"k": args.k, "prime_limit": args.prime_limit, "seed": seed}
        try:  # from k = 11 the lower constant underflows, but the ratio may be a finite double
            ratio = upper.value / lower.value if lower.value else math.exp(upper.log_value - lower.log_value)
        except OverflowError:
            ratio = math.inf
        records = [ExperimentRecord(
            experiment="euler-const", params=params, value=upper.value,
            normalizer=lower.value, ratio=ratio,
            extra={"upper_log": upper.log_value, "lower_log": lower.log_value,
                   "tail_bound_upper": upper.tail_bound, "tail_bound_lower": lower.tail_bound},
        )]
        warnings.append(f"Euler tails bounded by {max(upper.tail_bound, lower.tail_bound):.3e} in log scale")
        if args.leading_factor:
            if float(args.k) != int(args.k):
                raise UsageError("--leading-factor requires integer k")
            ak = pseudomoment_leading_factor(int(args.k), args.prime_limit)
            records.append(ExperimentRecord(
                experiment="leading-factor", params=params, value=ak.value,
                normalizer=1.0, ratio=ak.value,
                extra={"log_value": ak.log_value, "tail_bound": ak.tail_bound},
            ))

    doc = ResultDocument(
        tool=TOOL,
        version=__version__,
        command=[cmd.subcommand] + _echo_args(args),
        seed=seed,
        threads=args.threads,
        records=[r.to_dict() for r in records],
        warnings=warnings,
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
    except UsageError as exc:
        print(f"{TOOL}: usage error: {exc}", file=sys.stderr)
        return 2
    try:
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
    text = render(doc, cmd.args.format)
    if cmd.args.out:
        write_atomic(cmd.args.out, text)
    else:
        sys.stdout.write(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
