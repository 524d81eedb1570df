import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from dirichlet_hardy import arith, cli, experiments
from dirichlet_hardy.cli import build_parser, execute, main, parse
from dirichlet_hardy.experiments import HL_INEQUALITIES, ExperimentRecord, FuzzConfig
from dirichlet_hardy.report import CSV_COLUMNS, records_to_csv, render


class TestParse:
    def test_pseudomoment(self):
        cmd = parse(["pseudomoment", "--N", "1000", "--k", "2", "--method", "exact"])
        assert cmd.subcommand == "pseudomoment"
        assert cmd.N == 1000 and cmd.k == 2.0

    def test_norm_rejects_nonpositive_p(self, capsys):
        assert main(["norm", "--p", "0", "--generator", "zeta", "--N", "5"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_hl_check(self):
        cmd = parse(["hl-check", "--p", "1", "--corpus", "500", "--seed", "42"])
        assert cmd.corpus == 500 and cmd.seed == 42

    @pytest.mark.parametrize("argv, expected", [
        ("fuzz --seed 1", FuzzConfig(seed=1)),
        ("hl-check --p 1 --corpus 500 --seed 1",
         FuzzConfig(seed=1, inequalities=HL_INEQUALITIES, p_values=(1.0,))),
    ])
    def test_fuzz_flags_default_to_the_config(self, argv, expected, monkeypatch):
        seen = []

        def suite(config):
            seen.append(config)
            return [ExperimentRecord(experiment="fuzz-summary", params={}, value=0.0, normalizer=0.0,
                                     ratio=0.0, extra={"summary": {"violation": 0}})]

        monkeypatch.setattr(cli, "hl_fuzz_suite", suite)
        execute(parse(shlex.split(argv)))
        (config,) = seen
        for field in fields(FuzzConfig):
            assert getattr(config, field.name) == getattr(expected, field.name), field.name

    def test_unknown_flag_rejected(self, capsys):
        assert main(["pseudomoment", "--N", "10", "--k", "1", "--bogus", "1"]) == 2

    def test_missing_required(self, capsys):
        assert main(["pseudomoment", "--N", "10"]) == 2
        assert "--k" in capsys.readouterr().err

    def test_scan_grid_too_small(self, capsys):
        assert main(["scan", "--k", "1", "--grid", "10,100"]) == 2

    def test_norm_needs_source(self):
        with pytest.raises(Exception):
            parse(["norm", "--p", "2"])

    @pytest.mark.parametrize("flags", ["--N 5", "--alpha 3", "--beta 1", "--gen-p 0.5",
                                       "--prime-bound 7", "--prime-count 2", "--N 5 --alpha 3"])
    def test_input_takes_no_generator_flags(self, flags, tmp_path, capsys):
        path = tmp_path / "poly.json"
        path.write_text('{"coeffs": [[1, 1.0, 0.0]]}')
        assert main(["norm", "--p", "2", "--input", str(path), *flags.split(), "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and all(flag in err for flag in flags.split()[::2])

    @pytest.mark.parametrize("argv, refusal", [
        ("norm --p 2 --generator zeta --N 10 --alpha 2", "zeta does not read alpha"),
        ("norm --p 2 --generator zeta --N 10 --alpha 2 --prime-count 3", "zeta does not read alpha, prime_count"),
        ("norm --p 2 --generator zeta-power --N 10 --alpha 2 --beta 1", "zeta-power does not read beta"),
        ("norm --p 2 --generator fractional-primitive --N 10 --beta 1 --gen-p 0.5",
         "fractional-primitive does not read p"),
        ("partial-sum --mode probe --p 1 --probe-N 10 --N 30 --prime-bound 7", "zeta does not read prime_bound"),
        ("norm --p 2 --generator zeta --N 3000000 --alpha 2", "zeta does not read alpha"),
    ])
    def test_generator_takes_only_its_flags(self, argv, refusal, monkeypatch, capsys):
        # a flag the generator does not read is refused, not echoed beside a run that ignored it,
        # and before any table is sieved for its N
        def no_sieve(limit):
            raise AssertionError(f"sieved {limit}")

        for module in (arith, experiments):
            monkeypatch.setattr(module, "sieve_primes", no_sieve)
        assert main(argv.split() + ["--seed", "1"]) == 2
        out, err = capsys.readouterr()
        assert not out and err.splitlines() == [f"dhardy: invalid arguments: {refusal}"]

    def test_witness_validations(self, capsys):
        assert main(["partial-sum", "--p", "1.5", "--k", "2"]) == 2
        assert main(["partial-sum", "--p", "0.5"]) == 2

    @pytest.mark.parametrize("argv", [
        "scan --k 1 --grid 10,100",
        "scan --k 1 --grid 10,100,50,200",
        "pseudomoment --N 10 --k 1.5 --method exact",
        "partial-sum --p 1.5 --k 2",
        "cnp-scan --p 2 --X 100",
        "cnp-scan --p 0.5 --X 10",
        "omega-hist --x 10 --C 1",
        "euler-const --k 0.5",
        "fuzz --corpus -1",
        "fuzz --nodes 33 --corpus 3 --samples 2000",  # degree 8 needs 36, whether or not it is drawn
        "hl-check --p 1 --corpus -3",
        "norm --p 3 --method l2 --generator zeta --N 10",
        "norm --p 3 --method even --generator zeta --N 10",
        "euler-const --k 2.5 --leading-factor",
        "fuzz --p-grid nan --corpus 1",
        "fuzz --p-grid 0.5,inf --corpus 0",
    ])
    def test_library_checks_exit_2(self, argv, capsys):
        assert main(argv.split() + ["--seed", "1"]) == 2
        assert "invalid arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "norm --p nan --generator zeta --N 10",
        "norm --p inf --generator zeta --N 10",
        "pseudomoment --N 10 --k nan --method mc",
        "pseudomoment --N 10 --k 2 --alpha inf",
        "omega-hist --x 100 --C inf",
        "euler-const --k inf",
        "scan --k 1 --grid 3,4,5,1e400",
        "scan --k 1 --grid 3.9,4,5,6",
        "scan --k 1 --grid 3,4,nan,6",
    ])
    def test_non_finite_values_exit_2(self, argv, capsys):
        assert main(argv.split() + ["--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "Traceback" not in err

    def test_grid_takes_integral_numbers(self):
        doc, _ = execute(parse(["scan", "--k", "1", "--grid", "1e2,316,1000,3162.0", "--seed", "1"]))
        assert [r["params"]["N"] for r in doc.records[:-1]] == [100, 316, 1000, 3162]
        assert doc.command[doc.command.index("--grid") + 1] == "100,316,1000,3162"

    def test_readme_commands_parse(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        commands = [line for line in readme.read_text(encoding="utf-8").splitlines()
                    if line.startswith("dhardy ")]
        assert len(commands) >= 9
        subcommands = {parse(shlex.split(line)[1:]).subcommand for line in commands}
        assert subcommands == {"norm", "pseudomoment", "scan", "hl-check", "partial-sum",
                               "cnp-scan", "omega-hist", "euler-const", "fuzz"}


class TestExecute:
    def test_pseudomoment_harmonic(self):
        cmd = parse(["pseudomoment", "--N", "10", "--k", "1", "--seed", "1"])
        doc, code = execute(cmd)
        assert code == 0
        assert doc.records[0]["value"] == pytest.approx(7381 / 2520, rel=1e-14)
        assert doc.seed == 1
        assert doc.records[0]["params"]["N"] == 10

    def test_seed_from_entropy_echoed(self):
        cmd = parse(["pseudomoment", "--N", "10", "--k", "1"])
        doc, _ = execute(cmd)
        assert doc.seed is not None

    def test_norm_auto_routes(self):
        doc, _ = execute(parse(["norm", "--p", "2", "--generator", "zeta", "--N", "50",
                                "--seed", "3"]))
        assert doc.records[0]["params"]["method"] == "exact_l2"
        doc, _ = execute(parse(["norm", "--p", "4", "--generator", "zeta", "--N", "20",
                                "--seed", "3"]))
        assert doc.records[0]["params"]["method"] == "exact_even"
        doc, _ = execute(parse(["norm", "--p", "1.5", "--generator", "zeta", "--N", "20",
                                "--seed", "3", "--samples", "2000"]))
        assert doc.records[0]["params"]["method"] == "monte_carlo"
        assert doc.records[0]["std_error"] > 0

    def test_scan_slope_record(self):
        doc, _ = execute(parse(["scan", "--k", "1", "--grid", "100,1000,10000,100000",
                                "--seed", "2"]))
        slope = doc.records[-1]
        assert slope["experiment"] == "scan-slope"
        assert 0.9 <= slope["value"] <= 1.1

    def test_euler_const(self):
        doc, _ = execute(parse(["euler-const", "--k", "1", "--prime-limit", "5000",
                                "--leading-factor", "--seed", "1"]))
        assert doc.records[0]["value"] == 1.0  # upper constant at k = 1
        assert doc.records[1]["value"] == pytest.approx(1.0, abs=1e-9)
        assert doc.warnings

    def test_omega_hist(self):
        doc, _ = execute(parse(["omega-hist", "--x", "10000", "--C", "10", "--seed", "1"]))
        rec = doc.records[0]
        assert rec["value"] == 0.0
        assert rec["extra"]["total"] == 10000

    def test_cnp_scan(self):
        doc, _ = execute(parse(["cnp-scan", "--p", "0.5", "--X", "500", "--seed", "1"]))
        assert doc.records[0]["value"] > 0

    def test_fuzz_exit_codes(self):
        doc, code = execute(parse(["fuzz", "--corpus", "5", "--seed", "5",
                                   "--samples", "4000"]))
        assert code == 0
        assert doc.records[-1]["experiment"] == "fuzz-summary"
        doc, code = execute(parse(["fuzz", "--corpus", "3", "--seed", "5", "--invert",
                                   "--samples", "4000"]))
        assert code == 1
        assert doc.records[-1]["extra"]["violations"]

    def test_fuzz_sieve_covers_the_disc_lift(self):
        # degree 12 lifts to the index 2^12, beyond the default table of 1000
        doc, code = execute(parse(["fuzz", "--max-degree", "12", "--corpus", "2", "--seed", "3",
                                   "--samples", "2000"]))
        assert code == 0
        per_case = Counter(rec["params"]["case"] for rec in doc.records[:-1])
        assert per_case == {0: 14, 1: 14}

    @pytest.mark.parametrize("p", ["3", "0.5"])
    def test_hl_check_constant_polynomial(self, p, capsys):
        # support 1 and max index 1 force f = {1: c}, where both sides agree up to rounding
        assert main(["hl-check", "--p", p, "--corpus", "20", "--support", "1",
                     "--max-index", "1", "--seed", "1"]) == 0

    def test_hl_check_p2_checks_all_three(self):
        doc, code = execute(parse(["hl-check", "--p", "2", "--corpus", "4", "--seed", "3",
                                   "--samples", "2000"]))
        assert code == 0
        per_case = {}
        for rec in doc.records[:-1]:
            per_case.setdefault(rec["params"]["case"], []).append(rec["experiment"])
        three = ["fuzz:hl-upper", "fuzz:hl-lower", "fuzz:squarefree-lower"]
        assert per_case == {case: three for case in range(4)}


@pytest.mark.parametrize("argv, most", [
    ("norm --p 1.5 --generator zeta --N 100 --samples 2000 --hl-report", 1),
    ("pseudomoment --N 60 --k 3", 1),
    ("pseudomoment --N 200 --k 1.5 --method mc --samples 2000", 1),
    ("scan --k 2 --grid 100,316,1000,3162", 1),
    ("scan --k 1.5 --grid 100,1000,10000,30000 --method mc --samples 500", 1),
    ("hl-check --p 1.5 --corpus 2 --samples 2000", 1),
    ("partial-sum --p 0.5 --k 3 --samples 2000", 1),
    ("partial-sum --p 0.5 --k 5 --samples 2000", 2),  # 2*3*5*7*11 = 2310 needs a second sieve
    ("partial-sum --mode probe --p 1 --probe-N 20 --N 100 --samples 2000", 1),
    ("cnp-scan --p 0.5 --X 2000", 1),
    ("omega-hist --x 5000 --C 2", 1),
    ("euler-const --k 2 --prime-limit 5000 --leading-factor", 1),
    ("fuzz --corpus 2 --samples 2000", 1),
])
def test_one_sieve_per_command(argv, most, monkeypatch):
    # each command sieves one table and hands it to every route and Euler product it runs
    sieves = []
    sieve = arith.sieve_primes
    for module in (arith, experiments):
        monkeypatch.setattr(module, "sieve_primes", lambda limit: sieves.append(limit) or sieve(limit))
    _, code = execute(parse(argv.split() + ["--seed", "1"]))
    assert code == 0
    assert 1 <= len(sieves) <= most, sieves


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    import dirichlet_hardy.cli as cli

    builds = []

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    runs = [
        "pseudomoment --N 50 --k 2 --seed 9 --format jsonl",
        "norm --p 1.5 --generator zeta --N 30 --seed 4 --samples 4000 --format jsonl",
        "euler-const --k 2.5 --prime-limit 5000 --seed 1 --format jsonl",
        "pseudomoment --N 50 --k 2 --seed 9 --format jsonl",
    ]
    outputs = []
    for i, argv in enumerate(runs):
        out = tmp_path / f"{i}.jsonl"
        assert main(shlex.split(argv) + ["--out", str(out)]) == 0
        outputs.append(out.read_text())
        # a parser built afresh reads the same arguments
        assert vars(parse(shlex.split(argv))) == vars(build_parser().parse_args(shlex.split(argv)))
    assert len(builds) == 1
    assert outputs[0] == outputs[3]


class TestOutput:
    def test_atomic_write(self, tmp_path):
        out = tmp_path / "result.json"
        code = main(["pseudomoment", "--N", "10", "--k", "1", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["records"][0]["value"] == pytest.approx(7381 / 2520)
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".part")]

    def test_jsonl_byte_deterministic(self, capsys):
        args = ["pseudomoment", "--N", "50", "--k", "2", "--seed", "9",
                "--format", "jsonl"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        json.loads(first.strip())

    def test_json_deterministic_modulo_walltime(self):
        args = parse(["norm", "--p", "1.5", "--generator", "zeta", "--N", "30",
                      "--seed", "4", "--samples", "4000"])
        doc1, _ = execute(args)
        doc2, _ = execute(args)
        a = json.loads(render(doc1, "json"))
        b = json.loads(render(doc2, "json"))
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b

    def test_round_trip_from_echoed_command(self):
        doc1, _ = execute(parse(["pseudomoment", "--N", "40", "--k", "2", "--seed", "77"]))
        doc2, _ = execute(parse(doc1.command))
        assert doc1.records == doc2.records

    def test_csv_schema(self):
        doc, _ = execute(parse(["scan", "--k", "2", "--grid", "10,20,40,80", "--seed", "3",
                                "--format", "csv"]))
        text = render(doc, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(doc.records)
        row = lines[1].split(",")
        assert row[0] == "pseudomoment"
        assert float(row[CSV_COLUMNS.index("value")]) > 0

    def test_csv_17_digit_floats(self):
        text = records_to_csv([
            {"experiment": "x", "params": {"p": 1 / 3}, "value": math.pi,
             "normalizer": 1.0, "ratio": math.pi, "std_error": None}
        ])
        assert "3.1415926535897931" in text

    def test_jsonl_schema_golden(self, capsys):
        assert main(["pseudomoment", "--N", "10", "--k", "1", "--seed", "1",
                     "--format", "jsonl"]) == 0
        line = json.loads(capsys.readouterr().out.strip())
        assert sorted(line) == ["experiment", "extra", "normalizer", "params",
                                "ratio", "std_error", "value"]

    def test_threads_do_not_change_values(self):
        base = ["norm", "--p", "0.7", "--generator", "zeta", "--N", "64",
                "--seed", "123", "--samples", "30000"]
        doc1, _ = execute(parse(base + ["--threads", "1"]))
        doc8, _ = execute(parse(base + ["--threads", "8"]))
        assert doc1.records[0]["value"] == doc8.records[0]["value"]
        assert doc1.records[0]["std_error"] == doc8.records[0]["std_error"]


class TestNormExtras:
    def test_hl_report_flag(self):
        doc, _ = execute(parse(["norm", "--p", "1", "--generator", "zeta", "--N", "20",
                                "--seed", "6", "--samples", "20000", "--hl-report"]))
        rep = doc.records[0]["extra"]["hl_report"]
        assert rep["verdict"] == "consistent"
        assert rep["lower_sum"] > 0

    def test_input_file(self, tmp_path):
        from dirichlet_hardy.dseries import DirichletPolynomial

        f = DirichletPolynomial({1: 1 + 0j, 2: 2j, 9: -0.5})
        path = tmp_path / "poly.json"
        path.write_text(f.to_json())
        doc, _ = execute(parse(["norm", "--p", "2", "--input", str(path), "--seed", "1"]))
        assert doc.records[0]["value"] == pytest.approx(
            (1 + 4 + 0.25) ** 0.5, rel=1e-12
        )

    def test_generator_with_extremal(self):
        doc, _ = execute(parse(["norm", "--p", "0.5", "--generator", "extremal-product",
                                "--N", "6", "--gen-p", "0.5", "--prime-count", "2",
                                "--seed", "2", "--samples", "20000"]))
        # the full product has unit norm but truncation inflates it for p < 1
        assert 1.0 < doc.records[0]["value"] < 3.0

    def test_extremal_with_divergent_tail(self, capsys):
        # 1 < gen-p < 2: the dropped mass diverges, the truncated product is still a polynomial
        assert main(["norm", "--p", "1", "--generator", "extremal-product", "--gen-p", "1.5",
                     "--N", "100", "--prime-count", "2", "--seed", "1"]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_witness_record_pinned(self):
        # the library sizes the primorial's sieve; the record keeps its bits (recorded on the
        # stream of two 22-bit angles per hash, two-table phases, node rows and the halving fold)
        doc, code = execute(parse(["partial-sum", "--p", "0.5", "--k", "3", "--samples", "20000",
                                   "--seed", "1"]))
        rec = doc.records[0]
        assert code == 0 and rec["params"]["N"] == 30
        assert (rec["value"].hex(), rec["std_error"].hex()) == (
            "0x1.8cda7054c8ba9p+0", "0x1.d1ed007547e93p-9")
        assert (rec["extra"]["se_at_M"], rec["extra"]["se_before_M"]) == (
            0.0035547316607703132, 0.003236222315171455)

    def test_probe_mode(self):
        doc, _ = execute(parse(["partial-sum", "--mode", "probe", "--p", "2",
                                "--probe-N", "10", "--N", "30", "--seed", "3",
                                "--samples", "20000"]))
        assert 0 < doc.records[0]["ratio"] <= 1.01


class TestErrorExits:
    def test_resource_limit_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv("DIRICHLET_HARDY_MEMORY_CAP", "20000")
        code = main(["norm", "--p", "4", "--method", "even", "--generator", "zeta",
                     "--N", "4000", "--seed", "1"])
        assert code == 3
        assert "cap" in capsys.readouterr().err

    def test_witness_primorial_beyond_any_sieve_exit_3(self, capsys):
        assert main(["partial-sum", "--p", "0.5", "--k", "3000", "--seed", "1"]) == 3
        assert "primorial" in capsys.readouterr().err

    def test_disc_degree_beyond_any_sieve_exit_3(self, capsys):
        assert main(["fuzz", "--max-degree", "1000", "--corpus", "1", "--seed", "1"]) == 3
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "pseudomoment --N 10 --k 40 --method mc --samples 100 --seed 1",
        "scan --k 40 --grid 3,4,5,6 --method mc --samples 100 --seed 1",
    ])
    def test_large_k_normalizer_overflow_exit_0(self, argv, tmp_path):
        # (log N)^(k^2) passes the float range, the power mean |F|^(2k) does not: the
        # normalizer renders as null
        out = tmp_path / "out.json"
        assert main(shlex.split(argv) + ["--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        pseudomoments = [r for r in records if r["experiment"] == "pseudomoment"]
        assert pseudomoments[-1]["normalizer"] is None
        assert all(math.isfinite(r["value"]) and math.isfinite(r["std_error"]) for r in pseudomoments)

    @pytest.mark.parametrize("p", [400, 800])
    def test_value_past_the_float_range_exit_3(self, p, capsys):
        # the standard error of |F|^400, and at p = 800 |F|^p itself, pass the float range: a
        # one-line resource-limit message, not a traceback, a numpy warning or exit 1
        argv = f"norm --generator zeta --N 10 --p {p} --method mc --samples 100 --seed 1 --hl-report"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(shlex.split(argv)) == 3
        err = capsys.readouterr().err
        assert err.startswith("dhardy: resource limit:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        "pseudomoment --N 10 --k 400 --method mc --samples 100 --seed 1",  # Monte Carlo
        "fuzz --corpus 1 --p-grid 400 --seed 1",  # the disc quadrature, first in a case
    ])
    def test_power_mean_past_the_float_range_exit_3(self, argv, capsys):
        # exit 3 with one stderr line, not a numpy warning and a record whose value is null
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(shlex.split(argv)) == 3
        captured = capsys.readouterr()
        assert captured.err == "dhardy: resource limit: a value passed the float range\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        "euler-const --k 33 --seed 1",
        "euler-const --k 40 --leading-factor --seed 1",
        "euler-const --k 64 --seed 1",
    ])
    def test_large_k_euler_constants_exit_0(self, argv, tmp_path):
        out = tmp_path / "out.json"
        assert main(shlex.split(argv) + ["--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        k = records[0]["params"]["k"]
        assert records[0]["extra"]["upper_log"] == -k * math.lgamma(k + 1)
        assert records[0]["extra"]["tail_bound_upper"] == 0.0
        assert math.isfinite(records[0]["extra"]["lower_log"])
        assert all(math.isfinite(r["extra"]["log_value"]) for r in records[1:])

    @pytest.mark.parametrize("k, log_ratio", [(11, 595.6), (11.5, 663.0), (12, None)])
    def test_euler_const_ratio_from_the_logs(self, k, log_ratio, tmp_path):
        # the lower constant underflows to 0 from k = 11; the ratio is a finite double up to
        # k = 11.5 and passes the float range (null) from k = 12
        out = tmp_path / "out.json"
        assert main(["euler-const", "--k", str(k), "--seed", "1", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())["records"][0]
        assert rec["normalizer"] == 0.0
        logs = rec["extra"]["upper_log"] - rec["extra"]["lower_log"]
        if log_ratio is None:
            assert rec["ratio"] is None and logs > 1024 * math.log(2)  # past the largest double
        else:
            assert rec["ratio"] == pytest.approx(math.exp(logs), rel=1e-12)
            assert math.log(rec["ratio"]) == pytest.approx(log_ratio, abs=0.05)

    @pytest.mark.parametrize("re, im", [("NaN", "0.0"), ("0.5", "-Infinity")])
    @pytest.mark.parametrize("method", ["l2 --p 2", "even --p 4", "mc --p 1"])
    def test_non_finite_coefficient_exit_2(self, re, im, method, tmp_path, capsys):
        # json reads NaN and Infinity: the input is refused, naming the index, before any route
        # runs to a null value or a resource limit
        path = tmp_path / "poly.json"
        path.write_text(f'{{"coeffs": [[1, 1.0, 0.0], [6, {re}, {im}]]}}')
        assert main(["norm", "--method", *method.split(), "--input", str(path), "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert "index 6 is not finite" in captured.err and captured.out == ""

    @pytest.mark.parametrize("text", ['{"coeffs": [[1, "1", 0]]}', '{"c": []}', "[1, 2]",
                                      '{"coeffs": [[1.5, 1, 0]]}', '{"coeffs": [[true, 1, 0]]}',
                                      '{"coeffs": [[1, 1, 0], [1, 2, 0]]}'])
    def test_malformed_input_exit_2(self, text, tmp_path, capsys):
        # valid json of another shape: a string part, no "coeffs", not an object, a fractional
        # index, a bool index and a repeated index are refused with one line, not a traceback,
        # a truncated index or a silently dropped entry
        path = tmp_path / "poly.json"
        path.write_text(text)
        assert main(["norm", "--p", "2", "--input", str(path), "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("dhardy: invalid arguments: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("method", ["l2 --p 2", "even --p 4"])
    def test_exact_norm_past_the_float_range_exit_3(self, method, tmp_path, capsys):
        # finite coefficients whose squares, or whose convolution's, pass the float range: exit 3
        # on both exact routes, as on Monte Carlo, not a record whose value is null
        path = tmp_path / "poly.json"
        path.write_text('{"coeffs": [[1, 1e308, 0.0], [2, 1e308, 0.0]]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["norm", "--method", *method.split(), "--input", str(path), "--seed", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "dhardy: resource limit: a value passed the float range\n"
        assert captured.out == ""

    @pytest.mark.parametrize("cap", ["abc", "0", "-5"])
    def test_invalid_memory_cap_exit_2(self, cap, capsys, monkeypatch):
        # a memory cap that is no positive integer is refused with one line before any work
        monkeypatch.setenv("DIRICHLET_HARDY_MEMORY_CAP", cap)
        assert main(["norm", "--p", "2", "--generator", "zeta", "--N", "10", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("dhardy: invalid arguments: DIRICHLET_HARDY_MEMORY_CAP must be ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_missing_input_exit_2(self, capsys):
        assert main(["norm", "--p", "2", "--input", "/nonexistent/poly.json"]) == 2

    def test_internal_invariant_exit_4(self, capsys, monkeypatch):
        import dirichlet_hardy.cli as cli

        def broken_scan(*args, **kwargs):
            raise AssertionError("scan maximum fell below its primorial floor")

        monkeypatch.setattr(cli, "maximal_order_scan", broken_scan)
        assert main(["cnp-scan", "--p", "0.5", "--X", "100", "--seed", "1"]) == 4
        err = capsys.readouterr().err
        assert "internal error" in err and "primorial floor" in err


# run in a fresh interpreter: one fuzz and one Monte Carlo norm command, then the modules they
# loaded, then the norm's records at --threads 1 and 2
FOOTPRINT_SCRIPT = """
import contextlib, io, json, sys
from dirichlet_hardy import cli

def records(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.dumps(json.loads(out.getvalue())["records"])

norm = ["norm", "--method", "mc", "--generator", "zeta", "--N", "100", "--p", "1",
        "--samples", "2000", "--seed", "5"]
records(["fuzz", "--corpus", "2", "--seed", "1", "--threads", "1"])
one = records(norm + ["--threads", "1"])
watched = ("numpy.random", "numpy.polynomial", "concurrent.futures")
loaded = [m for m in watched if m in sys.modules]
two = records(norm + ["--threads", "2"])
print(json.dumps({"loaded": loaded, "same": one == two, "pool": "concurrent.futures" in sys.modules}))
"""


def test_commands_leave_numpy_random_polynomial_and_futures_unloaded():
    # the fuzz corpus draws from the engine's splitmix64 stream, disc polynomials evaluate by
    # Horner's rule in plain numpy, and only a run with two busy workers imports a thread pool
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result == {"loaded": [], "same": True, "pool": True}
