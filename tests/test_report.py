import math

import numpy as np
import pytest

from dirichlet_hardy import cli
from dirichlet_hardy.bounds import HLReport
from dirichlet_hardy.experiments import ExperimentRecord
from dirichlet_hardy.norms import NormEstimate
from dirichlet_hardy.report import ResultDocument, render


def golden_document() -> ResultDocument:
    # a nested dataclass (a report holding its estimate), a complex number, NaN, inf, numpy
    # scalars, a tuple and a non-string key: every kind of value a record may hold
    norm = NormEstimate(p=1.5, value=4 / 3, power_mean=1.539600717839002, method="monte_carlo",
                        samples=4000, std_error=0.015625, seed=4)
    report = HLReport(p=1.5, norm=norm, upper_sum=None, lower_sum=2.5, squarefree_sum=2.25,
                      verdict="consistent", slack_sigma=3.0)
    record = ExperimentRecord(
        experiment="norm",
        params={"p": 1.5, "N": np.int64(30), "method": "monte_carlo", "samples": 4000, "seed": 4},
        value=4 / 3, normalizer=math.inf, ratio=math.nan, std_error=np.float64(0.015625),
        extra={"hl_report": report, "pairing": complex(0.5, -2.0), "window": (1.0, math.inf),
               "mode": np.int32(3), "flag": np.bool_(True), 7: None},
    )
    return ResultDocument(tool="dhardy", version="0.1.0", command=["norm", "--seed", "4"], seed=4,
                          threads=1, records=[record], warnings=["one warning"])


# the bytes of each format, recorded from the record's `asdict` copy before the one walk replaced it
GOLDEN_JSON = """\
{
 "tool": "dhardy",
 "version": "0.1.0",
 "command": [
  "norm",
  "--seed",
  "4"
 ],
 "seed": 4,
 "threads": 1,
 "warnings": [
  "one warning"
 ],
 "records": [
  {
   "experiment": "norm",
   "params": {
    "p": 1.5,
    "N": 30,
    "method": "monte_carlo",
    "samples": 4000,
    "seed": 4
   },
   "value": 1.3333333333333333,
   "normalizer": null,
   "ratio": null,
   "std_error": 0.015625,
   "extra": {
    "hl_report": {
     "p": 1.5,
     "norm": {
      "p": 1.5,
      "value": 1.3333333333333333,
      "power_mean": 1.539600717839002,
      "method": "monte_carlo",
      "samples": 4000,
      "std_error": 0.015625,
      "seed": 4
     },
     "upper_sum": null,
     "lower_sum": 2.5,
     "squarefree_sum": 2.25,
     "verdict": "consistent",
     "slack_sigma": 3.0
    },
    "pairing": {
     "re": 0.5,
     "im": -2.0
    },
    "window": [
     1.0,
     null
    ],
    "mode": 3,
    "flag": true,
    "7": null
   }
  }
 ],
 "wall_time_s": null
}
"""
GOLDEN_JSONL = (
    '{"experiment":"norm","params":{"p":1.5,"N":30,"method":"monte_carlo","samples":4000,"seed":4},'
    '"value":1.3333333333333333,"normalizer":null,"ratio":null,"std_error":0.015625,"extra":{"hl_report":'
    '{"p":1.5,"norm":{"p":1.5,"value":1.3333333333333333,"power_mean":1.539600717839002,'
    '"method":"monte_carlo","samples":4000,"std_error":0.015625,"seed":4},"upper_sum":null,'
    '"lower_sum":2.5,"squarefree_sum":2.25,"verdict":"consistent","slack_sigma":3.0},'
    '"pairing":{"re":0.5,"im":-2.0},"window":[1.0,null],"mode":3,"flag":true,"7":null}}\n'
)
GOLDEN_CSV = (
    "experiment,N,k,alpha,p,method,samples,seed,value,normalizer,ratio,std_error\n"
    "norm,30,,,1.5,monte_carlo,4000,4,1.3333333333333333,,,0.015625\n"
)


@pytest.mark.parametrize("fmt, golden", [("json", GOLDEN_JSON), ("jsonl", GOLDEN_JSONL), ("csv", GOLDEN_CSV)])
def test_render_golden(fmt, golden):
    assert render(golden_document(), fmt) == golden


def test_records_are_plain_data():
    # the document holds the walked data, so every format renders from the same dicts
    (record,) = golden_document().records
    assert type(record["params"]["N"]) is int and type(record["std_error"]) is float
    assert record["extra"]["hl_report"]["norm"]["seed"] == 4


def test_unknown_type_is_an_internal_error(capsys, monkeypatch):
    def scan(X, p):
        return ExperimentRecord(experiment="maximal-order", params={"X": X, "p": p}, value=1.0,
                                normalizer=1.0, ratio=1.0, extra={"histogram": np.arange(3)})

    monkeypatch.setattr(cli, "maximal_order_scan", scan)
    assert cli.main(["cnp-scan", "--p", "0.5", "--X", "100", "--seed", "1"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("dhardy: internal error:") and "ndarray" in err and err.count("\n") == 1
