"""Every benchmark invocation of the reference seed, run once through the
CLI and compared with perfbench/reference.json within the benchmark's own
bounds: output drift that the benchmark would refuse fails here first.

Only perfbench's workload and verify modules are imported; its runner sets
BLAS environment variables at import and is left alone.
"""

import json
import sys
from pathlib import Path

import pytest

from pdmsusy import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import verify       # noqa: E402
import workloads    # noqa: E402
sys.path.remove(str(PERFBENCH))

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def _output(inv, workdir: str, code) -> dict:
    if inv.command == "curves":
        with open(inv.curves_path(workdir), encoding="utf-8") as fh:
            return verify.summarize(code, None, fh.read())
    with open(inv.report_path(workdir), encoding="utf-8") as fh:
        return verify.summarize(code, json.load(fh), None)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_seed_matches_the_benchmark_reference(tmp_path, workload):
    assert REFERENCE["seed"] == workloads.REFERENCE_SEED
    invs = workloads.invocations(workload, workloads.REFERENCE_SEED)
    workloads.write_configs(invs, str(tmp_path))
    for inv in invs:
        code = cli.main(inv.argv(str(tmp_path)))
        points = inv.config["grid"]["points"] if inv.config else None
        verify.compare(_output(inv, str(tmp_path), code),
                       REFERENCE["workloads"][workload][inv.key], points,
                       f"{workload}/{inv.key}")
