"""Print one digest per benchmark invocation, to compare two checkouts.

    python3 tools/output_digest.py > digests.txt

Run it from the root of a source checkout: pdmsusy is imported from `src/`
and the invocation lists from `perfbench/workloads.py`.  For every workload
it runs the invocations of the reference seed and of seed 3 through
`pdmsusy.cli.main` at one BLAS thread and prints one line per invocation:
workload, seed, key, exit code (or the name of the exception raised) and
the SHA-256 of its output.  The seeded configs change with the seed, so
seed 3 shows equal outputs on models the reference outputs do not hold.  The
output is the report JSON without `wall_clock_seconds`, dumped with sorted
keys, or the CSV for `curves`.  Two checkouts produce the same outputs when
`diff` of their digest files is empty.

Equal digests are a fact about one BLAS build, core type and thread count,
not a property of the code, so no test asserts them.
"""

import hashlib
import json
import os
import sys
import tempfile
import traceback

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy loads

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
sys.dont_write_bytecode = True      # leave perfbench/ as it is

import workloads                    # noqa: E402
from pdmsusy import cli             # noqa: E402


def exit_code(argv) -> object:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:        # named, so that a change shows
        traceback.print_exc(file=sys.stderr)
        return f"raised {type(exc).__name__}"


def output_bytes(inv, workdir: str) -> bytes:
    """The invocation's output; empty where it wrote none."""
    curves = inv.command == "curves"
    path = inv.curves_path(workdir) if curves else inv.report_path(workdir)
    if not os.path.exists(path):
        return b""
    if curves:
        with open(path, "rb") as fh:
            return fh.read()
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report.pop("wall_clock_seconds", None)
    return json.dumps(report, sort_keys=True).encode()


SEEDS = (workloads.REFERENCE_SEED, 3)


def main() -> None:
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            invs = workloads.invocations(workload, seed)
            with tempfile.TemporaryDirectory() as workdir:
                workloads.write_configs(invs, workdir)
                for inv in invs:
                    code = exit_code(inv.argv(workdir))
                    digest = hashlib.sha256(output_bytes(inv, workdir))
                    print(workload, seed, inv.key, code, digest.hexdigest())


if __name__ == "__main__":
    main()
