"""pdmsusy benchmark: drives the public CLI entry ``pdmsusy.cli.main`` through
one workload's invocation list for a fixed time and checks every output.

    python3 perfbench/run.py --workload identities --seed 3 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The line before it carries the machine facts.
``--write-reference`` records the reference outputs of the reference seed
for every workload into ``perfbench/reference.json``.
"""

import os
import sys

# The workload process runs single-threaded BLAS, which must be fixed
# before numpy loads: with 2 threads `residuals` varied by a third between
# runs, with 1 by a few percent.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, os.cpu_count() or 1))

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5

sys.path.insert(0, HERE)

import facts          # noqa: E402
import verify         # noqa: E402
import workloads      # noqa: E402
from tracer import ASSEMBLY, CLI_SELF, Tracer   # noqa: E402

COMMANDS = ("check", "convergence", "spectrum", "paper-examples", "curves")

# Spans each workload must record, and spans it must not record; a span
# whose function no longer exists is not required.
MUST_FIRE = {
    "identities": ("cli.main", "cli.run", "cli.paper_examples",
                   "cli.emit_curves", "expr.parse", "expr.differentiate",
                   "expr.evaluate_many", "model.symmetry_report",
                   "model.validate", "susy1.build_first_order",
                   "susy2.build_second_order",
                   "susy2.scan_superpotential_zeros",
                   "discrete.riccati_residual",
                   "discrete.wavefunction_from_log_derivative"),
    "residuals": ("cli.main", "cli.run", "expr.evaluate_many",
                  "discrete.assemble_hamiltonian", "discrete.assemble_charge",
                  "discrete.parity_matrix", "discrete.constraint_residuals",
                  "discrete.convergence_study"),
    "spectra": ("cli.main", "cli.run", "cli.spectrum_report",
                "expr.evaluate_many", "discrete.assemble_hamiltonian",
                "discrete.assemble_charge", "discrete.dense_eigenvalues",
                "discrete.conjugate_pairing_distance",
                "discrete.wavefunction_from_log_derivative"),
}
MUST_NOT_FIRE = {
    "identities": ("discrete.constraint_residuals", "discrete.dense_eigenvalues"),
    "residuals": ("discrete.dense_eigenvalues",),
    "spectra": ("discrete.constraint_residuals",),
}


def setup(workload: str, seed: int, workdir: str):
    """Everything a run does before its first invocation: import the
    program, write the generated configs, load the reference."""
    from pdmsusy import cli
    invs = workloads.invocations(workload, seed)
    workloads.write_configs(invs, workdir)
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    return cli, invs, reference


def timed_setups(workload: str, seed: int) -> list:
    """Wall time from process start until set-up is done, in fresh
    processes so that imports are paid each time."""
    times = []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                "--workload", workload, "--seed", str(seed)]
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline().strip()
            t1 = time.perf_counter()
            child.stdout.read()
            if child.wait(timeout=120) != 0 or line != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        times.append(t1 - t0)
    return times


def call(cli, argv) -> object:
    """Exit code of one CLI invocation, or the name of what it raised.
    ``cli.main`` is looked up per call so that a traced pass calls the
    wrapper."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:        # counted as a failed invocation
        traceback.print_exc(file=sys.stderr)
        return f"raised {type(exc).__name__}"


def read_output(inv, workdir: str, exit_code):
    """The summarized output of one invocation; an unreadable report or CSV
    leaves only the exit code, which then fails the comparison."""
    report = curves = None
    try:
        if inv.command == "curves":
            with open(inv.curves_path(workdir), encoding="utf-8") as fh:
                curves = fh.read()
        else:
            with open(inv.report_path(workdir), encoding="utf-8") as fh:
                report = json.load(fh)
        return verify.summarize(exit_code, report, curves)
    except (OSError, ValueError, TypeError, KeyError, IndexError):
        return verify.summarize(exit_code, None, None)


def check_output(inv, got, reference, workload, seed) -> str | None:
    """None when the output is correct, else the reason it is not."""
    where = f"{workload}/{inv.key}"
    ref = reference["workloads"][workload].get(inv.key)
    points = inv.config["grid"]["points"] if inv.config else None
    try:
        if ref is None:
            raise verify.Mismatch(f"{where}: no reference recorded")
        if inv.seeded and seed != reference["seed"]:
            verify.check_without_reference(got, inv, where)
        else:
            verify.compare(got, ref, points, where)
    except verify.Mismatch as exc:
        return str(exc)
    return None


def run_pass(cli, invs, workdir, tracer=None, first_id=0):
    """Run every invocation once; returns [(invocation, exit, seconds)]."""
    records = []
    for k, inv in enumerate(invs):
        if tracer is not None:
            tracer.invocation = first_id + k
        for stale in (inv.report_path(workdir), inv.curves_path(workdir)):
            if os.path.exists(stale):
                os.remove(stale)
        argv = inv.argv(workdir)
        t0 = time.perf_counter()
        code = call(cli, argv)
        records.append((inv, code, time.perf_counter() - t0))
    return records


def measure(args, cli, invs, reference, workdir, tracer):
    """Repeat the invocation list until ``--seconds`` is used up; a new pass
    starts only if it is expected to end in time.  A traced run alternates
    untraced and traced passes and makes at least one of each."""
    passes, failures, attempted = [], [], 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            records = run_pass(cli, invs, workdir,
                               tracer if traced else None,
                               first_id=len(passes) * len(invs))
        finally:
            if traced:
                tracer.uninstall()
        wall = time.perf_counter() - t0
        curves_bytes = 0
        for inv, code, _ in records:
            attempted += 1
            got = read_output(inv, workdir, code)
            problem = check_output(inv, got, reference, args.workload, args.seed)
            if problem is not None:
                failures.append(problem)
            if inv.command == "curves" and os.path.exists(inv.curves_path(workdir)):
                curves_bytes += os.path.getsize(inv.curves_path(workdir))
        passes.append({"traced": traced, "wall": wall, "records": records,
                       "curves_bytes": curves_bytes})
        elapsed = time.perf_counter() - start
        need_traced = tracer is not None and len(passes) < 2
        if not need_traced and elapsed + wall > args.seconds:
            return passes, failures, attempted


# Timings are means over every pass of a run, not medians: on a 2-core KVM
# guest (Intel Xeon, 2.1 GHz) the speed drifts by up to +-20% over tens of
# seconds, and over simulated 36 s runs the mean pass time spread 12%
# between runs where the median spread 20%.

def command_means(passes) -> dict:
    """Per command: mean wall time of one invocation over the run."""
    out = {}
    for command in COMMANDS:
        times = [dt for p in passes for inv, _, dt in p["records"]
                 if inv.command == command]
        out[command] = statistics.fmean(times) if times else 0.0
    return out


def end_to_end(passes, setup_times) -> dict:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "total_s": (statistics.fmean(p["wall"] for p in passes), "s"),
        "check_s": (command_means(passes)["check"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(passes, tracer: Tracer) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    k = len(traced)
    stats = tracer.aggregate()

    def stat(name, key):
        return stats[name][key] / k if name in stats else 0.0

    def layer_self(prefix):
        return sum(s["self_s"] for name, s in stats.items()
                   if name.startswith(prefix)) / k

    observed = tracer.observed
    points = sum(n for n, _ in observed["expr.evaluate_many"]) / k
    many_self = stat("expr.evaluate_many", "self_s")
    assembly = [o for name in ASSEMBLY for o in observed[name]]
    eig = observed["discrete.dense_eigenvalues"]
    tree, dag, objects = (sum(col) / k for col in zip(*tracer.vtilde_sizes)) \
        if tracer.vtilde_sizes else (0.0, 0.0, 0.0)
    cmd = command_means(plain)
    m = {
        "expr.evaluate.calls": (stat("expr.evaluate", "calls"), "count"),
        "expr.evaluate.self_s": (stat("expr.evaluate", "self_s"), "s"),
        "expr.evaluate_many.calls": (stat("expr.evaluate_many", "calls"), "count"),
        "expr.evaluate_many.points": (points, "count"),
        "expr.evaluate_many.self_s": (many_self, "s"),
        "expr.evaluate_many.us_per_point": (
            1e6 * many_self / points if points else 0.0, "us"),
        "expr.differentiate.self_s": (stat("expr.differentiate", "self_s"), "s"),
        "expr.parse.self_s": (stat("expr.parse", "self_s"), "s"),
        "expr.errors": (sum(s["errors"] for name, s in stats.items()
                            if name.startswith("expr.")) / k, "count"),
        "expr.self_s": (layer_self("expr."), "s"),
        "expr.vtilde.tree_nodes": (tree, "count"),
        "expr.vtilde.dag_nodes": (dag, "count"),
        "expr.vtilde.object_nodes": (objects, "count"),
        "expr.vtilde.dag_share": (dag / tree if tree else 0.0, "1"),
        "model.symmetry_report.calls": (stat("model.symmetry_report", "calls"),
                                        "count"),
        "model.symmetry_report.self_s": (stat("model.symmetry_report", "self_s"),
                                         "s"),
        "model.validate.total_s": (stat("model.validate", "total_s"), "s"),
        "model.self_s": (layer_self("model."), "s"),
        "susy1.build_first_order.total_s": (
            stat("susy1.build_first_order", "total_s"), "s"),
        "susy2.build_second_order.total_s": (
            stat("susy2.build_second_order", "total_s"), "s"),
        "susy2.scan_superpotential_zeros.total_s": (
            stat("susy2.scan_superpotential_zeros", "total_s"), "s"),
        "susyn.energy_roots.calls": (stat("susyn.energy_roots", "calls"), "count"),
        "susy.self_s": (layer_self("susy"), "s"),
        "discrete.assemble.calls": (sum(stat(n, "calls") for n in ASSEMBLY),
                                    "count"),
        "discrete.assemble.self_s": (sum(stat(n, "self_s") for n in ASSEMBLY),
                                     "s"),
        "discrete.assemble.max_n": (max((n for n, _ in assembly), default=0),
                                    "count"),
        "discrete.assemble.bytes": (sum(b for _, b in assembly) / k, "B"),
        "discrete.constraint_residuals.calls": (
            stat("discrete.constraint_residuals", "calls"), "count"),
        "discrete.constraint_residuals.self_s": (
            stat("discrete.constraint_residuals", "self_s"), "s"),
        "discrete.convergence_study.total_s": (
            stat("discrete.convergence_study", "total_s"), "s"),
        "discrete.dense_eigenvalues.calls": (
            stat("discrete.dense_eigenvalues", "calls"), "count"),
        "discrete.dense_eigenvalues.self_s": (
            stat("discrete.dense_eigenvalues", "self_s"), "s"),
        "discrete.dense_eigenvalues.max_n": (max((n for n, _ in eig), default=0),
                                             "count"),
        "discrete.conjugate_pairing_distance.self_s": (
            stat("discrete.conjugate_pairing_distance", "self_s"), "s"),
        "discrete.riccati_residual.total_s": (
            stat("discrete.riccati_residual", "total_s"), "s"),
        "discrete.wavefunction_from_log_derivative.total_s": (
            stat("discrete.wavefunction_from_log_derivative", "total_s"), "s"),
        "discrete.self_s": (layer_self("discrete."), "s"),
        "cli.self_s": (sum(stat(n, "self_s") for n in CLI_SELF), "s"),
        "cli.curves.bytes_written": (
            sum(p["curves_bytes"] for p in traced) / k, "B"),
        "trace.overhead_frac": (
            statistics.fmean(p["wall"] for p in traced)
            / statistics.fmean(p["wall"] for p in plain) - 1.0, "1"),
        "trace.spans": (len(tracer.spans) / k, "count"),
        "trace.total_s": (statistics.fmean(p["wall"] for p in traced), "s"),
    }
    for command in COMMANDS:
        m[f"cli.{command.replace('-', '_')}.wall_s"] = (cmd[command], "s")
    return m


def write_reference() -> None:
    """Record the outputs of the reference seed for every workload."""
    from pdmsusy import cli
    out = {"seed": workloads.REFERENCE_SEED, "blas_threads": BLAS_THREADS,
           "workloads": {}}
    for workload in workloads.WORKLOADS:
        workdir = tempfile.mkdtemp(dir=WORK_ROOT)
        try:
            invs = workloads.invocations(workload, workloads.REFERENCE_SEED)
            workloads.write_configs(invs, workdir)
            out["workloads"][workload] = {
                inv.key: read_output(inv, workdir, code)
                for inv, code, _ in run_pass(cli, invs, workdir)}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


def main_entry(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(WORK_ROOT, exist_ok=True)
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        cli, invs, reference = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        setup_times = [] if args.trace else timed_setups(args.workload, args.seed)
        tracer = Tracer() if args.trace else None
        passes, failures, attempted = measure(args, cli, invs, reference,
                                              workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    for problem in failures:
        print(f"output check failed: {problem}", file=sys.stderr)
    correct = not failures
    if tracer is None:
        metrics = end_to_end(passes, setup_times)
    else:
        metrics = per_layer(passes, tracer)
        gaps = tracer.binding_gaps(MUST_FIRE[args.workload],
                                   MUST_NOT_FIRE[args.workload])
        for gap in gaps:
            print(f"trace self-check failed: {gap}", file=sys.stderr)
        correct = correct and not gaps

    context = facts.machine_facts(ROOT, BLAS_THREADS)
    context.update(workload=args.workload, seed=args.seed, passes=len(passes))
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main_entry())
