"""Compare the pass time of two source trees in interleaved subprocesses.

    python3 tools/interleaved_passes.py BASE_TREE CHANGE_TREE \
        --workload identities --seed 0 --passes 60 --rounds 10

Each tree is the root of a source checkout.  A round starts one subprocess
per tree, alternating which tree goes first; each subprocess imports
pdmsusy from its tree's `src/` and the invocation list from its tree's
`perfbench/workloads.py` (read-only: no bytecode is written there), runs
one warm-up pass and then ``--passes`` passes of one workload and seed
through `pdmsusy.cli.main` at one BLAS thread, and reports its mean
seconds per pass, the statistic of `perfbench/run.py`'s `total_s`.  Runs
of the two trees that alternate within seconds see the same drift of the
host's speed, which separate fixed-time runs tens of seconds apart do not.

Prints, per tree, the median and quartiles of its rounds and the number of
rounds it was faster, then one JSON line with every round.  The exit codes
of the first pass must agree between the trees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy loads, here and in children


def child(tree: str, workload: str, seed: int, passes: int) -> None:
    """Run in a subprocess: time the passes of ``tree`` and print one JSON
    line, {"seconds": mean seconds per pass, "codes": first pass's exits}."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    sys.dont_write_bytecode = True

    import workloads
    from pdmsusy import cli

    invs = workloads.invocations(workload, seed)
    walls, codes = [], None
    with tempfile.TemporaryDirectory() as workdir:
        workloads.write_configs(invs, workdir)
        for k in range(passes + 1):             # the first is a warm-up
            t0 = time.perf_counter()
            exits = []
            for inv in invs:
                for stale in (inv.report_path(workdir),
                              inv.curves_path(workdir)):
                    if os.path.exists(stale):
                        os.remove(stale)
                try:
                    exits.append(cli.main(inv.argv(workdir)))
                except SystemExit as exc:
                    exits.append(exc.code)
            if k:
                walls.append(time.perf_counter() - t0)
            codes = codes or exits
    print(json.dumps({"seconds": statistics.fmean(walls), "codes": codes}))


def one_round(tree: str, args) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--child", tree,
            "--workload", args.workload, "--seed", str(args.seed),
            "--passes", str(args.passes)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="TREE",
                        help="base tree, then change tree")
    parser.add_argument("--workload", default="identities")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=60)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--child", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(os.path.abspath(args.child), args.workload, args.seed,
              args.passes)
        return
    if len(args.trees) != 2 or args.rounds < 2 or args.passes < 1:
        parser.error("give two trees, --rounds >= 2 and --passes >= 1")
    trees = [os.path.abspath(t) for t in args.trees]
    rounds = {tree: [] for tree in trees}
    codes = {}
    for r in range(args.rounds):
        for tree in trees if r % 2 == 0 else trees[::-1]:
            result = one_round(tree, args)
            rounds[tree].append(result["seconds"])
            codes.setdefault(tree, result["codes"])
    if codes[trees[0]] != codes[trees[1]]:
        sys.exit(f"exit codes differ: {codes}")
    base, change = (rounds[t] for t in trees)
    out = {"workload": args.workload, "seed": args.seed,
           "passes": args.passes, "rounds": args.rounds}
    for label, tree, won in (
            ("base", trees[0], sum(b < c for b, c in zip(base, change))),
            ("change", trees[1], sum(c < b for b, c in zip(base, change)))):
        stats = summary(rounds[tree])
        print(f"{label:6s} {tree}: median {stats['median'] * 1e3:.3f} ms "
              f"(quartiles {stats['q1'] * 1e3:.3f}-{stats['q3'] * 1e3:.3f}), "
              f"faster in {won} of {args.rounds} rounds")
        out[label] = {"tree": tree, "rounds_s": rounds[tree],
                      "rounds_won": won, **stats}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
