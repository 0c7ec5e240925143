"""Alternating in-process timing of two acdterm source trees on one workload
of the benchmark.

    python3 tests/ab_passes.py PARENT_SRC CHANGE_SRC WORKLOAD [ROUNDS]

PARENT_SRC and CHANGE_SRC are directories that each hold an `acdterm`
package, such as the `src` of two checkouts. Both packages are loaded into
one interpreter, under the names `ab_parent` and `ab_change`. WORKLOAD is
leq_cycle, unify_chain, bool_width or oracle_check. The goals are those of
one seed-3 pass, built by `bench/workloads.py`, which is imported and not
changed; every step budget and search bound is that module's. Each tree
parses the goals and the workload's programs itself and calls its own
`engine.run`, and on oracle_check its own `oracle.verify_trace` and
`oracle.search_normal_forms` too. So unify_chain is timed without the CLI,
parser and printer that the benchmark times around it.

First each tree runs the pass once, and both must give the same records:
the `format_step` text of every step, or on oracle_check each goal's steps,
verdict, explored states, truncation and printed normal forms. Then each of
ROUNDS rounds (default 20) times one whole pass of each tree, and the tree
that goes first alternates. The script prints the median of the change's
time over the parent's time and the quartiles of that ratio. Both trees
share one process, its heap and the machine's state at that moment.
Separate benchmark processes on a shared VM can drift apart by up to a
factor of two, so this script can separate smaller ratios than paired
`bench/run.py` runs.
"""

import importlib
import importlib.util
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 3
WORKLOADS = ("leq_cycle", "unify_chain", "bool_width", "oracle_check")


def load_tree(src: str, name: str):
    """The acdterm package under src, imported as the package `name`."""
    init = Path(src) / "acdterm" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def pass_of(tree, workloads, workload: str, goals):
    """A function that runs every goal once on the tree and returns the
    records of all of them."""
    engine = importlib.import_module(tree.__name__ + ".engine")
    oracle = importlib.import_module(tree.__name__ + ".oracle")
    rules = importlib.import_module(tree.__name__ + ".rules")

    def program(name: str, kept: int | None = None):
        text = (workloads.PROGRAMS / f"{name}.acd").read_text(encoding="utf-8")
        return rules.Program(tree.parse_program(text).rules[:kept])

    if workload == "oracle_check":
        programs = {name: program(name) for name in {goal.program for goal in goals}}
        cases = [(programs[goal.program], tree.parse_term(goal.src)) for goal in goals]

        def oracle_pass() -> list:
            records = []
            for prog, goal in cases:
                result = engine.run(prog, goal, max_steps=workloads.ORACLE_MAX_STEPS)
                verified = oracle.verify_trace(prog, goal, result.trace)
                found = oracle.search_normal_forms(
                    prog, goal, depth=workloads.ORACLE_DEPTH, width=workloads.ORACLE_WIDTH
                )
                normal_forms = sorted(map(tree.pretty, found.normal_forms))
                records.append(
                    (len(result.trace), verified, found.explored, found.truncated, normal_forms)
                )
            return records

        return oracle_pass

    # leq_cycle runs the first four rules of leq.acd, as its workload does
    prog, max_steps = {
        "leq_cycle": (program("leq", 4), workloads.LEQ_MAX_STEPS),
        "unify_chain": (program("unify"), workloads.UNIFY_MAX_STEPS),
        "bool_width": (program("bool"), workloads.BOOL_MAX_STEPS),
    }[workload]
    terms = [tree.parse_term(goal.src) for goal in goals]

    def engine_pass() -> list[str]:
        lines = []
        for goal in terms:
            result = engine.run(prog, goal, max_steps=max_steps)
            lines.extend(map(engine.format_step, result.trace))
        return lines

    return engine_pass


def main(parent_src: str, change_src: str, workload: str, rounds: int) -> None:
    # workloads.py imports acdterm by its own name; the parent tree serves it
    sys.path[:0] = [str(BENCH), parent_src]
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        goals = workloads.WORKLOADS[workload]().setup(SEED, Path(workdir))
    parent = pass_of(load_tree(parent_src, "ab_parent"), workloads, workload, goals)
    change = pass_of(load_tree(change_src, "ab_change"), workloads, workload, goals)
    records = parent()
    if change() != records:
        sys.exit("ab_passes: the two trees give different records")
    ratios = []
    for k in range(rounds):
        times = {}
        for side in (parent, change) if k % 2 == 0 else (change, parent):
            t0 = perf_counter()
            side()
            times[side] = perf_counter() - t0
        ratios.append(times[change] / times[parent])
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(
        f"{workload}: {len(goals)} goals, {len(records)} records a pass, {rounds} rounds; "
        f"change/parent time {median:.3f} (quartiles {q1:.3f}-{q3:.3f})"
    )


if __name__ == "__main__":
    if len(sys.argv) not in (4, 5) or sys.argv[3] not in WORKLOADS:
        sys.exit(__doc__.split("\n\n")[1])
    main(sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]) if len(sys.argv) > 4 else 20)
