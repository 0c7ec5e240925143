"""Alternating in-process timing of two acdterm source trees on one engine
workload of the benchmark.

    python3 tests/ab_passes.py PARENT_SRC CHANGE_SRC WORKLOAD [ROUNDS]

PARENT_SRC and CHANGE_SRC are directories that each hold an `acdterm`
package, such as the `src` of two checkouts. Both packages are loaded into
one interpreter, under the names `ab_parent` and `ab_change`. WORKLOAD is
leq_cycle, unify_chain or bool_width. The goals are those of one seed-3
pass, built by `bench/workloads.py`, which is imported and not changed. Each
tree parses the goals and the workload's program itself and calls its own
`engine.run`. So unify_chain is timed without the CLI, parser and printer
that the benchmark times around it.

First each tree runs the pass once, and the `format_step` text of every
step must be the same on both. Then each of ROUNDS rounds (default 20)
times one whole pass of each tree, and the tree that goes first alternates.
The script prints the median of the change's time over the parent's time
and the quartiles of that ratio. Both trees share one process, its heap and
the machine's state at that moment. Separate benchmark processes on a
shared VM can drift apart by up to a factor of two, so this script can
separate smaller ratios than paired `bench/run.py` runs.
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
# workload: (program file under bench/programs, number of its rules used,
# step budget), as bench/workloads.py runs it
PROGRAMS = {
    "leq_cycle": ("leq", 4, 100_000),
    "unify_chain": ("unify", None, 2000),
    "bool_width": ("bool", None, 10_000),
}


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


def pass_of(tree, workload: str, sources: list[str]):
    """A function that runs every goal once on the tree and returns the
    formatted trace lines of all of them."""
    engine = importlib.import_module(tree.__name__ + ".engine")
    rules = importlib.import_module(tree.__name__ + ".rules")
    name, kept, max_steps = PROGRAMS[workload]
    text = (BENCH / "programs" / f"{name}.acd").read_text(encoding="utf-8")
    program = rules.Program(tree.parse_program(text).rules[:kept])
    goals = [tree.parse_term(src) for src in sources]

    def one_pass() -> list[str]:
        lines = []
        for goal in goals:
            result = engine.run(program, goal, max_steps=max_steps)
            lines.extend(map(engine.format_step, result.trace))
        return lines

    return one_pass


def main(parent_src: str, change_src: str, workload: str, rounds: int) -> None:
    # workloads.py imports acdterm by its own name; the parent tree serves it
    sys.path[:0] = [str(BENCH), parent_src]
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        goals = workloads.WORKLOADS[workload]().setup(SEED, Path(workdir))
    sources = [goal.src for goal in goals]
    parent = pass_of(load_tree(parent_src, "ab_parent"), workload, sources)
    change = pass_of(load_tree(change_src, "ab_change"), workload, sources)
    lines = parent()
    if change() != lines:
        sys.exit("ab_passes: the two trees print different traces")
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
        f"{workload}: {len(goals)} goals, {len(lines)} steps a pass, {rounds} rounds; "
        f"change/parent time {median:.3f} (quartiles {q1:.3f}-{q3:.3f})"
    )


if __name__ == "__main__":
    if len(sys.argv) not in (4, 5) or sys.argv[3] not in PROGRAMS:
        sys.exit(__doc__.split("\n\n")[1])
    main(sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]) if len(sys.argv) > 4 else 20)
