"""The benchmark's workloads: three `dowg` commands users run (why each
was chosen is recorded in BENCHMARK.json and README.md).

Inputs are the stock manufactured cases (M = 20, sigma_t = 2,
sigma_s = 1/2), fixed by the workload; nothing is drawn at random.
``smoke_levels`` shrinks a workload to seconds for the benchmark's own
test without changing its code path.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # `dowg` subcommand
    case: str
    k: int
    levels: tuple
    smoke_levels: tuple
    schemes: tuple
    nominal_tol: float = None  # the outer tolerance the command runs at
    known_fault: bool = False  # rows past the coarsest carry the iteration-error fault

    def argv(self, out, smoke=False):
        levels = self.smoke_levels if smoke else self.levels
        text = str(levels[0]) if len(levels) == 1 else f"{levels[0]}-{levels[-1]}"
        argv = [self.command, "--case", self.case, "--order", str(self.k),
                "--levels", text, "--out", out]
        if self.command == "solve":
            argv += ["--scheme", self.schemes[0]]
        return argv


M = 20

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-wg-q1", "solve", "example1", 1, (6,), (3,), ("wg",),
            nominal_tol=1e-9,
        ),
        Workload(
            "solve-dodsd-q1", "solve", "example1", 1, (7,), (3,), ("dodsd",),
            nominal_tol=1e-9,
        ),
        Workload(
            "compare-ex2-q2", "compare", "example2", 2, (3, 4, 5), (2, 3, 4),
            ("wg", "dodg", "dodsd"),
            known_fault=True,
        ),
    )
}
