"""solvhull benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload split_dim8 --seed 1 --seconds 10 --trace 0

Workloads (see README.md): split_dim8 and nilpotent call the library's
analyze in this process; cli_mix starts one ``python -m solvhull``
process per command.  A run generates its inputs from the seed, imports
solvhull from src/ next to this directory, and runs whole rounds of
operations until the operations have used --seconds of CPU time in
total.  Every output is checked against oracles.py.

Times are CPU seconds of the thread doing the work (this process's main
thread for the library workloads, the child for cli_mix): the code
under test is single-threaded, so on an idle machine its CPU time is its
wall time, and on a shared virtual machine CPU time leaves out the time
the host lends the CPU to other tenants.  The host also changes, from
one second to the next and by up to a factor of two, how much work a
CPU second does.  So the run pins itself (and its children) to one CPU,
a Speedometer thread times a fixed sliver of work on that CPU every
SAMPLE_PERIOD_S, and each time is scaled to the reference speed
UNIT_REF_S over the interval it was measured in (see README.md).

--trace 0 prints the end-to-end metrics.  --trace 1 runs one round
untraced and one round with the per-layer tracer installed (layers.py)
and prints the per-layer metrics.  The last line of standard output is
the result; a copy with every operation's CPU and wall time goes to
perfbench/_out/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction as Q
from pathlib import Path

import inputs
import layers
import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
CHILD_TIMEOUT_S = 150
SAMPLE_PERIOD_S = 0.025
# CPU seconds unit() takes at the reference speed: the median of 4000
# back-to-back samples on a shared 2-CPU virtual machine, Python 3.11.7.
UNIT_REF_S = 0.00135


def children_cpu_s() -> float:
    """CPU seconds used by the waited-for child processes so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def unit() -> float:
    """CPU seconds this thread takes for a fixed sliver of exact rational
    arithmetic, the kind of work solvhull's linalg does."""
    start = time.thread_time()
    acc = Q(0)
    for i in range(1, 180):
        acc += Q(i % 97 + 1, i % 13 + 1) * Q(i % 7 + 1, i % 5 + 2)
    return time.thread_time() - start


class Speedometer(threading.Thread):
    """Samples unit() every SAMPLE_PERIOD_S on the CPU the run is pinned
    to, so a time measured over an interval can be scaled to the reference
    speed over that same interval.  It uses about 5% of the CPU, outside
    the main thread's and the children's CPU times."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[tuple[float, float]] = []  # (perf_counter, unit CPU s)
        self.halt = threading.Event()

    def run(self):
        while True:
            cpu = unit()
            self.samples.append((time.perf_counter(), cpu))
            if self.halt.wait(SAMPLE_PERIOD_S):
                return

    def scale(self, window) -> float:
        """Factor from CPU seconds measured in window = (start, end) of
        perf_counter to reference-speed seconds."""
        w0, w1 = window
        inside = [c for t, c in self.samples if w0 <= t <= w1 + SAMPLE_PERIOD_S]
        if not inside:
            inside = [c for t, c in self.samples if t <= w1][-3:]
        return UNIT_REF_S / statistics.fmean(inside)

    def scaled(self, tally) -> list[float]:
        """The tally's operation times at the reference speed."""
        return [t * self.scale(w) for t, w in zip(tally.times, tally.windows)]


def import_solvhull():
    if not (SRC / "solvhull" / "__init__.py").is_file():
        sys.exit(f"error: no solvhull sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import solvhull  # noqa: F401
    from solvhull import iodoc, report
    return iodoc, report


class Tally:
    """Operation outcomes of a run."""

    def __init__(self):
        self.times: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.ops: list[tuple[str, str, float, float]] = []  # (slot, command, cpu s, wall s)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def record(self, case, elapsed, problems, crashed=False, window=(0.0, 0.0)):
        """elapsed is the operation's CPU time, window its perf_counter
        (start, end)."""
        self.attempted += 1
        if not crashed:
            self.times.append(elapsed)
            self.windows.append(window)
            self.ops.append((case.slot, case.command, elapsed, window[1] - window[0]))
        if crashed or problems:
            self.failed += 1
            self.wrong += 0 if crashed else 1
            print(f"FAILED {case.slot}/{case.command}: {'; '.join(problems)}", file=sys.stderr)

    @property
    def busy_s(self) -> float:
        return sum(self.times)


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------

def summary_from_report(r) -> dict:
    """The fields oracles.check_summary reads, from an AnalysisReport."""
    return {
        "valid": r.validation is None,
        "dim": r.dim,
        "algebra_betti": list(r.algebra_betti) if r.algebra_betti is not None else None,
        "model_dims": list(r.model_dims) if r.model_dims is not None else None,
        "model_betti": list(r.model_betti) if r.model_betti is not None else None,
        "hull_abelian": r.hull_abelian,
        "hull_torus_dim": r.hull_torus_dim,
        "nilradical_dim": r.nilradical_dim,
        "kahler": r.kahler.conclusion if r.kahler is not None else None,
        "formality": r.formality.status if r.formality is not None else None,
        "symplectic": r.symplectic.symplectic if r.symplectic is not None else None,
        "lefschetz": r.lefschetz.holds if r.lefschetz is not None else None,
    }


def library_round(iodoc, report, cases, docs, tally: Tally) -> None:
    for case, doc in zip(cases, docs):
        exp = oracles.expected(case)
        wall0, start = time.perf_counter(), time.thread_time()
        try:
            subject = iodoc.hull_data_of(doc) or iodoc.algebra_of(doc)
            rep = report.analyze(subject, omega=iodoc.omega_of(doc),
                                 massey_depth=doc.options.massey_depth,
                                 finite_bound=doc.options.finite_bound)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            tally.record(case, 0.0, [f"{type(exc).__name__}: {exc}"], crashed=True)
            continue
        elapsed = time.thread_time() - start
        window = (wall0, time.perf_counter())
        tally.record(case, elapsed, oracles.check_summary(exp, summary_from_report(rep)),
                     window=window)


# ---------------------------------------------------------------------------
# cli_mix
# ---------------------------------------------------------------------------

def cli_round(cases, tally: Tally, work: Path, trace_dir=None) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for n, case in enumerate(cases):
        exp = oracles.expected(case)
        path = work / f"doc{n}.json"
        path.write_text(case.text(), encoding="utf-8")
        args = [case.command, str(path), "--format", "structured"]
        if trace_dir is None:
            argv = [sys.executable, "-m", "solvhull"] + args
        else:
            argv = [sys.executable, str(HERE / "child.py"), str(trace_dir / f"op{n}.json")] + args
        wall0, start = time.perf_counter(), children_cpu_s()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            tally.record(case, 0.0, [f"timed out after {CHILD_TIMEOUT_S} s"], crashed=True)
            continue
        elapsed = children_cpu_s() - start
        window = (wall0, time.perf_counter())
        if proc.returncode not in (0, 2, 3, 4):
            tally.record(case, 0.0, [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"],
                         crashed=True)
            continue
        try:
            result = json.loads(proc.stdout)["result"] if proc.stdout.strip() else None
        except (ValueError, KeyError) as exc:
            tally.record(case, elapsed, [f"unreadable output: {exc}"], window=window)
            continue
        tally.record(case, elapsed, oracles.check_cli(exp, case.command, proc.returncode, result),
                     window=window)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
    speed = Speedometer()
    speed.start()
    started = time.perf_counter()
    draws = inputs.Draws(workload, seed)
    make_round = inputs.ROUNDS[workload]
    cases = make_round(draws)
    iodoc, report = import_solvhull()
    docs = [iodoc.parse_document(c.text()) for c in cases]
    setup_s = time.thread_time()  # CPU time of this thread since the process started
    setup_window = (started, time.perf_counter())

    library = workload != "cli_mix"
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)

    def one_round(round_cases, round_docs, tally, trace_dir=None):
        if library:
            library_round(iodoc, report, round_cases, round_docs, tally)
        else:
            cli_round(round_cases, tally, work, trace_dir)

    tally = Tally()
    if not trace:
        while True:
            one_round(cases, docs, tally)
            if tally.busy_s >= seconds:
                break
            cases = make_round(draws)
            docs = [iodoc.parse_document(c.text()) for c in cases]
    else:
        one_round(cases, docs, tally)
        cases = make_round(draws)
        traced = Tally()
        if library:
            tracer = layers.Tracer()
            tracer.install()
            docs = [iodoc.parse_document(c.text()) for c in cases]
            one_round(cases, docs, traced)
            snapshot = tracer.snapshot()
        else:
            one_round(cases, None, traced, trace_dir=work)
            snapshot = layers.empty_snapshot()
            for n in range(len(cases)):
                part = work / f"op{n}.json"
                if part.is_file():
                    layers.merge(snapshot, json.loads(part.read_text(encoding="utf-8")))
        overhead_s = sum(speed.scaled(traced)) - sum(speed.scaled(tally))
        tally.ops += traced.ops
        tally.attempted += traced.attempted
        tally.failed += traced.failed
        tally.wrong += traced.wrong

    speed.halt.set()
    speed.join()
    for leftover in work.iterdir():
        leftover.unlink()
    work.rmdir()

    if trace:
        metrics = layers.per_layer_metrics(snapshot, overhead_s)
        (OUT / f"trace-{workload}-{seed}.json").write_text(
            json.dumps(snapshot, indent=1, sort_keys=True), encoding="utf-8")
    else:
        who = resource.RUSAGE_SELF if library else resource.RUSAGE_CHILDREN
        scaled = speed.scaled(tally)
        busy_s = sum(scaled)
        metrics = {
            "setup_s": {"value": setup_s * speed.scale(setup_window), "unit": "s"},
            "ops_per_s": {"value": len(scaled) / busy_s if busy_s else 0.0, "unit": "ops/s"},
            "op_s_p50": {"value": statistics.median(scaled) if scaled else 0.0, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MB"},
        }
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    (OUT / f"result-{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(dict(result, ops=tally.ops, speed_samples=len(speed.samples)), indent=1) + "\n",
        encoding="utf-8")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
