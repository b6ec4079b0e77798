"""Run one workload of the logconnect benchmark and print its metrics.

    python3 perfbench/run.py --workload exact_layer --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md in
this directory for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import traceback

from common import OpFailed, WrongOutput

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = {
    "exact_layer": ("inprocess", "ExactLayer"),
    "monodromy_lift": ("inprocess", "MonodromyLift"),
    "cli_corpus": ("cli_corpus", "CliCorpus"),
}
SETUP_PROBES = 2  # fresh interpreters per run besides this one; setup_s is the median
FLOOR_SAMPLES = 3  # bare-interpreter and import starts per traced run

# per-layer metric -> (span, self time?); reported in ms per op
SPAN_METRICS = {
    "connections.to_log_connection_ms": ("connections.to_log_connection", False),
    "projective.projectivize_ms": ("projective.projectivize", False),
    "projective.reconstruct_ms": ("projective.reconstruct", False),
    "connections.equals_ms": ("connections.equals", False),
    "serialization.validate_schema_ms": ("serialization.validate_schema", False),
    "connections.residue_ms": ("connections.residue", False),
    "connections.poincare_normalize_ms": ("connections.poincare_normalize", True),
    "connections.poincare_defect_ms": ("connections.poincare_defect", False),
    "algebra.sylvester_solve_ms": ("algebra.sylvester_solve", False),
    "monodromy.transport_ms": ("monodromy.transport", False),
    "monodromy.projective_monodromy_ms": ("monodromy.projective_monodromy", True),
    "lifting.realize_fuchsian_ms": ("lifting.realize_fuchsian", True),
    "monodromy.standard_loops_ms": ("monodromy.standard_loops", False),
}
CLI_VERBS = ["check-flat", "residues", "monodromy", "projectivize", "reconstruct",
             "lift-trace-free", "predicates", "pullback", "normalize", "realize-local",
             "realize-fuchsian", "lift-rep", "exponent"]


def load_workload(name, seed):
    """Import the library through the workload and build its seeded inputs."""
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)(seed)


def setup(name, seed):
    """Imports, seeded inputs and one untimed, checked warm-up op.

    Returns the workload and the check's complaint about the warm-up output,
    if it had one.
    """
    wl = load_workload(name, seed)
    key, fn = wl.ops()[0]
    try:
        wl.check(key, fn(key))
    except OpFailed:
        pass  # the kept failing op may come first; warm-up counts nothing
    except WrongOutput as exc:
        print(f"WRONG OUTPUT (warm-up): {exc}", file=sys.stderr)
        return wl, [str(exc)]
    return wl, []


def process_age():
    """Seconds since this process started, from its start time in /proc."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def probe_setup_seconds(args):
    """Wall time from starting a fresh interpreter until its set-up is done."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as p:
        line = p.stdout.readline()
        elapsed = time.perf_counter() - start
        p.stdout.read()
    if p.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {p.returncode}")
    return elapsed


def process_ms(argv):
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
                   check=True, capture_output=True, timeout=120)
    return (time.perf_counter() - start) * 1e3


class Phase:
    """Whole rounds of a workload's ops until the run's seconds are used."""

    def __init__(self, wl, seconds, tracer=None):
        self.round_durations, self.keys, self.first_round = [], [], []
        self.failed, self.wrong, self.rounds = 0, [], 0
        self.round_spans = 0
        ops = wl.ops()
        self.per_round = len(ops)
        start = time.perf_counter()
        last = 0.0  # wall time of the last round; no round starts that would not end in time
        while self.rounds == 0 or time.perf_counter() - start + last <= seconds:
            round_start = time.perf_counter()
            # Rounds repeat identical inputs; without this, sympy's global cache
            # would make repeats cheaper than first sightings, and a run's
            # speed would depend on how many rounds fit in it.
            if "sympy" in sys.modules:
                sys.modules["sympy"].core.cache.clear_cache()
            gc.collect()  # each round starts from the same heap, outside any timing
            this_round = []
            for key, fn in ops:
                self.keys.append(key)
                t0 = time.perf_counter()
                try:
                    out = fn(key)
                except Exception:  # the library could not complete the op
                    this_round.append(time.perf_counter() - t0)
                    self.failed += 1
                    print(f"op {key} failed:\n{traceback.format_exc()}", file=sys.stderr)
                    continue
                this_round.append(time.perf_counter() - t0)
                self.check(wl, key, out)
                if self.rounds == 0 and tracer is not None:
                    self.first_round.append((key, out))
            last = time.perf_counter() - round_start
            self.round_durations.append(this_round)
            self.rounds += 1
            if self.rounds == 1 and tracer is not None:
                self.round_spans = len(tracer.spans)

    def check(self, wl, key, out):
        try:
            wl.check(key, out)
        except OpFailed as exc:
            self.failed += 1
            if self.rounds == 0:
                print(f"op failed: {exc}", file=sys.stderr)
        except WrongOutput as exc:
            self.wrong.append(str(exc))
            print(f"WRONG OUTPUT: {exc}", file=sys.stderr)

    @property
    def durations(self):
        """Every op's wall time, in the order the ops ran."""
        return [d for r in self.round_durations for d in r]

    @property
    def attempted(self):
        return self.rounds * self.per_round

    def op_times(self):
        """Each input's mean wall time over the run's rounds.

        Every round runs the same inputs in the same order.  The mean, not the
        median: on a shared host the machine's speed drifts by tens of percent
        over tens of seconds, and a mean over the whole run averages that best.
        """
        return [statistics.fmean(col) for col in zip(*self.round_durations)]


def end_to_end(phase, setup_times, spawns):
    who = resource.RUSAGE_CHILDREN if spawns else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": ((phase.attempted - phase.failed) / sum(phase.durations), "1/s"),
        "op_p50_ms": (statistics.median(phase.op_times()) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(phase, tracer, wl):
    ops = phase.attempted
    totals = tracer.totals()
    first = tracer.totals(0, phase.round_spans)
    out = {}
    for metric, (span, self_time) in SPAN_METRICS.items():
        row = totals.get(span, [0, 0.0, 0.0, 0])
        out[metric] = ((row[2] if self_time else row[1]) / ops * 1e3, "ms/op")
    normalizations = first.get("connections.poincare_normalize", [0])[0]
    out["connections.residue_calls"] = (
        first.get("connections.residue", [0])[0] / normalizations if normalizations else 0.0,
        "count")
    out["monodromy.rhs_evals"] = (sum(row[3] for row in first.values()), "count")
    by_tag = tracer.transport_by_tag()
    for metric, tag in (("monodromy.us_per_rhs_eval_fuchsian", "FuchsianSystem"),
                        ("monodromy.us_per_rhs_eval_lambdified", "LogConnection")):
        secs, nfev = by_tag.get(tag, (0.0, 0))
        out[metric] = (secs / nfev * 1e6 if nfev else 0.0, "us")
    counts = wl.round_counts(phase.first_round) if hasattr(wl, "round_counts") else {}
    for metric in ("ratfunc.den_degree_sum", "ratfunc.num_terms_sum"):
        out[metric] = (counts.get(metric, 0), "count")
    out.update(cli_layers(phase, wl))
    return out


def cli_layers(phase, wl):
    """Process floors always; per-verb and in-process times on cli_corpus."""
    out = {
        "cli.interpreter_ms": (statistics.median(
            process_ms([sys.executable, "-c", "pass"]) for _ in range(FLOOR_SAMPLES)), "ms"),
        "cli.import_ms": (statistics.median(
            process_ms([sys.executable, "-c", "import logconnect.cli"])
            for _ in range(FLOOR_SAMPLES)), "ms"),
    }
    spawns = getattr(wl, "spawns_processes", False)
    for verb in CLI_VERBS:
        times = [d for d, k in zip(phase.durations, phase.keys)
                 if spawns and wl.verb(k) == verb]
        out[f"cli.{verb}_ms"] = (statistics.median(times) * 1e3 if times else 0.0, "ms")
    out["cli.in_process_ms"] = (in_process_ms(wl) if spawns else 0.0, "ms")
    return out


def in_process_ms(wl):
    """Median time of the round's commands through click's in-process runner."""
    from click.testing import CliRunner
    module, attr = wl.target
    main = getattr(importlib.import_module(module), attr)
    runner = CliRunner()
    times = []
    for key, _ in wl.ops():
        args = [str(ROOT / a) if a.endswith(".json") else a for a in wl.commands[key]["args"]]
        t0 = time.perf_counter()
        runner.invoke(main, args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "logconnect" / "__init__.py").is_file():
        print(f"perfbench: no logconnect sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    wl, warm_up_wrong = setup(args.workload, args.seed)
    setup_times = [process_age()]
    if not args.trace:
        setup_times += [probe_setup_seconds(args) for _ in range(SETUP_PROBES)]
        print("set-up samples " + " ".join(f"{t:.3f}" for t in setup_times), file=sys.stderr)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    phase = Phase(wl, args.seconds, tracer)
    spawns = getattr(wl, "spawns_processes", False)
    if tracer is None:
        metrics = end_to_end(phase, setup_times, spawns)
    else:
        metrics = per_layer(phase, tracer, wl)
        traced_rate = (phase.attempted - phase.failed) / sum(phase.durations)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
        print(f"traced ops_per_s {traced_rate:.6g}", file=sys.stderr)
    correct = not (warm_up_wrong or phase.wrong)
    print(f"{args.workload} seed {args.seed}: {phase.attempted} ops in {phase.rounds} "
          f"rounds, {phase.failed} failed, {len(phase.wrong)} wrong", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
