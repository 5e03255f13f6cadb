"""Benchmark of the semiclifford CLI verbs, end to end and per layer.

    python3 perfbench/run.py --workload gm7 --seed 1 --seconds 30 --trace 0

Drives the library only through ``semiclifford.cli.main([...])``, in
process, one verb call per job, on input files generated from the seed.
Load is a closed loop: one client, one job at a time, BLAS pinned to
one thread.  A workload's jobs form a round; rounds repeat until the
jobs have run for ``--seconds``, so every run finishes whole rounds.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
fresh processes, timed between rounds and off the job clock), jobs per
second, median job time (over the mean time of each job of the round)
and peak resident memory.  The three times are given at a fixed
reference speed: a fixed computation that does not use the library
(``reference_seconds``) is timed between rounds, and raw times are
scaled by ``REF_NOMINAL_S`` over its mean time in the run.  The host's
speed drifts by 20-60% over seconds to minutes, and the scale takes
most of that drift out of the figures; the raw times and the scale are
printed beside them.  ``--trace 1`` reports per-layer metrics from a
traced run: for each traced function its calls and self seconds, for
set-up plus one round, and the tracing overhead per round against
untraced rounds run alternately with the traced ones in the same
process.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every job's
output is checked; the exit code is 1 if any check fails.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import setup_probe  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 15
REF_NOMINAL_S = 0.15
REF_EVERY_S = 1.5
PROBE_TIMEOUT_S = 60
P90_MIN_JOBS = 100


class Runner:
    """Runs rounds of jobs through ``cli.main`` and checks each output."""

    def __init__(self, cli_module, jobs):
        self.cli = cli_module
        self.jobs = jobs
        self.first_outputs = None
        self.times = [[] for _ in jobs]  # wall seconds of each job, one per round
        self.round_walls = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _fail(self, job, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{' '.join(job.argv)}: {message}")

    def run_round(self):
        outputs = []
        t_round = time.perf_counter()
        for job, times in zip(self.jobs, self.times):
            buf = io.StringIO()
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = self.cli.main(list(job.argv))
            except Exception as exc:  # a crash is a failed job, not a dead run
                self._fail(job, f"raised {type(exc).__name__}: {exc}")
                outputs.append(None)
                continue
            times.append(time.perf_counter() - t0)
            text = buf.getvalue()
            outputs.append(text)
            if code != 0:
                self._fail(job, f"exit code {code}: {text.strip()[:200]}")
                continue
            if self.first_outputs is not None and text != self.first_outputs[len(outputs) - 1]:
                self._fail(job, "output differs from the first round")
                continue
            try:
                message = job.check(json.loads(text))
            except (ValueError, KeyError, TypeError) as exc:
                message = f"unreadable output: {exc!r}"
            if message is not None:
                self._fail(job, message)
        self.round_walls.append(time.perf_counter() - t_round)
        if self.first_outputs is None:
            self.first_outputs = outputs
        return outputs


def run_for(seconds, step, between=None):
    """Call ``step`` until the calls have taken ``seconds``, at least once.

    ``between(spent)`` runs after every call but the last, off the clock.
    """
    spent = 0.0
    while True:
        t0 = time.perf_counter()
        step()
        spent += time.perf_counter() - t0
        if spent >= seconds:
            return
        if between is not None:
            between(spent)


_REF_RNG = np.random.default_rng(0)
_REF_MATS = [_REF_RNG.integers(0, 2, (14, 14), dtype=np.uint8) for _ in range(16)]


def reference_seconds():
    """Wall seconds of a fixed computation shaped like the library's jobs.

    Python dict and integer work plus products of 14x14 bit matrices,
    the operations that dominate ``gf2`` and ``clifford``.  It takes
    about ``REF_NOMINAL_S`` on a 2-vCPU x86-64 VM at 2.1 GHz; that
    constant only fixes the unit of the scaled times.
    """
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(150_000):
        table[i & 1023] = (i, acc)
        acc += len(table) ^ i
    m = _REF_MATS[0]
    for i in range(12_000):
        m = (_REF_MATS[i & 15] @ m) & 1
        if not m.any():
            m = _REF_MATS[1]
    return time.perf_counter() - t0


def digest(outputs):
    h = hashlib.sha256()
    for text in outputs:
        h.update(b"\0" if text is None else text.encode())
    return h.hexdigest()


def import_library():
    if not (SRC / "semiclifford" / "__init__.py").is_file():
        sys.exit(f"error: no library source at {SRC / 'semiclifford'}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("semiclifford")
    if Path(pkg.__file__).resolve().parent != SRC / "semiclifford":
        sys.exit(f"error: imported semiclifford from {pkg.__file__}, not {SRC}")
    return importlib.import_module("semiclifford.cli")


def measure_setup(workload):
    """Seconds of set-up in one fresh process; see setup_probe.py."""
    argv = [sys.executable, str(HERE / "setup_probe.py")]
    argv += ["--gens", ",".join(map(str, workload.gen_qubits))]
    argv += ["--lags", ",".join(map(str, workload.lag_qubits))]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
    }


def run_timed(cli, workload, jobs, seconds):
    # Set-up probes and reference timings are spread over the run,
    # between rounds and off the job clock, so that they see the machine
    # at the moments the jobs do.  This process waits idle while a probe
    # runs.  The host's speed flips between two levels about 1.6x apart
    # every few seconds; the mean of the reference timings tracks the
    # share of the run spent at each, so it sets the scale.
    setup, refs = [], [reference_seconds()]

    def between_rounds(spent):
        if spent >= len(setup) * seconds / SETUP_PROBES:
            setup.append(measure_setup(workload))
        if spent >= len(refs) * REF_EVERY_S:
            refs.append(reference_seconds())

    between_rounds(0.0)
    setup_probe.fill_tables(workload.gen_qubits, workload.lag_qubits)
    runner = Runner(cli, jobs)
    run_for(seconds, runner.run_round, between_rounds)
    refs.append(reference_seconds())
    setup += [measure_setup(workload) for _ in range(SETUP_PROBES - len(setup))]
    scale = REF_NOMINAL_S / statistics.mean(refs)
    setup_raw = statistics.median(setup)
    rounds = len(runner.round_walls)
    wall = sum(runner.round_walls)
    # A job repeats once a round, and its mean over the rounds spans the
    # host's fast and slow spells in the proportion the whole run saw.
    # The median is taken over those means: one job time per job of the
    # round.  A median over all single job times would jump between the
    # host's two speed levels with the share of jobs timed at each.
    jobs_done = sum(map(len, runner.times))
    job_means = [statistics.mean(t) for t in runner.times if t]
    p50_raw = statistics.median(job_means)
    metrics = {
        "setup_s": (
            setup_raw * scale,
            "s",
            f"median of {len(setup)} fresh processes; raw {setup_raw:.6g} s",
        ),
        "jobs_per_s": (
            jobs_done / wall / scale,
            "1/s",
            f"{jobs_done} jobs in {rounds} rounds; raw {jobs_done / wall:.6g} 1/s",
        ),
        "job_p50_s": (
            p50_raw * scale,
            "s",
            f"median of {len(job_means)} per-job means over {rounds} rounds; raw {p50_raw:.6g} s",
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
            "whole run",
        ),
    }
    extra = {}
    if jobs_done >= P90_MIN_JOBS:
        p90 = statistics.quantiles([t for ts in runner.times for t in ts], n=10)[-1]
        extra["job_p90_s"] = (p90 * scale, "s", f"n={jobs_done} jobs; raw {p90:.6g} s")
    extra["reference_scale"] = (
        scale,
        "ratio",
        f"{REF_NOMINAL_S} s over the mean of {len(refs)} reference timings",
    )
    return runner, metrics, extra


def run_traced(cli, workload, jobs, seconds, span_path):
    # One untraced warm-up round, then traced and untraced rounds in
    # alternating order, so that the overhead compares rounds run at
    # the same moment and the slower first round is in neither.
    call_cost = tracing.measure_call_cost()
    tracer, counters = tracing.library_tracer()
    with tracer:
        setup_probe.fill_tables(workload.gen_qubits, workload.lag_qubits)
    round_lo = tracer.span_count()
    traced, plain = Runner(cli, jobs), Runner(cli, jobs)
    plain.run_round()

    def traced_round():
        with tracer:
            traced.run_round()

    def pair():
        steps = (traced_round, plain.run_round)
        for step in steps if len(traced.round_walls) % 2 == 0 else reversed(steps):
            step()

    run_for(seconds, pair)
    tracer.save(span_path)

    rounds = len(traced.round_walls)
    setup_totals = tracer.totals(0, round_lo, call_cost)
    round_totals = tracer.totals(round_lo, call_cost=call_cost)
    metrics = {}
    for name in tracing.SPAN_NAMES:
        calls0, self0 = setup_totals[name]
        calls, self_s = round_totals[name]
        metrics[f"{name}.calls"] = (calls0 + calls / rounds, "count", "set-up + 1 round")
        metrics[f"{name}.self_s"] = (self0 + self_s / rounds, "s", "set-up + 1 round")

    def ratio(num, den):
        return num / den if den else 0.0

    gf2 = importlib.import_module("semiclifford.gf2")
    lagrangians = counters.lagrangians_tried(gf2.enumerate_lagrangians)
    pairs = tracer.child_calls("classify.is_generalized_semi_clifford", "dense.monomial_check", round_lo)
    overhead = [t - u for t, u in zip(traced.round_walls, plain.round_walls[1:])]
    metrics.update(
        {
            "pipeline.build_fmap.kernel_ratio": (
                ratio(counters.kernel_kept, counters.products_scanned),
                "ratio",
                f"of {counters.products_scanned} products scanned",
            ),
            "dense.extract_rep.clifford_ratio": (
                ratio(counters.extract_clifford, counters.extract_calls),
                "ratio",
                f"of {counters.extract_calls} calls",
            ),
            "dense.monomial_check.hit_ratio": (
                ratio(counters.monomial_hits, counters.monomial_calls),
                "ratio",
                f"of {counters.monomial_calls} calls",
            ),
            "classify.pairs_tried": (pairs / rounds, "count", "per round"),
            "classify.lagrangians_tried": (lagrangians / rounds, "count", "per round"),
            "trace.call_cost_s": (
                call_cost,
                "s",
                "per traced call, taken off its caller's self_s",
            ),
            "trace.overhead_s": (
                statistics.mean(overhead),
                "s",
                f"per round, mean of {len(overhead)} traced - untraced pairs",
            ),
        }
    )
    return traced, plain, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cli = import_library()
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]
    workdir = Path("perfbench") / "_work" / f"{workload.name}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = workload.make_round(np.random.default_rng(args.seed), workdir)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace} jobs/round {len(jobs)}")
    print("env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    if args.trace:
        traced, plain, metrics = run_traced(cli, workload, jobs, args.seconds, workdir / "spans.npz")
        runners, extra = (traced, plain), {}
        digests = {digest(traced.first_outputs), digest(plain.first_outputs)}
        if len(digests) != 1:
            plain._fail(jobs[0], "traced and untraced outputs differ")
    else:
        runner, metrics, extra = run_timed(cli, workload, jobs, args.seconds)
        runners = (runner,)
        digests = {digest(runner.first_outputs)}

    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    for r in runners:
        for err in r.errors:
            print(f"FAIL {err}", file=sys.stderr)
    print("digest " + " ".join(sorted(digests)))
    for name, (value, unit, note) in {**metrics, **extra}.items():
        print(f"{name} {value!r} {unit} ({note})")
    print(f"fail_ratio {failed}/{attempted}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
