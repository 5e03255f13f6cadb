"""Tests of the benchmark itself: tracer pass-through and output parity.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, check_full_search  # noqa: E402


class Boom(Exception):
    pass


def _fake_library():
    """Two namespaces: ``core`` defines the functions, ``user`` imports them."""
    core = types.ModuleType("core")
    sentinel = object()

    def leaf(x):
        return x

    def fail():
        raise Boom("raised inside")

    def outer(x):
        return core.leaf(x), core.leaf(sentinel)

    core.leaf, core.fail, core.outer = leaf, fail, outer
    user = types.ModuleType("user")
    user.leaf, user.fail, user.outer = leaf, fail, outer
    targets = [(f"core.{fn}", core, fn) for fn in ("leaf", "fail", "outer")]
    return core, user, targets, sentinel


def test_wrappers_pass_return_values_through():
    core, user, targets, sentinel = _fake_library()
    payload = [1, 2]
    tracer = tracing.Tracer(targets, [core, user])
    with tracer:
        assert user.leaf is core.leaf
        assert user.leaf(payload) is payload
        first, second = user.outer(payload)
        assert first is payload and second is sentinel
    totals = tracer.totals()
    assert totals["core.leaf"][0] == 3
    assert totals["core.outer"][0] == 1
    assert tracer.child_calls("core.outer", "core.leaf") == 2
    assert all(self_s >= 0 for _, self_s in totals.values())


def test_wrappers_pass_exceptions_through():
    core, user, targets, _ = _fake_library()
    tracer = tracing.Tracer(targets, [core, user])
    with tracer:
        with pytest.raises(Boom) as info:
            user.fail()
        assert str(info.value) == "raised inside"
        assert user.leaf(5) == 5  # the span stack recovered
    totals = tracer.totals()
    assert totals["core.fail"][0] == 1
    parents = np.frombuffer(tracer.parent, dtype=np.int_)
    assert (parents == -1).all()


def test_uninstall_restores_every_binding():
    core, user, targets, _ = _fake_library()
    before = (core.leaf, user.leaf, core.outer, user.outer)
    tracer = tracing.Tracer(targets, [core, user])
    with tracer:
        assert user.outer is not before[3]
    assert (core.leaf, user.leaf, core.outer, user.outer) == before


def test_self_time_excludes_children():
    core, user, targets, _ = _fake_library()
    tracer = tracing.Tracer(targets, [core, user])
    with tracer:
        user.outer(1)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    totals = tracer.totals()
    # outer's span covers both leaf spans; self times add up to outer's span
    assert totals["core.outer"][1] + totals["core.leaf"][1] == pytest.approx(dur[0])


def test_call_cost_comes_off_each_parent_per_child():
    core, user, targets, _ = _fake_library()
    tracer = tracing.Tracer(targets, [core, user])
    with tracer:
        user.outer(1)
    raw = tracer.totals()
    cost = 1e-3
    charged = tracer.totals(call_cost=cost)
    assert charged["core.outer"][1] == pytest.approx(raw["core.outer"][1] - 2 * cost)
    assert charged["core.leaf"] == raw["core.leaf"]


def test_reference_computation_takes_a_fraction_of_a_second():
    assert 0.0 < run.reference_seconds() < 10 * run.REF_NOMINAL_S


def test_measured_call_cost_is_small():
    assert 0.0 <= tracing.measure_call_cost() < 1e-4


def test_run_for_stops_on_step_time_and_calls_between_off_the_clock():
    steps, gaps = [], []

    def step():
        steps.append(1)
        time.sleep(0.01)

    def between(spent):
        gaps.append(spent)
        time.sleep(0.05)  # off the clock: must not end the run early

    run.run_for(0.035, step, between)
    assert len(steps) == 4
    assert len(gaps) == 3 and gaps == sorted(gaps)


def test_full_search_check_fails_an_early_hit():
    full = {"lagrangians": 135, "lagrangian_pairs": 135**2}
    miss = {"n": 3, "semi_clifford": False, "generalized_semi_clifford": False, "searched": full}
    assert check_full_search(miss) is None
    assert check_full_search({**miss, "generalized_semi_clifford": True}) is not None
    assert check_full_search({**miss, "searched": {"lagrangians": 135}}) is not None


@pytest.fixture(scope="module")
def cli():
    return run.import_library()


@pytest.mark.parametrize("name", ["classify_n3", "normalform_expand"])
def test_traced_round_matches_untraced_digest(cli, tmp_path, name):
    jobs = WORKLOADS[name].make_round(np.random.default_rng(7), tmp_path)
    plain = run.Runner(cli, jobs)
    plain_outputs = plain.run_round()
    tracer, _ = tracing.library_tracer()
    traced = run.Runner(cli, jobs)
    with tracer:
        traced_outputs = traced.run_round()
    assert plain.failed == 0 and traced.failed == 0, plain.errors + traced.errors
    assert run.digest(traced_outputs) == run.digest(plain_outputs)
    assert tracer.totals()["cli.main"][0] == len(jobs)
    # the library is untouched once the tracer is gone
    assert sys.modules["semiclifford.pipeline"].compose is sys.modules["semiclifford.clifford"].compose


def test_tracer_patches_every_namespace_that_bound_a_function(cli):
    pipeline = sys.modules["semiclifford.pipeline"]
    clifford = sys.modules["semiclifford.clifford"]
    original = clifford.compose
    tracer, _ = tracing.library_tracer()
    with tracer:
        assert pipeline.compose is clifford.compose
        assert pipeline.compose is not original
        assert sys.modules["semiclifford"].compose is clifford.compose
    assert pipeline.compose is original


def test_inputs_repeat_for_a_seed(tmp_path):
    for name, workload in WORKLOADS.items():
        a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        a.mkdir()
        b.mkdir()
        jobs_a = workload.make_round(np.random.default_rng(3), a)
        jobs_b = workload.make_round(np.random.default_rng(3), b)
        assert [j.argv[:-1] for j in jobs_a] == [j.argv[:-1] for j in jobs_b]
        for path in a.iterdir():
            assert path.read_bytes() == (b / path.name).read_bytes()


def test_benchmark_fails_without_library_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gm7", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


@pytest.mark.parametrize("trace_flag, key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_every_declared_metric(trace_flag, key):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "normalform_expand", "--seed", "5"]
        + ["--seconds", "1", "--trace", str(trace_flag)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace_flag == 0:
        # the job times are their printed raw values times the reference scale
        lines = {line.split()[0]: line for line in proc.stdout.splitlines()[:-1]}
        scale = float(lines["reference_scale"].split()[1])
        raw = float(lines["job_p50_s"].split("raw ")[1].split()[0])
        assert result["metrics"]["job_p50_s"]["value"] == pytest.approx(raw * scale, rel=1e-3)
