"""Run every workload once and print each end-to-end metric.

    python3 perfbench/report.py

Each workload runs with seed 1 for the ``run_seconds`` of BENCHMARK.json.
It prints the git commit (when run inside a git checkout) and, for each
workload, every metric by name with its unit and sample count, as
``run.py`` reports them, along with the environment line (Python,
numpy and BLAS versions, pinned BLAS threads, nproc).  Exits 1 if any
workload fails an output check or does not finish.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

RUN_TIMEOUT_S = 600
SEED = 1


def git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    print(f"git {git_sha()}")
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name]
        cmd += ["--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"[{name}] did not finish within {RUN_TIMEOUT_S} s")
            ok = False
            continue
        for line in proc.stdout.splitlines()[:-1]:
            print(f"[{name}] {line}")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"[{name}] FAILED with exit code {proc.returncode}")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
