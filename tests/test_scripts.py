"""The scripts under scripts/ run to completion in process."""

import runpy
from pathlib import Path


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name):
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0)


def test_run_counterexample(capsys):
    _run("run_counterexample.py")
    out = capsys.readouterr().out
    assert "U^2 = I: True" in out and "V^2 = I: True" in out
    assert "hierarchy level of UV: 3" in out
    assert "sigma_x on R is Clifford: False" in out
    assert "'span_full': True" in out


def test_survey_sp4_involutions(capsys):
    _run("survey_sp4_involutions.py")
    out = capsys.readouterr().out
    assert "|Sp(4,2)| = 720" in out
    assert "involutions:" in out
