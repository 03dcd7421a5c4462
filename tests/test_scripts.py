"""The maintenance scripts run to completion on the shipped witnesses."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["calibrate.py", "run_witnesses.py"])
def test_script_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


def test_same_outputs_on_this_checkout_against_itself(monkeypatch, capsys):
    # the comparison of scripts/same_outputs.py, on the 20 pool entries
    pytest.importorskip("sympy")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "same_outputs", ROOT / "scripts" / "same_outputs.py")
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
    pool = same_outputs.inputs.witness_pool(ROOT)
    sets = {"classify": [{"surface": e["surface"], "plane": e["plane"]}
                         for e in pool],
            "lines": [{"surface": e["surface"]} for e in pool]}
    assert same_outputs.compare(str(ROOT), str(ROOT), sets)
    assert capsys.readouterr().out.splitlines() == [
        "classify: 20 inputs, same output (exit 0)",
        "lines: 20 inputs, same output (exit 0)"]
