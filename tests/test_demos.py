"""Every demo script runs to completion and prints exactly its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; a change to what a demo prints must update its pin
PINS = {
    "01_hypergraph_parity_extension": "9492667832dbdd0c079f8f41f9248c02e8b4cc6fcdfe36fe9b32300146da4f92",
    "02_palette_dichotomy": "37c707456f437bef94d0e612da151a62e691a3f920e2d54c0b549de9478ef35b",
    "03_orientations": "cbe3c60bb356642869d72b1c0adc93277fb83ad17312a8ae6b40d4b2351af80c",
    "04_hypertournaments_and_orders": "6f3f6c2688e61f9acd560150a4efa5997d1fef09d6b263a2d6573bfe95577ec8",
    "05_equivalence_refutation": "c5f784c9a861c029ab828c6cf7e48adc9b9b8074d52f78525dee03f4ab364783",
    "06_trees_and_levelings": "a5358f3fc1336025dabc3fb57efda00cd0ceef77b6d61361fcc329141997e314",
}


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6
    assert [demo.stem for demo in DEMOS] == sorted(PINS)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == PINS[demo.stem]
