"""Each demo's stdout is pinned: a change that alters what a demo prints
must update the digest here on purpose."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# SHA-256 of each demo's stdout
DEMO_STDOUT_SHA256 = {
    "01_templates_and_trees.py": "6d62466df7293bb59f6cf91ab4a77a792b0ae32ddceea659bd7f19081589a124",
    "02_decision_procedures.py": "83f4d8d4ae9b0f7795716c978f3e53da90b286ef65dc7031fa3390a18ac4e08e",
    "03_signatures_and_saturation.py": "2bd20f553a6b84dda9a9a8bb41c5dbe6098f0b3e160bb4a3a4ecfaba7faae4d4",
}


def test_demo_stdout_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name, expected in DEMO_STDOUT_SHA256.items():
        proc = subprocess.run(
            [sys.executable, str(ROOT / "demos" / name)],
            env=env, capture_output=True, check=True, timeout=300,
        )
        assert hashlib.sha256(proc.stdout).hexdigest() == expected, name
