"""The benchmark's tracer still finds every ringlab name it wraps."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Installing wraps ringlab's module attributes in place and registers a fork
# hook, so it runs in a child process rather than in the test process.
INSTALL = """
import sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import ringlab, spans
assert Path(ringlab.__file__).parent == Path(sys.argv[2]) / "ringlab", ringlab.__file__
spans.install(spans.Tracer(Path(sys.argv[3])))
"""


def test_tracer_installs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "perfbench"), str(ROOT / "src"), str(tmp_path)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
