"""Import cost of the command-line entry point."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# scipy submodules that take longer to import than the whole CLI; tests
# may use them as oracles, the package must not load them on import
HEAVY = ("scipy.stats", "scipy.optimize", "scipy.integrate")


def test_cli_import_loads_no_heavy_scipy_module():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    code = (f"import sys, specsense.cli; "
            f"print(*(m for m in {HEAVY!r} if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
