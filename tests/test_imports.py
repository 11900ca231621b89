"""Import cost of the command-line entry point."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# scipy submodules whose import costs as much as a Monte Carlo command's
# work; tests may use them as oracles.  Importing the CLI loads none of
# them, nor top-level scipy, so `roc`, `cdf` and `calibrate`, which
# evaluate no closed form, load only top-level scipy, and only to write
# its version into the manifest.  `scipy.special` is the one the closed
# forms need, and they import it inside the functions that call it.
HEAVY = ("scipy.special", "scipy.stats", "scipy.optimize", "scipy.integrate")


def _run(code: str) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_loads_no_heavy_scipy_module():
    # nor top-level scipy: only a written manifest reads it, for its version
    done = _run("import sys, specsense.cli; "
                "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


def test_cli_import_loads_no_xml_module():
    # the SVG writer imports its escaper, which pulls in urllib.request,
    # only when it writes a figure
    done = _run("import sys, specsense.cli; "
                "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'xml'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


def test_validate_loads_no_scipy_stats():
    # the battery evaluates closed forms, so it may load scipy.special,
    # but none of the others
    rest = tuple(m for m in HEAVY if m != "scipy.special")
    done = _run(f"import sys, specsense.cli; code = specsense.cli.main(['validate']); "
                f"print('exit', code); print(*(m for m in {rest!r} if m in sys.modules))")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-2:] == ["exit 0", ""]
