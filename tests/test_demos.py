"""The demos that call ``hales_check`` run to the end as scripts.

Each runs in a fresh interpreter from an empty temporary directory, with the
package imported from ``src/`` of this checkout, so a file a demo writes
lands in that directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["hexagonal_inequality.py", "honeycomb_certificate.py"])
def test_demo_exits_0(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
