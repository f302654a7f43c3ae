"""Importing actreg loads no scipy; a statistic loads scipy.special only.

scipy.stats alone takes about a second and 60 MB to import, which every
CLI call and every worker process would pay. The check runs in a fresh
interpreter and looks at which modules are loaded, not at time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import actreg, actreg.cli
seen = {"import": scipy_modules()}
from actreg.stats import one_way_anova, tukey_hsd, two_way_anova_type2
one_way_anova({"a": [1.0, 2.0, 4.0], "b": [3.0, 5.0, 4.0]})
seen["one_way_anova"] = scipy_modules()
groups = {"a": [1.0, 2.0, 4.0], "b": [3.0, 5.0, 4.0], "c": [7.0, 6.0, 8.0]}
tukey_hsd(groups)
two_way_anova_type2([(a, b, float(i)) for i, (a, b) in
                     enumerate([("x", "u"), ("y", "u"), ("x", "v"), ("y", "v")] * 2)])
seen["tukey_and_two_way"] = scipy_modules()
print(json.dumps(seen))
"""


def test_import_loads_no_scipy_and_a_statistic_loads_only_special():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                            text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout)
    assert seen["import"] == []
    for stage in ("one_way_anova", "tukey_and_two_way"):
        assert "scipy.special" in seen[stage], stage
        assert not [m for m in seen[stage] if m.startswith("scipy.stats")], stage
