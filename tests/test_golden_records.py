"""Twelve seeded runs reproduce the committed golden records.

``tests/golden_records.json`` was written by ``make_golden_records.py``.
Under the numpy version and BLAS kernel that wrote it, every value must
match exactly, parameter SHA-256s included. Another BLAS kernel rounds
matrix products differently, so elsewhere floats are compared within
REL_BOUND, everything else exactly, and the hashes are skipped.
"""

import json
import math

from make_golden_records import GOLDEN, environment, runs

# relative tolerance for floats when the BLAS kernel or numpy differs:
# forcing OpenBLAS's Sandybridge kernel on a SkylakeX host moved no value
# by more than 3e-14 relative
REL_BOUND = 1e-6


def _compare(want, got, path, exact):
    if isinstance(want, float) and not exact:
        assert isinstance(got, float), path
        assert math.isclose(got, want, rel_tol=REL_BOUND, abs_tol=0.0), (path, got, want)
    elif isinstance(want, dict):
        assert want.keys() == got.keys(), path
        for key in want:
            _compare(want[key], got[key], f"{path}/{key}", exact)
    elif isinstance(want, list):
        assert len(want) == len(got), path
        for i, (w, g) in enumerate(zip(want, got)):
            _compare(w, g, f"{path}[{i}]", exact)
    else:
        assert got == want and type(got) is type(want), (path, got, want)


def test_runs_reproduce_the_golden_records():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    here = environment()
    exact = here == golden["environment"]
    if not exact:
        print(f"golden records were written under {golden['environment']}, this is "
              f"{here}: floats compared within {REL_BOUND:g} relative, "
              f"parameter SHA-256s skipped")
    got = runs()
    assert got.keys() == golden["runs"].keys()
    for key, want in golden["runs"].items():
        if not exact:
            want = {k: v for k, v in want.items() if k != "sha256"}
            got[key].pop("sha256")
        _compare(want, got[key], key, exact)
    assert any(r["record"]["epochs_run"] < r["record"]["max_epochs"]
               for r in got.values()), "early stopping fired in no run"
