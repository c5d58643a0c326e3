"""The package surface and its import boundary.

Only code that builds, writes, reads or checks a matrix loads numpy, so
the boundary is checked in fresh interpreters: within this test process
numpy is always loaded already.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import imbalanceset

SRC = Path(imbalanceset.__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "data" / "golden_4_2_-2.dot"

CLI_CALL = """
import contextlib, io, json, sys
from imbalanceset.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main({argv!r})
print(json.dumps({{"code": code, "numpy": "numpy" in sys.modules}}))
"""
# What only a matrix needs: numpy, and the modules that build or check one.
MATRIX_MODULES = ("numpy", "imbalanceset.digraph", "imbalanceset.realize")
MATRIX_LOADED = f"[m for m in {MATRIX_MODULES!r} if m in sys.modules]"


def _fresh(code: str) -> dict:
    """Run code in a fresh interpreter and read the JSON of its last line."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestImportBoundary:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["decide", "4,-6"], 0),
            (["decide", "6,-10"], 2),
            (["decide", "4,2,-2", "--json"], 0),
            (["decide", "6,-10", "--json"], 2),
            (["bound", "4,-6"], 0),
            (["check", "2,0,-2", "--mode", "tournament"], 0),
            (["equal-sum", "4", "6", "--k", "3"], 0),
            (["--help"], 0),
        ],
    )
    def test_commands_without_a_matrix_never_load_numpy(self, argv, code):
        probe = f"print(json.dumps([code, {MATRIX_LOADED}]))\n"
        assert _fresh(CLI_CALL.format(argv=argv) + probe) == [code, []]

    def test_library_decision_and_bound_never_load_numpy(self):
        got = _fresh(
            "import json, sys, imbalanceset\n"
            "d = imbalanceset.decide_tis({4, -6})\n"
            "b = imbalanceset.order_upper_bound({4, -6})\n"
            f"print(json.dumps([d.verdict, d.order, b, {MATRIX_LOADED}]))"
        )
        assert got == [True, 15, 19, []]

    def test_realize_loads_numpy_and_writes_the_golden_file(self, tmp_path):
        out = tmp_path / "built.dot"
        argv = ["realize", "4,2,-2", "--format", "dot", "--out", str(out)]
        assert _fresh(CLI_CALL.format(argv=argv)) == {"code": 0, "numpy": True}
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_json_realize_loads_numpy_but_not_numpy_ma(self, tmp_path):
        # Emit dedupes the imbalances in a Python set; np.unique would load numpy.ma.
        out = tmp_path / "built.json"
        argv = ["realize", "4,2,-2", "--format", "json", "--out", str(out)]
        probe = 'print(json.dumps([code, [m for m in ("numpy", "numpy.ma") if m in sys.modules]]))\n'
        assert _fresh(CLI_CALL.format(argv=argv) + probe) == [0, ["numpy"]]
        assert json.loads(out.read_text())["imbalance_set"] == [4, 2, -2]


class TestPackageSurface:
    def test_every_export_is_its_submodules_object(self):
        for name in imbalanceset.__all__:
            module = import_module(f"imbalanceset.{imbalanceset._EXPORTS[name]}")
            assert getattr(imbalanceset, name) is getattr(module, name)

    def test_star_import_binds_all_of_all(self):
        namespace: dict = {}
        exec("from imbalanceset import *", namespace)
        for name in imbalanceset.__all__:
            assert namespace[name] is getattr(imbalanceset, name)

    def test_dir_lists_all(self):
        assert set(imbalanceset.__all__) <= set(dir(imbalanceset))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            imbalanceset.no_such_name
        assert not hasattr(imbalanceset, "numpy")

    def test_bare_import_loads_nothing_and_still_resolves_tis(self):
        got = _fresh(
            "import json, sys, imbalanceset\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('imbalanceset.'))\n"
            "print(json.dumps([loaded, imbalanceset.tis.__name__, imbalanceset.__version__]))"
        )
        assert got == [[], "imbalanceset.tis", imbalanceset.__version__]
