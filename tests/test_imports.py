"""The package surface and its import boundary.

Only code that builds, writes, reads or checks a matrix loads numpy,
and only JSON output or a JSON graph loads json; no command without a
matrix loads dataclasses or its inspect.  So the boundary is checked in
fresh interpreters: within this test process these are loaded already.
"""

import ast
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

# The modules loaded are read into ``loaded`` before the call's own
# report imports json.
CLI_CALL = """
import contextlib, io, sys
from imbalanceset.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main({argv!r})
loaded = set(sys.modules)
import json
print(json.dumps({{"code": code, "numpy": "numpy" in loaded}}))
"""


def _loaded(modules: tuple[str, ...]) -> str:
    """An expression: which of ``modules`` the snapshot ``loaded`` holds."""
    return f"[m for m in {modules!r} if m in loaded]"


# What only a matrix needs: numpy, and the modules that build or check one.
MATRIX_LOADED = _loaded(("numpy", "imbalanceset.digraph", "imbalanceset.realize"))
# What no command without a matrix needs, bar json for --json output.
START_UP_LOADED = _loaded(("dataclasses", "inspect", "json"))


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
    def test_commands_without_a_matrix_load_only_what_they_run(self, argv, code):
        probe = f"print(json.dumps([code, {MATRIX_LOADED}, {START_UP_LOADED}]))\n"
        json_loaded = ["json"] if "--json" in argv else []
        assert _fresh(CLI_CALL.format(argv=argv) + probe) == [code, [], json_loaded]

    def test_library_decision_and_bound_never_load_numpy(self):
        got = _fresh(
            "import json, sys, imbalanceset\n"
            "d = imbalanceset.decide_tis({4, -6})\n"
            "b = imbalanceset.order_upper_bound({4, -6})\n"
            "loaded = set(sys.modules)\n"
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

    @pytest.mark.parametrize("kind", ["dot", "edgelist"])
    def test_dot_and_edge_list_files_never_load_json(self, tmp_path, kind):
        path = tmp_path / f"built.{kind}"
        probe = f"print(json.dumps([code, {_loaded(('json',))}]))\n"
        for argv in (["realize", "4,2,-2", "--format", kind, "--out", str(path)], ["verify", str(path), "4,2,-2"]):
            assert _fresh(CLI_CALL.format(argv=argv) + probe) == [0, []], argv

    def test_no_module_imports_dataclasses(self):
        for path in Path(imbalanceset.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
            imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
            assert "dataclasses" not in imported, path.name


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

    def test_a_submodule_reads_as_an_attribute_before_it_loads(self):
        got = _fresh(
            "import json, sys, imbalanceset\n"
            "before = 'imbalanceset.formats' in sys.modules\n"
            "module = imbalanceset.formats\n"
            "print(json.dumps([before, module.__name__, module is sys.modules['imbalanceset.formats']]))"
        )
        assert got == [False, "imbalanceset.formats", True]


class TestRecordTypes:
    @pytest.mark.parametrize(
        "make, text",
        [
            (lambda: imbalanceset.landau_failure([0, 0, 2]), "CheckFailure(kind='prefix', index=2)"),
            (lambda: imbalanceset.min_odd_equal_sum({4}, {2}), "EqualSumWitness(xs=(4,), ys=(2, 2), common_sum=4)"),
            (
                lambda: imbalanceset.decide_tis({4, -6}, with_certificate=True),
                "TisDecision(verdict=True, refusal=None, order=15, certificate=Digraph(n=15, arcs=105), "
                "witness=EqualSumWitness(xs=(4, 4, 4), ys=(6, 6), common_sum=12), capped=None)",
            ),
            (
                lambda: imbalanceset.max_realization([1, -1]),
                "RealizationReport(graph=Digraph(n=2, arcs=1), arc_count=1, is_tournament=True, "
                "is_near_tournament=False, non_neighbour_pairing=())",
            ),
        ],
    )
    def test_named_tuples_with_repr_equality_hash_and_read_only_fields(self, make, text):
        record, again = make(), make()
        assert isinstance(record, tuple) and repr(record) == text
        assert record == again and hash(record) == hash(again)
        for name in (record._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_decision_defaults(self):
        assert imbalanceset.decide_tis({1, 3}) == imbalanceset.TisDecision(False, "one-sided")
