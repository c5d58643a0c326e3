"""Baseline sanity check: serialization dominates the CLI on {4,-998}.

    python3 perfbench/baseline.py

Run from the root of a source checkout.  Replays CLI ``realize --format
dot`` and ``verify`` of {4,-998} (order 1503) with spans and fails
unless the formats layer (emit + parse) takes at least 10x the time of
realize + tis.  It also times the untraced CLI calls and two library
builds from the ROADMAP baseline table, and prints them beside the
figures recorded there.
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

from run import HERE, Runner, _last_json
from spans import self_times

LITERAL = "4,-998"
# measurement -> figure recorded before this benchmark existed, printed beside it
RECORDED = {
    "realize + tis {4,-998}": "0.16 s (library realize)",
    "formats.emit {4,-998} dot": "2.9 s",
    "formats.parse {4,-998} dot": "3.6 s",
    "CLI realize {4,-998} dot": "3.0 s, 143 MB",
    "CLI verify {4,-998} dot": "4.1 s, 266 MB",
    "library realize {4,-3998}": "1.45 s",
    "library realize {4,-9998}": "8.0-8.7 s, 966 MB",
}


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "imbalanceset" / "cli.py").is_file():
        print("error: run from the root of an imbalanceset source checkout", file=sys.stderr)
        return 2
    tmp = HERE / "out" / "tmp-baseline"
    tmp.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, tmp, time.perf_counter())
    try:
        return _check(runner, tmp)
    finally:
        runner.probe.close()
        shutil.rmtree(tmp, ignore_errors=True)


def _check(runner: Runner, tmp: Path) -> int:
    path, rpath = tmp / "g.dot", tmp / "r.dot"
    rows = {}
    realize = runner.cli("realize", LITERAL, "--format", "dot", "--out", str(path))
    verify = runner.cli("verify", str(path), LITERAL)
    if realize.exit_code != 0 or verify.exit_code != 0:
        print("error: CLI realize/verify failed", file=sys.stderr)
        return 1
    rows["CLI realize {4,-998} dot"] = f"{realize.wall:.2f} s, {realize.rss_mb:.0f} MB"
    rows["CLI verify {4,-998} dot"] = f"{verify.wall:.2f} s, {verify.rss_mb:.0f} MB"
    spans = []
    for argv in (["realize", LITERAL, "--format", "dot", "--out", str(rpath)],
                 ["verify", str(path), LITERAL]):
        spans += _last_json(runner.child("replay", argv[0], *argv))["spans"]
    st = self_times(spans)
    formats = st["formats.emit"] + st["formats.parse"]
    built = st["realize.max_realization"] + st["tis.complete"]
    rows["formats.emit {4,-998} dot"] = f"{st['formats.emit']:.2f} s"
    rows["formats.parse {4,-998} dot"] = f"{st['formats.parse']:.2f} s"
    rows["realize + tis {4,-998}"] = f"{built:.2f} s"
    for literal in ("4,-3998", "4,-9998"):
        child = runner.child("build", literal)
        out = _last_json(child)
        rows[f"library realize {{{literal}}}"] = f"{out['build_s']:.2f} s, {child.rss_mb:.0f} MB"
    print(f"{'measurement':32s} {'now':32s} recorded")
    for name, value in rows.items():
        print(f"{name:32s} {value:32s} {RECORDED[name]}")
    ratio = formats / built
    print(f"formats / (realize + tis) = {formats:.2f} s / {built:.3f} s = {ratio:.1f}x")
    if ratio < 10:
        print("FAIL: serialization no longer dominates by 10x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
