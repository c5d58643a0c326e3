"""End-to-end benchmark of the imbalanceset CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see workloads.py for why each was chosen):

* ``decide-even``  CLI ``decide`` on even sets (equal-sum search).
* ``realize-io``   CLI ``realize --out FILE`` then ``verify FILE`` (formats).
* ``build-large``  library ``realize_imbalance_set`` (construction, memory).

Every call runs in a fresh child process, one at a time (a closed loop
with one client).  A run measures whole passes over the seeded input
list: it starts another pass only while the last pass would still end
within ``--seconds``, and always makes at least one.  CLI calls are
timed from outside, process start included; a library build is timed
inside its child, so interpreter start is excluded (``setup_s`` holds
that).  Times are scaled to a reference host speed (see Probe).  Peak
memory is the child's own ``ru_maxrss`` from ``os.wait4``.

Every output is checked against the references in reference.py and
graphcheck.py, computed by the benchmark itself.  The
run prints the inputs, every metric with its unit, and on its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end with ``--trace 0``; per-layer with
``--trace 1``, from a stage-by-stage replay of each request with a
span around each stage).  Spans and per-call records are written to
``perfbench/out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from reference import check_decide, check_realize_stdout, check_verify, expected  # noqa: E402
from spans import self_times  # noqa: E402
from workloads import WORKLOADS, Input, generate  # noqa: E402

# Trivial calls timed for setup_s: some before the first pass and some
# after each pass, so the median samples the whole run.
SETUP_FIRST, SETUP_PER_PASS = 4, 2
CALL_TIMEOUT_S = 120.0
# No call starts later than this into a run, and none outlives HARD_STOP_S,
# so a run ends well inside three minutes even if the program stalls.
LAST_START_S = 140.0
HARD_STOP_S = 165.0
SUFFIX = {"dot": ".dot", "edgelist": ".edges", "json": ".json"}

END_TO_END_UNITS = {"setup_s": "s", "total_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "equalsum.search_s": "s",
    "equalsum.calls": "count",
    "equalsum.refusals": "count",
    "equalsum.witness_len": "count",
    "equalsum.dp_cells": "computed_cells",
    "formats.emit_s": "s",
    "formats.parse_s": "s",
    "formats.bytes": "bytes",
    "formats.arcs": "count",
    "realize.max_realization_s": "s",
    "realize.matrix_bytes": "computed_bytes",
    "tis.complete_s": "s",
    "tis.new_vertices": "count",
    "digraph.cert_check_s": "s",
    "sequences.expand_s": "s",
    "sequences.check_s": "s",
    "sequences.n": "count",
    "cli.file_io_s": "s",
    "cli.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Child:
    wall: float
    exit_code: int | None
    stdout: str
    stderr: str
    rss_mb: float
    timed_out: bool
    probe: dict[str, float]  # machine-speed probe around the call, see Probe


# Probe part -> its time on an unloaded host here (s); see Probe.
PROBE_REF_S = {"py": 0.010, "small": 0.0035, "large": 0.0055}
# A bare interpreter start with numpy on an unloaded host here (s); see _setup.
START_REF_S = 0.125


def scaled(seconds: float, probe: dict[str, float]) -> float:
    """A wall time scaled to the reference host speed.

    The factor is the geometric mean of PROBE_REF_S[part] / probe[part]
    over the probe's three parts.
    """
    factor = 1.0
    for part, ref in PROBE_REF_S.items():
        factor *= ref / probe[part]
    return seconds * factor ** (1 / len(PROBE_REF_S))


class Probe:
    """A helper process that times a fixed piece of work on request.

    Other tenants of a shared host slow everything on it by up to ~1.7x
    for seconds to minutes at a time.  The probe times interpreter work,
    small numpy bit operations and a 4 MB matrix pass just before and
    just after each call, and end-to-end times are scaled by it (see
    scaled()).  It lives in its own process so this one stays small:
    under vfork/exec a child's ru_maxrss starts from its parent's peak.
    """

    def __init__(self, root: Path, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "probe"], cwd=root, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self) -> dict[str, float]:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


class Runner:
    """Starts one child at a time and reaps it with os.wait4."""

    def __init__(self, root: Path, tmp: Path, t0: float):
        self.root = root
        self.tmp = tmp
        self.t0 = t0
        # The caller's PYTHON* settings (bytecode writing, buffering) would
        # change what is measured, so children get only the source path.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.probe = Probe(root, self.env)

    def can_start(self) -> bool:
        return time.perf_counter() - self.t0 < LAST_START_S

    def run(self, argv: list[str], probed: bool = True) -> Child:
        """Run one child; probed=False skips the speed probe for untimed calls."""
        timeout = min(CALL_TIMEOUT_S, self.t0 + HARD_STOP_S - time.perf_counter())
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        before = self.probe() if probed else {}
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            pidfd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                ready = poller.poll(max(timeout, 0.0) * 1000)
                wall = time.perf_counter() - start
                if not ready:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        after = self.probe() if probed else {}
        return Child(
            wall=wall,
            exit_code=None if not ready else proc.returncode,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
            rss_mb=usage.ru_maxrss / 1024.0,
            timed_out=not ready,
            probe={k: (before[k] + after[k]) / 2 for k in before},
        )

    def cli(self, *args: str, probed: bool = True) -> Child:
        return self.run([sys.executable, "-m", "imbalanceset", *args], probed)

    def child(self, *args: str, probed: bool = True) -> Child:
        return self.run([sys.executable, str(HERE / "child.py"), *args], probed)


def _failure(child: Child) -> str | None:
    if child.timed_out:
        return "timed out"
    if child.exit_code not in (0, 2):
        return f"exit {child.exit_code}: {child.stderr.strip()[-200:]}"
    return None


def _last_json(child: Child) -> dict:
    return json.loads(child.stdout.strip().splitlines()[-1])


class Pass:
    """Records of one pass over the inputs."""

    def __init__(self):
        self.calls: list[dict] = []
        self.spans: list[dict] = []
        self.layer_s: dict[str, float] = {}  # scaled self time per span name
        self.request_s = 0.0  # scaled duration of the replayed requests
        self.counts: dict[str, int] = {}
        self.traced_wall = 0.0
        self.untraced_wall = 0.0
        self.cli_unattributed = 0.0  # CLI wall time no non-cli layer or file I/O covers
        self.cli_requests = 0
        self.wall = 0.0

    def call(self, kind: str, inp: Input, timed_s: float, child: Child, error: str | None):
        self.calls.append({"kind": kind, "slot": inp.slot, "literal": inp.literal,
                           "timed_s": timed_s, "probe": child.probe,
                           "rss_mb": child.rss_mb, "error": error})
        return error is None

    def replayed(self, out: dict, untraced_s: float, traced_s: float, probe: dict, cli: bool):
        """Add one replay's spans and counts.

        untraced_s is already scaled; traced_s and the spans are scaled
        here by the probe taken around the replay child.
        """
        factor = scaled(1.0, probe)
        self.spans.extend(out["spans"])
        for k, v in out["counts"].items():
            self.counts[k] = max(self.counts.get(k, 0), v) if k == "realize.matrix_bytes" \
                else self.counts.get(k, 0) + v
        st = self_times(out["spans"])
        for k, v in st.items():
            self.layer_s[k] = self.layer_s.get(k, 0.0) + v * factor
        self.request_s += factor * sum(s["end"] - s["start"] for s in out["spans"]
                                       if s["name"] == "request")
        self.traced_wall += traced_s * factor
        self.untraced_wall += untraced_s
        if cli:
            layers = sum(v for k, v in st.items()
                         if k != "request" and (not k.startswith("cli.") or k == "cli.file_io"))
            self.cli_unattributed += untraced_s - layers * factor
            self.cli_requests += 1


def _decide_call(runner: Runner, inp: Input, trace: bool, rec: Pass,
                 request: str) -> bool:
    child = runner.cli("decide", inp.literal)
    err = _failure(child) or check_decide(inp.exp, child.exit_code, child.stdout)
    rec.call("decide", inp, child.wall, child, err)
    if trace and err is None:
        _replay(runner, rec, request, ["decide", inp.literal], scaled(child.wall, child.probe))
    return True


def _build_call(runner: Runner, inp: Input, trace: bool, rec: Pass,
                request: str) -> bool:
    exp = inp.exp
    child = runner.child("build", inp.literal, *(["--digest"] if trace else []))
    err = _failure(child)
    out = None
    if err is None:
        out = _last_json(child)
        err = out["error"] or (None if out["order"] == exp.order
                               else f"order {out['order']}, expected {exp.order}")
    rec.call("build", inp, out["build_s"] if out else child.wall, child, err)
    if not trace or err is not None:
        return True
    rchild = runner.child("replay", request, "build", inp.literal)
    rerr = _failure(rchild)
    rout = _last_json(rchild) if rerr is None else None
    if rout is None or rout["result"]["error"] or rout["result"]["digest"] != out["digest"]:
        rec.call("replay", inp, rchild.wall, rchild,
                 rerr or "replayed graph differs from realize_imbalance_set")
        return True
    request_span = next(s for s in rout["spans"] if s["name"] == "request")
    rec.replayed(rout, scaled(out["build_s"], child.probe),
                 request_span["end"] - request_span["start"], rchild.probe, False)
    return True


def _realize_io_call(runner: Runner, inp: Input, trace: bool, rec: Pass,
                     request: str) -> bool:
    """realize to a file, check the file, then verify it; False if time ran out."""
    exp = inp.exp
    path = runner.tmp / f"graph{SUFFIX[inp.fmt]}"
    try:
        child = runner.cli("realize", inp.literal, "--format", inp.fmt, "--out", str(path))
        err = _failure(child) or check_realize_stdout(exp, child.exit_code, child.stdout)
        if err is None:
            check = runner.child("check-file", str(path), inp.literal, probed=False)
            err = _failure(check) or _last_json(check)["error"]
        if not rec.call("realize", inp, child.wall, child, err):
            return True
        if trace:
            rpath = runner.tmp / f"replay{SUFFIX[inp.fmt]}"
            out = _replay(runner, rec, f"{request}w",
                          ["realize", inp.literal, "--format", inp.fmt, "--out", str(rpath)],
                          scaled(child.wall, child.probe))
            if out is not None and not out["result"]["same_as_direct"]:
                rec.calls[-1]["error"] = "replayed graph differs from realize_imbalance_set"
        if not runner.can_start():
            return False
        child = runner.cli("verify", str(path), inp.literal)
        err = _failure(child) or check_verify(exp, child.exit_code, child.stdout)
        rec.call("verify", inp, child.wall, child, err)
        if trace and err is None:
            _replay(runner, rec, f"{request}r", ["verify", str(path), inp.literal],
                    scaled(child.wall, child.probe))
        return True
    finally:
        for f in runner.tmp.glob("*" + SUFFIX[inp.fmt]):
            f.unlink()


CALLS = {"decide-even": _decide_call, "realize-io": _realize_io_call,
         "build-large": _build_call}


def _replay(runner: Runner, rec: Pass, request: str, argv: list[str],
            untraced_s: float) -> dict | None:
    child = runner.child("replay", request, *argv)
    err = _failure(child)
    if err is not None:
        rec.calls.append({"kind": "replay", "literal": argv[1], "timed_s": child.wall,
                          "rss_mb": child.rss_mb, "error": err})
        return None
    out = _last_json(child)
    rec.replayed(out, untraced_s, child.wall - out["post_s"], child.probe, True)
    return out


def _setup(runner: Runner, repeats: int, times: list[float], errors: list[str]) -> None:
    """Time trivial CLI calls: interpreter start plus the package import.

    Process start-up drifts with the host apart from the compute probe,
    so each call is scaled by a bare ``python3 -c "import numpy"`` started
    just before it instead: START_REF_S * cli / bare.
    """
    for _ in range(repeats):
        bare = runner.run([sys.executable, "-c", "import numpy"], probed=False)
        child = runner.cli("decide", "1,-1", probed=False)
        err = _failure(child) or check_decide(expected({1, -1}), child.exit_code, child.stdout)
        if err:
            errors.append(f"setup call: {err}")
        times.append(START_REF_S * child.wall / bare.wall)


def _slot_times(passes: list[Pass]) -> dict[tuple[str, int], float]:
    """Median scaled time of each (command, input) over the passes of the run."""
    times: dict[tuple[str, int], list[float]] = {}
    for p in passes:
        for c in p.calls:
            if c["kind"] != "replay":
                times.setdefault((c["kind"], c["slot"]), []).append(
                    scaled(c["timed_s"], c["probe"]))
    return {k: statistics.median(v) for k, v in times.items()}


def _per_command(slots: dict[tuple[str, int], float]) -> dict[str, float]:
    """Total and median per command, named after the program's commands."""
    out = {}
    for kind in sorted({k for k, _ in slots}):
        each = [t for (k, _), t in slots.items() if k == kind]
        out[f"{kind}_total_s"] = sum(each)
        out[f"{kind}_p50_s"] = statistics.median(each)
    return out


def _end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "total_s": sum(_slot_times(passes).values()),
        "peak_rss_mb": max(c["rss_mb"] for p in passes for c in p.calls if c["kind"] != "replay"),
    }


def _per_layer(p: Pass, setup_s: float) -> dict[str, float]:
    st = p.layer_s
    metrics = {
        "equalsum.search_s": st.get("equalsum.search", 0.0),
        "formats.emit_s": st.get("formats.emit", 0.0),
        "formats.parse_s": st.get("formats.parse", 0.0),
        "realize.max_realization_s": st.get("realize.max_realization", 0.0),
        "tis.complete_s": st.get("tis.complete", 0.0),
        "digraph.cert_check_s": st.get("digraph.cert_check", 0.0),
        "sequences.expand_s": st.get("sequences.expand", 0.0),
        "sequences.check_s": st.get("sequences.check", 0.0),
        "cli.file_io_s": st.get("cli.file_io", 0.0),
        "cli.overhead_s": p.cli_unattributed - p.cli_requests * setup_s,
        "trace.coverage": 1 - st.get("request", 0.0) / p.request_s if p.request_s else 0.0,
        "trace.overhead_ratio": p.traced_wall / p.untraced_wall if p.untraced_wall else 0.0,
    }
    for name in PER_LAYER_UNITS:
        if name not in metrics:
            metrics[name] = p.counts.get(name, 0)
    return metrics


def _median_dicts(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "imbalanceset" / "cli.py").is_file():
        print("error: run from the root of an imbalanceset source checkout "
              "(src/imbalanceset not found)", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    out_dir = HERE / "out"
    tmp = out_dir / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, tmp, t0)
    try:
        return _bench(args, runner, out_dir)
    finally:
        runner.probe.close()
        shutil.rmtree(tmp, ignore_errors=True)


def _bench(args: argparse.Namespace, runner: Runner, out_dir: Path) -> int:
    trace = bool(args.trace)
    inputs = generate(args.workload, args.seed)
    call = CALLS[args.workload]
    oracle = runner.child("oracle", str(args.seed), probed=False)
    failure = _failure(oracle)
    problems = [failure] if failure else _last_json(oracle)["problems"]
    errors = [f"reference vs oracle: {p}" for p in problems]
    for inp in inputs:
        exp = inp.exp
        print(f"input {args.workload}#{inp.slot} kind={inp.kind} literal={inp.literal} "
              f"n={exp.n} verdict={'yes' if exp.verdict else 'no'} order={exp.order}"
              + (f" format={inp.fmt}" if inp.fmt else ""))

    runner.cli("decide", "1,-1", probed=False)  # warm-up: bytecode caches, file cache
    runner.child("build", "1,-1", probed=False)
    setup: list[float] = []
    _setup(runner, SETUP_FIRST, setup, errors)

    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        rec = Pass()
        t = time.perf_counter()
        complete = True
        for inp in inputs:
            if not runner.can_start() or not call(runner, inp, trace, rec,
                                                  f"p{len(passes)}i{inp.slot}"):
                complete = False
                break
        rec.wall = time.perf_counter() - t
        _setup(runner, SETUP_PER_PASS, setup, errors)
        if not complete:
            errors.append(f"pass {len(passes)} incomplete: ran out of time")
        if complete or not passes:
            passes.append(rec)
        elapsed = time.perf_counter() - start
        if not complete or elapsed + rec.wall > args.seconds or not runner.can_start():
            break

    calls = [c for p in passes for c in p.calls]
    attempted = len(calls)
    failed = sum(1 for c in calls if c["error"])
    errors += [f"{c['kind']} {c['literal']}: {c['error']}" for c in calls if c["error"]]
    for e in errors:
        print(f"FAIL {e}")

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es), "
          f"{attempted} calls, failed_ratio = {failed}/{attempted}"
          f" = {failed / max(attempted, 1):.4f}")
    for name, value in _per_command(_slot_times(passes)).items():
        print(f"metric {name} = {value:.6f} s")
    e2e = _end_to_end(passes, setup) if attempted else {}
    for name, value in e2e.items():
        print(f"metric {name} = {value:.6f} {END_TO_END_UNITS[name]}")
    if trace:
        metrics = _median_dicts([_per_layer(p, e2e["setup_s"]) for p in passes])
        units = PER_LAYER_UNITS
        for name, value in metrics.items():
            print(f"layer {name} = {value:.6g} {units[name]}")
    else:
        metrics, units = e2e, END_TO_END_UNITS

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": [{"slot": i.slot, "kind": i.kind, "literal": i.literal, "n": i.exp.n,
                    "verdict": i.exp.verdict, "order": i.exp.order, "format": i.fmt}
                   for i in inputs],
        "setup_s": setup, "errors": errors,
        "parent_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": [{"wall": p.wall, "calls": p.calls, "spans": p.spans} for p in passes],
        "metrics": metrics,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": not errors,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
