"""Peak RSS of the program's largest calls, each a child process, against its limit.

    PYTHONPATH=src python tests/peak_rss.py

Prints one line per row of ROWS, and exits 1 if a child fails or a
peak passes its limit.  A limit changes here only, with a CHANGES.md line.
"""

import os
import subprocess
import sys
import tempfile
from importlib.util import find_spec

PACKAGE = find_spec("imbalanceset").submodule_search_locations[0]
ENV = {**os.environ, "PYTHONPATH": os.path.dirname(PACKAGE)}
CLI = ("-m", "imbalanceset")
LIBRARY = "from imbalanceset import realize_imbalance_set; realize_imbalance_set"
KINDS = ("dot", "edgelist", "json")


def verify(literal, kind, crlf=False):
    """A setup that writes the graph of ``literal`` in ``kind``, and the child that verifies
    it.  CRLF line ends are written 1 MiB at a time, so that this process stays small."""
    name = f"{literal}.{kind}"
    realize = [sys.executable, *CLI, "realize", literal, "--format", kind, "--out", "lf" if crlf else name]

    def setup():
        subprocess.run(realize, env=ENV, check=True, stdout=subprocess.DEVNULL)
        if crlf:
            with open("lf", "rb") as lf, open(name, "wb") as twin:
                while block := lf.read(1 << 20):
                    twin.write(block.replace(b"\n", b"\r\n"))
    return setup, (*CLI, "verify", name, literal)


# What is measured, its setup (run in one temporary directory), the child's arguments after
# ``python``, the limit in MB, and whether the limit is over the floor, the least peak of three
# runs of ``python -c "import numpy"``; such a row is the least peak of three runs too.
ROWS = [
    ("realize_imbalance_set({4, -9998}), order 15003", None, ("-c", LIBRARY + "({4, -9998})"), 150, False),
    ("realize_imbalance_set({0, 2, -6998}), order 13999", None, ("-c", LIBRARY + "({0, 2, -6998})"), 150, False),
    ("verify 4,-1998 (order 3003, json)", *verify("4,-1998", "json"), 70, False),
    ("verify 4,-3998 (order 6003, edgelist, packed rows 4.5 MB)", *verify("4,-3998", "edgelist"), 50, False),
    *((f"verify 4,-1998 (order 3003, {kind}, CRLF line ends)", *verify("4,-1998", kind, crlf=True), 70, False)
      for kind in ("dot", "edgelist")),
    *((f"realize 521,-3,-7 (order 1052, {kind})", None, (*CLI, "realize", "521,-3,-7", "--format", kind, "--out", kind),
       3.5, True) for kind in KINDS),
    *((f"verify 521,-3,-7 (order 1052, {kind})", *verify("521,-3,-7", kind), 3.5, True) for kind in KINDS),
]


def peak(args, runs):
    """The least peak RSS in MB of ``runs`` runs of ``python args``, the exit code and output."""
    peaks = []
    for _ in range(runs):
        child = subprocess.Popen([sys.executable, *args], env=ENV, stdout=subprocess.PIPE, text=True)
        out = child.stdout.read().strip().rpartition("\n")[2].partition(";")[0]  # not realize's sequence
        _, status, usage = os.wait4(child.pid, 0)
        peaks.append(usage.ru_maxrss / 1024)
        if status:
            break
    return min(peaks), os.waitstatus_to_exitcode(status), out


def main():
    if loaded := [m for m in ("numpy", "imbalanceset") if m in sys.modules]:
        sys.exit(f"refused to measure: this process imported {loaded}; under vfork/exec each child's peak counts it")
    # Fresh bytecode, or with PYTHONDONTWRITEBYTECODE set every child would compile.
    subprocess.run([sys.executable, "-m", "compileall", "-q", PACKAGE], check=True)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        floor, status, _ = peak(("-c", "import numpy"), 3)
        if status:
            sys.exit(f"python -c 'import numpy' failed: exit {status}")
        print(f"python -c 'import numpy': peak RSS {floor:.2f} MB, the floor")
        failed = []
        for what, setup, args, limit, over_floor in ROWS:
            if setup:
                setup()
            mb, status, out = peak(args, 3 if over_floor else 1)
            excess = mb - floor if over_floor else mb
            verdict = f"exit {status}, FAILED" if status else "FAILED" if excess > limit else "ok"
            over = f", {excess:.2f} MB over the floor" if over_floor else ""
            print(f"{what}: {out or 'no output'}; peak RSS {mb:.2f} MB{over}, limit {limit} MB: {verdict}")
            if verdict != "ok":
                failed.append(what)
    if failed:
        sys.exit(f"failed: {'; '.join(failed)}")


if __name__ == "__main__":
    main()
