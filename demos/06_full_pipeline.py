"""
The full reduction pipeline, end to end
========================================

"""

import subprocess
import sys
import tempfile
from pathlib import Path

# the `reduce` command chains every stage: niceness gate, one extension
# round, the graph group and its transport into the extended group, the
# tower over a small base, and a bounded extension-property audit
with tempfile.TemporaryDirectory(prefix="meklerkit_demo_") as tmp:
    workdir = Path(tmp)
    graph = workdir / "c5.txt"
    graph.write_text("p graph 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 0 4\n")

    out = workdir / "run"
    cmd = [
        sys.executable, "-m", "meklerkit.cli",
        "reduce", str(graph), "--p", "3",
        "--depth-k", "1", "--depth-d", "1",
        "--out", str(out),
    ]
    print("running:", " ".join(cmd[4:]))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    print("exit code:", proc.returncode)

    # the manifest is a flat key: value report, deterministic byte for byte
    for line in proc.stdout.splitlines():
        print("  " + line)

    # every artifact is hashed into the manifest
    print("artifacts written:")
    for f in sorted(out.iterdir()):
        print("  ", f.name, f.stat().st_size, "bytes")

    # run it again and the manifest comes out identical
    out2 = workdir / "run2"
    cmd2 = cmd[:-1] + [str(out2)]
    subprocess.run(cmd2, capture_output=True, text=True)
    same = (out / "manifest.txt").read_bytes() == (out2 / "manifest.txt").read_bytes()
    print("second run byte identical:", same)
