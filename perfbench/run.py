"""Layered benchmark for meklerkit.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every workload run is a separate child
process (``workload.py``) started with the checkout's ``src`` on PYTHONPATH,
one at a time, single-threaded (closed loop, one client).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median wall time
of one workload run, launch to exit), ``setup_s`` (median time from launch
to the first call into the library) and ``peak_rss_mb`` (median peak RSS of
the run's own child, read with ``wait4``).  The workload runs at least
twice, then again while the next run is expected to end within half a run
of ``--seconds`` seconds of workload time; set-up is sampled by extra runs
that stop at the first library call.  ``--trace 1`` makes a run with span
wrappers between two untraced runs, then one with count-only wrappers (see
``tracer.py``), and reports the per-layer metrics.  Every run's outputs
are checked against ``goldens.json``; a run that fails counts in ``failed``
and is not timed.
A record of every sample and the machine state goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench_out"
GOLDENS = BENCH / "goldens.json"

SETUP_SAMPLES = 5
MIN_TIMED = 2
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
# another job using at least this many cores when a run starts flags the run
BUSY_CORES = 0.5

REDUCE_ARTIFACTS = ("extended_graph.txt", "gamma_prime.txt", "input_graph.txt",
                    "manifest.txt", "mekler_group.txt", "omni_report.txt", "tower.txt")


# ---------------------------------------------------------------------------
# inputs: a pure function of (workload, seed, small)
# ---------------------------------------------------------------------------

def c5_cycles() -> list[tuple[int, ...]]:
    """The 12 labelled 5-cycles on 0..4; index 0 is 0-1-2-3-4-0."""
    return [(0,) + p for p in itertools.permutations(range(1, 5)) if p[0] < p[-1]]


def c5_key(seed: int) -> str:
    return "-".join(map(str, c5_cycles()[seed % 12]))


def reduce_inputs(d: Path, seed: int, small: bool) -> dict:
    cyc = c5_cycles()[seed % 12]
    edges = sorted(tuple(sorted((cyc[i], cyc[(i + 1) % 5]))) for i in range(5))
    (d / "c5.txt").write_text("p graph 5\n" + "".join(f"e {x} {y}\n" for x, y in edges))
    argv = ["reduce", str(d / "c5.txt"), "--p", "3", "--out", str(d / "out")]
    if small:
        argv += ["--bound", "2", "4", "--h-bound", "4"]
    return {"argv": argv}


S4XC2 = ((1, 2, 3, 0, 4, 5), (1, 0, 2, 3, 4, 5), (0, 1, 2, 3, 5, 4))


def tower_inputs(d: Path, seed: int, small: bool) -> dict:
    """S4 x C2 with its six points relabelled by the seed's permutation."""
    gens = ((1, 0),) if small else S4XC2
    deg = len(gens[0])
    sigma = next(itertools.islice(itertools.permutations(range(deg)), seed % math.factorial(deg),
                                  None))
    lines = [f"p group {deg}"]
    for g in gens:
        conj = [0] * deg
        for i in range(deg):
            conj[sigma[i]] = sigma[g[i]]
        lines.append("g: " + " ".join(map(str, conj)))
    (d / "base.txt").write_text("\n".join(lines) + "\n")
    return {"argv": ["tower", "--a", str(d / "base.txt"), "--depth-d", "1"]}


def graph_inputs(d: Path, seed: int, small: bool) -> dict:
    rng = random.Random(seed)
    sizes = dict(nice=200, chain=1000, batches=10, batch_rows=200, audit_m=1,
                 recover_n=4, table_n=3, table_edges=[[0, 1], [1, 2]]) if small else \
        dict(nice=2000, chain=10_000, batches=50, batch_rows=2000, audit_m=2,
             recover_n=5, table_n=5, table_edges=[[0, 1], [1, 2], [2, 3], [3, 4], [0, 4],
                                                  [0, 2], [1, 3]])
    pool_rows = 2 * sizes["batch_rows"]
    return {
        "audit_m": sizes["audit_m"],
        "nice_codes": [rng.randrange(1 << 15) for _ in range(sizes["nice"])],
        "chain_pool": [rng.randrange(pool_rows) for _ in range(64)],
        "chain_idx": [rng.randrange(64) for _ in range(sizes["chain"])],
        "rows_seed": seed,
        "pool_rows": pool_rows,
        "batch_rows": sizes["batch_rows"],
        "batch_offsets": [[rng.randrange(pool_rows - sizes["batch_rows"] + 1) for _ in range(2)]
                          for _ in range(sizes["batches"])],
        "table_n": sizes["table_n"],
        "table_edges": sizes["table_edges"],
        "recover_n": sizes["recover_n"],
    }


INPUTS = {"reduce-c5": reduce_inputs, "tower-s4xc2": tower_inputs, "graph-groups": graph_inputs}
def write_inputs(workload: str, d: Path, seed: int, small: bool) -> dict:
    d.mkdir(parents=True, exist_ok=True)
    spec = INPUTS[workload](d, seed, small)
    (d / "inputs.json").write_text(json.dumps(spec))
    return spec


# ---------------------------------------------------------------------------
# one child process
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def launch(workload: str, d: Path, mode: str, deadline: float, tag: str) -> dict:
    """Start one workload process and wait for it with wait4."""
    result = d / f"result-{tag}.json"
    result.unlink(missing_ok=True)
    shutil.rmtree(d / "out", ignore_errors=True)
    cmd = [sys.executable, str(BENCH / "workload.py"), workload, str(d), str(result),
           "--mode", mode]
    with open(d / f"child-{tag}.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=log, stderr=log,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t_end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = {"mode": mode, "exit": proc.returncode, "wall_s": t_end - t0,
           "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024.0,
           "record": {}}
    if result.is_file():
        run["record"] = json.loads(result.read_text())
        run["setup_s"] = run["record"]["t_first"] - t0
    return run


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def nice_expected(bitmap_hex: str, codes) -> str:
    bits = bytes.fromhex(bitmap_hex)
    return "".join("1" if bits[c >> 3] >> (c & 7) & 1 else "0" for c in codes)


def outputs_digest(workload: str, d: Path, run: dict) -> tuple[str, dict]:
    """Digest of everything the run produced, and the per-file digests."""
    if workload == "reduce-c5":
        files = {p.name: sha256_file(p) for p in sorted((d / "out").glob("*")) if p.is_file()}
    elif workload == "tower-s4xc2":
        files = {"stdout.txt": sha256_file(d / "stdout.txt")}
    else:
        files = {"outputs": hashlib.sha256(json.dumps(
            run["record"].get("outputs"), sort_keys=True).encode()).hexdigest()}
    return hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest(), files


def check_run(workload: str, d: Path, spec: dict, seed: int, small: bool, run: dict,
              goldens: dict) -> list[str]:
    """Names of the failed checks; empty when the run is correct."""
    gold = goldens["small" if small else "full"][workload]
    if run["exit"] != 0:
        return [f"exit code {run['exit']}"]
    if "exit" not in run["record"]:
        return ["no result record"]
    run["digest"], files = outputs_digest(workload, d, run)
    if workload == "reduce-c5":
        failed = [] if files == gold[c5_key(seed)] else ["artifact digests"]
        manifest = (d / "out" / "manifest.txt").read_text()
        if not manifest.rstrip("\n").endswith("status: complete"):
            failed.append("status")
        return failed
    if workload == "tower-s4xc2":
        return [] if files["stdout.txt"] == gold["stdout_sha256"] else ["stdout digest"]
    out = run["record"]["outputs"]
    failed = list(run["record"].get("failed_checks", []))
    for key in ("audit_pairs", "audit_failures", "table_digest", "table_size"):
        if out[key] != gold[key]:
            failed.append(key)
    if out["nice"] != nice_expected(gold["nice_bitmap"], spec["nice_codes"]):
        failed.append("is_nice verdicts")
    if str(seed) in gold["outputs"] and gold["outputs"][str(seed)] != files["outputs"]:
        failed.append("output digest")
    return failed


# ---------------------------------------------------------------------------
# per-layer metrics from the traced runs
# ---------------------------------------------------------------------------

WORK_METRICS = {
    "groups.closure_elements.elements": "count",
    "groups.subgroups_containing.found": "count",
    "groups.subgroups_containing.closures": "count",
    "groups.subgroups_containing.hit_ratio": "ratio",
    "groups.hom_table.entries": "count",
    "omni.rows": "count",
    "omni.witness_ratio": "ratio",
    "mekler.multiply_arrays.rows": "count",
    "graphs.audit_extension_property.pairs": "count",
    "manifest.format_manifest.bytes": "bytes",
}
COUNT_METRICS = [prefix + ".count" for _, _, prefix, _ in tracer.COUNTS] + ["groups.perm_mul.points"]
TRACE_METRICS = {
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.count_wall_s": "s",
    "trace.spans": "count",
    "trace.groups_spans": "count",
    "trace.focus_share": "ratio",
}


def layer_metric_units() -> dict:
    units = {}
    for name in tracer.SPAN_NAMES:
        units[name + (".builds" if name == tracer.HOM_TABLE else ".calls")] = "count"
        units[name + ".self_s"] = "s"
    units.update(WORK_METRICS)
    units.update({name: "count" for name in COUNT_METRICS})
    units.update(TRACE_METRICS)
    return units


def span_totals(path: Path):
    """Per span name: calls, self time, inclusive time of outermost calls."""
    names, ids, parents, starts, ends = tracer.read_spans(path)
    n = len(starts)
    dur = [ends[i] - starts[i] for i in range(n)]
    covered = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            covered[parents[i]] += dur[i]
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    incl_s = dict.fromkeys(names, 0.0)
    closures_in_search = 0
    for i in range(n):
        name = names[ids[i]]
        calls[name] += 1
        self_s[name] += dur[i] - covered[i]
        p = parents[i]
        if p < 0 or names[ids[p]] != name:
            incl_s[name] += dur[i]
        if name == "groups.closure_elements" and p >= 0 \
                and names[ids[p]] == "groups.subgroups_containing":
            closures_in_search += 1
    return calls, self_s, incl_s, closures_in_search


def layer_metrics(workload: str, d: Path, plain: list, spans: dict, counts: dict) -> dict:
    calls, self_s, incl_s, closures = span_totals(d / "result-spans.spans")
    work = spans["record"]["work"]
    m = {}
    for name in tracer.SPAN_NAMES:
        m[name + (".builds" if name == tracer.HOM_TABLE else ".calls")] = calls[name]
        m[name + ".self_s"] = self_s[name]
    for key in WORK_METRICS:
        m[key] = work.get(key, 0)
    found = m["groups.subgroups_containing.found"]
    m["groups.subgroups_containing.closures"] = closures
    m["groups.subgroups_containing.hit_ratio"] = found / closures if closures else 0.0
    rows = m["omni.rows"]
    m["omni.witness_ratio"] = work.get("omni.witnessed_rows", 0) / rows if rows else 0.0
    for key in COUNT_METRICS:
        m[key] = counts["record"]["work"].get(key, 0)
    traced = spans["wall_s"]
    untraced = statistics.median(r["wall_s"] for r in plain)
    if workload == "reduce-c5":
        focus = self_s["groups.subgroups_containing"] + self_s["groups.closure_elements"]
    elif workload == "tower-s4xc2":
        focus = incl_s["limits.make_cayley_tower"] + incl_s["limits.build_D"]
    else:
        focus = sum(v for k, v in self_s.items() if k.startswith(("graphs.", "mekler.")))
    m.update({
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.count_wall_s": counts["wall_s"],
        "trace.spans": sum(calls.values()),
        "trace.groups_spans": sum(v for k, v in calls.items() if k.startswith("groups.")),
        "trace.focus_share": focus / traced,
    })
    return m


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _loadavg() -> list[str]:
    return Path("/proc/loadavg").read_text().split()[:3]


def _cpu_jiffies():
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    idle = fields[3] + fields[4]
    steal = fields[7] if len(fields) > 7 else 0
    return sum(fields[:8]), idle, steal


def environment(window: float = 0.5) -> dict:
    """Machine state; the busy share is sampled while this process sleeps."""
    total0, idle0, steal0 = _cpu_jiffies()
    time.sleep(window)
    total1, idle1, steal1 = _cpu_jiffies()
    ncpu = os.cpu_count() or 1
    span = max(1, total1 - total0)
    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_start": _loadavg(),
        "busy_cores_at_start": ncpu * (span - (idle1 - idle0) - (steal1 - steal0)) / span,
        "steal_cores_at_start": ncpu * (steal1 - steal0) / span,
    }


# ---------------------------------------------------------------------------
# a whole benchmark run
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool, small: bool = False,
            work_dir: Path | None = None) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    env = environment()
    goldens = json.loads(GOLDENS.read_text())
    d = work_dir or OUT / f"run-{os.getpid()}"
    shutil.rmtree(d, ignore_errors=True)
    spec = write_inputs(workload, d, seed, small)
    runs = []

    def attempt(mode, tag):
        run = launch(workload, d, mode, deadline, tag)
        run["failed_checks"] = (check_run(workload, d, spec, seed, small, run, goldens)
                                if mode != "setup" else
                                ([] if run["exit"] == 0 and "setup_s" in run else ["setup"]))
        runs.append(run)
        return run

    warm = attempt("setup", "warm")  # fills the bytecode cache; not a sample
    if trace:
        # untraced runs on both sides of the span run, so slow drift of the
        # machine's speed cancels out of the overhead
        before, spans, after, counts = (attempt(mode, tag) for mode, tag in (
            ("plain", "plain0"), ("spans", "spans"), ("plain", "plain1"), ("counts", "counts")))
        ok = not any(r["failed_checks"] for r in runs)
        metrics = layer_metrics(workload, d, [before, after], spans, counts) if ok else {}
        units = layer_metric_units()
    else:
        setups = [attempt("setup", f"setup{k}") for k in range(SETUP_SAMPLES)]
        timed = []
        # at least two runs, then more while the next one is expected to end
        # nearer to `seconds` than stopping now would; the machine's speed
        # drifts, so the count follows every run taken, not the first alone
        while len(timed) < MIN_TIMED or (sum(r["wall_s"] for r in timed)
                                         + statistics.median(r["wall_s"] for r in timed) / 2
                                         ) < seconds:
            timed.append(attempt("plain", f"plain{len(timed)}"))
        good = [r for r in setups + timed if not r["failed_checks"]]
        full = [r for r in good if r["mode"] == "plain"]
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in full),
            "setup_s": statistics.median(r["setup_s"] for r in good),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
        } if full else {}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    failed = [r for r in runs if r["failed_checks"]]
    env["loadavg_end"] = _loadavg()
    env["busy_at_start"] = env["busy_cores_at_start"] >= BUSY_CORES
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "small": small, "env": env,
        "samples": {k: sum(1 for r in runs if r["mode"] == k) for k in ("setup", "plain",
                                                                       "spans", "counts")},
        "runs": [{k: v for k, v in r.items() if k != "record"} | {"work": r["record"].get("work")}
                 for r in runs],
        "warm_wall_s": warm["wall_s"],
        "elapsed_s": time.monotonic() - started,
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if work_dir is None:
        shutil.rmtree(d, ignore_errors=True)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(INPUTS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (ROOT / "src" / "meklerkit" / "__init__.py", GOLDENS) if not p.is_file()]
    if missing:
        print(f"perfbench: not a meklerkit checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    env = record["env"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{record['samples']} runs, {record['failed']} failed, "
          f"fail_frac={record['failed'] / record['attempted']:.3f}, "
          f"elapsed {record['elapsed_s']:.1f} s")
    print(f"env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"{env['cpu_model']}, loadavg {' '.join(env['loadavg_start'])} -> "
          f"{' '.join(env['loadavg_end'])}, busy cores at start "
          f"{env['busy_cores_at_start']:.2f}" + (" [BUSY: another job was running]"
                                                  if env["busy_at_start"] else ""))
    for r in record["runs"]:
        if r["failed_checks"]:
            print(f"FAILED {r['mode']} run: {', '.join(r['failed_checks'])}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
