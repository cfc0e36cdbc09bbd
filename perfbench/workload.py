"""One run of one benchmark workload, in its own process.

    python3 perfbench/workload.py WORKLOAD INPUT_DIR RESULT_JSON
        [--mode plain|spans|counts|setup]

``run.py`` writes the inputs into INPUT_DIR (``inputs.json`` and any files
it names) and starts this script with the repository's ``src`` on
PYTHONPATH.  The script imports meklerkit, builds
the inputs, notes the monotonic clock just before its first call into the
library (the end of set-up), runs the workload and writes RESULT_JSON.

Modes: ``plain`` runs untraced; ``spans`` installs ``SpanTracer`` and writes
the spans next to RESULT_JSON; ``counts`` installs ``CountTracer``;
``setup`` stops at the first library call.  The exit code is the workload's own (the CLI
exit code for the CLI workloads).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

import meklerkit
import meklerkit.cli
from meklerkit import graphs, mekler

import tracer

P = 3


def _check_source(root: Path) -> None:
    src = (root / "src").resolve()
    if not Path(meklerkit.__file__).resolve().is_relative_to(src):
        sys.exit(f"meklerkit imported from {meklerkit.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# reduce-c5 and tower-s4xc2: the CLI, with the argument list run.py wrote
# ---------------------------------------------------------------------------

def cli_command(inp: Path, spec: dict):
    def run():
        with open(inp / "stdout.txt", "w", encoding="utf-8") as out:
            with contextlib.redirect_stdout(out):
                return meklerkit.cli.main(spec["argv"]), {}
    return run, None


# ---------------------------------------------------------------------------
# graph-groups: the graphs and mekler layers as a library script
# ---------------------------------------------------------------------------

def graph_from_code(n: int, code: int):
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    return graphs.Graph.from_edges(n, [pr for i, pr in enumerate(pairs) if code >> i & 1])


def chained_product_oracle(pc, pool_a, pool_b, idx):
    """Closed-form product of pool[idx[0]] * pool[idx[1]] * ... (independent of PcGroup).

    In the graph group the pair coordinate of a product collects
    sum b_i - sum_{i<j} a_i[y] a_j[x] over each non-edge x < y.
    """
    xs = np.array([x for x, _ in pc.nonedges], dtype=np.int64)
    ys = np.array([y for _, y in pc.nonedges], dtype=np.int64)
    a = pool_a[idx]
    before = np.cumsum(a, axis=0) - a
    b = pool_b[idx].sum(axis=0) - (before[:, ys] * a[:, xs]).sum(axis=0)
    return (a.sum(axis=0) % pc.p).tolist(), (b % pc.p).tolist()


def graph_groups(inp: Path, spec: dict):
    c5 = graphs.cycle_graph(5)
    nice_graphs = [graph_from_code(6, c) for c in spec["nice_codes"]]
    recover_n = spec["recover_n"]
    recover_inputs = [graph_from_code(recover_n, c) for c in range(1 << (recover_n * (recover_n - 1) // 2))]
    table_graph = graphs.Graph.from_edges(spec["table_n"], [tuple(e) for e in spec["table_edges"]])
    rng = np.random.default_rng(spec["rows_seed"])
    n_big = c5.n + 2 ** c5.n
    pairs_big = n_big * (n_big - 1) // 2 - (c5.edge_count() + c5.n * 2 ** (c5.n - 1))
    pool_rows = spec["pool_rows"]
    pool_a = rng.integers(0, P, size=(pool_rows, n_big), dtype=np.int64)
    pool_b = rng.integers(0, P, size=(pool_rows, pairs_big), dtype=np.int64)
    chain_pool = spec["chain_pool"]
    chain_idx = spec["chain_idx"]
    batch = spec["batch_rows"]
    offsets = spec["batch_offsets"]
    weights = 2 * np.arange(pairs_big, dtype=np.int64) + 1

    def run():
        out = {}
        big = graphs.extend(c5)
        audit = graphs.audit_extension_property(big, m=spec["audit_m"])
        out["audit_pairs"] = audit.pair_count
        out["audit_failures"] = len(audit.failures)

        out["nice"] = "".join("1" if graphs.is_nice(g).is_nice else "0" for g in nice_graphs)

        pc = mekler.build_mekler(big, P)
        if (pc.n, pc.num_pairs) != (n_big, pairs_big):
            raise AssertionError("extend(C5) has unexpected dimensions")
        elems = [pc.element(pool_a[k], pool_b[k]) for k in chain_pool]
        x = pc.identity()
        for k in chain_idx:
            x = x * elems[k]
        out["chain"] = [list(x.a), list(x.b)]

        checksum = 0
        for s1, s2 in offsets:
            a, b = pc.multiply_arrays(pool_a[s1:s1 + batch], pool_b[s1:s1 + batch],
                                      pool_a[s2:s2 + batch], pool_b[s2:s2 + batch])
            checksum = (checksum * 1_000_003 + int(a.sum()) + int((b @ weights).sum())) % (1 << 61)
        out["rows_checksum"] = checksum

        table = mekler.build_mekler(table_graph, P).multiplication_table()
        out["table_digest"] = hashlib.sha256(
            (table @ (2 * np.arange(table.shape[1], dtype=np.int64) + 1)).tobytes()
        ).hexdigest()
        out["table_size"] = int(table.shape[0])
        del table

        out["recovered"] = sum(
            mekler.recover_graph(mekler.build_mekler(g, P)) == g for g in recover_inputs
        )
        out["recover_inputs"] = len(recover_inputs)
        return 0, out

    def check(out):
        """Oracles run after the timed work; returns the failed check names."""
        pc = mekler.build_mekler(graphs.extend(c5), P)
        failed = []
        idx = np.array(chain_pool, dtype=np.int64)[chain_idx]
        if out["chain"] != list(chained_product_oracle(pc, pool_a, pool_b, idx)):
            failed.append("chain")
        for i, (s1, s2) in enumerate(offsets):
            r = (i * 7919) % batch
            a, b = pc.multiply_arrays(pool_a[s1 + r], pool_b[s1 + r], pool_a[s2 + r], pool_b[s2 + r])
            scalar = pc.multiply(pc.element(pool_a[s1 + r], pool_b[s1 + r]),
                                 pc.element(pool_a[s2 + r], pool_b[s2 + r]))
            if list(scalar.a) != a.tolist() or list(scalar.b) != b.tolist():
                failed.append("multiply_arrays")
                break
        if out["recovered"] != out["recover_inputs"]:
            failed.append("recover_graph")
        return failed

    return run, check


WORKLOADS = {
    "reduce-c5": cli_command,
    "tower-s4xc2": cli_command,
    "graph-groups": graph_groups,
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("input_dir", type=Path)
    parser.add_argument("result", type=Path)
    parser.add_argument("--mode", choices=["plain", "spans", "counts", "setup"], default="plain")
    args = parser.parse_args()
    _check_source(Path(__file__).resolve().parent.parent)

    spec = json.loads((args.input_dir / "inputs.json").read_text())
    run, check = WORKLOADS[args.workload](args.input_dir, spec)
    trace = None
    if args.mode == "spans":
        trace = tracer.SpanTracer([sys.modules[__name__]]).install()
    elif args.mode == "counts":
        trace = tracer.CountTracer([sys.modules[__name__]]).install()
    record = {"t_first": time.monotonic()}
    if args.mode != "setup":
        record["exit"], record["outputs"] = run()
        if trace is not None:
            trace.restore()
            record["work"] = dict(trace.work)
        if args.mode == "spans":
            trace.dump(args.result.with_suffix(".spans"))
        if check is not None:
            record["failed_checks"] = check(record["outputs"])
    args.result.write_text(json.dumps(record, sort_keys=True))
    return record.get("exit", 0)


if __name__ == "__main__":
    sys.exit(main())
