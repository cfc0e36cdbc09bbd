"""Command-line front end.

Exit codes: 0 success, 1 semantic negative (not nice, no isomorphism, an
unwitnessed audit row, a failed verification), 2 malformed input, 3 budget
overflow.  All output is deterministic: fixed version string, sorted
iteration everywhere, seeded randomness echoed into the manifests, and no
timestamps, so re-running a command reproduces its bytes exactly.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import BudgetError, ParseError
from .graphs import (
    DEFAULT_VERTEX_BUDGET,
    audit_extension_property,
    extend,
    extend_tower,
    format_graph,
    is_nice,
    parse_graph,
)
from .groups import (
    CATALOG_MAX_ORDER,
    DEFAULT_ENUM_BUDGET,
    alternating_group,
    brute_iso,
    cyclic_group,
    enumerate_homs,
    iso_invariant_mismatch,
    parse_group,
)
from .limits import (
    DEFAULT_POINT_BUDGET,
    LimitElement,
    build_D,
    check_normal_absorption,
    kernel_at_stage,
    make_cayley_tower,
    project_pi,
    quotient_is_A,
)
from .manifest import format_manifest, sha256_hex
from .mekler import (
    MAX_P,
    PcGroup,
    PcHom,
    build_mekler,
    is_odd_prime,
    recover_graph,
)
from .omni import lift_hom, omni_audit


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc.strerror or exc}")


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ParseError(f"cannot write {str(path)!r}: {exc.strerror or exc}")


def _check_out(out: str | None) -> None:
    """Refuse an `-o` file that cannot be written, before any work."""
    if out and Path(out).is_dir():
        raise ParseError(f"cannot write {out!r}: Is a directory")
    if out and not Path(out).parent.is_dir():
        raise ParseError(f"cannot write {out!r}: No such file or directory")


def _load_graph(path: str):
    return parse_graph(_read_text(path))


def _budgeted(g, enum_budget: int):
    g.enum_budget = enum_budget
    return g


def _load_group(path: str, enum_budget: int):
    return _budgeted(parse_group(_read_text(path)), enum_budget)


def _load_base(path: str | None):
    """The tower base A: a group file, or C2."""
    return parse_group(_read_text(path)) if path else cyclic_group(2)


def _check_p(p: int) -> None:
    if p > MAX_P or not is_odd_prime(p):
        raise ParseError(f"--p must be an odd prime <= {MAX_P}, got {p}")


def _load_graph_group(args):
    """The graph file and its graph group at `--p`."""
    _check_p(args.p)
    g = _load_graph(args.graph)
    return g, build_mekler(g, args.p)


def _check_at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ParseError(f"{flag} must be >= {least}, got {value}")


def _check_budgets(args) -> None:
    """Every budget flag the command takes must be at least 1."""
    for name in ("budget_enum", "budget_points", "budget_vertices"):
        if hasattr(args, name):
            _check_at_least("--" + name.replace("_", "-"), getattr(args, name), 1)


def _check_bound(bound) -> None:
    _check_at_least("MAX_F", bound[0], 1)
    _check_at_least("MAX_G", bound[1], 1)
    if bound[1] > CATALOG_MAX_ORDER:
        raise ParseError(f"MAX_G must be <= {CATALOG_MAX_ORDER}, got {bound[1]}")


def _header(kind: str, value: str) -> list:
    return [("tool", "meklerkit"), ("version", __version__), (kind, value)]


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# simple commands
# ---------------------------------------------------------------------------

def cmd_nice(args) -> int:
    g = _load_graph(args.graph)
    report = is_nice(g)
    lines = [
        f"vertices: {g.n}",
        f"edges: {g.edge_count()}",
        f"nice: {report.is_nice}",
        f"nice_strict: {report.strict_is_nice}",
        f"self_only_pairs: {len(report.self_only_pairs)}",
    ]
    cert = report.certificate
    if cert is not None:
        lines.append(f"violation: {cert[0]} {cert[1]}")
    print("\n".join(lines))
    return 0 if report.is_nice else 1


def cmd_extend(args) -> int:
    _check_out(args.out)
    _check_budgets(args)
    _check_at_least("--depth-k", args.depth_k, 0)
    g = _load_graph(args.graph)
    result, inclusion = extend_tower(g, args.depth_k, args.budget_vertices)
    text = format_graph(result)
    header = (
        f"# extended {args.depth_k}x: {g.n} -> {result.n} vertices; "
        f"original vertices keep indices 0..{g.n - 1}\n"
    )
    _emit(header + text, args.out)
    return 0


def _mekler_sections(pc: PcGroup) -> list:
    return [
        _header("object", "graph group"),
        [
            ("graph_key", pc.graph.key()),
            ("vertices", str(pc.n)),
            ("edges", str(pc.graph.edge_count())),
            ("p", str(pc.p)),
            ("vertex_coordinates", str(pc.n)),
            ("pair_coordinates", str(pc.num_pairs)),
            ("coordinate_order", str(pc.p)),
            ("order", pc.order_expression()),
            ("nonedge_pairs", ";".join(f"{x},{y}" for x, y in pc.nonedges) or "-"),
        ],
    ]


def cmd_mekler(args) -> int:
    _check_out(args.out)
    _, pc = _load_graph_group(args)
    _emit(format_manifest(_mekler_sections(pc)), args.out)
    return 0


def cmd_center(args) -> int:
    _, pc = _load_graph_group(args)
    report = pc.center()
    print(f"group_order: {pc.order_expression()}")
    print(
        "universal_vertices: "
        + (",".join(map(str, report.universal_vertices)) or "-")
    )
    print(f"center_order: {report.order_expression()}")
    return 0


def cmd_recover(args) -> int:
    g, pc = _load_graph_group(args)
    back = recover_graph(pc)
    sys.stdout.write(format_graph(back))
    ok = back.edges == g.edges and back.n == g.n
    print(f"round_trip: {'ok' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def cmd_iso(args) -> int:
    _check_budgets(args)
    a = _load_group(args.group_a, args.budget_enum)
    b = _load_group(args.group_b, args.budget_enum)
    hom = brute_iso(a, b)
    if hom is None:
        print("isomorphic: no")
        reason = iso_invariant_mismatch(a, b)
        if reason is not None:
            name, va, vb = reason
            print(f"separating_invariant: {name}")
            print(f"left: {va}")
            print(f"right: {vb}")
        else:
            print("separating_invariant: none (exhausted generator-image search)")
        return 1
    print("isomorphic: yes")
    for gen, image in zip(a.gens, hom.gen_images):
        print(f"map: {list(gen.images)} -> {list(image.images)}")
    return 0


def cmd_lift(args) -> int:
    _check_budgets(args)
    f = _load_group(args.group_f, args.budget_enum)
    g = _load_group(args.group_g, args.budget_enum)
    homs = enumerate_homs(f, g)
    print(f"homs: {len(homs)}")
    for k, psi in enumerate(homs):
        witness = lift_hom(f, g, psi)
        images = ";".join(str(list(psi(x).images)) for x in f.gens) or "-"
        print(
            f"hom {k}: gen_images {images} -> witness order "
            f"{witness.group.order()} verified"
        )
    return 0


def _build_tower(base, depth: int, point_budget: int, enum_budget: int):
    """The tower A (+) H_i over H_0 = Alt(5) and its direct system D.

    `enum_budget` binds A and H_0, and through `direct_sum` every stage.
    """
    h0 = _budgeted(alternating_group(5), enum_budget)
    tower = make_cayley_tower(
        _budgeted(base, enum_budget), h0, depth, point_budget=point_budget
    )
    return tower, build_D(tower)


def _stage0_audit(tower, args):
    """The omni audit of stage 0, flagging rows inside its {e} x H_0 block."""
    block = tower.sums[0].inject_b
    return omni_audit(block.codomain, *args.bound, search_bound=args.h_bound, h_block=block)


def cmd_omni(args) -> int:
    _check_out(args.out)
    _check_budgets(args)
    _check_bound(args.bound)
    if args.h_bound is not None:
        _check_at_least("--h-bound", args.h_bound, 1)
    if args.dstage:
        base = _load_base(args.dstage)
        tower, _ = _build_tower(base, 0, DEFAULT_POINT_BUDGET, args.budget_enum)
        report = _stage0_audit(tower, args)
    else:
        gamma = _load_group(args.group, args.budget_enum)
        report = omni_audit(gamma, *args.bound, search_bound=args.h_bound)
    _emit(report.format_text(), args.out)
    return 0 if not report.unwitnessed else 1


def _tower_sections(tower, sys_d) -> tuple[list, bool]:
    """The tower manifest (header and checks) and whether every check held."""
    g0 = sys_d.stages[0]
    # row i of phi_0's table is phi_0(g0.elements()[i]); pi reads its first da points
    da = tower.base.degree
    pi_ok = tower.depth == 0 or np.array_equal(
        sys_d.maps[0].mapping[:, :da], [x.images[:da] for x in g0.elements()]
    )
    kernel = kernel_at_stage(sys_d, 0)
    member_ok = all(project_pi(sys_d, LimitElement(0, x)).is_identity() == (x in kernel)
                    for x in g0.elements())
    quo = quotient_is_A(sys_d, 0)
    inject = tower.sums[0].inject_b
    absorption = [check_normal_absorption(sys_d, 0, inject(t))
                  for t in tower.h_stages[0].elements() if not t.is_identity()]
    absorb_all = all(rep.contains_kernel for rep in absorption)
    a_nontrivial = [s for s in tower.base.elements() if not s.is_identity()]
    base_note = "-"
    if a_nontrivial:
        inject_a = tower.sums[0].inject_a
        rep = check_normal_absorption(sys_d, 0, inject_a(a_nontrivial[0]))
        base_note = rep.boundary_note or "absorbed"
    checks_ok = pi_ok and member_ok and quo.verified and absorb_all
    section = [
        ("base", tower.base.label()),
        ("base_order", str(tower.base.order())),
        ("h0", tower.h_stages[0].label()),
        ("depth", str(tower.depth)),
        ("stage0_order", str(g0.order())),
        ("stage_degrees", ";".join(str(s.degree) for s in sys_d.stages)),
        (
            "f_injective",
            ";".join("yes" for _ in tower.f_maps) or "-",
        ),
        ("pi_commutes", "yes" if pi_ok else "NO"),
        ("kernel_is_e_x_h", "yes" if member_ok else "NO"),
        ("quotient_is_base", "yes" if quo.verified else "NO"),
        ("absorption_checked", str(len(absorption))),
        ("absorption_all_contain_kernel", "yes" if absorb_all else "NO"),
        ("base_coordinate_note", base_note),
    ]
    return [_header("object", "tower"), section], checks_ok


def cmd_tower(args) -> int:
    _check_budgets(args)
    _check_at_least("--depth-d", args.depth_d, 0)
    tower, sys_d = _build_tower(
        _load_base(args.a), args.depth_d, args.budget_points, args.budget_enum
    )
    sections, ok = _tower_sections(tower, sys_d)
    sys.stdout.write(format_manifest(sections))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

def _kv(key, value):
    return (key, str(value))


_HOM_SAMPLES = 1000  # seeded product pairs and image rows in reduce's stage 2
_SAMPLE_BLOCK = 1 << 16  # target coordinates per row block of the transport check


def _transport_sample(hom: PcHom, seed: int) -> tuple[int, int, int]:
    """(hom failures, distinct sources, distinct images) of the seeded sample.

    Four blocks of `_HOM_SAMPLES` source rows, a1, b1, a2, b2, are drawn in
    that order from `random.Random(seed)`.  Row i fails when h(x1) h(x2) and
    h(x1 x2) differ; the images h(x1) are counted by their bytes in the
    target's working dtype.  The target rows are built one block of about
    `_SAMPLE_BLOCK` coordinates at a time, so memory does not grow with
    the sample size times the target's pair count.
    """
    src, dst = hom.source, hom.target
    rng = random.Random(seed)

    def sample_block(width):
        flat = [rng.randrange(src.p) for _ in range(_HOM_SAMPLES * width)]
        return np.array(flat, dtype=np.int64).reshape(_HOM_SAMPLES, width)

    a1, b1 = sample_block(src.n), sample_block(src.num_pairs)
    a2, b2 = sample_block(src.n), sample_block(src.num_pairs)
    sources = {row.tobytes() for row in np.concatenate([a1, b1], axis=-1)}
    images: set[bytes] = set()
    failures = 0
    rows = max(1, _SAMPLE_BLOCK // (dst.n + dst.num_pairs))
    for lo in range(0, _HOM_SAMPLES, rows):
        x1, y1 = a1[lo:lo + rows], b1[lo:lo + rows]
        x2, y2 = a2[lo:lo + rows], b2[lo:lo + rows]
        ta1, tb1 = hom.apply_arrays(x1, y1)
        ta2, tb2 = hom.apply_arrays(x2, y2)
        tpa, tpb = dst.multiply_arrays(ta1, tb1, ta2, tb2)
        ha, hb = hom.apply_arrays(*src.multiply_arrays(x1, y1, x2, y2))
        failures += int(np.count_nonzero(
            np.any(tpa != ha, axis=-1) | np.any(tpb != hb, axis=-1)))
        keys = np.concatenate([ta1, tb1], axis=-1).astype(dst._dtype)
        images.update(row.tobytes() for row in keys)
    return failures, len(sources), len(images)


def cmd_reduce(args) -> int:
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # no directory, so no manifest: main reports it on stderr and exits 2
        raise ParseError(f"cannot write {args.out!r}: {exc.strerror or exc}")
    artifacts: dict[str, str] = {}
    sections: list = [
        _header("command", "reduce"),
        [
            _kv("p", args.p),
            _kv("depth_k", args.depth_k),
            _kv("depth_d", args.depth_d),
            _kv("seed", args.seed),
            _kv("bound_f", args.bound[0]),
            _kv("bound_g", args.bound[1]),
            _kv("h_bound", args.h_bound),
            _kv("force", args.force),
            _kv("budget_vertices", args.budget_vertices),
            _kv("budget_points", args.budget_points),
            _kv("base", repr(args.a) if args.a else "C2 (built in)"),
        ],
    ]
    verdicts: list[bool] = []

    def finish(status: str, code: int) -> int:
        sections.append(
            [_kv("artifact_" + name.replace(".", "_"), digest)
             for name, digest in sorted(artifacts.items())]
            or [_kv("artifacts", "none")]
        )
        sections.append([_kv("status", status)])
        text = format_manifest(sections)
        _write_text(outdir / "manifest.txt", text)
        sys.stdout.write(text)
        return code

    def write_artifact(name: str, text: str) -> None:
        _write_text(outdir / name, text)
        artifacts[name] = sha256_hex(text)

    try:
        # every input is parsed before anything is written
        _check_p(args.p)
        _check_budgets(args)
        _check_at_least("--depth-k", args.depth_k, 0)
        _check_at_least("--depth-d", args.depth_d, 0)
        _check_bound(args.bound)
        _check_at_least("--h-bound", args.h_bound, 1)
        g = _load_graph(args.graph)
        base = _load_base(args.a)
        report = is_nice(g)
        input_section = [
            _kv("vertices", g.n),
            _kv("edges", g.edge_count()),
            _kv("graph_key", g.key()),
            _kv("nice", report.is_nice),
            _kv("nice_strict", report.strict_is_nice),
        ]
        cert = report.certificate
        if cert is not None:
            input_section.append(_kv("violation", f"{cert[0]} {cert[1]}"))
        if not report.is_nice and not args.force:
            input_section.append(_kv("gate", "refused: input graph is not nice"))
            sections.append(input_section)
            return finish("refused", 1)
        if not report.is_nice:
            input_section.append(_kv("nice_override", "forced"))
        sections.append(input_section)
        write_artifact("input_graph.txt", format_graph(g))

        # stage 1: graph extension toward the extension property
        stage_sizes = [g.n]
        cur = g
        for _ in range(args.depth_k):
            cur = extend(cur, args.budget_vertices)
            stage_sizes.append(cur.n)
        extended, inclusion = cur, tuple(range(g.n))
        audit = audit_extension_property(
            extended, m=g.n, universe=range(g.n)
        )
        verdicts.append(audit.ok)
        sections.append(
            [
                _kv("stage_sizes", " -> ".join(map(str, stage_sizes))),
                _kv("inclusion", "identity on 0.." + str(g.n - 1) if g.n else "-"),
                _kv("extension_audit_pairs", audit.pair_count),
                _kv("extension_audit_failures", len(audit.failures)),
            ]
        )
        write_artifact("extended_graph.txt", format_graph(extended))

        # stage 2: the graph group and its transport into the extended stage
        pc = build_mekler(g, args.p)
        write_artifact("mekler_group.txt", format_manifest(_mekler_sections(pc)))
        pc_big = build_mekler(extended, args.p)
        hom = PcHom(pc, pc_big, inclusion)
        hom_failures, distinct_sources, distinct_images = _transport_sample(
            hom, args.seed
        )
        inj_ok = distinct_images == distinct_sources
        verdicts.append(hom_failures == 0 and inj_ok)
        sections.append(
            [
                _kv("gamma_order", pc.order_expression()),
                _kv("gamma_prime_order", pc_big.order_expression()),
                _kv("injection", "identity on vertex coordinates"),
                _kv("hom_samples", _HOM_SAMPLES),
                _kv("hom_failures", hom_failures),
                _kv("injectivity_samples", distinct_sources),
                _kv("injectivity_clashes", distinct_sources - distinct_images),
            ]
        )
        write_artifact(
            "gamma_prime.txt",
            format_manifest(
                [
                    [
                        _kv("source_order", pc.order_expression()),
                        _kv("target_order", pc_big.order_expression()),
                        _kv("vertex_injection",
                            ",".join(map(str, inclusion)) or "-"),
                        _kv("hom_samples", _HOM_SAMPLES),
                        _kv("hom_failures", hom_failures),
                    ]
                ]
            ),
        )

        # stage 3: the tower over the configured small base
        tower, sys_d = _build_tower(
            base, args.depth_d, args.budget_points, args.budget_enum
        )
        tower_sections, tower_ok = _tower_sections(tower, sys_d)
        verdicts.append(tower_ok)
        write_artifact("tower.txt", format_manifest(tower_sections))
        sections.append(tower_sections[-1])

        audit_report = _stage0_audit(tower, args)
        write_artifact("omni_report.txt", audit_report.format_text())
        sections.append(
            [
                _kv("omni_rows", len(audit_report.rows)),
                _kv("omni_unwitnessed", len(audit_report.unwitnessed)),
                _kv("omni_flagged", len(audit_report.flagged)),
            ]
        )

        # the intended base is the transported graph group, recorded only
        sections.append(
            [
                _kv("intended_base", f"graph group of extended stage, p={args.p}"),
                _kv("intended_base_order", pc_big.order_expression()),
                _kv(
                    "binding",
                    "tower base stands in for the graph group; "
                    "the group itself is recorded symbolically, not enumerated",
                ),
            ]
        )
    except ParseError as exc:
        sections.append([_kv("error", f"input: {exc}")])
        finish("malformed-input", 2)
        raise  # main reports it on stderr and exits 2
    except BudgetError as exc:
        sections.append([_kv("error", f"budget: {exc}")])
        finish("incomplete", 3)
        raise  # main reports it on stderr and exits 3
    ok = all(verdicts)
    return finish("complete" if ok else "verification-failure", 0 if ok else 1)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meklerkit",
        description="graph towers, graph groups, direct-limit towers, "
        "and extension-property audits",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget_enum(p):
        p.add_argument(
            "--budget-enum",
            type=int,
            default=DEFAULT_ENUM_BUDGET,
            help="element enumeration budget",
        )

    p = sub.add_parser("nice", help="niceness report for a graph file")
    p.add_argument("graph")
    p.set_defaults(func=cmd_nice)

    p = sub.add_parser("extend", help="iterate the subset extension")
    p.add_argument("graph")
    p.add_argument("--depth-k", type=int, default=1)
    p.add_argument("--budget-vertices", type=int, default=DEFAULT_VERTEX_BUDGET)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("mekler", help="graph group descriptor")
    p.add_argument("graph")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_mekler)

    p = sub.add_parser("center", help="center of the graph group")
    p.add_argument("graph")
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=cmd_center)

    p = sub.add_parser("recover", help="rebuild the graph from commutation")
    p.add_argument("graph")
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("iso", help="brute-force isomorphism of two group files")
    p.add_argument("group_a")
    p.add_argument("group_b")
    add_budget_enum(p)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("lift", help="lift every hom F -> G through F (+) G")
    p.add_argument("group_f")
    p.add_argument("group_g")
    add_budget_enum(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("omni", help="bounded extension-property audit")
    p.add_argument("group", nargs="?")
    p.add_argument("--dstage", help="group file for the tower base A; "
                   "audits A (+) Alt(5) with kernel flagging")
    p.add_argument("--bound", type=int, nargs=2, metavar=("MAX_F", "MAX_G"),
                   required=True)
    p.add_argument("--h-bound", type=int, default=None)
    p.add_argument("-o", "--out")
    add_budget_enum(p)
    p.set_defaults(func=cmd_omni)

    p = sub.add_parser("tower", help="build and check the tower over a base")
    p.add_argument("--a", help="group file for the base (default: C2)")
    p.add_argument("--depth-d", type=int, default=1)
    p.add_argument("--budget-points", type=int, default=DEFAULT_POINT_BUDGET)
    add_budget_enum(p)
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("reduce", help="full pipeline with manifest output")
    p.add_argument("graph")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--depth-k", type=int, default=1)
    p.add_argument("--depth-d", type=int, default=1)
    p.add_argument("--a", help="group file for the tower base (default: C2)")
    p.add_argument("--bound", type=int, nargs=2, metavar=("MAX_F", "MAX_G"),
                   default=[2, 6])
    p.add_argument("--h-bound", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true",
                   help="run even if the input graph is not nice")
    p.add_argument("--budget-vertices", type=int, default=DEFAULT_VERTEX_BUDGET)
    p.add_argument("--budget-points", type=int, default=DEFAULT_POINT_BUDGET)
    add_budget_enum(p)
    p.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "omni" and bool(args.group) == bool(args.dstage):
        parser.error("omni needs exactly one of GROUP or --dstage")
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
