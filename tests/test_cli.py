"""Command line behavior: exit codes, output formats, determinism."""

import hashlib
import json
import random
import tracemalloc

import numpy as np
import pytest

import meklerkit.omni
from meklerkit import (
    Hom,
    PcGroup,
    PcHom,
    Perm,
    build_mekler,
    extend,
    parse_graph,
    parse_group,
    parse_manifest,
)
from meklerkit.cli import (
    DEFAULT_ENUM_BUDGET,
    DEFAULT_POINT_BUDGET,
    _build_tower,
    _load_base,
    _tower_sections,
    _transport_sample,
    main,
)

C5 = "p graph 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 0 4\n"
K3 = "p graph 3\ne 0 1\ne 0 2\ne 1 2\n"
K2 = "p graph 2\ne 0 1\n"
P3 = "p graph 3\ne 0 1\ne 1 2\n"
K1 = "p graph 1\n"


def cycle(n):
    return f"p graph {n}\n" + "".join(f"e {i} {(i + 1) % n}\n" for i in range(n))

C2_GROUP = "p group 2\ng: 1 0\n"
C4_GROUP = "p group 4\ng: 1 2 3 0\n"
V4_GROUP = "p group 4\ng: 1 0 3 2\ng: 2 3 0 1\n"
C6_GROUP = "p group 6\ng: 1 2 3 4 5 0\n"
C2XC3_GROUP = "p group 5\ng: 1 0 3 4 2\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def flat(manifest_text):
    pairs = {}
    for section in parse_manifest(manifest_text):
        for k, v in section:
            pairs[k] = v
    return pairs


def test_nice_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "c5.txt", C5)
    assert main(["nice", good]) == 0
    out = capsys.readouterr().out
    assert "nice: True" in out
    assert "vertices: 5" in out

    bad = write(tmp_path, "k3.txt", K3)
    assert main(["nice", bad]) == 1
    out = capsys.readouterr().out
    assert "nice: False" in out
    assert "violation:" in out


def test_parse_failures_exit_2(tmp_path, capsys):
    garbage = write(tmp_path, "bad.txt", "p graph 2\ne 0 7\n")
    assert main(["nice", garbage]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["nice", str(tmp_path / "missing.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_iso_over_point_budget_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("meklerkit.groups.DEFAULT_POINT_BUDGET", 4)
    big = write(tmp_path, "big.txt", "p group 5\n")
    small = write(tmp_path, "c4.txt", C4_GROUP)
    assert main(["iso", big, small]) == 2
    assert "point budget" in capsys.readouterr().err


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_extend_writes_parseable_graph(tmp_path, capsys):
    src = write(tmp_path, "k2.txt", K2)
    out_path = tmp_path / "ext.txt"
    assert main(["extend", src, "-o", str(out_path)]) == 0
    text = out_path.read_text()
    assert text.startswith("# extended 1x: 2 -> 6 vertices")
    g = parse_graph(text)
    assert g.n == 6
    assert g.edge_count() == 5


def test_extend_over_budget_exits_3(tmp_path, capsys):
    src = write(tmp_path, "c5.txt", C5)
    assert main(["extend", src, "--depth-k", "2"]) == 3
    assert "budget error:" in capsys.readouterr().err


def test_mekler_manifest(tmp_path, capsys):
    src = write(tmp_path, "c5.txt", C5)
    assert main(["mekler", src, "--p", "3"]) == 0
    info = flat(capsys.readouterr().out)
    assert info["object"] == "graph group"
    assert info["vertices"] == "5"
    assert info["edges"] == "5"
    assert info["pair_coordinates"] == "5"
    assert info["order"] == "3^10"
    assert len(info["nonedge_pairs"].split(";")) == 5


def test_center_report(tmp_path, capsys):
    src = write(tmp_path, "p3.txt", P3)
    assert main(["center", src, "--p", "3"]) == 0
    out = capsys.readouterr().out
    assert "universal_vertices: 1" in out
    assert "center_order: 3^2" in out


def test_recover_round_trip(tmp_path, capsys):
    src = write(tmp_path, "c5.txt", C5)
    assert main(["recover", src, "--p", "5"]) == 0
    out = capsys.readouterr().out
    assert "round_trip: ok" in out
    assert parse_graph(out.rsplit("round_trip", 1)[0]).edge_count() == 5


def test_iso_positive(tmp_path, capsys):
    a = write(tmp_path, "c6.txt", C6_GROUP)
    b = write(tmp_path, "c2xc3.txt", C2XC3_GROUP)
    assert main(["iso", a, b]) == 0
    out = capsys.readouterr().out
    assert "isomorphic: yes" in out
    assert "map:" in out


def test_iso_prints_a_true_image_for_every_generator(tmp_path, capsys):
    # the left group's 3-cycle is given twice, so the iso search's greedy
    # generating sequence is not its generator list
    left = "p group 3\ng: 1 2 0\ng: 2 0 1\ng: 1 0 2\n"
    right = "p group 3\ng: 1 0 2\ng: 1 2 0\n"
    a = write(tmp_path, "left.txt", left)
    b = write(tmp_path, "right.txt", right)
    assert main(["iso", a, b]) == 0
    lines = [ln[len("map: "):].split(" -> ") for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("map: ")]
    g, h = parse_group(left), parse_group(right)
    assert [Perm(json.loads(src)) for src, _ in lines] == list(g.gens)
    iso = Hom(g, h, [Perm(json.loads(im)) for _, im in lines])
    assert iso.verify().is_injective()


def test_iso_negative_names_invariant(tmp_path, capsys):
    a = write(tmp_path, "c4.txt", C4_GROUP)
    b = write(tmp_path, "v4.txt", V4_GROUP)
    assert main(["iso", a, b]) == 1
    out = capsys.readouterr().out
    assert "isomorphic: no" in out
    assert "separating_invariant:" in out


def test_lift_reports_every_hom(tmp_path, capsys):
    f = write(tmp_path, "f.txt", C2_GROUP)
    g = write(tmp_path, "g.txt", C2_GROUP)
    assert main(["lift", f, g]) == 0
    out = capsys.readouterr().out
    assert "homs: 2" in out
    assert out.count("verified") == 2


def test_omni_needs_exactly_one_source(tmp_path, capsys):
    grp = write(tmp_path, "c2.txt", C2_GROUP)
    with pytest.raises(SystemExit) as exc:
        main(["omni", "--bound", "1", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["omni", grp, "--dstage", grp, "--bound", "1", "1"])
    assert exc.value.code == 2


def test_omni_exit_codes(tmp_path, capsys):
    grp = write(tmp_path, "c2.txt", C2_GROUP)
    assert main(["omni", grp, "--bound", "2", "2"]) == 0
    out = capsys.readouterr().out
    assert "witness" in out
    # C4 and V4 have no room inside C2, so those rows stay unwitnessed
    assert main(["omni", grp, "--bound", "2", "4"]) == 1
    out = capsys.readouterr().out
    assert "none" in out


def test_omni_dstage(tmp_path, capsys):
    grp = write(tmp_path, "c2.txt", C2_GROUP)
    code = main(["omni", "--dstage", grp, "--bound", "1", "2", "--h-bound", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "none" not in out.splitlines()[-1]


def test_tower_manifest_and_checks(capsys):
    assert main(["tower"]) == 0
    info = flat(capsys.readouterr().out)
    assert info["base"] == "C2"
    assert info["h0"] == "Alt(5)"
    assert info["stage0_order"] == "120"
    assert info["pi_commutes"] == "yes"
    assert info["kernel_is_e_x_h"] == "yes"
    assert info["quotient_is_base"] == "yes"
    assert info["absorption_all_contain_kernel"] == "yes"
    assert "inconclusive" in info["base_coordinate_note"]


@pytest.mark.parametrize("row", [0, 57, 119])
def test_tower_pi_check_sees_a_corrupted_a_block(row):
    # the pi check reads the A-block of every phi_0 table row, so reversing
    # the C2 block of any one row, first to last, makes it fail
    tower, sys_d = _build_tower(
        _load_base(None), 1, DEFAULT_POINT_BUDGET, DEFAULT_ENUM_BUDGET
    )
    sections, ok = _tower_sections(tower, sys_d)
    assert dict(sections[1])["pi_commutes"] == "yes" and ok
    table = sys_d.maps[0].mapping
    da = tower.base.degree
    table[row, :da] = table[row, :da][::-1].copy()
    sections, ok = _tower_sections(tower, sys_d)
    assert dict(sections[1])["pi_commutes"] == "NO" and not ok


# S4 x C2 on six points, the base of the benchmark's heaviest tower run
S4XC2_GROUP = "p group 6\ng: 1 2 3 0 4 5\ng: 1 0 2 3 4 5\ng: 0 1 2 3 5 4\n"
S4XC2_TOWER_SHA256 = "1311a57311b00ce5cfcb33681276569da65d3e4db84a1104552184c441ec8da8"


def test_tower_over_s4xc2_prints_the_golden_bytes(tmp_path, capsys):
    """Depth 1 over S4 x C2: stage 1 is Alt(2882) acting on 2,888 points."""
    base = write(tmp_path, "s4xc2.txt", S4XC2_GROUP)
    assert main(["tower", "--a", base, "--depth-d", "1"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == S4XC2_TOWER_SHA256


def test_tower_depth_two_over_budget(capsys):
    assert main(["tower", "--depth-d", "2"]) == 3
    assert "budget error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["extend", "GRAPH", "--depth-k", "-1"],
        ["tower", "--depth-d", "-1"],
        ["omni", "C2", "--bound", "2", "12"],
        ["omni", "--dstage", "C2", "--bound", "2", "12"],
        ["reduce", "GRAPH", "--p", "3", "--depth-d", "-1"],
        ["reduce", "GRAPH", "--p", "3", "--depth-k", "-1"],
        ["reduce", "GRAPH", "--p", "3", "--bound", "2", "12"],
        ["omni", "C2", "--bound", "2", "2", "--h-bound", "-1"],
        ["omni", "--dstage", "C2", "--bound", "2", "2", "--h-bound", "0"],
        ["reduce", "GRAPH", "--p", "3", "--h-bound", "0"],
        ["extend", "GRAPH", "--budget-vertices", "0"],
        ["reduce", "GRAPH", "--p", "3", "--budget-vertices", "0"],
        ["tower", "--budget-points", "0"],
        ["reduce", "GRAPH", "--p", "3", "--budget-points", "-5"],
        ["iso", "C2", "C2", "--budget-enum", "0"],
        ["lift", "C2", "C2", "--budget-enum", "0"],
        ["omni", "C2", "--bound", "2", "2", "--budget-enum", "0"],
        ["omni", "--dstage", "C2", "--bound", "2", "2", "--budget-enum", "0"],
        ["tower", "--budget-enum", "-1"],
        ["reduce", "GRAPH", "--p", "3", "--budget-enum", "0"],
        ["reduce", "GRAPH", "--p", "3", "--bound", "0", "6"],
        ["reduce", "GRAPH", "--p", "3", "--bound", "2", "0"],
        ["omni", "--dstage", "C2", "--bound", "-3", "2"],
        ["omni", "--dstage", "C2", "--bound", "2", "-1"],
        ["omni", "C2", "--bound", "0", "2"],
    ],
    ids=["extend-depth-k", "tower-depth-d", "omni-max-g", "omni-dstage-max-g",
         "reduce-depth-d", "reduce-depth-k", "reduce-max-g", "omni-h-bound",
         "omni-dstage-h-bound", "reduce-h-bound",
         "extend-budget-vertices", "reduce-budget-vertices", "tower-budget-points",
         "reduce-budget-points", "iso-budget-enum", "lift-budget-enum",
         "omni-budget-enum", "omni-dstage-budget-enum", "tower-budget-enum",
         "reduce-budget-enum", "reduce-max-f", "reduce-max-g-zero", "omni-dstage-max-f",
         "omni-dstage-max-g-negative", "omni-max-f"],
)
def test_bad_depth_or_bound_exits_2_before_any_work(tmp_path, capsys, argv):
    files = {
        "GRAPH": write(tmp_path, "c5.txt", C5),
        "C2": write(tmp_path, "c2.txt", C2_GROUP),
    }
    argv = [files.get(a, a) for a in argv]
    outdir = tmp_path / "run"
    if argv[0] == "reduce":
        argv += ["--out", str(outdir)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1
    if argv[0] == "reduce":
        assert sorted(p.name for p in outdir.iterdir()) == ["manifest.txt"]
        info = flat((outdir / "manifest.txt").read_text())
        assert info["status"] == "malformed-input"
        assert info["artifacts"] == "none"
    else:
        assert captured.out == ""


def test_budget_enum_binds_every_tower_stage(tmp_path, capsys):
    grp = write(tmp_path, "c2.txt", C2_GROUP)
    src = write(tmp_path, "c5.txt", C5)
    outdir = tmp_path / "run"
    for argv in (
        ["tower", "--budget-enum", "10"],
        ["omni", "--dstage", grp, "--bound", "2", "6", "--budget-enum", "10"],
    ):
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("budget error:")
    argv = ["reduce", src, "--p", "3", "--budget-enum", "10", "--out", str(outdir)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("budget error:")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == (outdir / "manifest.txt").read_text()
    info = flat(captured.out)
    assert info["status"] == "incomplete"
    assert info["error"].startswith("budget: ")


def test_omni_dstage_is_the_reduce_stage0_audit(tmp_path, capsys):
    grp = write(tmp_path, "c2.txt", C2_GROUP)
    src = write(tmp_path, "c5.txt", C5)
    outdir = tmp_path / "run"
    assert main(["reduce", src, "--p", "3", "--a", grp, "--out", str(outdir)]) == 0
    capsys.readouterr()
    code = main(["omni", "--dstage", grp, "--bound", "2", "6", "--h-bound", "12"])
    assert code == 1  # some rows stay unwitnessed within |H| <= 12
    out = capsys.readouterr().out
    assert out == (outdir / "omni_report.txt").read_text()
    assert hashlib.sha256(out.encode()).hexdigest().startswith("462af7f00403")


def test_omni_dstage_report_through_order_11_is_pinned(tmp_path, capsys):
    # orders 7-11 of the catalog run the single-generator search on masks too
    grp = write(tmp_path, "c2.txt", C2_GROUP)
    code = main(["omni", "--dstage", grp, "--bound", "2", "11", "--h-bound", "12"])
    assert code == 1
    out = capsys.readouterr().out
    assert "\nrows: 321\nunwitnessed: 191\n" in out
    assert hashlib.sha256(out.encode()).hexdigest().startswith("a29a7b36c4fd")


def test_omni_dstage_report_over_s3_is_pinned(tmp_path, capsys):
    # stage 0 is S3 (+) Alt(5), order 720: the lattice and conjugation rows past C2
    grp = write(tmp_path, "s3.txt", "p group 3\ng: 1 0 2\ng: 1 2 0\n")
    code = main(["omni", "--dstage", grp, "--bound", "2", "6", "--h-bound", "12"])
    assert code == 1
    out = capsys.readouterr().out
    assert "\nrows: 321\nunwitnessed: 109\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "38588a50ae85db776716aa0c5ec1d5e351c2a341cee5871f0d7253bc41283e5b"
    )


def test_omni_dstage_report_over_the_heisenberg_group_is_pinned(tmp_path, capsys):
    # G(K2bar, 3) on F_3^2, non-abelian of odd order 27: stage 0 has order 1,620
    grp = write(tmp_path, "heis.txt", "p group 9\ng: 1 2 0 4 5 3 7 8 6\ng: 0 4 8 3 7 2 6 1 5\n")
    code = main(["omni", "--dstage", grp, "--bound", "2", "6", "--h-bound", "12"])
    assert code == 1
    out = capsys.readouterr().out
    assert "\nrows: 81\nunwitnessed: 16\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f7a970ff650e3538a0b718166c86450995bc2fba725216aca03f339262380589"
    )


def test_omni_dstage_report_with_flagged_rows_is_pinned(tmp_path, capsys):
    # |H| <= 4 leaves S3 targets over F inside the {e} x Alt(5) block unwitnessed,
    # and S3 embeds in Alt(5): the one CLI run whose report raises h-lift-miss
    grp = write(tmp_path, "c2.txt", C2_GROUP)
    code = main(["omni", "--dstage", grp, "--bound", "2", "6", "--h-bound", "4"])
    assert code == 1
    out = capsys.readouterr().out
    assert "\nrows: 161\nunwitnessed: 96\nflagged: 16\n" in out
    assert out.count("| h-lift-miss\n") == 16
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3fdeb53583d9b700ad9d771609025a7739ccf235c5016edbed8323889397fd3c"
    )


@pytest.mark.parametrize("base, rows, unwitnessed, digest", [
    (C2_GROUP, 161, 48, "f194c72fea18fb16be57e02f80352f34a791f35ea8d269f70eda7a7de6c47711"),
    ("p group 3\ng: 1 0 2\ng: 1 2 0\n", 321, 64,
     "ba149f45cff53fa30bf3f57426b3e9bd72c040d861edbaa5163199f581897214"),
    ("p group 9\ng: 1 2 0 4 5 3 7 8 6\ng: 0 4 8 3 7 2 6 1 5\n", 81, 16,
     "00c213d386170241722aef64c48e7d07524d5cc941d1e50ed17fd2c8aef58137"),
    ("p group 4\ng: 1 0 2 3\ng: 1 2 3 0\n", 801, 99,
     "fdbab67067fc243ab16a5452230924db04cb59a0a796b230153c9e30331fe5cc"),
], ids=["C2", "S3", "Heisenberg", "S4"])
def test_omni_dstage_whole_stage_report_is_pinned(tmp_path, capsys, base, rows, unwitnessed,
                                                  digest):
    # no --h-bound: every H of stage 0 is searched, so a "none" row holds for all of it
    grp = write(tmp_path, "base.txt", base)
    assert main(["omni", "--dstage", grp, "--bound", "2", "6"]) == 1
    out = capsys.readouterr().out
    assert f"\nrows: {rows}\nunwitnessed: {unwitnessed}\nflagged: 0\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", ["mekler", "center", "recover", "reduce"])
def test_non_prime_p_exits_2(tmp_path, capsys, command):
    src = write(tmp_path, "c5.txt", C5)
    # the two large values are primes past the int64-safe bound 2^31 - 1
    for p in ("4", "2147483659", "10000000000000000051"):
        argv = [command, src, "--p", p]
        if command == "reduce":
            argv += ["--out", str(tmp_path / f"run{p}")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "odd prime" in err
        assert len(err.splitlines()) == 1


def test_reduce_bad_base_fails_before_writing(tmp_path, capsys):
    src = write(tmp_path, "c5.txt", C5)
    outdir = tmp_path / "run"
    missing = str(tmp_path / "missing.txt")
    assert main(["reduce", src, "--p", "3", "--a", missing, "--out", str(outdir)]) == 2
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in outdir.iterdir()) == ["manifest.txt"]
    info = flat((outdir / "manifest.txt").read_text())
    assert info["status"] == "malformed-input"
    assert info["artifacts"] == "none"
    assert info["error"].startswith("input: cannot read")


@pytest.mark.parametrize("argv", [
    ["extend", "{c5}", "-o", "{tmp}/missing/dir/x.txt"],
    ["omni", "--dstage", "{c2}", "--bound", "1", "2", "--h-bound", "2",
     "-o", "{tmp}/missing/x"],
    # the output path is the input graph, a regular file: no directory, so
    # no manifest, and the file is left as it was
    ["reduce", "{c5}", "--p", "3", "--out", "{c5}"],
    ["mekler", "{c5}", "--p", "3", "-o", "{tmp}/missing/x"],
    # an existing directory is no file to write
    ["omni", "--dstage", "{c2}", "--bound", "1", "2", "--h-bound", "2", "-o", "{tmp}"],
], ids=["extend", "omni-dstage", "reduce", "mekler", "omni-directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    paths = {"c5": write(tmp_path, "c5.txt", C5), "c2": write(tmp_path, "c2.txt", C2_GROUP),
             "tmp": str(tmp_path)}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and len(err.splitlines()) == 1
    assert (tmp_path / "c5.txt").read_text() == C5
    assert not (tmp_path / "missing").exists()


def test_unwritable_output_is_refused_before_the_audit(tmp_path, capsys, monkeypatch):
    calls = []
    real = meklerkit.omni._first_witness
    monkeypatch.setattr(meklerkit.omni, "_first_witness", lambda *a: calls.append(a) or real(*a))
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "c2.txt", C2_GROUP)
    argv = ["omni", "--dstage", "c2.txt", "--bound", "1", "2", "--h-bound", "2"]
    assert main(argv + ["-o", "missing/x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and len(err.splitlines()) == 1
    assert calls == []
    # the counter sees the audit once the output can be written
    assert main(argv + ["-o", "x"]) == 0
    assert calls and (tmp_path / "x").read_text().startswith("omni audit of")


def test_reduce_unreadable_graph_path_with_newline(tmp_path, capsys):
    outdir = tmp_path / "run"
    missing = str(tmp_path / "no\nsuch.txt")
    assert main(["reduce", missing, "--p", "3", "--out", str(outdir)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    info = flat((outdir / "manifest.txt").read_text())
    assert info["status"] == "malformed-input"
    assert info["error"] == f"input: cannot read {missing!r}: No such file or directory"


def test_reduce_base_path_with_trailing_space(tmp_path, capsys):
    src = write(tmp_path, "c5.txt", C5)
    base = write(tmp_path, "c2.txt ", C2_GROUP)
    outdir = tmp_path / "run"
    assert main(["reduce", src, "--p", "3", "--a", base, "--out", str(outdir)]) == 0
    capsys.readouterr()
    sections = parse_manifest((outdir / "manifest.txt").read_text())
    assert ("base", repr(base)) in sections[1]  # the run configuration
    assert sections[-1] == [("status", "complete")]


def test_reduce_refuses_non_nice_input(tmp_path, capsys):
    src = write(tmp_path, "k3.txt", K3)
    outdir = tmp_path / "run"
    assert main(["reduce", src, "--p", "3", "--out", str(outdir)]) == 1
    capsys.readouterr()
    info = flat((outdir / "manifest.txt").read_text())
    assert info["status"] == "refused"
    assert info["gate"].startswith("refused")
    assert info["artifacts"] == "none"
    assert not (outdir / "input_graph.txt").exists()


def test_reduce_force_overrides_gate(tmp_path, capsys):
    src = write(tmp_path, "k3.txt", K3)
    outdir = tmp_path / "run"
    code = main(["reduce", src, "--p", "3", "--force", "--out", str(outdir)])
    assert code == 0
    capsys.readouterr()
    info = flat((outdir / "manifest.txt").read_text())
    assert info["status"] == "complete"
    assert info["nice_override"] == "forced"
    assert info["hom_failures"] == "0"
    assert info["extension_audit_failures"] == "0"


def test_reduce_artifacts_and_determinism(tmp_path, capsys):
    src = write(tmp_path, "c5.txt", C5)
    runs = []
    for name in ("run1", "run2"):
        outdir = tmp_path / name
        code = main(["reduce", src, "--p", "3", "--out", str(outdir)])
        assert code == 0
        capsys.readouterr()
        runs.append(outdir)

    names = [
        "input_graph.txt",
        "extended_graph.txt",
        "mekler_group.txt",
        "gamma_prime.txt",
        "tower.txt",
        "omni_report.txt",
        "manifest.txt",
    ]
    for name in names:
        b1 = (runs[0] / name).read_bytes()
        b2 = (runs[1] / name).read_bytes()
        assert b1 == b2

    info = flat((runs[0] / "manifest.txt").read_text())
    assert info["status"] == "complete"
    # the regression oracle: these bytes change only on purpose
    manifest_digest = hashlib.sha256((runs[0] / "manifest.txt").read_bytes())
    assert manifest_digest.hexdigest().startswith("9ca006ee6989")
    assert info["gamma_order"] == "3^10"
    assert info["stage_sizes"] == "5 -> 37"
    # recorded digests match the artifact bytes on disk
    for name in names[:-1]:
        key = "artifact_" + name.replace(".", "_")
        digest = hashlib.sha256((runs[0] / name).read_bytes()).hexdigest()
        assert info[key] == digest

    # `tower` prints the same manifest that reduce writes as tower.txt
    assert main(["tower"]) == 0
    assert capsys.readouterr().out == (runs[0] / "tower.txt").read_text()


C6_REDUCE_MANIFEST_SHA256 = "9905470264b7c6e737beb3d677fa7971365c6eb0febf0c4f04c83c3a0b02e6ce"


def test_reduce_over_c6_writes_the_golden_manifest(tmp_path, capsys):
    src = write(tmp_path, "c6.txt", cycle(6))
    outdir = tmp_path / "run"
    assert main(["reduce", src, "--p", "3", "--out", str(outdir)]) == 0
    capsys.readouterr()
    text = (outdir / "manifest.txt").read_text()
    info = flat(text)
    assert (info["status"], info["omni_rows"], info["omni_unwitnessed"]) == ("complete", "161", "63")
    assert hashlib.sha256(text.encode()).hexdigest() == C6_REDUCE_MANIFEST_SHA256


# ---------------------------------------------------------------------------
# reduce's stage 2: the seeded transport sample
# ---------------------------------------------------------------------------

def reduce_hom(text, p):
    """The transport that `reduce` checks: the graph group into that of its extension."""
    g = parse_graph(text)
    return PcHom(build_mekler(g, p), build_mekler(extend(g), p), range(g.n))


def _whole_sample_reference(hom, seed):
    """Stage 2 as it was before the row blocks: every sampled row at once."""
    pc, pc_big = hom.source, hom.target
    rng = random.Random(seed)
    samples = 1000
    dims_a, dims_b = pc.n, pc.num_pairs
    def sample_block(width):
        flat = [rng.randrange(pc.p) for _ in range(samples * width)]
        return np.array(flat, dtype=np.int64).reshape(samples, width)

    a1, b1 = sample_block(dims_a), sample_block(dims_b)
    a2, b2 = sample_block(dims_a), sample_block(dims_b)
    pa, pb = pc.multiply_arrays(a1, b1, a2, b2)
    ta1, tb1 = hom.apply_arrays(a1, b1)
    ta2, tb2 = hom.apply_arrays(a2, b2)
    tpa, tpb = pc_big.multiply_arrays(ta1, tb1, ta2, tb2)
    ha, hb = hom.apply_arrays(pa, pb)
    hom_failures = int(
        np.count_nonzero(np.any(tpa != ha, axis=-1) | np.any(tpb != hb, axis=-1))
    )
    source_keys = {
        tuple(row) for row in np.concatenate([a1, b1], axis=-1).tolist()
    }
    image_keys = {
        tuple(row) for row in np.concatenate([ta1, tb1], axis=-1).tolist()
    }
    return hom_failures, len(source_keys), len(image_keys)


@pytest.mark.parametrize("seed", [0, 97])
@pytest.mark.parametrize("text, p", [(cycle(5), 3), (cycle(5), 5), (cycle(6), 3), (K1, 3)],
                         ids=["c5-p3", "c5-p5", "c6-p3", "one-vertex-p3"])
def test_transport_sample_matches_the_whole_sample(text, p, seed):
    hom = reduce_hom(text, p)
    assert _transport_sample(hom, seed) == _whole_sample_reference(hom, seed)


@pytest.mark.parametrize("seed", [0, 97])
def test_forced_one_vertex_reduce_reports_the_whole_sample(tmp_path, capsys, seed):
    # the one-vertex graph group has no pair coordinates
    src = write(tmp_path, "k1.txt", K1)
    outdir = tmp_path / "run"
    argv = ["reduce", src, "--p", "3", "--force", "--seed", str(seed), "--out", str(outdir)]
    assert main(argv) == 0
    capsys.readouterr()
    info = flat((outdir / "manifest.txt").read_text())
    failures, sources, images = _whole_sample_reference(reduce_hom(K1, 3), seed)
    assert info["hom_failures"] == str(failures) == "0"
    assert info["injectivity_samples"] == str(sources)
    assert info["injectivity_clashes"] == str(sources - images) == "0"


def test_transport_sample_walks_c5_in_row_blocks(monkeypatch):
    # C5 extends to 37 vertices and 581 pairs: 2^16 // 618 = 106 rows a block,
    # and 1000 = 9 x 106 + 46
    rows = []
    real = PcGroup.multiply_arrays

    def counted(self, *arrays):
        rows.append(len(arrays[0]))
        return real(self, *arrays)

    monkeypatch.setattr(PcGroup, "multiply_arrays", counted)
    _transport_sample(reduce_hom(cycle(5), 3), 0)
    assert rows == [106] * 18 + [46] * 2  # the source and the target product per block


def test_a_broken_transport_is_counted_once(tmp_path, capsys, monkeypatch):
    hom = reduce_hom(C5, 3)
    pc = hom.source
    rng = random.Random(0)
    a1, b1, a2, b2 = (
        np.array([rng.randrange(3) for _ in range(1000 * w)], dtype=np.int64).reshape(1000, w)
        for w in (pc.n, pc.num_pairs, pc.n, pc.num_pairs)
    )
    row = 150  # in the second block of 106 rows
    bad_a, bad_b = pc.multiply_arrays(a1[row], b1[row], a2[row], b2[row])
    real = PcHom.apply_arrays

    def broken(self, a, b):
        # wrong on the one source element x1 x2 of the chosen row
        ta, tb = real(self, a, b)
        hit = np.all(np.asarray(a) == bad_a, axis=-1) & np.all(np.asarray(b) == bad_b, axis=-1)
        ta[hit, 0] = (ta[hit, 0] + 1) % 3
        return ta, tb

    monkeypatch.setattr(PcHom, "apply_arrays", broken)
    assert _transport_sample(hom, 0)[0] == 1
    src = write(tmp_path, "c5.txt", C5)
    outdir = tmp_path / "run"
    assert main(["reduce", src, "--p", "3", "--out", str(outdir)]) == 1
    capsys.readouterr()
    info = flat((outdir / "manifest.txt").read_text())
    assert info["hom_failures"] == "1"
    assert info["status"] == "verification-failure"


def test_transport_sample_memory_stays_flat_on_c7():
    # C7 extends to 135 vertices and 8,590 pairs; the whole sample held
    # about 400 MB of target rows at once
    hom = reduce_hom(cycle(7), 3)
    tracemalloc.start()
    try:
        failures, sources, images = _transport_sample(hom, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert failures == 0 and sources == images
    assert peak < 16 * 2**20
