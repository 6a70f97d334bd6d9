import argparse
import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import tetrahedral_quandle
from quandleforge import io as qio
from quandleforge.cli import build_parser, main
from quandleforge.cohomology import Cocycle2, second_cohomology
from quandleforge.constructions import (alexander_quandle, cyclic_group,
                                        dihedral_quandle, symmetric_group,
                                        trivial_quandle)
from quandleforge.knots import bundled_knots

SRC = Path(__file__).resolve().parent.parent / "src"
# the Klein four-group; `make galex --images 1,3,4,2` on it is tetrahedral
KLEIN_GROUP = "#group\n4\n1 2 3 4\n2 1 4 3\n3 4 1 2\n4 3 2 1\n"


def knots_to_text(knots):
    lines = []
    for k in knots:
        word = ",".join(str(g) for g in k.word)
        lines.append(f"{k.name};{k.strands};{word}")
    return "\n".join(lines) + "\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()
               if line.strip().startswith("{")]
    return code, records, captured.err


@pytest.fixture
def d3_file(tmp_path):
    path = tmp_path / "d3.quandle"
    qio.write_text(path, qio.quandle_to_text(dihedral_quandle(3)))
    return str(path)


class TestFormats:
    def test_quandle_roundtrip(self, tmp_path, d5):
        path = tmp_path / "q.quandle"
        qio.write_text(path, qio.quandle_to_text(d5, comment="five"))
        assert qio.read_quandle(path).table == d5.table

    def test_one_based_on_disk(self, d3):
        text = qio.quandle_to_text(d3)
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines[0] == "3"
        assert lines[1].split() == ["1", "3", "2"]

    def test_comments_ignored(self):
        text = "# a comment\n3\n# another\n1 3 2\n3 2 1\n2 1 3\n"
        assert qio.parse_quandle_text(text).n == 3

    def test_group_header_required(self, tmp_path):
        g = cyclic_group(3)
        path = tmp_path / "g.group"
        qio.write_text(path, qio.group_to_text(g))
        assert qio.read_group(path).order == 3
        with pytest.raises(ValueError):
            qio.read_quandle(path)
        path2 = tmp_path / "bare.group"
        qio.write_text(path2, qio.quandle_to_text(dihedral_quandle(3)))
        with pytest.raises(ValueError):
            qio.read_group(path2)

    def test_cocycle_roundtrip(self, tmp_path, tetrahedral, tet_psi):
        path = tmp_path / "phi.cocycle"
        qio.write_text(path, qio.cocycle_to_text(tet_psi))
        back = qio.read_cocycle(path)
        assert back.values == tet_psi.values and back.m == 2

    def test_knot_table_roundtrip(self, tmp_path):
        knots = bundled_knots()
        path = tmp_path / "knots.txt"
        qio.write_text(path, knots_to_text(knots))
        back = qio.read_knots(path)
        assert [(k.name, k.strands, k.word) for k in back] \
            == [(k.name, k.strands, k.word) for k in knots]

    def test_truncated_table_rejected(self):
        with pytest.raises(ValueError):
            qio.parse_quandle_text("3\n1 3 2\n3 2 1\n")

    def test_group_roundtrip(self, tmp_path):
        g, _ = symmetric_group(4)
        path = tmp_path / "s4.group"
        qio.write_text(path, qio.group_to_text(g, comment="s4"))
        assert qio.read_group(path) == g

    def test_written_bytes(self, d3):
        # the three table formats share one writer; this is the layout each
        # one has always had
        assert qio.quandle_to_text(d3, comment="d3") \
            == "# d3\n3\n1 3 2\n3 2 1\n2 1 3\n"
        assert qio.group_to_text(cyclic_group(2), comment="c2") \
            == "#group\n# c2\n2\n1 2\n2 1\n"
        assert qio.cocycle_to_text(Cocycle2(2, 3, ((0, 1), (2, 0)))) \
            == "2 3\n0 1\n2 0\n"

    @pytest.mark.parametrize("read, text, rows", [
        (qio.read_quandle, "3\n1 3 2\n3 2 1\n2 1 3\n1 1 1\n", 3),
        (qio.read_group, "#group\n2\n1 2\n2 1\n1 2\n", 2),
        (qio.read_cocycle, "2 2\n0 1\n1 0\n0 0\n", 2),
    ], ids=["quandle", "group", "cocycle"])
    def test_extra_row_rejected(self, tmp_path, read, text, rows):
        # the header promises n rows; one more is an error, not ignored
        path = tmp_path / "extra.txt"
        qio.write_text(path, text)
        with pytest.raises(ValueError,
                           match=f"promises {rows} rows, found {rows + 1}"):
            read(path)

    def test_cocycle_modulus_checked_before_rows(self):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            qio.parse_cocycle_text("3 0\n0 0 0\n")


class TestCli:
    def test_validate_good(self, capsys, d3_file):
        code, records, _ = run_cli(capsys, "validate", "--quandle", d3_file)
        assert code == 0 and records[0]["ok"]

    def test_validate_bad(self, capsys, tmp_path):
        path = tmp_path / "bad.quandle"
        qio.write_text(path, "2\n1 2\n1 2\n")
        code, records, _ = run_cli(capsys, "validate", "--quandle", str(path))
        assert code == 1
        assert records[0]["ok"] is False
        assert records[0]["kind"] == "invertibility"

    def test_validate_extra_row(self, capsys, tmp_path):
        path = tmp_path / "extra.quandle"
        qio.write_text(path, "3\n1 3 2\n3 2 1\n2 1 3\n1 1 1\n")
        code, records, err = run_cli(capsys, "validate", "--quandle",
                                     str(path))
        assert code == 1 and "error:" in err
        assert records == []

    def test_props(self, capsys, d3_file):
        code, records, _ = run_cli(capsys, "props", "--quandle", d3_file)
        assert code == 0
        rec = records[0]
        assert rec["connected"] and rec["faithful"]
        assert rec["inner_group_order"] == 6

    def test_make_and_pipe(self, capsys, tmp_path):
        out = tmp_path / "d5.quandle"
        code, _, _ = run_cli(capsys, "make", "dihedral", "--n", "5",
                             "-o", str(out))
        assert code == 0
        assert qio.read_quandle(out).n == 5

    @pytest.mark.parametrize("family, group, comment", [
        ("cyclic-group", cyclic_group(5), "cyclic group of order 5"),
        ("sym-group", symmetric_group(5)[0], "symmetric group on 5 points"),
    ], ids=["cyclic", "sym"])
    def test_make_group_stdout_or_file(self, capsys, tmp_path, family, group,
                                       comment):
        text = qio.group_to_text(group, comment=comment)
        assert main(["make", family, "--n", "5"]) == 0
        assert capsys.readouterr().out == text
        out = tmp_path / "g.group"
        assert main(["make", family, "--n", "5", "-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == text

    @pytest.mark.parametrize("argv, quandle, summary", [
        (["trivial", "--n", "4"], trivial_quandle(4),
         "trivial quandle of order 4"),
        (["alexander", "--n", "7", "--t", "3"], alexander_quandle(7, 3),
         "alexander quandle mod 7, t=3"),
        (["galex", "--group", "{klein}", "--images", "1,3,4,2"],
         tetrahedral_quandle(),
         "generalized Alexander quandle of order 4"),
    ], ids=["trivial", "alexander", "galex-images"])
    def test_make_quandle_family(self, capsys, tmp_path, argv, quandle,
                                 summary):
        klein = tmp_path / "klein.group"
        qio.write_text(klein, KLEIN_GROUP)
        out = tmp_path / "q.quandle"
        argv = [a.format(klein=klein) for a in argv]
        code, records, err = run_cli(capsys, "make", *argv, "-o", str(out))
        assert code == 0 and records == []
        assert out.read_text() \
            == qio.quandle_to_text(quandle, comment=summary)
        assert f"{summary} -> {out}" in err

    def test_make_conj_from_group_file(self, capsys, tmp_path):
        gpath = tmp_path / "s4.group"
        code, _, _ = run_cli(capsys, "make", "sym-group", "--n", "4",
                             "-o", str(gpath))
        assert code == 0
        g, elems = symmetric_group(4)
        # 1-based element 2 is the transposition (0 1 3 2) in lex order
        assert elems[1] == (0, 1, 3, 2)
        qpath = tmp_path / "class.quandle"
        code, records, _ = run_cli(capsys, "make", "conj",
                                   "--group", str(gpath), "--elem", "2",
                                   "-o", str(qpath))
        assert code == 0
        assert qio.read_quandle(qpath).n == 6
        # labels are 1-based group elements
        assert all(1 <= v <= 24 for v in records[0]["labels"])

    def test_h2_and_extend_and_invariant(self, capsys, tmp_path):
        qpath = tmp_path / "x6.quandle"
        from helpers import sym4_class_quandle
        x6 = sym4_class_quandle((1, 1, 2))
        qio.write_text(qpath, qio.quandle_to_text(x6))

        reps = tmp_path / "reps"
        code, records, err = run_cli(capsys, "h2", "--quandle", str(qpath),
                                     "--mod", "2", "--emit-reps", str(reps))
        assert code == 0
        assert records[0]["invariant_factors"] == [2]
        rep_path = records[1]["path"]

        epath = tmp_path / "e12.quandle"
        code, records, _ = run_cli(capsys, "extend", "--quandle", str(qpath),
                                   "--cocycle", rep_path, "-o", str(epath))
        assert code == 0
        assert records[0]["extension_order"] == 12

        code, records, _ = run_cli(capsys, "invariant",
                                   "--quandle", str(qpath),
                                   "--cocycle", rep_path)
        assert code == 0
        assert all(r["constant"] for r in records)

    def test_vendramin(self, capsys, d3_file):
        code, records, _ = run_cli(capsys, "vendramin", "--quandle", d3_file)
        assert code == 0
        assert records[0]["verdict"] == "yes"
        assert records[0]["finite_enveloping_order"] == 6

    def test_vendramin_collision(self, capsys, tmp_path):
        # e8 built as the benchmark builds it: tet is `make galex` on the
        # Klein group, and e8 its extension by the first H^2 representative
        # mod 2; two 0-based elements act alike in the enveloping group
        files = {k: str(tmp_path / k) for k in ("klein.group", "tet.quandle",
                                                 "reps", "e8.quandle")}
        qio.write_text(files["klein.group"], KLEIN_GROUP)
        for argv in (["make", "galex", "--group", files["klein.group"],
                      "--images", "1,3,4,2", "-o", files["tet.quandle"]],
                     ["h2", "--quandle", files["tet.quandle"], "--mod", "2",
                      "--emit-reps", files["reps"]],
                     ["extend", "--quandle", files["tet.quandle"],
                      "--cocycle", os.path.join(files["reps"], "rep0.cocycle"),
                      "-o", files["e8.quandle"]]):
            assert run_cli(capsys, *argv)[0] == 0
        code, records, _ = run_cli(capsys, "vendramin", "--quandle",
                                   files["e8.quandle"])
        assert code == 0
        assert records == [{"record": "vendramin", "verdict": "no",
                            "finite_enveloping_order": 24,
                            "collision": [0, 1]}]

    def test_h2_completes_the_lattice(self, capsys, tmp_path, monkeypatch):
        # E(d4, Z_2, rep3): 28 of its constraint rows lie outside the
        # lattice of the first r* pivots, and complete its Smith form
        from quandleforge import cohomology
        outside, found = cohomology._outside, []
        monkeypatch.setattr(cohomology, "_outside",
                            lambda *args: found.append(outside(*args))
                            or found[-1])
        files = {k: str(tmp_path / k) for k in ("d4.quandle", "reps",
                                                 "e8.quandle")}
        for argv in (["make", "dihedral", "--n", "4",
                      "-o", files["d4.quandle"]],
                     ["h2", "--quandle", files["d4.quandle"], "--mod", "2",
                      "--emit-reps", files["reps"]],
                     ["extend", "--quandle", files["d4.quandle"],
                      "--cocycle", os.path.join(files["reps"], "rep3.cocycle"),
                      "-o", files["e8.quandle"]]):
            assert run_cli(capsys, *argv)[0] == 0
        found.clear()
        code, records, _ = run_cli(capsys, "h2", "--quandle",
                                   files["e8.quandle"], "--mod", "2")
        assert code == 0
        assert records[0]["invariant_factors"] == [2] * 9
        assert [len(rows) for rows in found] == [28]

    def test_vendramin_not_applicable(self, capsys, tmp_path):
        path = tmp_path / "d4.quandle"
        qio.write_text(path, qio.quandle_to_text(dihedral_quandle(4)))
        code, records, _ = run_cli(capsys, "vendramin", "--quandle",
                                   str(path))
        assert code == 0 and records[0]["verdict"] == "not_applicable"

    @pytest.mark.parametrize("n,verdict", [(3, "yes"), (4, "not_applicable")])
    def test_vendramin_walks_orbits_once(self, capsys, tmp_path, monkeypatch,
                                         n, verdict):
        from quandleforge import core
        from quandleforge.envgroup import conjugation_criterion
        calls = []
        orbits = core.orbits
        monkeypatch.setattr(core, "orbits",
                            lambda q: calls.append(q.n) or orbits(q))
        path = tmp_path / "q.quandle"
        qio.write_text(path, qio.quandle_to_text(dihedral_quandle(n)))
        code, records, _ = run_cli(capsys, "vendramin", "--quandle",
                                   str(path))
        assert code == 0 and records[0]["verdict"] == verdict
        assert calls == [n]
        calls.clear()
        assert conjugation_criterion(dihedral_quandle(n)).verdict == verdict
        assert calls == [n]

    def test_inn_seq(self, capsys, tmp_path, tetrahedral, tet_psi):
        from quandleforge.constructions import abelian_extension
        e = abelian_extension(tetrahedral, tet_psi)
        path = tmp_path / "e8.quandle"
        qio.write_text(path, qio.quandle_to_text(e))
        code, records, _ = run_cli(capsys, "inn-seq", "--quandle", str(path))
        assert code == 0
        assert records[0]["orders"] == [8, 4]
        assert records[0]["terminal_faithful"]

    def test_recover_ext(self, capsys, tmp_path, tetrahedral, tet_psi):
        from quandleforge.constructions import abelian_extension
        e = abelian_extension(tetrahedral, tet_psi)
        path = tmp_path / "e8.quandle"
        qio.write_text(path, qio.quandle_to_text(e))
        out = tmp_path / "rec.cocycle"
        code, records, _ = run_cli(capsys, "recover-ext", "--quandle",
                                   str(path), "-o", str(out))
        assert code == 0
        rec = qio.read_cocycle(out)
        assert rec.m == 2 and rec.n == 4

    def test_recover_ext_not_index_two(self, capsys, tmp_path):
        # inn(trivial_quandle(3)) is one point: one fiber of three elements
        path = tmp_path / "t3.quandle"
        qio.write_text(path, qio.quandle_to_text(trivial_quandle(3)))
        code, records, err = run_cli(capsys, "recover-ext", "--quandle",
                                     str(path))
        assert code == 1 and records == []
        assert "error:" in err and "fiber sizes [3]" in err

    def test_thm31(self, capsys, tmp_path, tetrahedral, tet_psi):
        qpath = tmp_path / "t.quandle"
        cpath = tmp_path / "t.cocycle"
        qio.write_text(qpath, qio.quandle_to_text(tetrahedral))
        qio.write_text(cpath, qio.cocycle_to_text(tet_psi))
        code, records, _ = run_cli(capsys, "thm31", "--quandle", str(qpath),
                                   "--cocycle", str(cpath))
        assert code == 0
        rec = records[0]
        assert rec["is_conjugation"] == "no"
        assert rec["all_constant"] is False

    def test_thm35(self, capsys, tmp_path):
        # the record derives n, d, m, hypothesis_held and vanishing_ok from
        # the request and its verdict; at d = n, m = 1 and the theorem holds
        # vacuously
        from helpers import sym4_class_quandle
        q = sym4_class_quandle((4,))
        psi = second_cohomology(q, 4).representatives[0]
        qpath, cpath = tmp_path / "q.quandle", tmp_path / "psi.cocycle"
        qio.write_text(qpath, qio.quandle_to_text(q))
        qio.write_text(cpath, qio.cocycle_to_text(psi))
        for d, m, vanishing in (("2", 2, None), ("4", 1, True)):
            code, records, err = run_cli(capsys, "thm35", "--quandle",
                                         str(qpath), "--cocycle", str(cpath),
                                         "--d", d)
            assert code == 0
            rec = records[0]
            assert (rec["n"], rec["d"], rec["m"]) == (4, int(d), m)
            assert rec["hypothesis_held"] is False
            assert rec["vanishing_ok"] is vanishing
            assert rec["coefficients"]["3_1"] == [6, 24, 0, 0]
            assert err == (f"m={m} hypothesis=False "
                           f"vanishing={vanishing}\n")

    @pytest.mark.parametrize("command,n,m,d", [
        ("thm35", 5, 4, "2"),   # not a cocycle mod 4, zero mod 2
        ("thm35", 3, 4, "2"),   # cocycle on 3 elements
        ("thm35", 7, 2, "2"),   # cocycle on 7 elements, m = 1
        ("invariant", 3, 2, None),
        ("invariant", 5, 4, None),   # not a cocycle mod 4
    ], ids=["thm35-not-cocycle", "thm35-order3", "thm35-order7-m1",
            "invariant-order3", "invariant-not-cocycle"])
    def test_bad_cocycle_rejected(self, capsys, tmp_path, command, n, m, d):
        values = [[0] * n for _ in range(n)]
        if n == 5:
            values[0][1] = 2
        psi = Cocycle2(n, m, tuple(tuple(r) for r in values))
        qpath, cpath = tmp_path / "d5.quandle", tmp_path / "psi.cocycle"
        qio.write_text(qpath, qio.quandle_to_text(dihedral_quandle(5)))
        qio.write_text(cpath, qio.cocycle_to_text(psi))
        argv = [command, "--quandle", str(qpath), "--cocycle", str(cpath)]
        code, records, err = run_cli(capsys, *argv,
                                     *(["--d", d] if d else []))
        assert code == 1 and "error:" in err
        assert records == []

    def test_certify(self, capsys, tmp_path, tetrahedral, tet_psi):
        qpath, cpath = tmp_path / "q.quandle", tmp_path / "psi.cocycle"
        qio.write_text(qpath, qio.quandle_to_text(tetrahedral))
        qio.write_text(cpath, qio.cocycle_to_text(tet_psi))
        code, records, err = run_cli(capsys, "certify", "--quandle",
                                     str(qpath), "--cocycle", str(cpath))
        assert code == 0
        assert records == [{"record": "certificate", "emitted": True,
                            "extension_order": 8,
                            "witness_knots": ["3_1", "4_1"],
                            "conjugation_verdict": "no"}]
        assert err == ("E(X, Z_2, phi) of order 8 admits no finite quandle "
                       "Y with inn(Y) isomorphic to it, and is not a "
                       "conjugation quandle (witnessing knots: 3_1, 4_1)\n")

    def test_certify_all_constant(self, capsys, tmp_path, d3_file):
        # the zero cocycle weighs every coloring 0, so no certificate
        cpath = tmp_path / "zero.cocycle"
        qio.write_text(cpath, qio.cocycle_to_text(Cocycle2.zero(3, 2)))
        code, records, err = run_cli(capsys, "certify", "--quandle",
                                     d3_file, "--cocycle", str(cpath))
        assert code == 0
        assert records == [{"record": "certificate", "emitted": False}]
        assert "all invariants constant; no certificate" in err

    def test_custom_knot_table(self, capsys, tmp_path, d3_file,
                               tetrahedral, tet_psi):
        ktext = "tref;2;1,1,1\nunknot;1;\n"
        kpath = tmp_path / "knots.txt"
        qio.write_text(kpath, ktext)
        cpath = tmp_path / "z.cocycle"
        qpath = tmp_path / "t.quandle"
        qio.write_text(qpath, qio.quandle_to_text(tetrahedral))
        qio.write_text(cpath, qio.cocycle_to_text(tet_psi))
        code, records, _ = run_cli(capsys, "invariant", "--quandle",
                                   str(qpath), "--cocycle", str(cpath),
                                   "--knots", str(kpath))
        assert code == 0
        assert [r["knot"] for r in records] == ["tref", "unknot"]
        assert records[0]["coefficients"] == [4, 12]

    @pytest.mark.parametrize("command", ["thm31", "certify"])
    def test_repeated_knot_name_rejected(self, capsys, tmp_path, command,
                                         tetrahedral, tet_psi):
        # with the first line alone, "a" is non-constant and certified
        kpath = tmp_path / "knots.txt"
        qio.write_text(kpath, "a;2;1,1,1\na;1;\n")
        qpath, cpath = tmp_path / "t.quandle", tmp_path / "t.cocycle"
        qio.write_text(qpath, qio.quandle_to_text(tetrahedral))
        qio.write_text(cpath, qio.cocycle_to_text(tet_psi))
        code, records, err = run_cli(capsys, command, "--quandle", str(qpath),
                                     "--cocycle", str(cpath),
                                     "--knots", str(kpath))
        assert code == 1 and "error:" in err and "'a'" in err
        assert records == []

    def test_tangle_mode(self, capsys, tmp_path, d3_file):
        cpath = tmp_path / "z.cocycle"
        qio.write_text(cpath, qio.cocycle_to_text(Cocycle2.zero(3, 2)))
        code, records, _ = run_cli(capsys, "invariant", "--quandle", d3_file,
                                   "--cocycle", cpath.as_posix(), "--tangle")
        assert code == 0
        assert all(r["end_monochromatic"] for r in records)

    def test_tangle_mode_needs_no_cocycle(self, capsys, d3_file):
        code, records, _ = run_cli(capsys, "invariant", "--quandle", d3_file,
                                   "--tangle")
        assert code == 0
        assert [r["record"] for r in records] \
            == ["tangle"] * len(bundled_knots())
        assert all(r["end_monochromatic"] for r in records)

    def test_invariant_without_cocycle_rejected(self, capsys, d3_file):
        code, records, err = run_cli(capsys, "invariant", "--quandle",
                                     d3_file)
        assert code == 1 and "error:" in err and "--cocycle" in err
        assert records == []

    @pytest.mark.parametrize("argv, message", [
        (["make", "dihedral"], None),
        (["make", "alexander", "--n", "5"], None),
        (["make", "alexander", "--n", "0", "--t", "1"], None),
        (["make", "conj"], None),
        (["make", "conj", "--group", "{s3}"], None),
        (["make", "galex", "--group", "{s3}"], None),
        # element numbers are 1-based, as in the group file format
        (["make", "conj", "--group", "{s3}", "--elem", "0"],
         "--elem 0 is not a group element; the group's elements are 1..6"),
        (["make", "conj", "--group", "{s3}", "--elem", "7"],
         "--elem 7 is not a group element; the group's elements are 1..6"),
        (["make", "galex", "--group", "{s3}", "--conj-by", "0"],
         "--conj-by 0 is not a group element; the group's elements are "
         "1..6"),
        (["make", "galex", "--group", "{s3}", "--conj-by", "2",
          "--images", "1,2,3,4,5,6"], None),
        (["make", "galex", "--group", "{klein}", "--images", "0,3,4,2"],
         "--images 0 is not a group element; the group's elements are 1..4"),
        (["make", "galex", "--group", "{klein}", "--images", "1,3,4,5"],
         "--images 5 is not a group element; the group's elements are 1..4"),
        (["make", "galex", "--group", "{klein}", "--images", "1,3,4"],
         "--images gives 3 values; the group has 4 elements"),
        (["make", "galex", "--group", "{klein}", "--images", "1,x,3,4"],
         "argument --images: invalid int value: 'x'"),
        (["make", "galex", "--group", "{klein}", "--images", "1,,3,4"],
         "argument --images: invalid int value: ''"),
        (["invariant", "--quandle", "{d3}", "--cocycle", "{m0}"], None),
        (["vendramin", "--quandle", "{d3}", "--max-cosets", "0"], None),
        (["vendramin", "--quandle", "{t2}", "--max-cosets", "0"], None),
        (["props", "--quandle", "{empty}"], "empty quandle file"),
        (["props", "--quandle", "{comments}"], "empty quandle file"),
        (["props", "--quandle", "{header2}"], "quandle header must be 'n'"),
        (["props", "--quandle", "{short}"],
         "quandle row has 2 entries, expected 3"),
        (["invariant", "--quandle", "{d3}", "--tangle", "--knots",
          "{badknots}"], "knot line needs name;strands;word: '3_1;2'"),
        (["h2", "--quandle", "{d3}", "--mod", "1"], "modulus must be >= 2"),
        (["make", "sym-group", "--n", "6"],
         "symmetric_group supports degrees 1..5"),
        (["make", "cyclic-group", "--n", "0"], "order must be positive"),
        # a file's tokens and entries are named as they stand on disk
        (["props", "--quandle", "{headerx}"],
         "quandle header: 'x' is not an integer"),
        (["invariant", "--quandle", "{d3}", "--cocycle", "{cocyclex}"],
         "cocycle row 2: 'x' is not an integer"),
        (["invariant", "--quandle", "{d3}", "--tangle", "--knots",
          "{strandsx}"],
         "knot line '3_1;two;1,1,1': 'two' is not an integer"),
        (["invariant", "--quandle", "{d3}", "--tangle", "--knots",
          "{letterx}"], "knot line '3_1;2;1,x,1': 'x' is not an integer"),
        (["props", "--quandle", "{entry0}"],
         "quandle row 1: entry 0 is not in 1..3"),
        (["props", "--quandle", "{entry4}"],
         "quandle row 2: entry 4 is not in 1..3"),
        (["make", "conj", "--group", "{group0}", "--elem", "1"],
         "group row 1: entry 0 is not in 1..4"),
    ], ids=["dihedral-no-n", "alexander-no-t", "alexander-order-0",
            "conj-no-group", "conj-no-elem", "galex-no-automorphism",
            "conj-elem-0", "conj-elem-past-end", "galex-conj-by-0",
            "galex-conj-by-and-images", "galex-images-0",
            "galex-images-past-end", "galex-images-short",
            "galex-images-not-integer", "galex-images-empty-item",
            "cocycle-mod-0",
            "max-cosets-0-connected", "max-cosets-0-disconnected",
            "quandle-empty", "quandle-only-comments", "quandle-header-2",
            "quandle-short-row", "knot-line-2-fields", "h2-mod-1",
            "sym-group-6", "cyclic-group-0", "quandle-header-not-integer",
            "cocycle-entry-not-integer", "knot-strands-not-integer",
            "knot-letter-not-integer", "quandle-entry-0",
            "quandle-entry-past-n", "group-entry-0"])
    def test_bad_input_is_an_error_line(self, capsys, tmp_path, d3_file,
                                         argv, message):
        files = {"s3": tmp_path / "s3.group", "d3": d3_file,
                 "klein": tmp_path / "klein.group",
                 "t2": tmp_path / "t2.quandle", "m0": tmp_path / "m0.cocycle",
                 "empty": tmp_path / "empty.quandle",
                 "comments": tmp_path / "comments.quandle",
                 "header2": tmp_path / "header2.quandle",
                 "short": tmp_path / "short.quandle",
                 "badknots": tmp_path / "bad.knots"}
        texts = {"headerx": "3 x\n1 3 2\n3 2 1\n2 1 3\n",
                 "cocyclex": "3 2\n0 0 0\n0 x 0\n0 0 0\n",
                 "strandsx": "3_1;two;1,1,1\n",
                 "letterx": "3_1;2;1,x,1\n",
                 "entry0": "3\n0 3 2\n3 2 1\n2 1 3\n",
                 "entry4": "3\n1 3 2\n3 2 4\n2 1 3\n",
                 "group0": "#group\n4\n0 2 3 4\n2 1 4 3\n3 4 1 2\n"
                           "4 3 2 1\n"}
        for key, text in texts.items():
            files[key] = tmp_path / key
            qio.write_text(files[key], text)
        qio.write_text(files["s3"], qio.group_to_text(symmetric_group(3)[0]))
        qio.write_text(files["klein"],
                       "#group\n4\n1 2 3 4\n2 1 4 3\n3 4 1 2\n4 3 2 1\n")
        qio.write_text(files["t2"], qio.quandle_to_text(trivial_quandle(2)))
        qio.write_text(files["m0"], "3 0\n0 0 0\n0 0 0\n0 0 0\n")
        qio.write_text(files["empty"], "")
        qio.write_text(files["comments"], "# no table\n#\n")
        qio.write_text(files["header2"], "3 2\n1 3 2\n3 2 1\n2 1 3\n")
        qio.write_text(files["short"], "3\n1 3\n3 2 1\n2 1 3\n")
        qio.write_text(files["badknots"], "3_1;2\n")
        argv = [a.format(**files) for a in argv]
        code, records, err = run_cli(capsys, *argv)
        assert code == 1 and "error:" in err
        assert records == []
        if message is not None:
            assert message in err

    def test_h2_over_budget_is_an_error_line(self, capsys, tmp_path):
        # dihedral(68)'s relation matrix has 4,556 x 4,624 cells, over the
        # budget: one error line naming the order and the shape, fast
        path = tmp_path / "d68.quandle"
        qio.write_text(path, qio.quandle_to_text(dihedral_quandle(68)))
        start = time.process_time()
        code, records, err = run_cli(capsys, "h2", "--quandle", str(path),
                                     "--mod", "2")
        assert time.process_time() - start < 0.5
        assert code == 1 and records == []
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert all(v in lines[0] for v in ("order 68", "4556 rows",
                                           "4624 columns"))

    @pytest.mark.parametrize("argv", [
        ["extend", "--quandle", "{tet}", "--cocycle", "{psi}", "-o",
         "{missing}"],
        ["recover-ext", "--quandle", "{e8}", "-o", "{missing}"],
        ["make", "conj", "--group", "{s3}", "--elem", "2", "-o", "{missing}"],
        # --emit-reps makes the directories it lacks, so the path lies under
        # a regular file
        ["h2", "--quandle", "{tet}", "--mod", "2", "--emit-reps",
         "{tet}/reps"],
        ["h2", "--quandle", "{tet}", "--mod", "2", "--emit-reps",
         "{blocked}"],
    ], ids=["extend", "recover-ext", "make-conj", "h2-emit-reps",
            "h2-rep-file-is-a-directory"])
    def test_failed_write_prints_no_record(self, capsys, tmp_path,
                                           tetrahedral, tet_psi, argv):
        # each command prints a record when it succeeds; its files are
        # written first, so a path it cannot write to prints none
        from quandleforge.constructions import abelian_extension
        files = {"tet": tmp_path / "tet.quandle",
                 "psi": tmp_path / "psi.cocycle",
                 "e8": tmp_path / "e8.quandle", "s3": tmp_path / "s3.group",
                 "missing": tmp_path / "missing" / "out",
                 "blocked": tmp_path / "blocked"}
        qio.write_text(files["tet"], qio.quandle_to_text(tetrahedral))
        qio.write_text(files["psi"], qio.cocycle_to_text(tet_psi))
        qio.write_text(files["e8"], qio.quandle_to_text(
            abelian_extension(tetrahedral, tet_psi)))
        qio.write_text(files["s3"], qio.group_to_text(symmetric_group(3)[0]))
        (files["blocked"] / "rep0.cocycle").mkdir(parents=True)
        argv = [a.format(**files) for a in argv]
        code, records, err = run_cli(capsys, *argv)
        assert code == 1 and "error:" in err
        assert records == []

    @pytest.mark.parametrize("argv", [
        ["h2", "--mod", "2"],
        ["h2", "--quandle", "{d3}", "--mod", "two"],
        ["frobnicate"],
    ], ids=["missing-option", "non-integer-mod", "unknown-command"])
    def test_usage_error_exits_1(self, capsys, d3_file, argv):
        # argparse's own exit status is 2, which forge keeps for
        # TheoremViolation
        argv = [a.format(d3=d3_file) for a in argv]
        code, records, err = run_cli(capsys, *argv)
        assert code == 1 and records == []
        assert "usage: forge" in err

    @pytest.mark.parametrize("argv", [["--help"], ["h2", "--help"]],
                             ids=["forge", "h2"])
    def test_help_exits_0(self, capsys, argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0 and out.startswith("usage: forge")

    # every option of every command, in --help order; the options several
    # commands share are declared once in cli._SHARED
    OPTIONS = {
        "validate": ["--quandle"],
        "props": ["--quandle"],
        "inn-seq": ["--quandle"],
        "h2": ["--quandle", "--mod", "--emit-reps"],
        "extend": ["--quandle", "--cocycle", "-o", "--output"],
        "invariant": ["--quandle", "--cocycle", "--knots", "--tangle"],
        "vendramin": ["--quandle", "--max-cosets"],
        "recover-ext": ["--quandle", "-o", "--output"],
        "thm31": ["--quandle", "--cocycle", "--knots", "--max-cosets"],
        "thm35": ["--quandle", "--cocycle", "--d", "--knots",
                  "--max-cosets"],
        "certify": ["--quandle", "--cocycle", "--knots", "--max-cosets"],
        "make": ["--n", "--t", "--group", "--elem", "--conj-by", "--images",
                 "-o", "--output"],
    }

    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_command_options_pinned(self, capsys, command):
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: forge {command}")
        sub, = (a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(self.OPTIONS)
        strings = [s for a in sub.choices[command]._actions
                   for s in a.option_strings]
        assert strings == ["-h", "--help"] + self.OPTIONS[command]

    def test_theorem_violation_exits_2(self, capsys, tmp_path, monkeypatch,
                                       d3_file):
        from quandleforge import pipeline
        from quandleforge.errors import TheoremViolation

        def broken(*args, **kwargs):
            raise TheoremViolation("planted by the test")

        # cli calls the pipeline through its module
        monkeypatch.setattr(pipeline, "constancy_pipeline", broken)
        cpath = tmp_path / "z.cocycle"
        qio.write_text(cpath, qio.cocycle_to_text(Cocycle2.zero(3, 2)))
        code, records, err = run_cli(capsys, "thm31", "--quandle", d3_file,
                                     "--cocycle", str(cpath))
        assert code == 2 and records == []
        assert "THEOREM VIOLATION: planted by the test" in err

    THEOREM_31 = ("extension is a conjugation quandle but some invariant "
                  "is non-constant; the implementation is broken")

    @pytest.mark.parametrize("command, message", [
        ("h2", "H^2 representative 0: not a 2-cocycle; witness "
               "('identity', 0, 1, 0)"),
        ("vendramin", "subgroup word (1,) moves coset 0 to 1"),
        ("recover-ext", "recovered labeling is not a quandle map: "
                        "f(0*2) != f(0)*f(2)"),
        ("thm31", THEOREM_31),
        ("thm35", THEOREM_31),
        ("certify", THEOREM_31),
    ], ids=["h2", "vendramin", "recover-ext", "thm31", "thm35", "certify"])
    def test_failed_self_check_exits_2(self, capsys, tmp_path, monkeypatch,
                                       tetrahedral, tet_psi, command,
                                       message):
        # one planted failure per family of self-checks: every cocycle
        # identity fails in H^2, the coset kernel returns the regular action
        # of Z_2 (a valid table, but x_s moves coset 0), recover-ext builds
        # E from the zero cocycle, and the theorem requests hear "yes" from
        # Vendramin's criterion beside a non-constant invariant.  thm35 on
        # c4 mod 4 with d = 2 fails Theorem 3.1 on the folded invariant, so
        # its vanishing needs no check of its own.  Each is the
        # implementation's fault: exit 2, one line on stderr, no record
        from helpers import sym4_class_quandle
        from quandleforge import cohomology, constructions, envgroup
        from quandleforge.constructions import abelian_extension
        quandle, phi, extra = tetrahedral, None, []
        if command == "h2":
            monkeypatch.setattr(cohomology, "cocycle_witness",
                                lambda *args: ("identity", 0, 1, 0))
            extra = ["--mod", "2"]
        elif command == "vendramin":
            quandle = dihedral_quandle(3)
            monkeypatch.setattr(envgroup, "coset_enumeration",
                                lambda ngens, *args, **kwargs: (
                                    True, [[1, 1] * ngens, [0, 0] * ngens]))
        elif command == "recover-ext":
            quandle = abelian_extension(tetrahedral, tet_psi)
            build = constructions._extension
            monkeypatch.setattr(constructions, "_extension",
                                lambda x, phi: build(
                                    x, Cocycle2.zero(x.n, phi.m)))
        else:
            phi = tet_psi
            if command == "thm35":
                quandle = sym4_class_quandle((4,))
                phi = second_cohomology(quandle, 4).representatives[0]
                extra = ["--d", "2"]
            monkeypatch.setattr(envgroup, "conjugation_criterion",
                                lambda *args: envgroup.ConjugationCriterion(
                                    True, 1, None))
        path = tmp_path / "q.quandle"
        qio.write_text(path, qio.quandle_to_text(quandle))
        argv = [command, "--quandle", str(path)]
        if phi is not None:
            cpath = tmp_path / "phi.cocycle"
            qio.write_text(cpath, qio.cocycle_to_text(phi))
            argv += ["--cocycle", str(cpath)]
        code = main(argv + extra)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"THEOREM VIOLATION: {message}\n"

    def test_error_exit_code(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "props", "--quandle",
                               str(tmp_path / "missing.quandle"))
        assert code == 1 and "error" in err


# numpy is a test dependency only, and dataclasses (with inspect, ast and
# dis) cost every request milliseconds of start-up
FORBIDDEN_AT_RUN = ("numpy", "dataclasses", "inspect")
FORBIDDEN_IMPORTS = ("numpy", "dataclasses")


@pytest.mark.parametrize("argv", [
    ["props"],
    ["h2", "--mod", "2"],
    ["vendramin"],
    ["invariant", "--tangle"],
    ["invariant", "--cocycle"],
    ["thm31", "--cocycle"],
], ids=["props", "h2", "vendramin", "invariant-tangle", "invariant",
        "thm31"])
def test_no_command_loads_numpy(tmp_path, d3_file, argv):
    # a fresh interpreter, as each forge request is; a trailing --cocycle
    # gets the zero cocycle mod 2 on D_3.  Every module of FORBIDDEN_AT_RUN
    # must stay out of sys.modules
    if argv[-1] == "--cocycle":
        cpath = tmp_path / "z.cocycle"
        qio.write_text(cpath, qio.cocycle_to_text(Cocycle2.zero(3, 2)))
        argv = argv + [str(cpath)]
    script = ("import sys\n"
              "from quandleforge.cli import main\n"
              f"code = main({argv + ['--quandle', d3_file]!r})\n"
              f"print(code, [m for m in {FORBIDDEN_AT_RUN!r} "
              "if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("argv, executed", [
    ("vendramin --quandle {q}", "_kernels cli core envgroup errors io"),
    ("make dihedral --n 3", "cli constructions core errors io"),
    ("h2 --quandle {q} --mod 2", "cli cohomology core errors io snf"),
    ("props --quandle {q}", "cli core errors io"),
    ("invariant --quandle {q} --cocycle {c}",
     "_kernels cli cohomology core errors io knots"),
], ids=["vendramin", "make", "h2", "props", "invariant"])
def test_command_executes_only_its_layers(tmp_path, d3_file, argv,
                                          executed):
    # a fresh interpreter, as each forge request is.  The package registers
    # every layer but cli with LazyLoader, whose module subclass turns into
    # a plain module when the layer runs; {c} is the zero cocycle mod 2 on
    # D_3, and invariant reads the bundled knots
    cpath = tmp_path / "z.cocycle"
    qio.write_text(cpath, qio.cocycle_to_text(Cocycle2.zero(3, 2)))
    args = argv.format(q=d3_file, c=cpath).split()
    script = ("import json, sys, types\n"
              "from quandleforge.cli import main\n"
              f"code = main({args!r})\n"
              "print(code, json.dumps(sorted(\n"
              "    name.split('.', 1)[1] for name, m in sys.modules.items()\n"
              "    if name.startswith('quandleforge.')\n"
              "    and type(m) is types.ModuleType)))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    code, layers = out.stdout.splitlines()[-1].split(" ", 1)
    assert (code, json.loads(layers)) == ("0", executed.split())


def test_coloring_oracle_does_not_load_numpy():
    # a fresh interpreter loads tests/oracles.py by path, as the benchmark
    # checker does for grid_coloring_count; numpy loaded there would raise
    # the peak RSS that every process the checker spawns afterwards reports
    path = str(Path(__file__).resolve().parent / "oracles.py")
    script = ("import importlib.util, sys\n"
              f"spec = importlib.util.spec_from_file_location('o', {path!r})\n"
              "mod = importlib.util.module_from_spec(spec)\n"
              "spec.loader.exec_module(mod)\n"
              "table = mod.dihedral_table(3)\n"
              "print(mod.grid_coloring_count(table, 2, [1, 1, 1]),\n"
              "      'numpy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["9", "False"]


def test_no_module_imports_numpy():
    # the package runs in plain Python, and its value types are named
    # tuples, not dataclasses: no module imports any of FORBIDDEN_IMPORTS
    paths = sorted((SRC / "quandleforge").glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] in FORBIDDEN_IMPORTS
                           for name in names), \
                (path.name, node.lineno)
