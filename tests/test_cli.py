"""End-to-end tests of the command-line interface."""

import json
import pathlib

import pytest

from psp4obs import cli, subgroups, table, zmodules


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGroupInfo:
    def test_reports_orders_and_actions(self, capsys):
        code, out, _ = run_cli(capsys, "group", "info")
        assert code == 0
        assert "order 51840" in out
        assert "order 25920" in out
        assert out.count("transitive") == 3
        assert "degree 45" in out
        assert "<chi24, chi24> = 1" in out
        assert "inequivalent" in out


class TestTableCompute:
    def test_csv_from_cached_lattice(self, lattice_path, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "table", "compute",
                               "--lattice", str(lattice_path),
                               "--out", str(out_path))
        assert code == 0
        assert "116 rows" in out
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 117
        assert lines[0].startswith("class_id,")

    def test_json_roundtrips(self, lattice_path, tmp_path, capsys):
        out_path = tmp_path / "table.json"
        code, _, _ = run_cli(capsys, "table", "compute",
                             "--lattice", str(lattice_path),
                             "--format", "json", "--out", str(out_path))
        assert code == 0
        rows = table.load_table_json(out_path)
        assert len(rows) == 116
        assert rows[115].order == 25920

    def test_missing_lattice_fails(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "table", "compute",
                               "--lattice", str(tmp_path / "nope.json"),
                               "--out", str(tmp_path / "t.csv"))
        assert code == 1
        assert "no lattice cache" in err


def _drop_the_whole_group(doc):
    del doc["classes"][-1]


def _own_gclass_117(doc):
    doc["classes"][9]["own_gclass"][-1] = 117


def _maximal_999(doc):
    doc["classes"][-1]["maximal"][0] = 999


def _elem_fusion_99(doc):
    doc["classes"][9]["elem_fusion"][-1] = 99


def _whole_group_fusion_reversed(doc):
    doc["classes"][-1]["elem_fusion"].reverse()


def _perm_chars_row_dropped(doc):
    del doc["classes"][9]["perm_chars"][-1]


def _order_5(doc):
    doc["classes"][9]["order"] = 5


def _fingerprint_order_5(doc):
    doc["classes"][9]["fingerprint"]["order"] = 5


def _identity_character_3(doc):
    doc["classes"][9]["perm_chars"][1][0] = 3


def _own_orders_empty(doc):
    doc["classes"][9]["own_orders"] = []
    doc["classes"][9]["perm_chars"] = []


def _generator_0_1(doc):
    doc["classes"][9]["generators"][0] = [1, 0] + list(range(2, 40))


def _elem_fusion_string(doc):
    doc["classes"][9]["elem_fusion"][-1] = "3"


def _own_gclass_true(doc):
    doc["classes"][9]["own_gclass"][0] = True


def _generators_null(doc):
    doc["classes"][9]["generators"] = None


def _abelianization_int(doc):
    doc["classes"][9]["fingerprint"]["abelianization"] = 4


def _degree_string(doc):
    doc["degree"] = "40"


def _maximal_float(doc):
    doc["classes"][9]["maximal"] = [1.5]


def _normalizer_order(n, class_id=10):
    def edit(doc):
        doc["classes"][class_id - 1]["normalizer_order"] = n
    return edit


class TestBadLatticeFile:
    @pytest.mark.parametrize("edit,message", [
        (_drop_the_whole_group,
         "the last class must be the whole group, of order 25920"),
        (_own_gclass_117, "class 10: own_gclass id 117 is not in 1..116"),
        (_maximal_999, "class 116: maximal id 999 is not in 1..116"),
        (_elem_fusion_99, "class 10: elem_fusion id 99 is not in 0..19"),
        (_whole_group_fusion_reversed, "class 116: elem_fusion must be "
         "0..19, the ambient classes in order"),
        (_perm_chars_row_dropped, "class 10: perm_chars must be 5 rows "
         "(one per own_orders entry) of 4 values"),
        (_order_5, "class 10: order 5, fingerprint order 4 and the last "
         "own_orders entry 4 must be equal"),
        (_fingerprint_order_5, "class 10: order 4, fingerprint order 5 and "
         "the last own_orders entry 4 must be equal"),
        (_identity_character_3, "class 10: perm_chars row 2: 3 cosets of "
         "a subgroup of order 2 do not make the order 4"),
        (_own_orders_empty, "class 10: own_orders and elem_fusion must "
         "not be empty"),
        (_generator_0_1, "class 10: generator 1 is not in the ambient "
         "group"),
        (_elem_fusion_string, 'class 10: elem_fusion entry must be an '
         'integer, not "3"'),
        (_own_gclass_true, "class 10: own_gclass entry must be an integer, "
         "not true"),
        (_generators_null, "class 10: generators must be a list, not null"),
        (_abelianization_int, "class 10: abelianization must be a list, "
         "not 4"),
        (_degree_string, 'top level: degree must be an integer, not "40"'),
        (lambda doc: doc["classes"], "top level: the file must be an "
         "object, not a list"),
        (_maximal_float, "class 10: maximal entry must be an integer, "
         "not 1.5"),
        (_normalizer_order(0), "class 10: normalizer order 0 must be a "
         "multiple of the order 4 and divide 25920"),
        (_normalizer_order(6), "class 10: normalizer order 6 must be a "
         "multiple of the order 4 and divide 25920"),
        # class 12 is cyclic of order 4 with 25920 / 16 = 1620 conjugates of
        # 2 generators each; a doubled normaliser order drops 810 * 2
        (_normalizer_order(32, class_id=12), "the cyclic classes count "
         "24300 elements, not 25920"),
        (lambda doc: "[1,\n", "top level: Expecting value: line 2 column 1 "
         "(char 4)"),
    ], ids=["without-class-116", "own-gclass-117", "maximal-999",
            "elem-fusion-99", "whole-group-fusion-reversed",
            "perm-chars-row-dropped", "order-5", "fingerprint-order-5",
            "identity-character-3", "own-orders-empty", "generator-0-1",
            "elem-fusion-string", "own-gclass-true", "generators-null",
            "abelianization-int", "degree-string", "top-level-list",
            "maximal-1.5", "normalizer-order-0", "normalizer-order-6",
            "cyclic-normalizer-doubled", "not-json"])
    def test_one_error_line(self, lattice_path, tmp_path, capsys, edit,
                            message):
        doc = json.loads(pathlib.Path(lattice_path).read_text())
        doc = edit(doc) or doc
        path = tmp_path / "lattice.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run_cli(capsys, "table", "compute", "--lattice",
                                 str(path), "--out", str(tmp_path / "t.csv"))
        assert code == 1 and out == ""
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] \
            == [f"error: {path}: {message}"]
        assert "Traceback" not in err


def _conjugate_by_0_1(doc):
    """Relabel points 0 and 1 in every generator of the lattice file."""
    def relabel(g):
        swap = {0: 1, 1: 0}
        g = [swap.get(x, x) for x in g]
        g[0], g[1] = g[1], g[0]
        return g
    doc["ambient_generators"] = [relabel(g)
                                 for g in doc["ambient_generators"]]
    for c in doc["classes"]:
        c["generators"] = [relabel(g) for g in c["generators"]]


class TestLatticeOfAnotherCopy:
    @pytest.mark.parametrize("command,extra", [("compute", ["--out", "t.csv"]),
                                               ("check", [])],
                             ids=["table-compute", "table-check"])
    def test_one_error_line(self, lattice_path, tmp_path, monkeypatch,
                            capsys, command, extra):
        doc = json.loads(pathlib.Path(lattice_path).read_text())
        _conjugate_by_0_1(doc)
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "table", command, "--lattice",
                                 str(path), *extra)
        assert code == 1 and out == "" and "Traceback" not in err
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] \
            == ["error: lattice ambient group is not the canonical "
                "degree-40 copy of PSp4(3)"]
        assert not (tmp_path / "t.csv").exists()


class TestCohomologyOne:
    MODULE = str(table.default_fixture_path().parent / "m61.gmodule")

    def test_one_class(self, lattice_path, capsys):
        code, out, _ = run_cli(capsys, "cohomology", "one", "--class", "6",
                               "--lattice", str(lattice_path),
                               "--module", self.MODULE)
        assert code == 0
        assert out.startswith("class 6: order ")

    def test_unknown_class_is_one_error_line(self, lattice_path, capsys):
        code, out, err = run_cli(capsys, "cohomology", "one", "--class",
                                 "999", "--lattice", str(lattice_path),
                                 "--module", self.MODULE)
        assert code == 1 and out == "" and "Traceback" not in err
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] \
            == [f"error: {lattice_path} has no class 999; its class ids "
                f"run 1..116"]

    @pytest.mark.parametrize("class_id", ["5", "60"])
    def test_conjugated_lattice_is_one_error_line(self, lattice_path,
                                                  tmp_path, capsys, class_id):
        # (0 1) fixes the generators of class 5 and moves those of class 60
        doc = json.loads(pathlib.Path(lattice_path).read_text())
        _conjugate_by_0_1(doc)
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "cohomology", "one", "--class",
                                 class_id, "--lattice", str(path),
                                 "--module", self.MODULE)
        assert code == 1 and out == "" and "Traceback" not in err
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] \
            == ["error: lattice ambient group is not the canonical "
                "degree-40 copy of PSp4(3)"]


class TestTableCheck:
    def test_structural_check_passes(self, lattice_path, capsys):
        code, out, _ = run_cli(capsys, "table", "check",
                               "--lattice", str(lattice_path),
                               "--structural")
        assert code == 0
        assert "116 rows matched uniquely" in out

    def test_full_check_reports_known_mismatches(self, lattice_path,
                                                 tmp_path, capsys):
        out_path = tmp_path / "table.json"
        run_cli(capsys, "table", "compute", "--lattice", str(lattice_path),
                "--format", "json", "--out", str(out_path))
        code, out, _ = run_cli(capsys, "table", "check",
                               "--table", str(out_path))
        # the computed table disagrees with the reference on five cells
        # (one Burnside order, two crossed irreducibility pairs), so the
        # full check reports them and exits nonzero
        assert code == 1
        assert "116 rows matched uniquely" in out
        assert out.count("!=") == 5
        assert "burnside 2 != 1" in out

    def test_needs_table_or_lattice(self, capsys):
        code, _, err = run_cli(capsys, "table", "check")
        assert code == 1
        assert "either --table or --lattice" in err

    def test_table_excludes_lattice_and_module(self, lattice_path, tmp_path,
                                               capsys):
        path = tmp_path / "table.json"
        run_cli(capsys, "table", "compute", "--lattice", str(lattice_path),
                "--format", "json", "--out", str(path))
        module = str(table.default_fixture_path().parent / "m61.gmodule")
        for extra in (["--lattice", str(lattice_path)], ["--module", module],
                      ["--lattice", str(lattice_path), "--module", module]):
            code, out, err = run_cli(capsys, "table", "check",
                                     "--table", str(path), *extra)
            assert code == 1 and out == ""
            assert err.splitlines() == [
                "error: --table checks the table as it was computed; it "
                "takes no --lattice or --module"]

    def test_row_without_irred_is_one_error_line(self, lattice_path,
                                                 tmp_path, capsys):
        path = tmp_path / "table.json"
        run_cli(capsys, "table", "compute", "--lattice", str(lattice_path),
                "--format", "json", "--out", str(path))
        doc = json.loads(path.read_text())
        del doc["rows"][6]["irred"]
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "table", "check", "--table", str(path))
        assert code == 1
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] \
            == [f"error: {path}: row 7: missing key 'irred'"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.update(rows=5), "top level: rows must be a list, "
         "not 5"),
        (lambda doc: doc["rows"].__setitem__(6, [7]), "row 7: the row must "
         "be an object, not a list"),
        (lambda doc: doc["rows"][6].update(maximal=None), "row 7: maximal "
         "must be a list, not null"),
        (lambda doc: "[1,\n", "top level: Expecting value: line 2 column 1 "
         "(char 4)"),
        (lambda doc: doc["rows"][6].update(maximal=[999]), "row 7: maximal "
         "id 999 is not in 1..116"),
        (lambda doc: doc["rows"][6].update(class_id=6), "row 7: class_id 6 "
         "should be 7: ids run 1..n in order"),
    ], ids=["rows-5", "row-list", "maximal-null", "not-json", "maximal-999",
            "class-id-repeated"])
    def test_bad_table_file_is_one_error_line(self, lattice_path, tmp_path,
                                              capsys, edit, message):
        path = tmp_path / "table.json"
        run_cli(capsys, "table", "compute", "--lattice", str(lattice_path),
                "--format", "json", "--out", str(path))
        doc = json.loads(path.read_text())
        doc = edit(doc) or doc
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run_cli(capsys, "table", "check", "--table",
                                 str(path))
        assert code == 1 and out == "" and "Traceback" not in err
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] \
            == [f"error: {path}: {message}"]


def _cut_mid_row(lines):
    return lines[:12] + [lines[12][:lines[12].index(",", 3)] + "\n"]


def _drop_burnside(lines):
    return [",".join(ln.split(",")[:3] + ln.split(",")[4:]) for ln in lines]


class TestBadFixture:
    @pytest.mark.parametrize("edit,message", [
        (_cut_mid_row, "line 13: column 'label' is missing"),
        (_drop_burnside, "line 2: column 'burnside' is missing"),
        # line 3 is row 2, whose maximal cell is "1"; line 6 is row 5
        (lambda lines: lines[:2] + [lines[2].replace(",no,1,", ",no,999,")]
         + lines[3:], "line 3: maximal row 999 is not in 1..116"),
        (lambda lines: lines[:5] + ["4" + lines[5][1:]] + lines[6:],
         "line 6: row number 4 should be 5: rows run 1..116 in order"),
    ], ids=["truncated", "without-burnside", "maximal-999", "row-repeated"])
    def test_one_error_line(self, lattice_path, tmp_path, capsys, edit,
                            message):
        shipped = table.default_fixture_path().read_text()
        path = tmp_path / "fixture.csv"
        path.write_text("".join(edit(shipped.splitlines(True))))
        code, out, err = run_cli(capsys, "table", "check", "--fixture",
                                 str(path), "--lattice", str(lattice_path))
        assert code == 1 and out == "" and "Traceback" not in err
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] \
            == [f"error: {path}: {message}"]


class TestModuleVerify:
    def test_verifies_saved_perm_module(self, model, tmp_path, capsys):
        mod = zmodules.perm_module(model.psp, model.psp.generators)
        path = tmp_path / "pts.gmodule"
        zmodules.save_module(mod, path)
        code, out, _ = run_cli(capsys, "module", "verify",
                               "--module", str(path))
        assert code == 0
        assert "rank 40" in out

    def test_corrupt_module_rejected(self, model, tmp_path, capsys):
        mod = zmodules.perm_module(model.psp, model.psp.generators)
        path = tmp_path / "bad.gmodule"
        zmodules.save_module(mod, path)
        text = path.read_text().replace("1", "7", 1)
        path.write_text(text)
        code, _, err = run_cli(capsys, "module", "verify",
                               "--module", str(path))
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("edit,message", [
        # an empty file, and `head -n 62 m61.gmodule`: the file ends
        # inside the first matrix
        (lambda lines: [], "line 1: expected 'gmodule rank=<n> gens=<n>'"),
        (lambda lines: lines[:62], "line 63: the file ends inside a matrix"),
        # line 3 is the first row of the first matrix
        (lambda lines: lines[:2] + ["9223372036854775808"
                                    + lines[2][lines[2].index(" "):]]
         + lines[3:], "line 3: an entry is beyond int64"),
        # the shipped file has 311 lines: a header, then 5 matrices of 62
        (lambda lines: lines + ["0 0\n"], "line 312: text after the last "
         "matrix"),
    ], ids=["0", "62", "entry-2-63", "trailing-line"])
    def test_cut_module_file_is_one_error_line(self, lattice_path, tmp_path,
                                               capsys, edit, message):
        """A cut module file, and one with a bad entry or extra text."""
        shipped = pathlib.Path(cli.__file__).parent / "data" / "m61.gmodule"
        path = tmp_path / "cut.gmodule"
        path.write_text("".join(edit(shipped.read_text().splitlines(True))))
        code, out, err = run_cli(capsys, "table", "compute", "--lattice",
                                 str(lattice_path), "--module", str(path),
                                 "--out", str(tmp_path / "t.csv"))
        assert code == 1 and out == "" and "Traceback" not in err
        assert [ln for ln in err.splitlines() if "error" in ln] == [
            f"error: {path}: {message}"]


class TestParser:
    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_lattice_compute_still_takes_a_seed(self, lattice, tmp_path,
                                                monkeypatch, capsys):
        # perfbench's call; the classification is the session's lattice
        monkeypatch.setattr(subgroups, "subgroup_classes",
                            lambda ambient, progress=None: lattice)
        path = tmp_path / "lattice.json"
        code, _, _ = run_cli(capsys, "lattice", "compute", "--cache",
                             str(path), "--seed", "1")
        assert code == 0
        assert "seed" not in json.loads(path.read_text())

    def test_cohomology_one_needs_a_lattice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cohomology", "one", "--class", "6",
                      "--module", "m61.gmodule"])
        assert exc.value.code == 2
        assert "--lattice" in capsys.readouterr().err

    def test_check_structural_flag_parsed(self):
        parser = cli.build_parser()
        args = parser.parse_args(["table", "check", "--table", "x.json",
                                  "--structural"])
        assert args.structural is True
        args = parser.parse_args(["table", "check", "--table", "x.json"])
        assert args.structural is False
