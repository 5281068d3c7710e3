"""End-to-end tests of the command-line interface."""

import json
import pathlib

import pytest

from build_module import perm_module
from psp4obs import cli, sp4f3, subgroups, table, zmodules
from psp4obs.permgroups import PermGroup


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGroupInfo:
    def test_output_is_pinned(self, capsys):
        # sha256 a4316e0cca47ac07...
        code, out, _ = run_cli(capsys, "group", "info")
        assert code == 0
        assert out == "".join(line + "\n" for line in [
            "Sp4(F3): order 51840, acting on the 80 nonzero vectors of F3^4",
            "PSp4(F3): order 25920, 20 conjugacy classes",
            "  action on projective points: degree 40, transitive",
            "  action on isotropic lines: degree 40, transitive",
            "  action on perp pairs: degree 45, transitive",
            "chi24: degree 24, <chi24, chi24> = 1",
            "point and line actions inequivalent (permutation characters "
            "differ)"])

    def test_reports_orders_and_actions(self, capsys):
        code, out, _ = run_cli(capsys, "group", "info")
        assert code == 0
        assert "order 51840" in out
        assert "order 25920" in out
        assert out.count("transitive") == 3
        assert "degree 45" in out
        assert "<chi24, chi24> = 1" in out
        assert "inequivalent" in out

    @pytest.mark.parametrize("action", ["sp80", "line_action",
                                        "pair_action"])
    def test_exit_status_checks_the_other_actions(self, monkeypatch, capsys,
                                                   action):
        # only group info builds these groups, so it checks their orders
        # and that -1 is in Sp4(3); here one of them is trivial
        model = sp4f3.build_sp4()
        degree = getattr(model, action).degree
        vars(model)[action] = PermGroup([], degree)
        monkeypatch.setattr(sp4f3, "standard_model", lambda: model)
        code, _, _ = run_cli(capsys, "group", "info")
        assert code == 1


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


def _refuse(*args, **kwargs):
    raise AssertionError("the output path is checked before any work")


class TestOutputPath:
    @pytest.mark.parametrize("where", ["no directory", "a directory"])
    def test_lattice_compute_fails_first(self, tmp_path, monkeypatch,
                                         capsys, where):
        monkeypatch.setattr(subgroups, "subgroup_classes", _refuse)
        path = (tmp_path / "nope" / "x.json" if where == "no directory"
                else tmp_path)
        code, out, err = run_cli(capsys, "lattice", "compute",
                                 "--cache", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("where", ["no directory", "a directory"])
    def test_table_compute_fails_first(self, lattice_path, tmp_path,
                                       monkeypatch, capsys, where):
        monkeypatch.setattr(zmodules, "load_module", _refuse)
        monkeypatch.setattr(table, "compute_table", _refuse)
        path = (tmp_path / "nope" / "t.csv" if where == "no directory"
                else tmp_path)
        code, out, err = run_cli(capsys, "table", "compute",
                                 "--lattice", str(lattice_path),
                                 "--module", str(tmp_path / "m.gmodule"),
                                 "--out", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert len(err.splitlines()) == 1


def _drop_the_whole_group(doc):
    del doc["classes"][-1]


def _own_gclass_117(doc):
    doc["classes"][9]["own_gclass"][-1] = 117


def _maximal_999(doc):
    doc["classes"][-1]["maximal"][0] = 999


def _maximal_5(doc):
    """Class 30's maximal [4, 6] as [5, 6]; its own classes are 1, 4, 6
    and 30, and class 5 has order 3, as class 4 has."""
    doc["classes"][29]["maximal"][0] = 5


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


def _generator_entry_40(doc):
    doc["classes"][9]["generators"][0][0] = 40


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


def _fusion_19_to_18(doc):
    for c in doc["classes"][:-1]:
        c["elem_fusion"] = [18 if j == 19 else j for j in c["elem_fusion"]]


def _own_gclass(edit):
    """``edit`` applied to class 60's own_gclass, [1, 2, 4, 11, 11, 11, 17,
    22, 41, 41, 41, 60] for own_orders [1, 2, 3, 4, 4, 4, 6, 8, 12, 12, 12,
    24]."""
    def apply(doc):
        edit(doc["classes"][59]["own_gclass"])
    return apply


def _normalizer_order(n, class_id=10):
    def edit(doc):
        doc["classes"][class_id - 1]["normalizer_order"] = n
    return edit


def _order_repeated(doc):
    # class 10's "order" twice, 5 first: the last, 4, would load cleanly
    return json.dumps(doc).replace('"class_id": 10,',
                                   '"class_id": 10, "order": 5,')


class TestBadLatticeFile:
    @pytest.mark.parametrize("edit,message", [
        (_drop_the_whole_group,
         "the last class must be the whole group, of order 25920"),
        (_own_gclass_117, "class 10: own_gclass id 117 is not in 1..116"),
        (_maximal_999, "class 116: maximal id 999 is not in 1..116"),
        (_maximal_5, "class 30: maximal id 5 is not one of its proper own "
         "classes"),
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
        (_generator_entry_40, "class 10: generator 1 is not a permutation "
         "of 0..39"),
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
        (lambda doc: "[" * 100000, "top level: maximum recursion depth "
         "exceeded while decoding a JSON array from a unicode string"),
        # no proper class, so no cyclic one, meets ambient class 19
        (_fusion_19_to_18, "the cyclic classes meet only 19 of 20 ambient "
         "classes"),
        (_own_gclass(list.pop), "class 60: own_gclass must be 12 ids (one "
         "per own_orders entry), not 11"),
        (_own_gclass(lambda ids: ids.append(60)), "class 60: own_gclass must "
         "be 12 ids (one per own_orders entry), not 13"),
        (_own_gclass(lambda ids: ids.__setitem__(3, 17)), "class 60: "
         "own_gclass entry 4 is class 17, of order 6, but own_orders entry 4 "
         "is 4"),
        # class 59 has order 24 too, so only the id tells
        (_own_gclass(lambda ids: ids.__setitem__(-1, 59)), "class 60: the "
         "last own_gclass id must be the class itself, not 59"),
        (_order_repeated, "top level: duplicate key 'order'"),
    ], ids=["without-class-116", "own-gclass-117", "maximal-999",
            "maximal-4-to-5", "elem-fusion-99", "whole-group-fusion-reversed",
            "perm-chars-row-dropped", "order-5", "fingerprint-order-5",
            "identity-character-3", "own-orders-empty", "generator-0-1",
            "generator-entry-40",
            "elem-fusion-string", "own-gclass-true", "generators-null",
            "abelianization-int", "degree-string", "top-level-list",
            "maximal-1.5", "normalizer-order-0", "normalizer-order-6",
            "cyclic-normalizer-doubled", "not-json", "deep-nesting",
            "fusion-19-to-18", "own-gclass-dropped", "own-gclass-appended",
            "own-gclass-11-to-17", "own-gclass-last-59", "order-repeated"])
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

    def test_a_byte_that_is_not_utf8_is_one_error_line(self, lattice_path,
                                                       tmp_path, capsys):
        path = _byte_ff_at_5(lattice_path, tmp_path / "lattice.json")
        code, out, err = run_cli(capsys, "table", "compute", "--lattice",
                                 str(path), "--out", str(tmp_path / "t.csv"))
        assert code == 1 and out == "" and "Traceback" not in err
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] \
            == [f"error: {path}: {NOT_UTF8_AT_5}"]


def _perm_chars_column_1(factor):
    def edit(doc):
        for row in doc["classes"][59]["perm_chars"]:
            row[1] *= factor
    return edit


class TestBurnsideOrderFails:
    # the edited files pass SubgroupLattice.load; class 60 has order 24
    @pytest.mark.parametrize("edit,message", [
        (_perm_chars_column_1(0), "no integer multiple lies in the lattice"),
        (_perm_chars_column_1(29), "minimal multiplier 174 exceeds bound 24"),
    ], ids=["column-1-zero", "column-1-times-29"])
    def test_one_error_line_names_the_class(self, lattice_path, tmp_path,
                                             capsys, edit, message):
        doc = json.loads(pathlib.Path(lattice_path).read_text())
        edit(doc)
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "table", "compute", "--lattice",
                                 str(path), "--out", str(tmp_path / "t.csv"))
        assert code == 1 and out == "" and "Traceback" not in err
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] \
            == [f"error: class 60: burnside: {message}"]
        assert not (tmp_path / "t.csv").exists()


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

    # classes 10 and 14 tell M from M~
    PRINTED = {
        6: ["class 6: order 3", "H^0(H, M) rank 23", "H^1(H, M)  = Z/3",
            "H^1(H, M~) = Z/3"],
        10: ["class 10: order 4", "H^0(H, M) rank 19", "H^1(H, M)  = 0",
             "H^1(H, M~) = Z/2 + Z/2"],
        14: ["class 14: order 6", "H^0(H, M) rank 18", "H^1(H, M)  = Z/3",
             "H^1(H, M~) = 0"],
    }

    def _one(self, capsys, lattice_path, class_id):
        code, out, _ = run_cli(capsys, "cohomology", "one", "--class",
                               str(class_id), "--lattice", str(lattice_path),
                               "--module", self.MODULE)
        assert code == 0
        assert out.splitlines() == self.PRINTED[class_id]
        return out

    def test_one_class(self, lattice_path, capsys):
        out = self._one(capsys, lattice_path, 6)
        assert out.startswith("class 6: order ")

    @pytest.mark.parametrize("class_id", [10, 14])
    def test_m_and_its_dual(self, lattice_path, capsys, class_id):
        self._one(capsys, lattice_path, class_id)

    def test_unknown_class_is_one_error_line(self, lattice_path, capsys):
        code, out, err = run_cli(capsys, "cohomology", "one", "--class",
                                 "999", "--lattice", str(lattice_path),
                                 "--module", self.MODULE)
        assert code == 1 and out == "" and "Traceback" not in err
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] \
            == [f"error: {lattice_path} has no class 999; its class ids "
                f"run 1..116"]

    # int() takes other scripts' digits and underscores
    @pytest.mark.parametrize("text", ["x", "\u0666", "0_6"],
                             ids=["letter", "arabic-indic-6", "underscore"])
    def test_class_is_an_ascii_integer(self, lattice_path, capsys, text):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cohomology", "one", "--class", text, "--lattice",
                      str(lattice_path), "--module", self.MODULE])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "argument --class" in err

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

    def test_one_wrong_maximal_id_leaves_every_row_unmatched(
            self, lattice_path, tmp_path, capsys):
        path = tmp_path / "table.json"
        run_cli(capsys, "table", "compute", "--lattice", str(lattice_path),
                "--format", "json", "--out", str(path))
        doc = json.loads(path.read_text())
        row = doc["rows"][29]
        assert row["class_id"] == 30 and row["maximal"][0] == 4
        row["maximal"][0] = 5
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "table", "check", "--table",
                                 str(path))
        # the edit reaches every row through the refinement, so no color
        # pairs a class with a fixture row
        assert code == 1 and "Traceback" not in err
        named = [ln.split(":")[0] for ln in out.splitlines()
                 if ln.startswith("  unmatched ")]
        assert sorted(named) == sorted(
            [f"  unmatched class {i}" for i in range(1, 117)]
            + [f"  unmatched fixture row {i}" for i in range(1, 117)])

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
        (lambda doc: "[" * 100000, "top level: maximum recursion depth "
         "exceeded while decoding a JSON array from a unicode string"),
        (lambda doc: doc["rows"][6].update(maximal=[999]), "row 7: maximal "
         "id 999 is not in 1..116"),
        (lambda doc: doc["rows"][6].update(class_id=6), "row 7: class_id 6 "
         "should be 7: ids run 1..n in order"),
        (lambda doc: doc.update(rows=[]), "top level: rows is empty"),
        # row 60's burnside twice, 1 first: the last, 2, would load cleanly
        (lambda doc: json.dumps(doc).replace('"class_id": 60,',
                                             '"class_id": 60, "burnside": 1,'),
         "top level: duplicate key 'burnside'"),
    ], ids=["rows-5", "row-list", "maximal-null", "not-json", "deep-nesting",
            "maximal-999", "class-id-repeated", "no-rows",
            "burnside-repeated"])
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

    def test_a_byte_that_is_not_utf8_is_one_error_line(self, lattice_path,
                                                       tmp_path, capsys):
        computed = tmp_path / "computed.json"
        run_cli(capsys, "table", "compute", "--lattice", str(lattice_path),
                "--format", "json", "--out", str(computed))
        path = _byte_ff_at_5(computed, tmp_path / "table.json")
        code, out, err = run_cli(capsys, "table", "check", "--table",
                                 str(path))
        assert code == 1 and out == "" and "Traceback" not in err
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] \
            == [f"error: {path}: {NOT_UTF8_AT_5}"]


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
        (lambda lines: [], "the file has no rows"),
        (lambda lines: lines[:1], "the file has no rows"),
        # line 2 is row 1, whose irred cell is "no"; line 7 is row 6, whose
        # lcm cell is "3": int() would read "3_0" as 30
        (lambda lines: lines[:1] + [lines[1].replace(",no,", ",maybe,")]
         + lines[2:], "line 2: column 'irred' holds 'maybe'"),
        (lambda lines: lines[:6] + [lines[6].replace(",3,no,", ",3_0,no,")]
         + lines[7:], "line 7: column 'lcm' holds '3_0'"),
        # a label cell one character over the csv module's field limit
        (lambda lines: lines[:5] + [lines[5].replace("<3 1>", "x" * 131073)]
         + lines[6:], "line 6: field larger than field limit (131072)"),
    ], ids=["truncated", "without-burnside", "maximal-999", "row-repeated",
            "empty", "header-only", "irred-maybe", "lcm-underscore",
            "label-over-field-limit"])
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

    def test_a_byte_that_is_not_utf8_is_one_error_line(self, lattice_path,
                                                       tmp_path, capsys):
        path = _byte_ff_at_5(table.default_fixture_path(),
                             tmp_path / "fixture.csv")
        code, out, err = run_cli(capsys, "table", "check", "--fixture",
                                 str(path), "--lattice", str(lattice_path))
        assert code == 1 and out == "" and "Traceback" not in err
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] \
            == [f"error: {path}: {NOT_UTF8_AT_5}"]


NOT_UTF8_AT_5 = ("'utf-8' codec can't decode byte 0xff in position 5: "
                 "invalid start byte")


def _byte_ff_at_5(shipped, path):
    """A copy of a shipped file whose byte 5 is 0xff, not UTF-8."""
    data = bytearray(shipped.read_bytes())
    data[5] = 0xff
    path.write_bytes(bytes(data))
    return path


class TestModuleVerify:
    def test_verifies_saved_perm_module(self, model, tmp_path, capsys):
        mod = perm_module(model.psp, model.psp.generators)
        path = tmp_path / "pts.gmodule"
        zmodules.save_module(mod, path)
        code, out, _ = run_cli(capsys, "module", "verify",
                               "--module", str(path))
        assert code == 0
        assert "rank 40" in out

    def test_corrupt_module_rejected(self, model, tmp_path, capsys):
        mod = perm_module(model.psp, model.psp.generators)
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
        (lambda lines: ["gmodule rank=2 gens=2\n"] + lines[1:],
         "line 1: file has 2 matrices but the group has 5 generators"),
        (lambda lines: ["gmodule rank=0 gens=5\n"] + lines[1:],
         "line 1: rank 0 is not positive"),
        # the first entry of the first matrix raised by 1
        (lambda lines: lines[:2] + [str(int(lines[2].split()[0]) + 1)
                                    + lines[2][lines[2].index(" "):]]
         + lines[3:], "generator 0 has order 3, but its matrix to that "
         "power is not 1"),
        # a first entry that str.isdigit() or int() takes but is not an
        # ASCII integer
        *((lambda lines, cell=cell: lines[:2] + [
            cell + lines[2][lines[2].index(" "):]] + lines[3:],
           "line 3: expected 61 integers") for cell in ("--1", "\u00b2",
                                                        "\u0661")),
        # header fields that int() reads as 61 and 5, an unknown key, a
        # repeated key and a blank header line
        *((lambda lines, head=head: [head] + lines[1:],
           "line 1: expected 'gmodule rank=<n> gens=<n>'")
          for head in ("gmodule rank=6_1 gens=5\n",
                       "gmodule rank=61 gens=\u0665\n",
                       "gmodule rank=61 gens=5 colour=7\n",
                       "gmodule rank=7 gens=5 rank=61\n", "\n")),
    ], ids=["0", "62", "entry-2-63", "trailing-line", "gens-2", "rank-0",
            "entry-plus-1", "entry-double-minus", "entry-superscript",
            "entry-arabic-indic", "rank-underscore", "gens-arabic-indic",
            "unknown-key", "repeated-key", "blank-header"])
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

    def test_identity_module_fails_the_character_check(self, tmp_path,
                                                        capsys):
        """Five identity matrices of rank 61 pass the unimodularity and
        Schreier checks; their character is 61 everywhere, and the first
        class it misses is the involutions of size 45."""
        rows = "".join(" ".join("1" if j == i else "0" for j in range(61))
                       + "\n" for i in range(61))
        path = tmp_path / "identity.gmodule"
        path.write_text("gmodule rank=61 gens=5\n" + "".join(
            f"matrix {k}\n{rows}" for k in range(1, 6)))
        code, out, err = run_cli(capsys, "module", "verify",
                                 "--module", str(path))
        assert code == 1 and out == ""
        assert [ln for ln in err.splitlines() if "error" in ln] == [
            f"error: {path}: character mismatch at class 1 (element order "
            f"2, size 45): trace 61, expected 13"]

    def test_a_byte_that_is_not_utf8_is_one_error_line(self, tmp_path,
                                                       capsys):
        shipped = pathlib.Path(cli.__file__).parent / "data" / "m61.gmodule"
        path = _byte_ff_at_5(shipped, tmp_path / "bad.gmodule")
        code, out, err = run_cli(capsys, "module", "verify",
                                 "--module", str(path))
        assert code == 1 and out == "" and "Traceback" not in err
        assert [ln for ln in err.splitlines() if "error" in ln] == [
            f"error: {path}: {NOT_UTF8_AT_5}"]


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
