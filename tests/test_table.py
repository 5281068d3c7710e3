"""Tests for table rows, fixture handling, matching, and emission."""

import dataclasses
import json

import pytest

from psp4obs import table
from psp4obs.fixture import _refine_colors
from psp4obs.subgroups import Fingerprint
from psp4obs.table import (Fixture, FixtureRow, TableRow, compare_fixture,
                           load_table_json, render_csv, render_json,
                           render_markdown)


def fp(order, ab=(), exp=1, cls=1, dl=0, nil=True):
    return Fingerprint(order, ab, exp, cls, dl, nil)


def mk_row(cid, order, maximal, b=1, lcm=None, h1m=None, h1md=None,
           irred=False, **fpkw):
    return TableRow(class_id=cid, order=order, fingerprint=fp(order, **fpkw),
                    burnside=b, lcm=lcm, irred=irred, maximal=maximal,
                    h1_m=h1m, h1_md=h1md)


def mk_fixture(specs):
    """specs: list of (row, order, b, lcm, irred, maximal, h1m, h1md)."""
    rows = [FixtureRow(row=r, order=o, label=f"<{o}?>", burnside=b, lcm=l,
                       irred=i, maximal=m, h1_m=hm, h1_md=hd)
            for r, o, b, l, i, m, hm, hd in specs]
    return Fixture(rows)


# a tiny consistent poset: 1 < C2 < V4 with one extra incomparable C2-like
CHAIN_ROWS = [
    mk_row(1, 1, ()),
    mk_row(2, 2, (1,), ab=(2,), exp=2, cls=2, dl=1),
    mk_row(3, 2, (1,), b=2, ab=(2,), exp=2, cls=2, dl=1),
    mk_row(4, 4, (2, 3), ab=(2, 2), exp=2, cls=4, dl=1, irred=True),
]
CHAIN_FIX = mk_fixture([
    (1, 1, 1, 1, False, (), (), ()),
    (2, 2, 1, 1, False, (1,), (), ()),
    (3, 2, 2, 1, False, (1,), (), ()),
    (4, 4, 1, 1, True, (2, 3), (), ()),
])


class TestTableRow:
    def test_verdict_without_module(self):
        assert mk_row(1, 2, ()).not_rational is None
        assert mk_row(1, 2, (), b=2).not_rational is True

    def test_verdict_with_module(self):
        assert mk_row(1, 2, (), lcm=1, h1m=(), h1md=()).not_rational is False
        assert mk_row(1, 2, (), lcm=3, h1m=(3,), h1md=()).not_rational is True
        assert mk_row(1, 2, (), b=2, lcm=1, h1m=(), h1md=()) \
            .not_rational is True

    def test_cover_bound(self):
        assert mk_row(1, 2, ()).cover_bound is None
        assert mk_row(1, 2, (), lcm=6, h1m=(), h1md=()).cover_bound == 6

    def test_columns_are_the_row_names(self):
        names = tuple(f.name for f in dataclasses.fields(TableRow))
        assert names + ("not_rational", "cover_bound") == table.TABLE_COLUMNS
        rows = json.loads(render_json(CHAIN_ROWS))["rows"]
        assert [set(r) for r in rows] == [set(table.TABLE_COLUMNS)] * 4


class TestFixture:
    def test_bundled_fixture_loads(self):
        fix = Fixture.load(table.default_fixture_path())
        assert len(fix.rows) == 116
        assert fix.by_row(1).order == 1
        top = fix.by_row(116)
        assert top.order == 25920
        assert top.burnside == 2
        assert top.lcm == 6
        assert top.irred is True
        assert top.h1_m == () and top.h1_md == ()

    def test_bundled_fixture_columns(self):
        fix = Fixture.load(table.default_fixture_path())
        orders = [f.order for f in fix.rows]
        # ordered by blocks, not strictly by order (row 7 is the C5 class)
        assert orders[0] == 1 and orders[-1] == 25920
        assert orders[6] == 5
        assert sum(1 for f in fix.rows if f.irred) == 21
        assert sorted(f.order for f in fix.rows if f.burnside > 1) == \
            [72, 96, 216, 288, 576, 648, 25920]
        # maximal lists reference earlier rows only
        for f in fix.rows:
            assert all(1 <= m < f.row for m in f.maximal)

    def test_rejects_bad_row_numbers(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("row,order,label,burnside,lcm,irred,maximal,h1_m,h1_md\n"
                     "2,1,x,1,1,no,,,\n")
        with pytest.raises(ValueError):
            Fixture.load(p)


class TestCompare:
    def test_exact_match(self):
        rep = compare_fixture(CHAIN_ROWS, CHAIN_FIX)
        assert rep.ok
        # rows 2 and 3 are structurally interchangeable; their column
        # data agrees as a multiset so the report is still clean
        assert rep.assignments == {1: 1, 4: 4}
        assert rep.ambiguity_groups == [((2, 3), (2, 3))]

    def test_column_mismatch_localized(self):
        bad = list(CHAIN_ROWS)
        bad[3] = mk_row(4, 4, (2, 3), b=2, ab=(2, 2), exp=2, cls=4, dl=1,
                        irred=True)
        rep = compare_fixture(bad, CHAIN_FIX)
        assert not rep.ok
        assert rep.mismatches == ["class 4 ~ fixture row 4: burnside 2 != 1"]

    def test_group_multiset_mismatch_detected(self):
        bad = list(CHAIN_ROWS)
        bad[2] = mk_row(3, 2, (1,), b=1, ab=(2,), exp=2, cls=2, dl=1)
        rep = compare_fixture(bad, CHAIN_FIX)
        assert rep.mismatches == [
            "classes [2, 3] ~ fixture rows [2, 3]: column data differs: "
            "[\"[('burnside', 1), ('irred', False)]\", "
            "\"[('burnside', 1), ('irred', False)]\"] != "
            "[\"[('burnside', 1), ('irred', False)]\", "
            "\"[('burnside', 2), ('irred', False)]\"]"]

    def test_structural_only_ignores_burnside(self):
        bad = list(CHAIN_ROWS)
        bad[2] = mk_row(3, 2, (1,), b=1, ab=(2,), exp=2, cls=2, dl=1)
        rep = compare_fixture(bad, CHAIN_FIX, structural_only=True)
        assert rep.ok
        # rows 2 and 3 become structurally interchangeable
        assert rep.ambiguity_groups == [((2, 3), (2, 3))]

    def test_ambiguity_groups(self):
        rows = [mk_row(1, 1, ()),
                mk_row(2, 2, (1,), ab=(2,), exp=2, cls=2, dl=1),
                mk_row(3, 2, (1,), ab=(2,), exp=2, cls=2, dl=1)]
        fix = mk_fixture([(1, 1, 1, 1, False, (), (), ()),
                          (2, 2, 1, 1, False, (1,), (), ()),
                          (3, 2, 1, 1, False, (1,), (), ())])
        rep = compare_fixture(rows, fix)
        assert rep.ok
        assert rep.assignments == {1: 1}
        assert rep.ambiguity_groups == [((2, 3), (2, 3))]

    def test_refinement_separates_by_poset(self):
        # two order-2 rows with equal base keys are split by who sits
        # above them
        rows = [mk_row(1, 1, ()),
                mk_row(2, 2, (1,), ab=(2,), exp=2, cls=2, dl=1),
                mk_row(3, 2, (1,), ab=(2,), exp=2, cls=2, dl=1),
                mk_row(4, 4, (2,), ab=(4,), exp=4, cls=4, dl=1)]
        fix = mk_fixture([(1, 1, 1, 1, False, (), (), ()),
                          (2, 2, 1, 1, False, (1,), (), ()),
                          (3, 2, 1, 1, False, (1,), (), ()),
                          (4, 4, 1, 1, False, (3,), (), ())])
        rep = compare_fixture(rows, fix)
        assert rep.ok
        # computed has C4 above id 2; fixture has it above row 3
        assert rep.assignments[2] == 3
        assert rep.assignments[4] == 4

    def test_count_mismatch_reported(self):
        rows = CHAIN_ROWS[:3]
        rep = compare_fixture(rows, CHAIN_FIX)
        # one color per row: without row 4 no two rows share a color, and
        # each color comes out at its first node, the computed ids in
        # order and then the fixture rows
        computed = ", lcm=None, irred=False, h1_m=None, h1_md=None, maximal="
        fixture = ", lcm=1, irred={}, h1_m=(), h1_md=(), maximal="
        assert rep.mismatches == [
            "unmatched class 1: order 1, B=1" + computed + "[]",
            "unmatched class 2: order 2, B=1" + computed + "[1]",
            "unmatched class 3: order 2, B=2" + computed + "[1]",
            "unmatched fixture row 1: order 1, label '<1?>', B=1"
            + fixture.format(False) + "[]",
            "unmatched fixture row 2: order 2, label '<2?>', B=1"
            + fixture.format(False) + "[1]",
            "unmatched fixture row 3: order 2, label '<2?>', B=2"
            + fixture.format(False) + "[1]",
            "unmatched fixture row 4: order 4, label '<4?>', B=1"
            + fixture.format(True) + "[2, 3]"]

    def test_refined_colors_are_ranks(self):
        # the bundled fixture's poset, started from the orders as
        # compare_fixture starts it
        rows = Fixture.load(table.default_fixture_path()).rows
        key_of = {f.row: f.order for f in rows}
        partners = {f.row: [] for f in rows}
        for f in rows:
            for j in f.maximal:
                partners[f.row].append(("dn", j))
                partners[j].append(("up", f.row))
        _refine_colors(key_of, partners)
        assert all(type(c) is int and c in range(len(rows))
                   for c in key_of.values())
        # the partition is stable: nodes of one color see the same
        # multiset of partner colors
        seen = {}
        for node, color in key_of.items():
            sig = sorted((d, key_of[p]) for d, p in partners[node])
            assert seen.setdefault(color, sig) == sig

    def test_summary_labels_each_mismatch(self):
        mismatches = ["class 60 ~ fixture row 61: burnside 2 != 1",
                      "class 61 ~ fixture row 60: burnside 2 != 1",
                      "class 43 ~ fixture row 44: burnside 1 != 2",
                      "classes [2, 3] ~ fixture rows [2, 3]: column data "
                      "differs: [] != []",
                      "unmatched fixture row 4: order 4"]
        rep = table.MatchReport({}, [], list(mismatches))
        lines = rep.summary().splitlines()[-5:]
        disputed = "disputed: an oracle confirms the computed value"
        assert lines == [f"  {mismatches[0]}  [{disputed}]"] + [
            f"  {m}  [unexplained]" for m in mismatches[1:]]
        # the labels add no "!=" to the count of differing cells
        assert "!=" not in disputed + "unexplained"

    def test_summary_mentions_groups(self):
        rep = compare_fixture(CHAIN_ROWS, CHAIN_FIX)
        text = rep.summary()
        assert "2 rows matched uniquely" in text
        assert "1 ambiguity groups covering 2 rows" in text
        assert "all rows accounted for" in text


class TestEmission:
    def test_csv_shape(self):
        text = render_csv(CHAIN_ROWS)
        lines = text.strip().split("\n")
        assert lines[0].split(",")[:3] == ["class_id", "order", "fingerprint"]
        assert len(lines) == 5
        # module-less cells are "-"
        assert lines[1].split(",")[4] == "-"

    def test_csv_with_module_columns(self):
        row = mk_row(1, 2, (), lcm=3, h1m=(3,), h1md=(2, 6))
        cells = render_csv([row]).strip().split("\n")[1].split(",")
        assert cells[4] == "3"
        assert cells[7] == "3"
        assert cells[8] == "2 6"
        assert cells[9] == "yes"
        assert cells[10] == "3"

    def test_markdown_shape(self):
        text = render_markdown(CHAIN_ROWS)
        lines = text.strip().split("\n")
        assert len(lines) == 6
        assert lines[0].startswith("| class_id |")
        assert set(lines[1].replace("|", "")) <= {"-"}

    def test_json_roundtrip(self, tmp_path):
        rows = [mk_row(1, 1, ()),
                mk_row(2, 4, (1,), b=2, lcm=6, h1m=(2, 2), h1md=(),
                       irred=True, ab=(4,), exp=4, cls=4, dl=1)]
        p = tmp_path / "t.json"
        p.write_text(render_json(rows))
        back = load_table_json(p)
        assert back == rows

    def test_json_rejects_other_formats(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text('{"format": "nope", "rows": []}')
        with pytest.raises(ValueError):
            load_table_json(p)

    def test_emit_and_determinism(self, tmp_path):
        p1 = table.emit(CHAIN_ROWS, "csv", tmp_path / "a.csv")
        p2 = table.emit(CHAIN_ROWS, "csv", tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()
        with pytest.raises(ValueError):
            table.emit(CHAIN_ROWS, "yaml", tmp_path / "c.yaml")

    def test_fingerprint_string(self):
        s = table._fingerprint_str(fp(8, ab=(2, 4), exp=4, cls=5, dl=2))
        assert s == "ab=2.4;exp=4;cls=5;dl=2;nil=y"
        assert table._fingerprint_str(fp(1)).startswith("ab=1;")
