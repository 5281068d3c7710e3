"""Acceptance gate: the full table with the bundled rank-61 module.

Computes every column for all 116 subgroup classes, H^1 of M and of its
dual included, and checks it against the bundled reference table under
the structural alignment.  The reference table disagrees with the
computed one in exactly five cells outside the module columns, the
``table.DISPUTED_CELLS`` that oracle tests back; any other difference
fails.
"""

import re
from collections import Counter

import pytest

from psp4obs import cohomology, table, zmodules

MODULE_PATH = table.default_fixture_path().parent / "m61.gmodule"

KNOWN_CELLS = set(table.DISPUTED_CELLS)
_CELL = re.compile(r"^class (\d+) ~ fixture row \d+: (\w+) ")


@pytest.fixture(scope="module")
def module(model):
    return zmodules.load_module(MODULE_PATH, model.psp)


@pytest.fixture(scope="module")
def rows(lattice, module):
    return table.compute_table(table.TableConfig(lattice=lattice,
                                                 module=module))


@pytest.fixture(scope="module")
def fixture():
    return table.Fixture.load(table.default_fixture_path())


def test_module_columns_match_fixture(rows, fixture):
    structural = table.compare_fixture(rows, fixture, structural_only=True)
    assert structural.ok
    groups = [((c,), (f,)) for c, f in structural.assignments.items()]
    groups += list(structural.ambiguity_groups)
    assert sum(len(cids) for cids, _ in groups) == len(rows) == 116
    by_id = {r.class_id: r for r in rows}
    for cids, fids in groups:
        have = sorted((by_id[c].h1_m, by_id[c].h1_md, by_id[c].lcm)
                      for c in cids)
        want = sorted((fixture.by_row(f).h1_m, fixture.by_row(f).h1_md,
                       fixture.by_row(f).lcm) for f in fids)
        assert have == want, (cids, fids)


def test_full_comparison_reports_only_known_cells(rows, fixture):
    full = table.compare_fixture(rows, fixture)
    cells = set()
    for m in full.mismatches:
        hit = _CELL.match(m)
        assert hit, m
        cells.add((int(hit.group(1)), hit.group(2)))
    assert cells == KNOWN_CELLS
    assert len(full.mismatches) == len(KNOWN_CELLS)
    summary = full.summary()
    assert summary.count(
        "[disputed: an oracle confirms the computed value]") == 5
    assert "unexplained" not in summary


def test_verdict_counts(rows):
    verdicts = [r.not_rational for r in rows]
    assert verdicts.count(True) == 90
    assert verdicts.count(False) == 26


def test_the_surjective_case_agrees_with_the_degree_6_map(rows):
    """The abstract: A_2(rhobar) "is never rational over Q when rhobar is
    surjective, even though it is both rational over C and unirational
    over Q via a map of degree 6".

    Row 116 is the whole group, so it is the surjective case: its Burnside
    order 2 makes the quotient not rational, and its lcm 6 says that every
    rational cover has degree divisible by 6.  That 6 is the degree of the
    abstract's unirational map, and every row's bound divides it (27 rows
    of bound 1, 36 of 2, 43 of 3 and 10 of 6).  This is an observation on
    the computed table, not a claim of the paper.
    """
    whole = rows[-1]
    assert (whole.class_id, whole.order) == (116, 25920)
    assert (whole.burnside, whole.lcm, whole.not_rational,
            whole.cover_bound) == (2, 6, True, 6)
    assert all(6 % r.cover_bound == 0 for r in rows)
    assert Counter(r.cover_bound for r in rows) == {1: 27, 2: 36, 3: 43,
                                                    6: 10}


def test_h1_dual_from_transposes_matches_the_dual_module(lattice, module):
    # h1_dual reads M's restricted matrices; the dual module restricts
    # through its own chain
    dual = module.dual()
    nonzero = 0
    for info in lattice.classes:
        rep = lattice.rep(info.class_id)
        got = cohomology.h1_dual(module.restrict(rep))
        assert got == cohomology.h1(dual.restrict(rep)), info.class_id
        nonzero += bool(got.torsion)
    assert nonzero == 31


def test_count_of_valuation_a_plus_1_matches_hnf(lattice, module):
    # h0 counts the Smith invariants of valuation a+1 mod p^(a+1), p^a
    # exactly dividing |H|; the HNF kernel over Z is the independent
    # check, on M and its dual
    dual = module.dual()
    for info in lattice.classes:
        rep = lattice.rep(info.class_id)
        for m in (module.restrict(rep), dual.restrict(rep)):
            assert cohomology.h0(m) == len(cohomology.invariants_basis(m)), \
                info.class_id
