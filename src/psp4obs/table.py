"""The obstruction table: one row per subgroup class of PSp4(3).

For every conjugacy class of subgroups H of the canonical degree-40 copy
of PSp4(3) the table records

* the order of chi_24 restricted to H in the cokernel of the Burnside
  map from permutation characters to rational characters;
* whether the preimage of H in Sp4(3) acts absolutely irreducibly on
  F3^4;
* when a rank-61 module M is supplied, the cohomology groups H^1(H, M)
  and H^1(H, M^dual), and the lcm of the exponents of both groups over
  all subgroup classes P contained in H;
* the conjugacy classes of maximal subgroups of H, as ids into the same
  table.

A Burnside order > 1 or an lcm > 1 certifies that the quotient variety
twisted by H is not rational, and the lcm divides the degree of any
rational cover.  Rows follow the canonical class ids of
:mod:`psp4obs.subgroups`.  The bundled reference table in
``data/obstruction_fixture.csv`` was transcribed from the literature and
uses a tool-specific row order, so :func:`compare_fixture` matches rows
by invariants, refined through the maximal-subgroup structure; rows that
no recorded column can tell apart are reported as ambiguity groups
rather than forced into an arbitrary bijection.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections import defaultdict
from dataclasses import dataclass
from math import lcm
from pathlib import Path

from . import burnside, cohomology, sp4f3
from .permgroups import PermGroup
from .subgroups import Fingerprint, SubgroupLattice, checked, int_list
from .zmodules import GIntModule

TABLE_FORMAT_TAG = "psp4obs-table/1"

TABLE_COLUMNS = ("class_id", "order", "fingerprint", "burnside", "lcm",
                 "irred", "maximal", "h1_m", "h1_md", "not_rational",
                 "cover_bound")


# ---------------------------------------------------------------------------
# rows


@dataclass(frozen=True)
class TableRow:
    """One subgroup class with its obstruction data.

    ``lcm_obstruction``, ``h1_m`` and ``h1_mdual`` are ``None`` when no
    module file was supplied; ``h1_m``/``h1_mdual`` otherwise hold the
    invariant-factor chains of the (finite) cohomology groups.
    """

    class_id: int
    order: int
    fingerprint: Fingerprint
    burnside_order: int
    lcm_obstruction: int | None
    h1_m: tuple | None
    h1_mdual: tuple | None
    absolutely_irreducible: bool
    maximal: tuple

    @property
    def not_rational_verdict(self) -> bool | None:
        """True when an obstruction is nonzero; None while undecidable.

        Without module data a trivial Burnside order leaves the lcm
        obstruction unknown, so no verdict is possible.
        """
        if self.burnside_order > 1:
            return True
        if self.lcm_obstruction is None:
            return None
        return self.lcm_obstruction > 1

    @property
    def min_cover_degree_bound(self) -> int | None:
        """Any rational cover has degree divisible by this bound."""
        return self.lcm_obstruction


# ---------------------------------------------------------------------------
# computing the table


@dataclass
class TableConfig:
    """Inputs of :func:`compute_table`.

    ``progress`` receives ``(done, total, class_id)`` after each class's
    cohomology when supplied.
    """

    lattice: SubgroupLattice
    module: GIntModule | None = None
    progress: object = None


def _h1_all(config: TableConfig) -> dict:
    """H^1 of module and dual for every class, keyed by class id."""
    lattice, module = config.lattice, config.module
    dual = module.dual()
    out = {}
    for info in lattice.classes:
        rep = lattice.rep(info.class_id)
        out[info.class_id] = (cohomology.h1(module.restrict(rep)),
                              cohomology.h1(dual.restrict(rep)))
        if config.progress is not None:
            config.progress(len(out), len(lattice.classes), info.class_id)
    return out


def chi24_on_ambient_classes(lattice: SubgroupLattice, model) -> list:
    """chi24 on the ambient classes that ``elem_fusion`` indexes, read
    off the class representatives of the smallest lattice classes (every
    ambient class meets a cyclic subgroup), with no ambient element table.
    """
    count = 1 + max(max(c.elem_fusion) for c in lattice.classes)
    values = {}
    for info in sorted(lattice.classes, key=lambda c: c.order):
        if len(values) == count or info.order == lattice.ambient.order:
            break
        rep = PermGroup(info.generators, lattice.ambient.degree)
        for (x, _), j in zip(rep.conjugacy_classes(), info.elem_fusion,
                             strict=True):
            values.setdefault(j, sp4f3.chi24(model, x))
    if len(values) < count:
        raise RuntimeError(f"the proper lattice classes meet only "
                           f"{len(values)} of {count} ambient classes")
    return [values[j] for j in range(count)]


def check_ambient(lattice: SubgroupLattice, model):
    """Raise ValueError unless the lattice is of the model's PSp4(3)."""
    if lattice.ambient.generators != model.psp.generators:
        raise ValueError("lattice ambient group is not the canonical "
                         "degree-40 copy of PSp4(3)")


def compute_table(config: TableConfig) -> list:
    """One :class:`TableRow` per subgroup class, ordered by class id."""
    lattice = config.lattice
    model = sp4f3.standard_model()
    check_ambient(lattice, model)
    chi = chi24_on_ambient_classes(lattice, model)
    h1 = _h1_all(config) if config.module is not None else None
    rows = []
    for info in sorted(lattice.classes, key=lambda c: c.class_id):
        chi_h = burnside.restrict_classfn(chi, info.elem_fusion)
        b = burnside.burnside_order(info.perm_chars, chi_h, bound=info.order)
        irred = sp4f3.is_absolutely_irreducible(model, info.generators)
        if h1 is None:
            lcm_val = h1_m = h1_md = None
        else:
            h1_m, h1_md = (g.torsion for g in h1[info.class_id])
            lcm_val = 1
            for p in info.own_gclass:
                lcm_val = lcm(lcm_val, h1[p][0].exponent(),
                              h1[p][1].exponent())
        rows.append(TableRow(
            class_id=info.class_id,
            order=info.order,
            fingerprint=info.fingerprint,
            burnside_order=b,
            lcm_obstruction=lcm_val,
            h1_m=h1_m,
            h1_mdual=h1_md,
            absolutely_irreducible=irred,
            maximal=info.maximal,
        ))
    return rows


# ---------------------------------------------------------------------------
# the transcribed reference table


@dataclass(frozen=True)
class FixtureRow:
    """One transcribed row; ``maximal`` holds fixture row numbers."""

    row: int
    order: int
    label: str
    burnside: int
    lcm: int
    irred: bool
    maximal: tuple
    h1_m: tuple
    h1_md: tuple


def _ints(text) -> tuple:
    return tuple(int(x) for x in text.split())


_FIXTURE_COLUMNS = (("row", int), ("order", int), ("label", str),
                    ("burnside", int), ("lcm", int),
                    ("irred", lambda text: text == "yes"), ("maximal", _ints),
                    ("h1_m", _ints), ("h1_md", _ints))


@dataclass
class Fixture:
    """The transcribed reference table.

    The ``label`` column is an opaque structure description from the
    transcription source; it is carried along for display but never used
    in matching (fingerprints take its place).
    """

    rows: list

    def __post_init__(self):
        self._by_row = {f.row: f for f in self.rows}

    def by_row(self, number) -> FixtureRow:
        return self._by_row[number]

    @classmethod
    def load(cls, path) -> "Fixture":
        """Read the CSV; a missing column, a cell that does not parse, a
        row number out of 1..n order or a ``maximal`` entry that names no
        row raises ValueError naming the path and the line."""
        rows, line_of = [], []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for rec in reader:
                fields = {}
                for name, parse in _FIXTURE_COLUMNS:
                    text = rec.get(name)
                    try:
                        if text is None:
                            raise ValueError
                        fields[name] = parse(text)
                    except ValueError:
                        raise ValueError(
                            f"{path}: line {reader.line_num}: column "
                            f"{name!r} " + ("is missing" if text is None
                                            else f"holds {text!r}")) from None
                rows.append(FixtureRow(**fields))
                line_of.append(reader.line_num)
        n = len(rows)
        for pos, (f, line) in enumerate(zip(rows, line_of), 1):
            if f.row != pos:
                raise ValueError(f"{path}: line {line}: row number {f.row} "
                                 f"should be {pos}: rows run 1..{n} in order")
            bad = [j for j in f.maximal if not 1 <= j <= n]
            if bad:
                raise ValueError(f"{path}: line {line}: maximal row {bad[0]} "
                                 f"is not in 1..{n}")
        return cls(rows)


def default_fixture_path() -> Path:
    return Path(__file__).parent / "data" / "obstruction_fixture.csv"


# ---------------------------------------------------------------------------
# invariant matching


# cells where the reference table disagrees and an oracle test backs the
# computed value (the preimage's F3-span; all subgroups of class 60)
DISPUTED_CELLS = ((43, "irred"), (46, "irred"), (77, "irred"),
                  (81, "irred"), (60, "burnside"))
_CELL = re.compile(r"^class (\d+) ~ fixture row \d+: (\w+) ")


@dataclass
class MatchReport:
    """Outcome of matching computed rows against the fixture.

    ``assignments`` maps computed class ids to fixture row numbers where
    the invariants pin the bijection down; ``ambiguity_groups`` pairs
    sets of computed ids with equal-sized sets of fixture rows that share
    all recorded invariants (a successful match); ``mismatches`` lists
    human-readable discrepancies, and is empty iff the match succeeded.
    """

    assignments: dict
    ambiguity_groups: list
    mismatches: list

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        lines = [f"{len(self.assignments)} rows matched uniquely, "
                 f"{len(self.ambiguity_groups)} ambiguity groups covering "
                 f"{sum(len(c) for c, _ in self.ambiguity_groups)} rows"]
        for cids, fids in self.ambiguity_groups:
            lines.append(f"  ambiguous: classes {list(cids)} ~ "
                         f"fixture rows {list(fids)}")
        if self.mismatches:
            lines.append(f"{len(self.mismatches)} mismatches:")
            for m in self.mismatches:
                cell = _CELL.match(m)
                label = ("disputed: an oracle confirms the computed value"
                         if cell and (int(cell[1]), cell[2]) in DISPUTED_CELLS
                         else "unexplained")
                lines.append(f"  {m}  [{label}]")
        else:
            lines.append("all rows accounted for")
        return "\n".join(lines)


_MAX_ROUNDS = 200  # every refinement round but the last splits a color


def _refine_colors(key_of, partners):
    """Refine a coloring by the multiset of partner colors (in place).

    ``key_of`` maps node -> hashable color; ``partners`` maps node ->
    ``(direction, other)`` pairs (here: "dn" towards maximal subgroup
    classes and "up" back along those edges).  Nodes of both sides must
    be refined together, so the caller passes merged dicts.  The colors
    kept are those of the last round that split a class; a round that
    splits none would only nest each color once more, keeping the
    partition and the order of the colors' reprs.
    """
    for _ in range(_MAX_ROUNDS):
        # one repr per node, shared by every edge to it: the reprs nest
        # and grow each round
        text = {node: repr(color) for node, color in key_of.items()}
        new = {node: (color, tuple(sorted((d, text[p])
                                          for d, p in partners[node])))
               for node, color in key_of.items()}
        if len(set(new.values())) == len(set(key_of.values())):
            return
        key_of.update(new)
    raise RuntimeError("color refinement failed to stabilise")


def _describe_computed(row: TableRow) -> str:
    return (f"class {row.class_id}: order {row.order}, "
            f"B={row.burnside_order}, lcm={row.lcm_obstruction}, "
            f"irred={row.absolutely_irreducible}, h1_m={row.h1_m}, "
            f"h1_md={row.h1_mdual}, maximal={list(row.maximal)}")


def _describe_fixture(row: FixtureRow) -> str:
    return (f"fixture row {row.row}: order {row.order}, label "
            f"{row.label!r}, B={row.burnside}, lcm={row.lcm}, "
            f"irred={row.irred}, h1_m={row.h1_m}, h1_md={row.h1_md}, "
            f"maximal={list(row.maximal)}")


def _column_values(row: TableRow, with_module):
    vals = [("burnside", row.burnside_order),
            ("irred", row.absolutely_irreducible)]
    if with_module:
        vals += [("lcm", row.lcm_obstruction), ("h1_m", row.h1_m),
                 ("h1_md", row.h1_mdual)]
    return vals


def _fixture_values(f: FixtureRow, with_module):
    vals = [("burnside", f.burnside), ("irred", f.irred)]
    if with_module:
        vals += [("lcm", f.lcm), ("h1_m", f.h1_m), ("h1_md", f.h1_md)]
    return vals


def compare_fixture(rows, fixture: Fixture,
                    structural_only: bool = False) -> MatchReport:
    """Match computed rows against the fixture by invariants.

    Matching runs on lattice structure alone: the base key per row is
    (order, multiset of maximal-subgroup orders), and iterated refinement
    folds in the colors of neighbours both down and up the poset.
    Computed rows and fixture rows are refined as one population, so
    equal colors mean equal structural invariants.

    Once rows are paired, the data columns (Burnside order and
    irreducibility, plus lcm and H^1 invariants when the computed rows
    carry module data) are compared under the resulting bijection, so a
    single wrong value surfaces as one localized mismatch instead of
    poisoning the matching itself.  Rows a color cannot separate are
    reported as ambiguity groups and their column data is compared as
    multisets.  With ``structural_only`` the column comparison is
    skipped entirely.
    """
    with_module = (not structural_only
                   and all(r.h1_m is not None for r in rows))
    by_id = {r.class_id: r for r in rows}
    by_row = fixture._by_row

    def base_c(r: TableRow):
        return (r.order, tuple(sorted(by_id[j].order for j in r.maximal)))

    def base_f(f: FixtureRow):
        return (f.order, tuple(sorted(by_row[j].order for j in f.maximal)))

    # disjoint node names: computed ids tagged "c", fixture rows "f"
    key_of = {("c", r.class_id): base_c(r) for r in rows}
    key_of.update({("f", f.row): base_f(f) for f in fixture.rows})
    partners = {node: [] for node in key_of}
    for r in rows:
        for j in r.maximal:
            partners[("c", r.class_id)].append(("dn", ("c", j)))
            partners[("c", j)].append(("up", ("c", r.class_id)))
    for f in fixture.rows:
        for j in f.maximal:
            partners[("f", f.row)].append(("dn", ("f", j)))
            partners[("f", j)].append(("up", ("f", f.row)))
    _refine_colors(key_of, partners)

    groups = defaultdict(lambda: ([], []))
    for r in rows:
        groups[key_of[("c", r.class_id)]][0].append(r.class_id)
    for f in fixture.rows:
        groups[key_of[("f", f.row)]][1].append(f.row)

    assignments, ambiguity, mismatches = {}, [], []
    for color in sorted(groups, key=repr):
        cids, fids = groups[color]
        if len(cids) != len(fids):
            for c in cids:
                mismatches.append("unmatched " + _describe_computed(by_id[c]))
            for f in fids:
                mismatches.append("unmatched " + _describe_fixture(by_row[f]))
        elif len(cids) == 1:
            assignments[cids[0]] = fids[0]
        else:
            ambiguity.append((tuple(sorted(cids)), tuple(sorted(fids))))

    if not structural_only:
        for cid in sorted(assignments):
            frow = assignments[cid]
            have = _column_values(by_id[cid], with_module)
            want = _fixture_values(by_row[frow], with_module)
            for (name, got), (_, expected) in zip(have, want):
                if got != expected:
                    mismatches.append(
                        f"class {cid} ~ fixture row {frow}: {name} "
                        f"{got!r} != {expected!r}")
        for cids, fids in ambiguity:
            have = sorted(repr(_column_values(by_id[c], with_module))
                          for c in cids)
            want = sorted(repr(_fixture_values(by_row[f], with_module))
                          for f in fids)
            if have != want:
                mismatches.append(
                    f"classes {list(cids)} ~ fixture rows {list(fids)}: "
                    f"column data differs: {have} != {want}")
    return MatchReport(assignments, ambiguity, mismatches)


# ---------------------------------------------------------------------------
# emission

# cell conventions shared by the csv and markdown renderers: "-" marks
# fields that need module data when none was supplied; an empty cell is a
# trivial group / empty list; h1 and maximal lists are space-separated.


def _fingerprint_str(fp: Fingerprint) -> str:
    ab = ".".join(str(d) for d in fp.abelianization) or "1"
    return (f"ab={ab};exp={fp.exponent};cls={fp.class_count};"
            f"dl={fp.derived_length};nil={'y' if fp.nilpotent else 'n'}")


def _opt(value) -> str:
    return "-" if value is None else str(value)


def _seq(values) -> str:
    return "-" if values is None else " ".join(str(v) for v in values)


def _flag(value) -> str:
    return "-" if value is None else ("yes" if value else "no")


def _cells(row: TableRow) -> list:
    return [str(row.class_id), str(row.order),
            _fingerprint_str(row.fingerprint), str(row.burnside_order),
            _opt(row.lcm_obstruction),
            "yes" if row.absolutely_irreducible else "no",
            " ".join(str(j) for j in row.maximal),
            _seq(row.h1_m), _seq(row.h1_mdual),
            _flag(row.not_rational_verdict),
            _opt(row.min_cover_degree_bound)]


def render_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(TABLE_COLUMNS)
    for row in rows:
        w.writerow(_cells(row))
    return buf.getvalue()


def render_markdown(rows) -> str:
    out = ["| " + " | ".join(TABLE_COLUMNS) + " |",
           "|" + "---|" * len(TABLE_COLUMNS)]
    for row in rows:
        out.append("| " + " | ".join(c or " " for c in _cells(row)) + " |")
    return "\n".join(out) + "\n"


def _row_to_json(row: TableRow) -> dict:
    return {
        "class_id": row.class_id,
        "order": row.order,
        "fingerprint": row.fingerprint.to_json(),
        "burnside": row.burnside_order,
        "lcm": row.lcm_obstruction,
        "irred": row.absolutely_irreducible,
        "maximal": list(row.maximal),
        "h1_m": None if row.h1_m is None else list(row.h1_m),
        "h1_md": None if row.h1_mdual is None else list(row.h1_mdual),
        "not_rational": row.not_rational_verdict,
        "cover_bound": row.min_cover_degree_bound,
    }


def render_json(rows) -> str:
    doc = {"format": TABLE_FORMAT_TAG,
           "rows": [_row_to_json(r) for r in rows]}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def load_table_json(path) -> list:
    """Importer for :func:`render_json` output; round-trips losslessly.
    Class ids must run 1..n in order and every ``maximal`` id name a row."""
    rows = []
    where = "top level"
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if checked(doc, dict, "the file").get("format") != TABLE_FORMAT_TAG:
            raise ValueError(f"unrecognised table format: "
                             f"{doc.get('format')!r}")
        for d in checked(doc["rows"], list, "rows"):
            where = f"row {len(rows) + 1}"
            d = checked(d, dict, "the row")
            h1 = [None if d[k] is None else int_list(d[k], k)
                  for k in ("h1_m", "h1_md")]
            rows.append(TableRow(
                class_id=checked(d["class_id"], int, "class_id"),
                order=checked(d["order"], int, "order"),
                fingerprint=Fingerprint.from_json(d["fingerprint"]),
                burnside_order=checked(d["burnside"], int, "burnside"),
                lcm_obstruction=(None if d["lcm"] is None
                                 else checked(d["lcm"], int, "lcm")),
                h1_m=h1[0],
                h1_mdual=h1[1],
                absolutely_irreducible=checked(d["irred"], bool, "irred"),
                maximal=int_list(d["maximal"], "maximal"),
            ))
            if rows[-1].class_id != len(rows):
                raise ValueError(f"class_id {rows[-1].class_id} should be "
                                 f"{len(rows)}: ids run 1..n in order")
        for r in rows:
            where = f"row {r.class_id}"
            bad = [j for j in r.maximal if not 1 <= j <= len(rows)]
            if bad:
                raise ValueError(f"maximal id {bad[0]} is not in "
                                 f"1..{len(rows)}")
    except KeyError as exc:
        raise ValueError(f"{path}: {where}: missing key "
                         f"{exc.args[0]!r}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {where}: {exc}") from None
    return rows


RENDERERS = {"csv": render_csv, "json": render_json,
             "markdown": render_markdown}


def emit(rows, format, path) -> Path:
    """Write the table in the given format; byte-deterministic."""
    try:
        render = RENDERERS[format]
    except KeyError:
        raise ValueError(f"unknown format {format!r}; "
                         f"pick one of {sorted(RENDERERS)}") from None
    path = Path(path)
    path.write_text(render(rows))
    return path
