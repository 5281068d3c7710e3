"""The bundled reference table and the matching of computed rows to it.

``data/obstruction_fixture.csv`` was transcribed from the literature and
uses a tool-specific row order, so :func:`compare_fixture` matches rows
by invariants, refined through the maximal-subgroup structure; rows that
no recorded column can tell apart are reported as ambiguity groups
rather than forced into an arbitrary bijection.  Computed rows are any
objects with the fields of :class:`psp4obs.table.TableRow`, which names
its columns as :class:`FixtureRow` does, so the matcher reads and
reports both sides through the same attributes.

The module imports nothing else from the package but
:mod:`psp4obs.readers`, and that only inside :meth:`Fixture.load`, so a
kept :class:`Fixture` or :class:`MatchReport` holds on to this module
alone.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from pathlib import Path


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


@dataclass
class Fixture:
    """The transcribed reference table.

    The ``label`` column is an opaque structure description from the
    transcription source; it is carried along for display but never used
    in matching, which reads only ``order`` and ``maximal``.
    """

    rows: list

    def __post_init__(self):
        self._by_row = {f.row: f for f in self.rows}

    def by_row(self, number) -> FixtureRow:
        return self._by_row[number]

    @classmethod
    def load(cls, path) -> "Fixture":
        """Read the CSV; no rows, a missing column, a cell that does not
        parse, a row number out of 1..n order or a ``maximal`` entry that
        names no row raises ValueError naming the path (and the line)."""
        from .readers import InputFile, parse_int, parse_ints
        columns = (("row", parse_int), ("order", parse_int), ("label", str),
                   ("burnside", parse_int), ("lcm", parse_int),
                   ("irred", {"no": False, "yes": True}.__getitem__),
                   ("maximal", parse_ints), ("h1_m", parse_ints),
                   ("h1_md", parse_ints))
        with InputFile(path) as f:
            reader = csv.DictReader(io.StringIO(f.text()))
            try:
                records = [(rec, reader.line_num) for rec in reader]
            except csv.Error as exc:  # e.g. a cell over the field limit
                raise ValueError(f"line {reader.line_num + 1}: {exc}") \
                    from None
            rows = []
            for rec, line in records:
                f.where = f"line {line}"
                fields = {}
                for name, parse in columns:
                    if rec.get(name) is None:
                        raise ValueError(f"column {name!r} is missing")
                    try:
                        fields[name] = parse(rec[name])
                    except (KeyError, ValueError):
                        raise ValueError(f"column {name!r} holds "
                                         f"{rec[name]!r}") from None
                rows.append(FixtureRow(**fields))
            if not rows:
                raise ValueError("the file has no rows")
            f.check_numbering([(f"line {line}", r.row,
                                [("maximal row", r.maximal, 1, len(rows))])
                               for r, (_, line) in zip(rows, records)],
                              "row number {got} should be {pos}: rows run "
                              "1..{n} in order")
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


def _refine_colors(key_of, partners):
    """Refine a coloring by the multiset of partner colors (in place).

    ``key_of`` maps node -> int color; ``partners`` maps node ->
    ``(direction, other)`` pairs (here: "dn" towards maximal subgroup
    classes and "up" back along those edges).  Nodes of both sides must
    be refined together, so the caller passes merged dicts.  Each round
    ranks the distinct signatures (color, sorted (direction, partner
    color) pairs) and gives every node the rank of its own, so the colors
    left are ints in ``range(len(key_of))``.  Every round but the last
    splits a color, so ``len(key_of)`` rounds suffice.
    """
    for _ in range(len(key_of)):
        count = len(set(key_of.values()))
        sig = {node: (color, tuple(sorted((d, key_of[p])
                                          for d, p in partners[node])))
               for node, color in key_of.items()}
        rank = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        for node, s in sig.items():
            key_of[node] = rank[s]
        if len(rank) == count:
            return
    raise RuntimeError("color refinement failed to stabilise")


def _describe(row) -> str:
    head = (f"fixture row {row.row}: order {row.order}, label {row.label!r}"
            if isinstance(row, FixtureRow)
            else f"class {row.class_id}: order {row.order}")
    return (f"{head}, B={row.burnside}, lcm={row.lcm}, irred={row.irred}, "
            f"h1_m={row.h1_m}, h1_md={row.h1_md}, "
            f"maximal={list(row.maximal)}")


def _values(row, with_module):
    names = ("burnside", "irred") + (("lcm", "h1_m", "h1_md")
                                     if with_module else ())
    return [(name, getattr(row, name)) for name in names]


def compare_fixture(rows, fixture: Fixture,
                    structural_only: bool = False) -> MatchReport:
    """Match computed rows against the fixture by invariants.

    Matching runs on lattice structure alone: each row starts with its
    order as its color, and iterated refinement folds in the colors of
    neighbours both down and up the poset (the first round adds the
    multiset of maximal-subgroup orders).
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
    # disjoint node names: computed ids tagged "c", fixture rows "f"
    nodes = {("c", r.class_id): r for r in rows}
    nodes.update({("f", f.row): f for f in fixture.rows})
    key_of = {node: row.order for node, row in nodes.items()}
    partners = {node: [] for node in nodes}
    for node, row in nodes.items():
        for j in row.maximal:
            partners[node].append(("dn", (node[0], j)))
            partners[node[0], j].append(("up", node))
    _refine_colors(key_of, partners)

    # per color, the computed ids and the fixture rows in input order; a
    # color comes out at its first node
    groups = {}
    for side, number in nodes:
        groups.setdefault(key_of[side, number],
                          ([], []))[side == "f"].append(number)

    assignments, ambiguity, mismatches = {}, [], []
    for cids, fids in groups.values():
        if len(cids) != len(fids):
            mismatches += ["unmatched " + _describe(nodes[side, n])
                           for side, ns in zip("cf", (cids, fids))
                           for n in ns]
        elif len(cids) == 1:
            assignments[cids[0]] = fids[0]
        else:
            ambiguity.append((tuple(sorted(cids)), tuple(sorted(fids))))

    if not structural_only:
        for cid, frow in sorted(assignments.items()):
            have = _values(nodes["c", cid], with_module)
            want = _values(nodes["f", frow], with_module)
            for (name, got), (_, expected) in zip(have, want):
                if got != expected:
                    mismatches.append(
                        f"class {cid} ~ fixture row {frow}: {name} "
                        f"{got!r} != {expected!r}")
        for cids, fids in ambiguity:
            have = sorted(repr(_values(nodes["c", c], with_module))
                          for c in cids)
            want = sorted(repr(_values(nodes["f", f], with_module))
                          for f in fids)
            if have != want:
                mismatches.append(
                    f"classes {list(cids)} ~ fixture rows {list(fids)}: "
                    f"column data differs: {have} != {want}")
    return MatchReport(assignments, ambiguity, mismatches)
