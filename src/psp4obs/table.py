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
:mod:`psp4obs.subgroups`, and the renderers read them by the names in
:data:`TABLE_COLUMNS`.  The bundled reference table and the matching of
rows to it live in :mod:`psp4obs.fixture`; its names are re-exported
here.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from math import lcm
from pathlib import Path

from . import burnside, cohomology, sp4f3
# re-exported: callers reach the reference table through this module
from .fixture import (DISPUTED_CELLS, Fixture, FixtureRow, MatchReport,
                      compare_fixture, default_fixture_path)
from .readers import InputFile, checked, int_list
from .subgroups import Fingerprint, SubgroupLattice
from .zmodules import GIntModule

TABLE_FORMAT_TAG = "psp4obs-table/1"

TABLE_COLUMNS = ("class_id", "order", "fingerprint", "burnside", "lcm",
                 "irred", "maximal", "h1_m", "h1_md", "not_rational",
                 "cover_bound")


# ---------------------------------------------------------------------------
# rows


@dataclass(frozen=True)
class TableRow:
    """One subgroup class with its obstruction data; the fields and the
    two properties are the columns of :data:`TABLE_COLUMNS`, in order.

    ``lcm``, ``h1_m`` and ``h1_md`` are ``None`` when no module file was
    supplied; ``h1_m``/``h1_md`` otherwise hold the invariant-factor
    chains of H^1(H, M) and H^1(H, M^dual).
    """

    class_id: int
    order: int
    fingerprint: Fingerprint
    burnside: int
    lcm: int | None
    irred: bool
    maximal: tuple
    h1_m: tuple | None
    h1_md: tuple | None

    @property
    def not_rational(self) -> bool | None:
        """True when an obstruction is nonzero; None while undecidable.

        Without module data a trivial Burnside order leaves the lcm
        obstruction unknown, so no verdict is possible.
        """
        if self.burnside > 1:
            return True
        if self.lcm is None:
            return None
        return self.lcm > 1

    @property
    def cover_bound(self) -> int | None:
        """Any rational cover has degree divisible by this bound."""
        return self.lcm


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
    out = {}
    for info in lattice.classes:
        restricted = module.restrict(lattice.rep(info.class_id))
        out[info.class_id] = (cohomology.h1(restricted),
                              cohomology.h1_dual(restricted))
        if config.progress is not None:
            config.progress(len(out), len(lattice.classes), info.class_id)
    return out


def chi24_on_ambient_classes(lattice: SubgroupLattice) -> list:
    """chi24 on the ambient classes that ``elem_fusion`` indexes, read
    off the class representatives of the smallest lattice classes (every
    ambient class meets a cyclic subgroup), with no ambient element table.
    """
    count = 1 + max(max(c.elem_fusion) for c in lattice.classes)
    values = {}
    for info in sorted(lattice.classes, key=lambda c: c.order):
        if len(values) == count or info.order == lattice.ambient.order:
            break
        rep = lattice.rep(info.class_id)
        for (x, _), j in zip(rep.conjugacy_classes(), info.elem_fusion,
                             strict=True):
            values.setdefault(j, sp4f3.chi24(x))
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
    check_ambient(lattice, sp4f3.standard_model())
    chi = chi24_on_ambient_classes(lattice)
    h1 = _h1_all(config) if config.module is not None else None
    rows = []
    for info in sorted(lattice.classes, key=lambda c: c.class_id):
        chi_h = burnside.restrict_classfn(chi, info.elem_fusion)
        try:
            b = burnside.burnside_order(info.perm_chars, chi_h,
                                        bound=info.order)
        except ValueError as exc:
            raise ValueError(f"class {info.class_id}: burnside: {exc}") \
                from None
        irred = sp4f3.is_absolutely_irreducible(info.generators)
        if h1 is None:
            lcm_val = h1_m = h1_md = None
        else:
            h1_m, h1_md = (g.torsion for g in h1[info.class_id])
            lcm_val = lcm(*(g.exponent() for p in info.own_gclass
                            for g in h1[p]))
        rows.append(TableRow(
            class_id=info.class_id,
            order=info.order,
            fingerprint=info.fingerprint,
            burnside=b,
            lcm=lcm_val,
            irred=irred,
            maximal=info.maximal,
            h1_m=h1_m,
            h1_md=h1_md,
        ))
    return rows


# ---------------------------------------------------------------------------
# emission


def _fingerprint_str(fp: Fingerprint) -> str:
    ab = ".".join(str(d) for d in fp.abelianization) or "1"
    return (f"ab={ab};exp={fp.exponent};cls={fp.class_count};"
            f"dl={fp.derived_length};nil={'y' if fp.nilpotent else 'n'}")


def _cell(value) -> str:
    """A csv or markdown cell: "-" marks a column that needs module data
    when none was supplied; an empty tuple (a trivial group, no maximal
    classes) is an empty cell, and any other tuple is space-separated."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    if isinstance(value, Fingerprint):
        return _fingerprint_str(value)
    return str(value)


def _cells(row: TableRow) -> list:
    return [_cell(getattr(row, name)) for name in TABLE_COLUMNS]


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
    # json writes the tuples as arrays
    cells = {name: getattr(row, name) for name in TABLE_COLUMNS}
    return cells | {"fingerprint": row.fingerprint.to_json()}


def render_json(rows) -> str:
    doc = {"format": TABLE_FORMAT_TAG,
           "rows": [_row_to_json(r) for r in rows]}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def load_table_json(path) -> list:
    """Importer for :func:`render_json` output; round-trips losslessly.
    There must be rows, class ids must run 1..n in order and every
    ``maximal`` id name a row."""
    rows = []
    with InputFile(path) as f:
        doc = f.json(TABLE_FORMAT_TAG)
        if not checked(doc["rows"], list, "rows"):
            raise ValueError("rows is empty")
        for d in doc["rows"]:
            f.where = f"row {len(rows) + 1}"
            d = checked(d, dict, "the row")
            rows.append(TableRow(
                checked(d["class_id"], int, "class_id"),
                checked(d["order"], int, "order"),
                Fingerprint.from_json(d["fingerprint"]),
                checked(d["burnside"], int, "burnside"),
                None if d["lcm"] is None else checked(d["lcm"], int, "lcm"),
                checked(d["irred"], bool, "irred"),
                int_list(d["maximal"], "maximal"),
                *(None if d[k] is None else int_list(d[k], k)
                  for k in ("h1_m", "h1_md"))))
        f.check_numbering([(f"row {pos}", r.class_id,
                            [("maximal id", r.maximal, 1, len(rows))])
                           for pos, r in enumerate(rows, 1)],
                          "class_id {got} should be {pos}: ids run 1..n in "
                          "order")
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
