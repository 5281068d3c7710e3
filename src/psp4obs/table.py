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
:mod:`psp4obs.subgroups`.  The bundled reference table and the matching
of rows to it live in :mod:`psp4obs.fixture`; its names are re-exported
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
    There must be rows, class ids must run 1..n in order and every
    ``maximal`` id name a row."""
    rows = []
    where = "top level"
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if checked(doc, dict, "the file").get("format") != TABLE_FORMAT_TAG:
            raise ValueError(f"unrecognised table format: "
                             f"{doc.get('format')!r}")
        if not checked(doc["rows"], list, "rows"):
            raise ValueError("rows is empty")
        for d in doc["rows"]:
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
