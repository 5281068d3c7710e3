"""Command-line interface.

Subcommands mirror the pipeline stages::

    psp4obs group info
    psp4obs lattice compute --cache lattice.json
    psp4obs table compute --lattice lattice.json [--module m61.gmodule]
                          [--format csv|json|markdown] --out table.csv
    psp4obs table check [--fixture fixture.csv]
                        (--table table.json | --lattice lattice.json
                         [--module m61.gmodule])
    psp4obs module verify --module m61.gmodule
    psp4obs cohomology one --class ID --lattice lattice.json
                           --module m61.gmodule

Results go to stdout, progress chatter to stderr; the exit status is 0
only when every requested check passed.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import cohomology, permgroups, sp4f3, subgroups, table, zmodules
from .readers import parse_int


def _say(msg):
    print(msg, file=sys.stderr, flush=True)


def _check_writable(path) -> None:
    """Fail before any work when ``path`` cannot be written: it is a
    directory, or its parent is not one."""
    path = Path(path)
    if path.is_dir():
        raise ValueError(f"cannot write {path}: it is a directory")
    if not path.parent.is_dir():
        raise ValueError(f"cannot write {path}: no directory {path.parent}")


def _load_lattice(path) -> subgroups.SubgroupLattice:
    if not Path(path).exists():
        raise ValueError(f"no lattice cache at {path}; "
                         f"run `psp4obs lattice compute --cache {path}`")
    return subgroups.SubgroupLattice.load(path)


def _load_module(path, model) -> zmodules.GIntModule:
    _say(f"loading and validating module {path} ...")
    return zmodules.load_module(path, model.psp)


# ---------------------------------------------------------------------------
# subcommands


def cmd_group_info(args) -> int:
    model = sp4f3.standard_model()
    classes = model.psp.conjugacy_classes()
    reps = [rep for rep, _ in classes]
    chi = [sp4f3.chi24(r) for r in reps]
    norm = Fraction(sum(size * c * c for (_, size), c in zip(classes, chi)),
                    model.psp.order)
    print(f"Sp4(F3): order {model.sp80.order}, acting on the 80 nonzero "
          f"vectors of F3^4")
    print(f"PSp4(F3): order {model.psp.order}, "
          f"{len(classes)} conjugacy classes")
    for name, grp in (("projective points", model.psp),
                      ("isotropic lines", model.line_action),
                      ("perp pairs", model.pair_action)):
        orb = len(permgroups.orbits(grp.generators, grp.degree))
        print(f"  action on {name}: degree {grp.degree}, "
              f"{'transitive' if orb == 1 else f'{orb} orbits'}")
    print(f"chi24: degree {chi[0]}, <chi24, chi24> = {norm}")
    same = ([sp4f3.fixed_points(r) for r in reps]
            == [sp4f3.fixed_points(sp4f3.line_perm_from_point_perm(r))
                for r in reps])
    print(f"point and line actions "
          f"{'equivalent' if same else 'inequivalent'} "
          f"(permutation characters {'equal' if same else 'differ'})")
    minus_one = sp4f3.vector_perm(2 * np.identity(4, dtype=int))
    ok = (model.sp80.order == sp4f3.SP4_ORDER and minus_one in model.sp80
          and model.psp.order == model.line_action.order
          == model.pair_action.order == sp4f3.PSP4_ORDER
          and chi[0] == 24 and norm == 1 and not same)
    return 0 if ok else 1


def cmd_lattice_compute(args) -> int:
    _check_writable(args.cache)
    model = sp4f3.standard_model()
    _say("classifying subgroups of PSp4(3) ...")
    lat = subgroups.subgroup_classes(model.psp, progress=_say)
    lat.save(args.cache)
    print(f"{len(lat)} subgroup classes -> {args.cache}")
    return 0


def _computed_rows(args) -> list:
    model = sp4f3.standard_model()
    lat = _load_lattice(args.lattice)
    module = None
    if args.module is not None:
        module = _load_module(args.module, model)

    def progress(done, total, cid):
        _say(f"  h1 {done}/{total} (class {cid})")

    cfg = table.TableConfig(lattice=lat, module=module,
                            progress=progress if module else None)
    return table.compute_table(cfg)


def cmd_table_compute(args) -> int:
    _check_writable(args.out)
    rows = _computed_rows(args)
    table.emit(rows, args.format, args.out)
    nontrivial = sum(1 for r in rows if r.burnside > 1)
    print(f"{len(rows)} rows -> {args.out} [{args.format}]")
    print(f"burnside-nontrivial classes: {nontrivial}")
    if rows[0].lcm is not None:
        false_count = sum(1 for r in rows if r.not_rational is False)
        print(f"classes with no obstruction: {false_count}")
    return 0


def cmd_table_check(args) -> int:
    fixture = table.Fixture.load(args.fixture)
    if args.table is not None:
        if args.lattice is not None or args.module is not None:
            raise ValueError("--table checks the table as it was computed; "
                             "it takes no --lattice or --module")
        rows = table.load_table_json(args.table)
    elif args.lattice is not None:
        rows = _computed_rows(args)
    else:
        raise ValueError("pass either --table or --lattice")
    report = table.compare_fixture(rows, fixture,
                                   structural_only=args.structural)
    print(report.summary())
    return 0 if report.ok and len(rows) == len(fixture.rows) else 1


def cmd_module_verify(args) -> int:
    model = sp4f3.standard_model()
    module = _load_module(args.module, model)
    print(f"module {args.module}: rank {module.rank}, "
          f"{len(module.gens)} generator matrices")
    print("unimodularity, Schreier relations and character identity "
          "all hold")
    return 0


def cmd_cohomology_one(args) -> int:
    model = sp4f3.standard_model()
    lat = _load_lattice(args.lattice)
    table.check_ambient(lat, model)
    if not 1 <= args.class_id <= len(lat):
        raise ValueError(f"{args.lattice} has no class {args.class_id}; "
                         f"its class ids run 1..{len(lat)}")
    module = _load_module(args.module, model)
    info = lat.by_id(args.class_id)
    restricted = module.restrict(lat.rep(args.class_id))
    print(f"class {args.class_id}: order {info.order}")
    print(f"H^0(H, M) rank {cohomology.h0(restricted)}")
    print(f"H^1(H, M)  = {cohomology.h1(restricted)}")
    print(f"H^1(H, M~) = {cohomology.h1_dual(restricted)}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psp4obs",
        description="rationality obstructions for quotients by subgroups "
                    "of PSp4(F3)")
    top = parser.add_subparsers(dest="command", required=True)

    group = top.add_parser("group", help="the ambient group")
    gsub = group.add_subparsers(dest="subcommand", required=True)
    info = gsub.add_parser("info", help="orders, actions and chi24 facts")
    info.set_defaults(func=cmd_group_info)

    lattice = top.add_parser("lattice", help="subgroup classification")
    lsub = lattice.add_subparsers(dest="subcommand", required=True)
    lcompute = lsub.add_parser("compute",
                               help="classify all subgroup classes")
    lcompute.add_argument("--cache", required=True,
                          help="where to write the lattice JSON")
    # ignored: perfbench/run.py still passes --seed 1 (ROADMAP item 6)
    lcompute.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    lcompute.set_defaults(func=cmd_lattice_compute)

    tab = top.add_parser("table", help="the obstruction table")
    tsub = tab.add_subparsers(dest="subcommand", required=True)
    tcompute = tsub.add_parser("compute", help="compute and emit the table")
    tcompute.add_argument("--lattice", required=True,
                          help="lattice JSON from `lattice compute`")
    tcompute.add_argument("--module", default=None,
                          help="rank-61 gmodule file (optional; enables "
                               "the H^1 and lcm columns)")
    tcompute.add_argument("--format", choices=sorted(table.RENDERERS),
                          default="csv")
    tcompute.add_argument("--out", required=True)
    tcompute.set_defaults(func=cmd_table_compute)

    tcheck = tsub.add_parser("check",
                             help="compare against the reference table")
    tcheck.add_argument("--fixture", default=table.default_fixture_path(),
                        help="reference CSV (default: bundled)")
    tcheck.add_argument("--table", default=None,
                        help="previously emitted JSON table to check")
    tcheck.add_argument("--lattice", default=None,
                        help="compute rows from this lattice instead")
    tcheck.add_argument("--module", default=None)
    tcheck.add_argument("--structural", action="store_true",
                        help="compare lattice structure only, ignoring "
                             "the obstruction columns")
    tcheck.set_defaults(func=cmd_table_check)

    module = top.add_parser("module", help="module files")
    msub = module.add_subparsers(dest="subcommand", required=True)
    mverify = msub.add_parser("verify", help="validate a gmodule file")
    mverify.add_argument("--module", required=True)
    mverify.set_defaults(func=cmd_module_verify)

    coh = top.add_parser("cohomology", help="cohomology of one class")
    csub = coh.add_subparsers(dest="subcommand", required=True)
    cone = csub.add_parser("one", help="H^1 of a single subgroup class")
    cone.add_argument("--class", dest="class_id", type=parse_int,
                      required=True)
    cone.add_argument("--lattice", required=True,
                      help="lattice JSON from `lattice compute`")
    cone.add_argument("--module", required=True)
    cone.set_defaults(func=cmd_cohomology_one)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
