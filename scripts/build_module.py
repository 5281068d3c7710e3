"""Build the rank-61 module M and its invariant pairing from scratch.

The construction starts from the rank-85 permutation module
Z[points] + Z[pairs] of PSp4(F3).  The chi24-isotypic part of that
module contains a distinguished saturated rank-24 sublattice K, spanned
by the rows of [2*L | L*T] where L is the chi24-eigenlattice of the
strongly regular point graph and T the point/pair incidence; averaging
the standard inner product of the complement of K over the group gives
an invariant positive semidefinite pairing whose radical is exactly K.
M is the dual of the quotient by that radical, a free Z-module of rank
61 with character pi_40 + pi_45 - chi_24.

Outputs (under --out-dir, default src/psp4obs/data):
    m61.gmodule  the two generator matrices of M
    m61.pairing  the invariant pairing on the rank-85 ambient module

With --lattice the script also checks H^1 of a few small subgroup
classes against the bundled reference table before writing anything.
"""

import argparse
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from psp4obs import cohomology, intlinalg, sp4f3  # noqa: E402
from psp4obs.subgroups import SubgroupLattice  # noqa: E402
from psp4obs.zmodules import (direct_sum, perm_module,  # noqa: E402
                              quotient_by_pairing, save_module,
                              save_pairing)

POINT_WEIGHT = 2  # weight of the point block in the embedding [2L | LT]


def log(msg):
    print(msg, flush=True)


def ambient_module(model):
    """Z[points] + Z[pairs] as one rank-85 module over the point group."""
    pair_perms = [sp4f3.pair_perm_from_point_perm(g)
                  for g in model.psp.generators]
    return direct_sum(perm_module(model.psp, model.psp.generators),
                      perm_module(model.psp, pair_perms))


def radical_lattice(model):
    """HNF rows of the saturated rank-24 sublattice K of Z^85."""
    adj = np.asarray(sp4f3.srg_adjacency(), dtype=np.int64)
    eig = intlinalg.kernel_saturated(adj - 2 * np.eye(40, dtype=np.int64))
    incidence = np.zeros((40, 45), dtype=np.int64)
    for k, (plane, perp) in enumerate(sp4f3.PERP_PAIRS):
        for x in plane + perp:
            incidence[x, k] = 1
    stacked = np.hstack([POINT_WEIGHT * eig, eig @ incidence])
    return intlinalg.saturate_rows(stacked)


def combined_perms(model):
    """Degree-85 permutations of the generators (points then pairs)."""
    out = []
    for g in model.psp.generators:
        q = sp4f3.pair_perm_from_point_perm(g)
        out.append(tuple(list(g) + [40 + x for x in q]))
    return out


def averaged_pairing(model, radical):
    """Group-average the complement Gram form; radical becomes exactly K.

    For S0 = W^T W with W a basis of the orthogonal complement of K, the
    sum P[i, j] = sum_g S0[g(i), g(j)] is constant on orbits of the
    diagonal action, so it is assembled per orbit: each orbit cell
    contributes |G|/|orbit| times the orbit's S0-sum.
    """
    comp = intlinalg.kernel_saturated(np.ascontiguousarray(radical.T))
    s0 = (comp.T.astype(object)) @ (comp.astype(object))
    perms = combined_perms(model)
    n = s0.shape[0]
    orbit_of = np.full((n, n), -1, dtype=np.int64)
    orbits = []
    for i in range(n):
        for j in range(n):
            if orbit_of[i, j] >= 0:
                continue
            idx = len(orbits)
            stack, cells = [(i, j)], [(i, j)]
            orbit_of[i, j] = idx
            while stack:
                a, b = stack.pop()
                for p in perms:
                    c = (p[a], p[b])
                    if orbit_of[c] < 0:
                        orbit_of[c] = idx
                        stack.append(c)
                        cells.append(c)
            orbits.append(cells)
    group_order = model.psp.order
    pairing = np.zeros((n, n), dtype=object)
    for cells in orbits:
        total = sum(s0[c] for c in cells) * (group_order // len(cells))
        for c in cells:
            pairing[c] = total
    content = 0
    for v in pairing.flat:
        content = np.gcd(content, abs(int(v)))
    pairing = pairing // content
    return intlinalg.as_int_array(pairing)


def probe_small_classes(module, lattice):
    """Compare H^1 on five small classes against the reference table."""
    from psp4obs import table
    fixture = table.Fixture.load(table.default_fixture_path())
    rows = table.compute_table(table.TableConfig(lattice=lattice))
    match = table.compare_fixture(rows, fixture, structural_only=True)
    if len(match.assignments) != len(fixture.rows):
        raise RuntimeError(f"the structural match assigns "
                           f"{len(match.assignments)} of the "
                           f"{len(fixture.rows)} reference rows")
    dual = module.dual()
    failures = []
    for fixture_row in (10, 11, 14, 17, 18):
        cid = next(c for c, f in match.assignments.items()
                   if f == fixture_row)
        rep = lattice.rep(cid)
        got = (cohomology.h1(module.restrict(rep)).torsion,
               cohomology.h1(dual.restrict(rep)).torsion)
        want_row = fixture.by_row(fixture_row)
        want = (want_row.h1_m, want_row.h1_md)
        status = "ok" if got == want else "MISMATCH"
        log(f"  class {cid} ~ reference row {fixture_row}: "
            f"H^1(M)={got[0]} H^1(M~)={got[1]} expected {want} [{status}]")
        if got != want:
            failures.append(fixture_row)
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out-dir",
                        default=pathlib.Path(__file__).resolve().parent.parent
                        / "src" / "psp4obs" / "data",
                        help="where to write m61.gmodule and m61.pairing")
    parser.add_argument("--lattice", default=None,
                        help="lattice JSON; enables the H^1 spot checks")
    args = parser.parse_args(argv)

    t0 = time.time()
    model = sp4f3.build_sp4()
    big = ambient_module(model)
    log(f"ambient module: rank {big.rank} over PSp4(3) "
        f"({time.time() - t0:.0f}s)")

    radical = radical_lattice(model)
    log(f"radical lattice K: {radical.shape[0]} x {radical.shape[1]}, "
        f"saturated ({time.time() - t0:.0f}s)")

    pairing = averaged_pairing(model, radical)
    if not np.array_equal(pairing, pairing.T):
        raise RuntimeError("the averaged pairing is not symmetric")
    if not np.array_equal(intlinalg.kernel_saturated(pairing), radical):
        raise RuntimeError("the radical of the pairing differs from K")
    log(f"invariant pairing assembled, radical verified "
        f"({time.time() - t0:.0f}s)")

    module = quotient_by_pairing(big, pairing).dual()
    module.validate()
    log(f"module built: rank {module.rank} ({time.time() - t0:.0f}s)")

    failures = []
    if args.lattice is not None:
        lattice = SubgroupLattice.load(args.lattice)
        log("H^1 spot checks:")
        failures = probe_small_classes(module, lattice)

    if failures:
        log(f"NOT writing output; mismatching reference rows: {failures}")
        return 1
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_module(module, out / "m61.gmodule")
    save_pairing(pairing, out / "m61.pairing")
    log(f"wrote {out / 'm61.gmodule'} and {out / 'm61.pairing'} "
        f"({time.time() - t0:.0f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
