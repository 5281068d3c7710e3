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

This script is the one place that constructs M: it holds the module
algebra (permutation modules and the quotient by a saturated invariant
sublattice), checks the pairing once (symmetric, invariant under every
generator, radical equal to K) and validates the quotient.  The package
only loads and validates the file it writes (``psp4obs.zmodules``).

Outputs (under --out-dir, default src/psp4obs/data):
    m61.gmodule  the five generator matrices of M
    m61.pairing  the invariant pairing on the rank-85 ambient module

With --lattice the script also checks H^1 of a few small subgroup
classes against the bundled reference table before writing anything.
"""

import argparse
import math
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from psp4obs import cohomology, intlinalg, sp4f3  # noqa: E402
from psp4obs.permgroups import PermGroup, orbit_minima  # noqa: E402
from psp4obs.subgroups import SubgroupLattice  # noqa: E402
from psp4obs.zmodules import (GIntModule, save_module,  # noqa: E402
                              save_pairing)

POINT_WEIGHT = 2  # weight of the point block in the embedding [2L | LT]


def log(msg):
    print(msg, flush=True)


def perm_module(group: PermGroup, action_perms) -> GIntModule:
    """Permutation module for an action aligned with ``group.generators``.

    ``action_perms[i]`` is the permutation of basis indices induced by the
    i-th generator; basis vector ``e_r`` is sent to ``e_{sigma(r)}``.
    """
    action_perms = [tuple(s) for s in action_perms]
    if len(action_perms) != len(group.generators):
        raise ValueError("one action permutation per group generator")
    npts = len(action_perms[0]) if action_perms else 0
    mats = []
    for s in action_perms:
        m = np.zeros((npts, npts), dtype=np.int64)
        m[np.arange(npts), np.asarray(s)] = 1
        mats.append(m)
    return GIntModule(group, tuple(mats), npts)


def quotient_by_radical(module: GIntModule, radical) -> GIntModule:
    """Quotient of the module by a saturated invariant sublattice.

    ``radical`` is a matrix whose rows span a saturated submodule; the
    quotient is then free and the induced action is returned on a
    complementary basis, read off the Hermite form of the transpose.
    Raises if the rows are not saturated or not invariant.
    """
    radical = np.atleast_2d(np.asarray(radical))
    k = len(radical)
    if k == 0:
        return module
    h, u = intlinalg.hnf(np.ascontiguousarray(radical.T))
    if not np.array_equal(h, intlinalg.identity(len(h))[:, :k]):
        raise ValueError("radical rows are dependent or not saturated")
    # U R^T = [I_k; 0], so R U^T = [I_k | 0] and the radical spans the
    # top k rows of (U^T)^-1; its other rows span a complement.  Those
    # rows can have enormous entries; put them in HNF and reduce them
    # modulo the radical (both are determinant-preserving row
    # operations) to keep the induced action small.
    rad = np.asarray(intlinalg.hnf_basis(radical))
    comp = np.asarray(intlinalg.unimodular_inverse(u.T))[k:]
    comp = np.asarray(intlinalg.hnf(comp)[0][:module.rank - k])
    comp = comp.astype(object)
    for r in rad:
        p = next(j for j in range(module.rank) if r[j] != 0)
        piv = int(r[p])
        q = (comp[:, p] + piv // 2) // piv
        comp = comp - np.outer(q, r.astype(object))
    basis = intlinalg.as_int_array(np.vstack([rad.astype(object),
                                              comp]))
    basis_inv = np.asarray(intlinalg.unimodular_inverse(basis))
    quot = []
    for i, g in enumerate(module.gens):
        c = np.asarray(intlinalg.mat_mul(intlinalg.mat_mul(basis, g),
                                         basis_inv))
        if np.any(c[:k, k:] != 0):
            raise ValueError(f"radical is not invariant under generator {i}")
        quot.append(intlinalg.as_int_array(c[k:, k:]))
    return GIntModule(module.group, tuple(quot), module.rank - k)


def combined_perms(model):
    """Degree-85 permutations of the generators (points then pairs)."""
    out = []
    for g in model.psp.generators:
        q = sp4f3.pair_perm_from_point_perm(g)
        out.append(tuple(list(g) + [40 + x for x in q]))
    return out


def ambient_module(model):
    """Z[points] + Z[pairs] as one rank-85 module over the point group."""
    return perm_module(model.psp, combined_perms(model))


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


def averaged_pairing(model, radical):
    """Group-average the complement Gram form; radical becomes exactly K.

    For S0 = W^T W with W a basis of the orthogonal complement of K, the
    sum P[i, j] = sum_g S0[g(i), g(j)] is constant on orbits of the
    diagonal action, so it is assembled per orbit of cells, each labelled
    by its least cell (:func:`orbit_minima`): each orbit cell contributes
    |G|/|orbit| times the orbit's S0-sum.
    """
    comp = intlinalg.kernel_saturated(np.ascontiguousarray(radical.T))
    s0 = (comp.T.astype(object)) @ (comp.astype(object))
    n = s0.shape[0]
    # cell a*n + b goes to g[a]*n + g[b]
    acts = [(p[:, None] * n + p[None, :]).ravel()
            for p in np.asarray(combined_perms(model))]
    _, orbit, size = np.unique(orbit_minima(acts, n * n),
                               return_inverse=True, return_counts=True)
    sums = np.zeros(len(size), dtype=object)
    np.add.at(sums, orbit, s0.ravel())
    pairing = (sums * (model.psp.order // size))[orbit].reshape(n, n)
    return intlinalg.as_int_array(pairing // math.gcd(*pairing.flat))


def check_pairing(module: GIntModule, pairing, radical):
    """Raise ValueError unless ``pairing`` is symmetric, invariant under
    every generator (M(g) P M(g)^T = P) and has the rows of ``radical``
    as the Hermite basis of its radical."""
    if not np.array_equal(pairing, pairing.T):
        raise ValueError("pairing is not symmetric")
    for i, g in enumerate(module.gens):
        moved = intlinalg.mat_mul(intlinalg.mat_mul(g, pairing),
                                  np.ascontiguousarray(g.T))
        if not np.array_equal(moved, pairing):
            raise ValueError(f"pairing is not invariant under generator {i}")
    if not np.array_equal(intlinalg.kernel_saturated(pairing), radical):
        raise ValueError("the radical of the pairing differs from K")


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
    failures = []
    for fixture_row in (10, 11, 14, 17, 18):
        cid = next(c for c, f in match.assignments.items()
                   if f == fixture_row)
        restricted = module.restrict(lattice.rep(cid))
        got = (cohomology.h1(restricted).torsion,
               cohomology.h1_dual(restricted).torsion)
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
    check_pairing(big, pairing, radical)
    log(f"invariant pairing assembled, radical verified "
        f"({time.time() - t0:.0f}s)")

    module = quotient_by_radical(big, radical).dual()
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
