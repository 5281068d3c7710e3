"""Free Z-modules with a right action of a permutation group.

A module is given by one integer matrix per group generator, acting on row
vectors from the right, so the matrix of a product ``g h`` (first ``g``,
then ``h``) is ``M(g) M(h)``.  The module keeps one matrix per transversal
element of the group's stabiliser chain (66 for PSp4(3) on 40 points); an
element sifts into one transversal element per level, so its matrix is a
product of at most base-length of these.  Since the group is finite, all
such products land in a fixed finite set of matrices and never overflow.

The module file format is line-oriented plain text:

    gmodule rank=<n> gens=<k>
    matrix 1
    <n rows of n integers>
    ...
    matrix k
    <n rows of n integers>

with matrices aligned to the generator list of the group supplied at load
time; each header key appears once.  An invariant pairing uses the header
``pairing rank=<n>`` followed by one symmetric block.

This module validates and writes these files; :mod:`psp4obs.readers`
parses them.  The algebra that constructs the shipped rank-61 module M
(permutation modules, the invariant pairing and the quotient by its
radical) is in ``scripts/build_module.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import intlinalg
from .intlinalg import mat_mul, narrow
from .permgroups import PermGroup, pinv, porder
from .readers import InputFile, matrix_block


def _as_matrix(m, rank):
    a = np.asarray(m)
    if a.shape != (rank, rank):
        raise ValueError(f"expected a {rank} x {rank} matrix, got {a.shape}")
    return intlinalg.as_int_array(a)


def _product(mats, rank):
    """M_1 M_2 ... M_k as a new int64 (or object) matrix."""
    if not mats:
        return intlinalg.identity(rank)
    return reduce(mat_mul, mats[1:],
                  mats[0].astype(np.result_type(mats[0], np.int64)))


@dataclass
class GIntModule:
    """An integral representation of ``group`` on row vectors of Z^rank.

    ``_chain``, made on first use, holds the strong generators' matrices
    (from their words, M(g^-1) = M(g)^(k-1) for g of order k) and per
    level the transversal matrices by orbit point, each one product from
    its parent in the chain's orbit tree, in the narrowest integer dtype.
    """

    group: PermGroup
    gens: tuple
    rank: int
    _chain: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.gens) != len(self.group.generators):
            raise ValueError(
                f"{len(self.gens)} matrices for "
                f"{len(self.group.generators)} group generators")
        self.gens = tuple(_as_matrix(g, self.rank) for g in self.gens)

    def _matrices(self) -> tuple:
        """(strong generator matrices, transversal matrices per level)."""
        if self._chain is not None:
            return self._chain
        group, rank = self.group, self.rank
        inverses = [_product([m] * (porder(g) - 1), rank)
                    for g, m in zip(group.generators, self.gens)]
        sgens = [narrow(_product([self.gens[i] if e == 1 else inverses[i]
                                  for i, e in word], rank))
                 for word in group.sgen_words]
        levels = []
        for level in group.levels:
            mats = {level.point: narrow(intlinalg.identity(rank))}
            for pt in level.orbit:  # in the order the chain found them
                for j in level.gen_indices:
                    img = group.sgens[j][pt]
                    if img not in mats:
                        mats[img] = narrow(mat_mul(mats[pt], sgens[j]))
            levels.append(mats)
        self._chain = (sgens, levels)
        return self._chain

    def matrix_of(self, p):
        """Matrix of a group element, the product of its transversal
        factors; ValueError for a non-member."""
        p = tuple(p)
        points = self.group.sift(p)
        if points is None:
            raise ValueError(f"{p} is not an element of the group")
        levels = self._matrices()[1]
        return _product([levels[i][pt] for i, pt in reversed(points)],
                        self.rank)

    # -- derived modules ---------------------------------------------------

    def character(self) -> tuple:
        """Trace of the action on each conjugacy class, canonical order."""
        return tuple(int(np.trace(self.matrix_of(rep)))
                     for rep, _ in self.group.conjugacy_classes())

    def dual(self) -> "GIntModule":
        """The contragredient module M~(g) = M(g^-1)^T, with its own chain."""
        mats = tuple(np.ascontiguousarray(self.matrix_of(pinv(g)).T)
                     for g in self.group.generators)
        return GIntModule(self.group, mats, self.rank)

    def restrict(self, subgroup: PermGroup) -> "GIntModule":
        """The same space as a module over a subgroup."""
        mats = tuple(self.matrix_of(g) for g in subgroup.generators)
        return GIntModule(subgroup, mats, self.rank)

    # -- validation --------------------------------------------------------

    def validate(self):
        """Raise ValueError unless the matrices define a homomorphism.

        Each generator g of order k needs M(g)^k = 1, so the matrices are
        unimodular.  Then, level by level, each Schreier relation t_pt s =
        h t_img of the chain (:meth:`PermGroup.schreier_relations`) must
        hold for the matrices.  These relators present the group on its
        strong generators (Holt, Eick and O'Brien, *Handbook of
        Computational Group Theory*, 2005), so they certify that the
        assignment extends to the whole group.
        """
        sgens, levels = self._matrices()
        for i, (g, m) in enumerate(zip(self.group.generators, self.gens)):
            if not np.array_equal(_product([m] * porder(g), self.rank),
                                  intlinalg.identity(self.rank)):
                raise ValueError(f"generator {i} has order {porder(g)}, "
                                 f"but its matrix to that power is not 1")
        for i, pt, j, rest in self.group.schreier_relations():
            img = self.group.sgens[j][pt]
            if not np.array_equal(
                    mat_mul(levels[i][pt], sgens[j]),
                    _product([levels[k][q] for k, q in reversed(rest)]
                             + [levels[i][img]], self.rank)):
                raise ValueError(
                    f"Schreier relation at level {i} (base point "
                    f"{self.group.base[i]}) fails for orbit point {pt} "
                    f"and strong generator {j}")


# ---------------------------------------------------------------------------
# text formats


def _write_matrix(fh, mat):
    for row in np.asarray(mat):
        fh.write(" ".join(str(int(x)) for x in row))
        fh.write("\n")


def save_module(module: GIntModule, path):
    with open(path, "w") as fh:
        fh.write(f"gmodule rank={module.rank} gens={len(module.gens)}\n")
        for i, g in enumerate(module.gens):
            fh.write(f"matrix {i + 1}\n")
            _write_matrix(fh, g)


def check_character(module: GIntModule):
    """Reject a rank-61 module over PSp4(3) whose character is wrong.

    The target is pi_40 + pi_45 - chi_24; a mismatch is reported with the
    offending conjugacy class.  Modules of other ranks, or over other
    groups, are left alone.
    """
    from . import sp4f3
    if (module.rank != 61 or module.group.degree != 40
            or module.group.order != sp4f3.PSP4_ORDER):
        return
    for j, ((rep, size), got) in enumerate(zip(
            module.group.conjugacy_classes(), module.character())):
        want = sp4f3.picard_character_at(rep)
        if got != want:
            raise ValueError(
                f"character mismatch at class {j} (element order "
                f"{porder(rep)}, size {size}): trace {got}, expected {want}")


def load_module(path, group: PermGroup) -> GIntModule:
    """Load and fully validate a module file.

    Validation covers unimodularity and the Schreier relations of the
    group's chain; rank-61 modules over the canonical degree-40 copy of
    PSp4(3) must additionally have character pi_40 + pi_45 - chi_24.
    """
    with InputFile(path) as f:
        lines, (rank, ngens) = f.lines("gmodule", ("rank", "gens"))
        if rank < 1:
            raise ValueError(f"line 1: rank {rank} is not positive")
        if ngens != len(group.generators):
            raise ValueError(f"line 1: file has {ngens} matrices but the "
                             f"group has {len(group.generators)} generators")
        mats, pos = [], 1
        for i in range(ngens):
            if pos >= len(lines) or lines[pos] != f"matrix {i + 1}":
                raise ValueError(f"line {pos + 1}: expected 'matrix {i + 1}'")
            m, pos = matrix_block(lines, pos + 1, rank)
            mats.append(m)
        extra = [i for i in range(pos, len(lines)) if lines[i].strip()]
        if extra:
            raise ValueError(f"line {extra[0] + 1}: text after the last "
                             f"matrix")
        module = GIntModule(group, tuple(mats), rank)
        module.validate()
        check_character(module)
    return module


def save_pairing(pairing, path):
    pairing = np.asarray(pairing)
    with open(path, "w") as fh:
        fh.write(f"pairing rank={pairing.shape[0]}\n")
        _write_matrix(fh, pairing)
