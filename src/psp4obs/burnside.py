"""Permutation characters and orders in the Burnside cokernel.

For a finite group H, mapping a transitive H-set H/K to its permutation
character embeds the Burnside ring B(H) into the rational representation
ring; the cokernel of this map at the level of characters measures how far
a rational character is from being a virtual permutation character.  The
order of a character chi in the cokernel is the least n >= 1 with n * chi
an integer combination of the permutation characters pi_{H/K}; by Artin
induction some multiple always works and the order divides |H|.

All character values here are exact integers, functions on the conjugacy
classes of H in the canonical order of
:meth:`psp4obs.permgroups.PermGroup.conjugacy_classes`; fixed-point counts
are obtained by vectorised membership scans over element tables.
"""

from __future__ import annotations

import numpy as np

from . import intlinalg
from .permgroups import PermGroup


def fixed_coset_counts(group: PermGroup, subgroup_rows) -> tuple:
    """Fixed points of each conjugacy class of ``group`` on H/K.

    ``subgroup_rows`` are the element rows of ``K``.  The count for a class
    representative ``c`` is ``|{g in H : g c g^-1 in K}| / |K|``, the
    number of cosets gK with c gK = gK.
    """
    return tuple(perm_characters(group, [subgroup_rows])[0].tolist())


def perm_characters(group: PermGroup, class_rows) -> np.ndarray:
    """Matrix of permutation characters, one row per subgroup class.

    ``class_rows`` is a list of element-row arrays, one per conjugacy class
    of subgroups of ``group``; columns follow the conjugacy classes of
    ``group``.  The row for the trivial subgroup is the regular character,
    the row for the whole group is constantly one.  The conjugate table of
    each class representative is built once and scanned against every
    subgroup.
    """
    from .permgroups import ElementTable
    et = group.element_table()
    tables = [ElementTable(np.asarray(rows), group.degree)
              for rows in class_rows]
    out = np.zeros((len(tables), len(group.conjugacy_classes())),
                   dtype=np.int64)
    for j, (rep, _size) in enumerate(group.conjugacy_classes()):
        conj = et.conjugates(rep)
        for i, kt in enumerate(tables):
            hits = int(kt.contains_rows(conj).sum())
            if hits % len(kt):
                raise RuntimeError("fixed-point count is not a multiple "
                                   "of the subgroup order")
            out[i, j] = hits // len(kt)
    return out


def restrict_classfn(values, fusion) -> tuple:
    """Restrict a class function along a class fusion map.

    ``values`` are indexed by ambient classes; ``fusion[j]`` is the ambient
    class index of the j-th subgroup class.
    """
    return tuple(values[j] for j in fusion)


def burnside_order(perm_char_matrix, chi_values, bound=None) -> int:
    """Order of the character in the cokernel of B(H) -> characters.

    Least ``n >= 1`` with ``n * chi`` an integer combination of the rows of
    ``perm_char_matrix``; raises if no multiple works (the character is not
    rational-valued consistent) or the bound is exceeded.
    """
    return intlinalg.minimal_multiplier(perm_char_matrix, chi_values,
                                        bound=bound)
