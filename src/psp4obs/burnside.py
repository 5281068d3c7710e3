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
:meth:`psp4obs.permgroups.PermGroup.conjugacy_classes`.  Fixed-point counts
come from class fusion: the permutation character of H on H/K takes the
value |C_H(c)| |c^H n K| / |K| at c, and the counts |c^H n K| are read
off the class index of K's elements in H.
"""

from __future__ import annotations

import numpy as np

from . import intlinalg
from .permgroups import PermGroup


def perm_characters(group: PermGroup, class_rows) -> np.ndarray:
    """Matrix of permutation characters, one row per subgroup class.

    ``class_rows`` is a list of element-row arrays, one per conjugacy class
    of subgroups of ``group``; columns follow the conjugacy classes of
    ``group``.  The row for the trivial subgroup is the regular character,
    the row for the whole group is constantly one.  Row K holds
    |H| |c^H n K| / (|c^H| |K|) for each class c^H: the rows of every K
    are looked up in one call, and the counts |c^H n K| are one bincount
    keyed by (K, c^H).
    """
    classes = group.conjugacy_classes()
    sizes = np.array([size for _, size in classes], dtype=np.int64)
    rows = [np.asarray(r).reshape(-1, group.degree) for r in class_rows]
    orders = np.array([len(r) for r in rows], dtype=np.int64)
    # a key (K, c^H) is below len(rows) * len(classes), far inside int64
    keys = np.repeat(np.arange(len(rows)) * len(classes), orders)
    if rows:
        keys += group.class_indices(np.concatenate(rows))
    meets = np.bincount(keys, minlength=len(rows) * len(classes)).reshape(
        len(rows), len(classes))
    out, rest = np.divmod(group.order * meets, sizes * orders[:, None])
    if rest.any():
        raise RuntimeError("fixed-point count is not an integer")
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
