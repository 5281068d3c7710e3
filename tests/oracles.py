"""Reference implementations that only the tests use.

``coset_action`` serves the tests that need it; the rest are the former
production paths, kept as oracles for the faster ones:

* ``scan_perm_characters`` counts fixed cosets by conjugating each class
  representative over the whole element table, where
  :func:`psp4obs.burnside.perm_characters` reads them off class fusion;
* ``chain_*`` run the derived and lower central series with a
  Schreier-Sims chain rebuilt for every accepted generator of every
  term, where :class:`psp4obs.permgroups.PermGroup` compares the sizes of
  element sets;
* ``scan_containers`` runs every conjugacy scan that
  ``subgroups._containers`` skips by its class-count prescreen.
"""

from collections import deque

import numpy as np

from psp4obs import permgroups as pg
from psp4obs.permgroups import ElementTable, PermGroup


def coset_action(group: PermGroup, sub: PermGroup):
    """Action on right cosets of ``sub``; returns (PermGroup, labels, reps).

    ``labels`` maps each element-table index of G to a coset number;
    coset 0 is the subgroup itself, numbering follows a breadth-first
    sweep by the generators in order.
    """
    et = group.element_table()
    index = group.order // sub.order
    labels = np.full(len(et), -1, dtype=np.int64)
    start = et.index_of(sub.element_table().table)
    labels[start] = 0
    reps = [group.identity]
    frontier = [0]
    coset_rows = {0: start}
    ncoset = 1
    gen_list = [g for g in group.generators if not pg.is_identity(g)]
    while frontier:
        new = []
        for c in frontier:
            rows = et.table[coset_rows[c]]
            for g in gen_list:
                shifted = np.asarray(g, dtype=et.table.dtype)[rows]
                idx = et.index_of(shifted)
                if labels[idx[0]] < 0:
                    labels[idx] = ncoset
                    coset_rows[ncoset] = idx
                    reps.append(pg.pmul(reps[c], g))
                    new.append(ncoset)
                    ncoset += 1
        frontier = new
    if ncoset != index:
        raise RuntimeError("coset sweep did not reach every coset")
    action_gens = []
    for g in gen_list:
        images = []
        for c in range(ncoset):
            i = coset_rows[c][0]
            shifted = np.asarray(g, dtype=et.table.dtype)[
                et.table[i]][None, :]
            images.append(int(labels[et.index_of(shifted)[0]]))
        action_gens.append(tuple(images))
    return PermGroup(action_gens, index), labels, reps


def scan_perm_characters(group: PermGroup, class_rows) -> np.ndarray:
    """Fixed cosets |{g : g^-1 c g in K}| / |K| by full-table scans."""
    et = group.element_table()
    tables = [ElementTable(np.asarray(rows), group.degree)
              for rows in class_rows]
    out = np.zeros((len(tables), len(group.conjugacy_classes())),
                   dtype=np.int64)
    for j, (rep, _size) in enumerate(group.conjugacy_classes()):
        conj = et.conjugates(rep)
        for i, kt in enumerate(tables):
            hits = int(kt.contains_rows(conj).sum())
            assert hits % len(kt) == 0
            out[i, j] = hits // len(kt)
    return out


def _nontrivial(gens):
    return [g for g in gens if not pg.is_identity(g)]


def chain_normal_closure(ambient, seeds) -> PermGroup:
    """Normal closure with a chain rebuilt for every accepted generator."""
    gens = []
    cur = PermGroup([], ambient.degree)
    queue = deque(tuple(s) for s in seeds if not pg.is_identity(s))
    conjugators = _nontrivial(ambient.generators)
    while queue:
        x = queue.popleft()
        if x in cur:
            continue
        gens.append(x)
        cur = PermGroup(gens, ambient.degree)
        for g in conjugators:
            queue.append(pg.pconj(x, g))
            queue.append(pg.pconj(x, pg.pinv(g)))
    return cur


def chain_derived_subgroup(group) -> PermGroup:
    gens = _nontrivial(group.generators)
    return chain_normal_closure(group, [pg.pcommutator(a, b)
                                        for a in gens for b in gens])


def chain_solvable_residual(group) -> PermGroup:
    cur = group
    while True:
        nxt = chain_derived_subgroup(cur)
        if nxt.order == cur.order:
            return nxt
        cur = nxt


def chain_derived_length(group):
    cur, length = group, 0
    while cur.order > 1:
        nxt = chain_derived_subgroup(cur)
        if nxt.order == cur.order:
            return None
        cur, length = nxt, length + 1
    return length


def chain_is_nilpotent(group) -> bool:
    gens = _nontrivial(group.generators)
    cur = group
    while cur.order > 1:
        nxt = chain_normal_closure(group, [
            pg.pcommutator(g, h) for g in gens
            for h in _nontrivial(cur.generators)])
        if nxt.order == cur.order:
            return False
        cur = nxt
    return True


def scan_containers(raws, ambient: PermGroup) -> dict:
    """``subgroups._containers`` with a conjugacy scan for every pair."""
    order_desc = sorted(range(len(raws)), key=lambda i: -raws[i].order)
    containers = {i: set() for i in range(len(raws))}
    for pos, i in enumerate(order_desc):
        bigger = [j for j in order_desc[:pos]
                  if raws[j].order > raws[i].order
                  and raws[j].order % raws[i].order == 0]
        bigger.sort(key=lambda j: raws[j].order)
        for j in bigger:
            if j in containers[i]:
                continue
            if ambient.conjugate_into(raws[i].group,
                                      raws[j].group) is not None:
                containers[i].add(j)
                containers[i] |= containers[j]
    return containers
