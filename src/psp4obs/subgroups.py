"""Conjugacy classes of subgroups via layered cyclic extensions.

Every subgroup H of a finite ambient group G sits in a chain

    H^infty = L_0  <|  L_1  <|  ...  <|  L_r = H

in which L_0 is the solvable residual (the limit of the derived series) of
H and each step has prime index: refining the subnormal series coming from
a chief series of the solvable quotient H / H^infty only ever inserts
subgroups that are again normal in the next one, because the sections are
elementary abelian.  Consequently the class list of G is generated by

1. seeding with the classes of perfect subgroups (groups equal to their
   own derived subgroup), found from pairs of an element of prime order
   p >= 5 and an involution, and
2. repeatedly extending a known class H by elements z of prime order p in
   N_G(H)/H, giving K = H u Hz u ... u Hz^{p-1} of order p |H|.

Step 2 is exhaustive given the seeds: every K with H normal of prime index
arises from every element of K \\ H.  It raises the least element z of
every coset of H in N_G(H) to its powers all at once, one gather and one
table lookup per power, and reads the order of zH where the powers first
reach H, and the cosets of z, ..., z^{p-1}, off the same lookups.

Step 1 adds the solvable residual of the group each pair generates
(:func:`perfect_subgroup_classes`), plus a safety net: whenever a
normaliser N_G(H) is computed, its solvable residual is added if its
class is missing.  A pair's chain is built with the ambient order as a
bound (:meth:`PermGroup.subgroup`), so a pair that generates the whole
group stops as soon as the chain has its order.  A solvable group (its
solvable residual is 1) has no perfect subgroup but 1, so it gets neither
the search nor the net.  The expected class count for a given ambient
group is checked by callers, not here.

Classes are deduplicated by exact element-set, then by an invariant
prescreen (order and fusion of element classes into the ambient group's),
and finally by a vectorised subgroup-conjugacy test, all on the
candidate's element table: only a new class gets a Schreier-Sims chain.
The same lookup maps the subgroup classes of each representative to
ambient class ids.  The final ordering is by (order, fingerprint, fusion)
with construction order as the last tie-break; no step draws a random
element, so the output is the same on every run.

For every class the module also computes its own subgroup-class lattice
by the same search, with the representative as ambient.  That yields in
one sweep the maximal subgroup classes and the permutation character
matrix needed for Burnside-cokernel computations.  Walking the own
classes by descending order, a class is maximal unless a maximal class
found before it contains a conjugate of it; that scan runs only where the
larger class has at least as many elements in every ambient class as the
smaller one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import prod

import numpy as np

from . import burnside
from .intlinalg import prime_powers
from .permgroups import (ElementTable, PermGroup, abelian_invariants,
                         closed_set, group_from_elements, is_identity,
                         orbit_minima, pident, porder)


# ---------------------------------------------------------------------------
# fingerprints


@dataclass(frozen=True, order=True)
class Fingerprint:
    """Cheap conjugacy-invariant data of a subgroup class.

    ``derived_length`` is -1 for non-solvable groups; ``abelianization``
    lists the invariant factors of H/[H,H].  All of it is read off the
    element table, the conjugacy classes and the derived series.  The
    field order is the canonical sort order of the classes.
    """

    order: int
    abelianization: tuple
    exponent: int
    class_count: int
    derived_length: int
    nilpotent: bool

    def to_json(self):
        return {"order": self.order,
                "abelianization": list(self.abelianization),
                "exponent": self.exponent,
                "class_count": self.class_count,
                "derived_length": self.derived_length,
                "nilpotent": self.nilpotent}

    @classmethod
    def from_json(cls, d):
        d = checked(d, dict, "fingerprint")
        return cls(checked(d["order"], int, "fingerprint order"),
                   int_list(d["abelianization"], "abelianization"),
                   *(checked(d[k], int, k) for k in ("exponent", "class_count",
                                                     "derived_length")),
                   checked(d["nilpotent"], bool, "nilpotent"))


_JSON_KINDS = {int: "an integer", bool: "true or false", list: "a list",
               dict: "an object"}


def checked(value, kind, what):
    """``value`` if its type is exactly ``kind`` (so a bool is no int, nor
    a float), else a ValueError naming ``what``."""
    if type(value) is not kind:
        got = (_JSON_KINDS[type(value)] if isinstance(value, (list, dict))
               else json.dumps(value))
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, not {got}")
    return value


def int_list(value, what) -> tuple:
    """A JSON list of integers as a tuple."""
    for x in checked(value, list, what):
        if type(x) is not int:
            checked(x, int, f"{what} entry")
    return tuple(value)


def fingerprint_of(group: PermGroup) -> Fingerprint:
    derived = group.derived_subgroup()  # one G' for both of its uses
    dl = group.derived_length(derived)
    return Fingerprint(
        order=group.order,
        abelianization=abelian_invariants(group, derived).torsion,
        exponent=group.exponent(),
        class_count=len(group.conjugacy_classes()),
        derived_length=-1 if dl is None else dl,
        nilpotent=group.is_nilpotent(),
    )


# ---------------------------------------------------------------------------
# layering engine


@dataclass
class _Raw:
    group: PermGroup
    rows: np.ndarray
    order: int
    fusion: tuple
    normalizer_order: int = 0  # set by _layer_closure


class _ClassCollector:
    """Deduplicated list of subgroup classes of one ambient group, and the
    vectorised subgroup operations against that group."""

    def __init__(self, ambient: PermGroup):
        self.ambient = ambient
        self.base = ambient.element_table().base  # keys every table here
        self.raws: list[_Raw] = []
        self.by_bytes: dict = {}
        self.by_key: dict = {}

    def add(self, table: ElementTable, build) -> int:
        """Register the class of the subgroup with this element table and
        return its raw index; ``build()`` makes the group of a new class,
        so a duplicate costs no Schreier-Sims chain, or raises where the
        class must be known.  The lookup tries the exact element set, then
        order and fusion, then a conjugacy scan."""
        rows = table.table
        key_bytes = rows.tobytes()
        if key_bytes in self.by_bytes:
            return self.by_bytes[key_bytes]
        fusion = self.fusion_key(rows)
        key = (len(table), fusion)
        for idx in self.by_key.get(key, []):
            if self.ambient.is_conjugate_subgroup(self.raws[idx].group,
                                                  table):
                self.by_bytes[key_bytes] = idx
                return idx
        group = build()
        if group.order != len(table):
            raise RuntimeError("built group and element table differ")
        group._cache['table'] = table
        idx = len(self.raws)
        self.raws.append(_Raw(group, rows, group.order, fusion))
        self.by_bytes[key_bytes] = idx
        self.by_key.setdefault(key, []).append(idx)
        return idx

    def add_group(self, group: PermGroup) -> int:
        return self.add(group.element_table(), lambda: group)

    def add_closure(self, elements) -> int:
        """Register the class of an :class:`ElementSet`."""
        return self.add(ElementTable(elements.rows(), elements.degree,
                                     self.base),
                        elements.group)

    def fusion_key(self, rows) -> tuple:
        vals, counts = np.unique(self.ambient.class_indices(rows),
                                 return_counts=True)
        return tuple(zip(vals.tolist(), counts.tolist()))


def _coset_powers(sub: PermGroup, n_et: ElementTable):
    """The right cosets of ``sub`` (H) in N, which normalises it, and the
    powers of their representatives.

    Returns ``(coset_of, order, powers)``: the coset id of each row of
    ``n_et``, the cosets numbered by their least rows, so that coset 0 is
    H; and for each other coset c, with z its least row, the order of zH
    in N/H at ``order[c - 1]`` and the row of z^k at ``powers[k - 1, c -
    1]``.  All representatives are raised a power at a time, one gather
    and one lookup per power, until each has reached coset 0.
    """
    # the cosets xH are the orbits of right multiplication by H's
    # generators, numbered by their least rows
    acts = [n_et.index_of(np.asarray(h, n_et.table.dtype)[n_et.table])
            for h in sub.generators if not is_identity(h)]
    firsts, coset_of = np.unique(orbit_minima(acts, len(n_et)),
                                 return_inverse=True)
    z = cur = n_et.table[firsts[1:]]
    order = np.zeros(len(z), dtype=np.intp)
    powers = []
    while True:
        powers.append(n_et.index_of(cur))
        order[(order == 0) & (coset_of[powers[-1]] == 0)] = len(powers)
        if order.all():
            return coset_of, order, np.array(powers)
        cur = np.take_along_axis(z, cur, axis=1)  # z^(k+1): z^k, then z


def _prime_extensions(raw: _Raw, nrows: np.ndarray, degree,
                      collector: _ClassCollector):
    """All K with raw.group normal of prime index, up to local dedupe."""
    if len(nrows) == raw.order:
        return
    n_et = ElementTable(nrows, degree, collector.base)
    h_rows = raw.group.element_table().table
    coset_of, order, powers = _coset_powers(raw.group, n_et)
    seen_subquot = set()
    for c, p in enumerate(order.tolist()):
        if prime_powers(p) != [(p, 1)]:
            continue
        # one K = H u Hz u ... u Hz^(p-1) per subgroup <zH> of N/H
        index = powers[:p - 1, c]
        ids = frozenset(coset_of[index].tolist())
        if ids in seen_subquot:
            continue
        seen_subquot.add(ids)
        k_rows = np.concatenate(
            [h_rows, n_et.table[index][:, h_rows].reshape(-1, degree)])
        collector.add(ElementTable(k_rows, degree, collector.base),
                      lambda: group_from_elements(k_rows, degree))


def _layer_closure(ambient: PermGroup) -> _ClassCollector:
    """All subgroup classes of ``ambient``: the trivial class and the
    perfect classes of :func:`perfect_subgroup_classes`, closed under
    prime extensions.

    Where there are perfect classes, it also adds the solvable residual of
    every normaliser encountered, which recovers perfect classes reachable
    from solvable ones.  A solvable group has no perfect subgroup but 1, so
    it gets neither the perfect search nor this net.
    """
    collector = _ClassCollector(ambient)
    perfect = perfect_subgroup_classes(ambient)
    for s in [PermGroup([], ambient.degree)] + perfect:
        collector.add_group(s)
    for raw in collector.raws:  # visits the classes added on the way
        if raw.order == 1:
            for rep, _ in ambient.conjugacy_classes():
                p = porder(rep)
                if prime_powers(p) == [(p, 1)]:
                    collector.add_group(PermGroup([rep], ambient.degree))
        if raw.order in (1, ambient.order):
            raw.normalizer_order = ambient.order
            continue
        nrows = ambient.normalizer_rows(raw.group)
        raw.normalizer_order = len(nrows)
        if perfect and len(nrows) < ambient.order:
            res = closed_set(nrows, ambient.degree).solvable_residual()
            if res.order > 1:
                collector.add_closure(res)
        _prime_extensions(raw, nrows, ambient.degree, collector)
    return collector


# ---------------------------------------------------------------------------
# perfect classes


def perfect_subgroup_classes(ambient: PermGroup) -> list:
    """Classes of nontrivial perfect subgroups: the solvable residuals of
    the whole group and of each <x, t>, x of prime order p >= 5 and t an
    involution.  A solvable group gets ``[]`` and builds no pairs.

    A nontrivial perfect group holds such x and t: its nonabelian simple
    factor has order divisible by a prime p >= 5 (Burnside's p^a q^b
    theorem) and by 2 (Feit-Thompson).  x runs over the class
    representatives, t over the involutions up to conjugation by
    N_G(<x>), as <x, t>^n = <x, t^n>.  That a pair generates each perfect
    group is not proved, so completeness is certified downstream
    (expected class counts and the normaliser-residual net).
    """
    whole = ambient.solvable_residual()
    if whole.order == 1:
        return []
    collector = _ClassCollector(ambient)
    collector.add_closure(whole)
    et = ambient.element_table()
    classes = ambient.conjugacy_classes()
    involution = np.array([porder(rep) == 2 for rep, _ in classes])[
        ambient.class_indices(et.table)]
    for x, _ in classes:
        p = porder(x)
        if p < 5 or prime_powers(p) != [(p, 1)]:
            continue
        nrows = ambient.normalizer_rows(PermGroup([x], ambient.degree))
        least = orbit_minima(ambient._conjugation_maps(
            closed_set(nrows, ambient.degree).generators), len(et))
        first = involution & (least == np.arange(len(et)))  # orbit minima
        for t in np.flatnonzero(first).tolist():
            k = ambient.subgroup([x, et.perm(t)])
            if k.order < ambient.order:
                res = k.solvable_residual()
                if res.order > 1:
                    collector.add_closure(res)
    return sorted((r.group for r in collector.raws), key=lambda g: (
        g.order, g.element_table().table.tobytes()))


# ---------------------------------------------------------------------------
# per-class data and the lattice


@dataclass
class SubgroupClassInfo:
    """One conjugacy class of subgroups, with everything the table needs.

    ``elem_fusion`` sends each conjugacy class of the representative to the
    index of the ambient class it fuses into.  ``perm_chars`` has one row
    per subgroup class of the representative (aligned with ``own_orders``
    and ``own_gclass``), listing fixed-point counts of the representative's
    element classes on the corresponding coset space.  ``own_gclass`` maps
    those subgroup classes to ambient class ids, so it enumerates exactly
    the class ids contained in this one.
    """

    class_id: int
    order: int
    generators: list
    fingerprint: Fingerprint
    normalizer_order: int
    maximal: tuple
    elem_fusion: tuple
    own_orders: tuple
    own_gclass: tuple
    perm_chars: np.ndarray

    _rep_cache: PermGroup = None

    def rep(self, degree) -> PermGroup:
        if self._rep_cache is None:
            self._rep_cache = PermGroup(
                [tuple(g) for g in self.generators], degree)
        return self._rep_cache

    def to_json(self):
        return {
            "class_id": self.class_id,
            "order": self.order,
            "generators": [list(g) for g in self.generators],
            "fingerprint": self.fingerprint.to_json(),
            "normalizer_order": self.normalizer_order,
            "maximal": list(self.maximal),
            "elem_fusion": list(self.elem_fusion),
            "own_orders": list(self.own_orders),
            "own_gclass": list(self.own_gclass),
            "perm_chars": [list(map(int, row)) for row in self.perm_chars],
        }

    @classmethod
    def from_json(cls, d):
        lists = {k: int_list(d[k], k) for k in ("maximal", "elem_fusion",
                                                "own_orders", "own_gclass")}
        chars = [int_list(r, "perm_chars row")
                 for r in checked(d["perm_chars"], list, "perm_chars")]
        shape = (len(lists["own_orders"]), len(lists["elem_fusion"]))
        if 0 in shape:
            raise ValueError("own_orders and elem_fusion must not be empty")
        if len(chars) != shape[0] or any(len(r) != shape[1] for r in chars):
            raise ValueError(f"perm_chars must be {shape[0]} rows (one per "
                             f"own_orders entry) of {shape[1]} values")
        return cls(checked(d["class_id"], int, "class_id"),
                   checked(d["order"], int, "order"),
                   [int_list(g, "generator")
                    for g in checked(d["generators"], list, "generators")],
                   Fingerprint.from_json(d["fingerprint"]),
                   checked(d["normalizer_order"], int, "normalizer_order"),
                   lists["maximal"], lists["elem_fusion"],
                   lists["own_orders"], lists["own_gclass"],
                   np.array(chars, dtype=np.int64).reshape(shape))


FORMAT_TAG = "psp4obs-lattice/1"


@dataclass
class SubgroupLattice:
    """All subgroup classes of the ambient group, ids 1..n by canonical order."""

    ambient: PermGroup
    classes: list

    def __post_init__(self):
        self._by_id = {c.class_id: c for c in self.classes}

    def __len__(self):
        return len(self.classes)

    def by_id(self, class_id: int) -> SubgroupClassInfo:
        return self._by_id[class_id]

    def rep(self, class_id: int) -> PermGroup:
        return self.by_id(class_id).rep(self.ambient.degree)

    def to_json(self):
        return {
            "format": FORMAT_TAG,
            "degree": self.ambient.degree,
            "ambient_generators": [list(g) for g in self.ambient.generators],
            "classes": [c.to_json() for c in self.classes],
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, separators=(",", ":"),
                      sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SubgroupLattice":
        where = "top level"
        try:
            with open(path) as fh:
                d = json.load(fh)
            if checked(d, dict, "the file").get("format") != FORMAT_TAG:
                raise ValueError(f"unrecognised lattice cache format: "
                                 f"{d.get('format')!r}")
            ambient = PermGroup(
                [int_list(g, "ambient generator")
                 for g in checked(d["ambient_generators"], list,
                                  "ambient_generators")],
                checked(d["degree"], int, "degree"))
            classes = []
            for c in checked(d["classes"], list, "classes"):
                where = f"class {len(classes) + 1}"
                classes.append(SubgroupClassInfo.from_json(
                    checked(c, dict, "class")))
        except KeyError as exc:
            raise ValueError(f"{path}: {where}: missing key "
                             f"{exc.args[0]!r}") from None
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: {where}: {exc}") from None
        n = len(classes)
        if not classes or classes[-1].order != ambient.order:
            raise ValueError(f"{path}: the last class must be the whole "
                             f"group, of order {ambient.order}")
        # the whole group's element classes are the ambient classes
        k = len(classes[-1].elem_fusion)
        if classes[-1].elem_fusion != tuple(range(k)):
            raise ValueError(f"{path}: class {n}: elem_fusion must be "
                             f"0..{k - 1}, the ambient classes in order")
        for pos, c in enumerate(classes, 1):
            if c.class_id != pos:
                raise ValueError(f"{path}: class ids must run 1..{n} in "
                                 f"order, but position {pos} holds id "
                                 f"{c.class_id!r}")
            for name, lo, hi in (("own_gclass", 1, n), ("maximal", 1, n),
                                 ("elem_fusion", 0, k - 1)):
                bad = [i for i in getattr(c, name) if not lo <= i <= hi]
                if bad:
                    raise ValueError(f"{path}: class {pos}: {name} id "
                                     f"{bad[0]!r} is not in {lo}..{hi}")
            if not c.order == c.fingerprint.order == c.own_orders[-1]:
                raise ValueError(f"{path}: class {pos}: order {c.order!r}, "
                                 f"fingerprint order {c.fingerprint.order!r} "
                                 f"and the last own_orders entry "
                                 f"{c.own_orders[-1]!r} must be equal")
            if not (0 < c.order and 0 < c.normalizer_order
                    and c.normalizer_order % c.order == 0
                    and ambient.order % c.normalizer_order == 0):
                raise ValueError(f"{path}: class {pos}: normalizer order "
                                 f"{c.normalizer_order} must be a multiple "
                                 f"of the order {c.order} and divide "
                                 f"{ambient.order}")
            # column 0 is the identity's class: the number of cosets
            for r, (cosets, own) in enumerate(zip(c.perm_chars[:, 0].tolist(),
                                                  c.own_orders), 1):
                if cosets * own != c.order:
                    raise ValueError(f"{path}: class {pos}: perm_chars row "
                                     f"{r}: {cosets} cosets of a subgroup of "
                                     f"order {own} do not make the order "
                                     f"{c.order}")
            for i, g in enumerate(c.generators, 1):
                if len(g) != ambient.degree or g not in ambient:
                    raise ValueError(f"{path}: class {pos}: generator {i} "
                                     f"is not in the ambient group")
        # each element generates exactly one cyclic subgroup
        cyclic = sum(ambient.order // c.normalizer_order
                     * prod(p ** (a - 1) * (p - 1)
                            for p, a in prime_powers(c.order))
                     for c in classes if c.order == 1
                     or c.fingerprint.abelianization == (c.order,))
        if cyclic != ambient.order:
            raise ValueError(f"{path}: the cyclic classes count {cyclic} "
                             f"elements, not {ambient.order}")
        return cls(ambient, classes)


def _maximal(raws, ambient: PermGroup) -> list:
    """Raw indices of the maximal proper classes among ``raws``, the
    subgroup classes of ``ambient``.

    Every proper subgroup lies in a maximal one, which is larger.  So,
    walking the classes by descending order, a proper class is maximal
    unless a maximal class found before it contains a conjugate of it.
    A conjugate of A inside B has as many elements in each ambient class
    as A, so the scan runs only where B's class counts dominate A's.
    """
    def inside(a, b):
        counts = dict(b.fusion)
        return (b.order > a.order and b.order % a.order == 0
                and all(n <= counts.get(c, 0) for c, n in a.fusion)
                and ambient.conjugate_into(a.group, b.group) is not None)

    maximal = []
    for i in sorted(range(len(raws)), key=lambda i: -raws[i].order):
        if raws[i].order < ambient.order and not any(
                inside(raws[i], raws[j]) for j in maximal):
            maximal.append(i)
    return maximal


# ``seed`` is ignored: perfbench/workloads.py still passes one (ROADMAP item 6)
def subgroup_classes(ambient: PermGroup, seed=None,
                     progress=None) -> SubgroupLattice:
    """The full lattice of subgroup conjugacy classes of ``ambient``.

    ``progress`` may be a callable taking a message string.
    """
    def log(msg):
        if progress:
            progress(msg)

    log("searching for subgroup classes")
    collector = _layer_closure(ambient)
    raws = collector.raws
    log(f"found {len(raws)} classes; fingerprinting")

    fps = [fingerprint_of(r.group) for r in raws]
    sorted_idx = sorted(range(len(raws)),
                        key=lambda i: (raws[i].order, fps[i], raws[i].fusion,
                                       i))
    id_of_raw = {old: new + 1 for new, old in enumerate(sorted_idx)}

    def gclass_of(group: PermGroup) -> int:
        def unknown():
            raise LookupError(f"subgroup of order {group.order} matches no "
                              f"class; the lattice is incomplete")
        return id_of_raw[collector.add(group.element_table(), unknown)]

    infos = []
    for pos, i in enumerate(sorted_idx):
        raw = raws[i]
        rep = raw.group
        cid = pos + 1
        log(f"class {cid}/{len(raws)}: order {raw.order}")
        whole = raw.order == ambient.order
        own_raws = raws if whole else _layer_closure(rep).raws
        own_ids = [gclass_of(r.group) for r in own_raws]
        if whole:
            # always last in the canonical order, so the proper classes'
            # own lattices give its maximal classes without a scan
            nonmax = {k for d in infos for k in d.own_gclass
                      if k != d.class_id}
            maximal = tuple(sorted(set(own_ids) - nonmax - {cid}))
        else:
            maximal = tuple(sorted({own_ids[k]
                                    for k in _maximal(own_raws, rep)}))
        ksort = sorted(range(len(own_raws)),
                       key=lambda k: (own_raws[k].order, own_ids[k]))
        own_pairs = [(own_raws[k].order, own_ids[k]) for k in ksort]
        pc = burnside.perm_characters(rep, [own_raws[k].rows for k in ksort])
        elem_fusion = tuple(ambient.class_indices(np.asarray(
            [crep for crep, _ in rep.conjugacy_classes()])).tolist())
        infos.append(SubgroupClassInfo(
            class_id=cid,
            order=raw.order,
            generators=[tuple(g) for g in rep.generators
                        if not is_identity(g)] or [pident(ambient.degree)],
            fingerprint=fps[i],
            normalizer_order=raw.normalizer_order,
            maximal=maximal,
            elem_fusion=elem_fusion,
            own_orders=tuple(p[0] for p in own_pairs),
            own_gclass=tuple(p[1] for p in own_pairs),
            perm_chars=pc,
        ))
    return SubgroupLattice(ambient, infos)
