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
every coset of H in N_G(H) to its powers all at once, one table lookup
per power, and reads the order of zH where the powers first reach H, and
the cosets of z, ..., z^{p-1}, off the same lookups.

Step 1 adds the solvable residual of the group each pair generates
(:func:`perfect_subgroup_classes`).  The seeds (1, the perfect classes and
the cyclic classes of prime order) are registered once, before any
extension (the cyclic-extension method of Holt, Eick and O'Brien,
*Handbook of Computational Group Theory*, 2005).  Completeness is not
proved: it rests on the class counts callers check, the fixture match and
the tests of the perfect classes and of normalisers' solvable residuals.

Classes are deduplicated by exact element set, then by an invariant
prescreen (order and fusion of element classes into the ambient group's),
and finally by a vectorised subgroup-conjugacy test.  The search keeps one
element table, the ambient's: every candidate, class and normaliser is the
sorted indices of its rows there.  Only a new class gets a group, handed
those rows as its table, so it builds a Schreier-Sims chain only where one
is read.  The conjugacy and normaliser scans of the search start from
centralisers (:class:`~psp4obs.permgroups.ConjugacyAnchor`).  The final
ordering is by (order, fingerprint, fusion) with construction order as the
last tie-break; no step draws a random element, so the output is the same
on every run.

Every class H also gets its own subgroup-class lattice, read off the
ambient one with no second search (Pfeiffer, "The subgroups of M24",
1997).  The subgroups of H conjugate to an ambient class K are the K^g
with g in C = {g : K^g in H}, and two of them are conjugate in H exactly
when their g lie in one double coset N_G(K) g H.  C is a union of cosets
N_G(K) g, so every row is labelled by its coset, one least row per coset
is tested, and the double cosets are the orbits of H, by right
multiplication, on the cosets in C.  Each K is taken against every H at
once, in three table lookups: the conjugates of K's generators by every
least row, which sieve the cosets in C for all H; the products of every
H's cosets with its generators, over the disjoint union of those
cosets, whose orbits are the double cosets; and the products that the
maximality test below needs.  H is scanned only where |K| divides |H|
and H has as many elements as K in every ambient class, one comparison
of orders and of fusion counts for all H.  Each double coset gives one
own class, represented by K^g for its least row g, and the own classes
are sorted by (order, ambient id, least row), so their order does not
depend on the search.  That yields the permutation character matrix
needed for Burnside-cokernel computations, counted for all own classes
of H in one class lookup.  The maximal subgroup classes come from the
same cosets: walking the ambient classes by descending order, an own
class K^g is maximal unless an H-conjugate of it lies in a maximal own
class L^g' found before it, which holds exactly when some coset N_G(K) x
with K^x in L has x g' in N_G(K) g H.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, partial
from math import prod

import numpy as np

from . import burnside
from .intlinalg import prime_powers
from .permgroups import (ElementTable, PermGroup, _generating_rows,
                         abelian_invariants, derived_series,
                         group_from_elements, is_identity, orbit_minima,
                         pident, porder)
from .readers import InputFile, checked, int_list


# ---------------------------------------------------------------------------
# fingerprints


@dataclass(frozen=True, order=True)
class Fingerprint:
    """Cheap conjugacy-invariant data of a subgroup class.

    ``derived_length`` is -1 for non-solvable groups; ``abelianization``
    lists the invariant factors of H/[H,H].  All of it is read off H's own
    element table: its conjugacy classes and its derived series, as
    closures on the table.  The field order is the canonical sort order.
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


def fingerprint_of(group: PermGroup) -> Fingerprint:
    et = group.element_table()
    series = derived_series(et, et.index_of(_generating_rows(group)))
    return Fingerprint(
        order=group.order,
        abelianization=abelian_invariants(group, series[0]).torsion,
        exponent=group.exponent(),
        class_count=len(group.conjugacy_classes()),
        derived_length=len(series) - 1 if series[-1].order == 1 else -1,
        nilpotent=group.is_nilpotent(),
    )


# ---------------------------------------------------------------------------
# layering engine


@dataclass
class _Raw:
    group: PermGroup
    index: np.ndarray  # the sorted rows of the ambient's table that H holds
    fusion: tuple
    normalizer: np.ndarray = None  # row indices of N_G(H), by _layer_closure

    @property
    def order(self):
        return len(self.index)

    @property
    def gens(self):
        return _generating_rows(self.group)


class _ClassCollector:
    """Deduplicated list of the subgroup classes of one ambient group, each
    held as the sorted indices of its rows in the ambient's table."""

    def __init__(self, ambient: PermGroup):
        self.ambient = ambient
        self.anchor = ambient.conjugacy_anchor()
        self.raws: list[_Raw] = []
        self.by_bytes: dict = {}
        self.by_key: dict = {}

    def add(self, index: np.ndarray, build) -> int:
        """Register the class of the subgroup at the sorted row indices
        ``index`` and return its raw index; ``build()`` makes the group of
        a new class, which is handed its element table, the ambient's
        rows at ``index``, so it builds a Schreier-Sims chain only where
        one is read.  The lookup tries the exact element set, then order
        and fusion, then a conjugacy scan."""
        key_bytes = index.tobytes()
        if key_bytes in self.by_bytes:
            return self.by_bytes[key_bytes]
        vals, counts = np.unique(self.anchor.class_of[index],
                                 return_counts=True)
        fusion = tuple(zip(vals.tolist(), counts.tolist()))
        key = (len(index), fusion)
        for idx in self.by_key.get(key, []):
            if self.ambient.is_conjugate_subgroup(self.raws[idx].group,
                                                  index):
                self.by_bytes[key_bytes] = idx
                return idx
        et = self.anchor.table
        group = build()
        group._cache['table'] = ElementTable(et.table[index], et.degree,
                                             et.base)
        idx = len(self.raws)
        self.raws.append(_Raw(group, index, fusion))
        self.by_bytes[key_bytes] = idx
        self.by_key.setdefault(key, []).append(idx)
        return idx

    def add_rows(self, rows, build) -> int:
        """Register the class of the subgroup with these element rows."""
        return self.add(np.sort(self.anchor.table.index_of(rows)), build)


def _coset_powers(hgens, n: np.ndarray, et: ElementTable):
    """The right cosets of H in N, which normalises it, and the powers of
    their representatives; ``hgens`` holds the row indices of H's
    generators and ``n`` the sorted row indices of N, both in ``et``.

    Returns ``(coset_of, order, powers)``: the coset id of each row of
    ``n``, the cosets numbered by their least rows, so that coset 0 is H;
    and for each other coset c, with z its least row, the order of zH in
    N/H at ``order[c - 1]`` and the position in ``n`` of z^k at
    ``powers[k - 1, c - 1]``.  All representatives are raised a power at a
    time, one table lookup per power, until each has reached coset 0.
    """
    # the cosets xH are the orbits of right multiplication by H's
    # generators, numbered by their least rows
    acts = [np.searchsorted(n, et.times(n, h)) for h in hgens]
    firsts, coset_of = np.unique(orbit_minima(acts, len(n)),
                                 return_inverse=True)
    z = cur = n[firsts[1:]]
    order = np.zeros(len(z), dtype=np.intp)
    powers = []
    while True:
        powers.append(np.searchsorted(n, cur))
        order[(order == 0) & (coset_of[powers[-1]] == 0)] = len(powers)
        if order.all():
            return coset_of, order, np.array(powers)
        cur = et.times(cur, z)


def _prime_extensions(raw: _Raw, collector: _ClassCollector):
    """All K with raw.group normal of prime index, up to local dedupe."""
    n = raw.normalizer
    if len(n) == raw.order:
        return
    et = collector.anchor.table
    coset_of, order, powers = _coset_powers(et.index_of(raw.gens), n, et)
    # group_from_elements on K's rows in the order H, Hz, ... would pick
    # what it picks on H's sorted rows (found once), then z, closing K
    hgens = cache(lambda: group_from_elements(et, raw.index).gens)
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
        k = np.concatenate([raw.index,
                            et.times(raw.index, n[index, None]).ravel()])
        collector.add(np.sort(k), lambda: PermGroup(
            [et.perm(i) for i in hgens() + [n[index[0]]]], et.degree))


def _layer_closure(ambient: PermGroup) -> _ClassCollector:
    """All subgroup classes of ``ambient``: the seeds (the trivial class,
    the perfect classes of :func:`perfect_subgroup_classes` and the cyclic
    classes of prime order, in that order) closed under prime extensions;
    the module docstring says what shows the seeds complete."""
    collector = _ClassCollector(ambient)
    collector.add_rows([pident(ambient.degree)],
                       lambda: PermGroup([], ambient.degree))
    perfect_subgroup_classes(collector)
    for rep, _ in ambient.conjugacy_classes():
        p = porder(rep)
        if prime_powers(p) == [(p, 1)]:
            cyclic = PermGroup([rep], ambient.degree)
            collector.add_rows(cyclic.element_table().table, lambda: cyclic)
    for raw in collector.raws:  # visits the classes added on the way
        if raw.order in (1, ambient.order):
            raw.normalizer = np.arange(ambient.order)
            continue
        raw.normalizer = collector.anchor.conjugators(raw.gens, raw.index)
        _prime_extensions(raw, collector)
    return collector


# ---------------------------------------------------------------------------
# perfect classes


def perfect_subgroup_classes(collector: _ClassCollector):
    """Register in ``collector`` the classes of nontrivial perfect
    subgroups of its ambient group: the solvable residuals of the whole
    group and of each <x, t>, x of prime order p >= 5 and t an involution.
    A solvable group registers none and builds no pairs.

    A nontrivial perfect group holds such x and t: its nonabelian simple
    factor has order divisible by a prime p >= 5 (Burnside's p^a q^b
    theorem) and by 2 (Feit-Thompson).  x runs over the class
    representatives, t over the involutions up to conjugation by
    N_G(<x>), as <x, t>^n = <x, t^n>.  That a pair generates each perfect
    group is not proved (see the module docstring).
    """
    ambient = collector.ambient
    anchor = collector.anchor
    et = anchor.table
    whole = derived_series(et, et.index_of(_generating_rows(ambient)))[-1]
    if whole.order == 1:
        return
    collector.add(whole.index(), whole.group)
    classes = ambient.conjugacy_classes()
    involutions = np.flatnonzero(np.array(
        [porder(rep) == 2 for rep, _ in classes])[anchor.class_of])
    for x, _ in classes:
        p = porder(x)
        if p < 5 or prime_powers(p) != [(p, 1)]:
            continue
        n = ambient.normalizer_index(PermGroup([x], ambient.degree))
        # the involutions that are least among their conjugates under N
        least = et.conjugates(n, et.table[involutions]).min(1)
        for t in involutions[least == involutions].tolist():
            if ambient.subgroup([x, et.perm(t)]).order < ambient.order:
                res = derived_series(et, [*et.index_of([x]), t])[-1]
                if res.order > 1:
                    collector.add(res.index(), res.group)


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
    def from_json(cls, d, ambient: PermGroup):
        """A class of ``ambient`` from its JSON object; ValueError unless
        its fields agree with each other and with ``ambient``."""
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
        c = cls(checked(d["class_id"], int, "class_id"),
                checked(d["order"], int, "order"),
                [int_list(g, "generator")
                 for g in checked(d["generators"], list, "generators")],
                Fingerprint.from_json(d["fingerprint"]),
                checked(d["normalizer_order"], int, "normalizer_order"),
                **lists, perm_chars=np.array(chars, np.int64).reshape(shape))
        if not c.order == c.fingerprint.order == c.own_orders[-1]:
            raise ValueError(f"order {c.order}, fingerprint order "
                             f"{c.fingerprint.order} and the last own_orders "
                             f"entry {c.own_orders[-1]} must be equal")
        if not (0 < c.order and 0 < c.normalizer_order
                and c.normalizer_order % c.order == 0
                and ambient.order % c.normalizer_order == 0):
            raise ValueError(f"normalizer order {c.normalizer_order} must be "
                             f"a multiple of the order {c.order} and divide "
                             f"{ambient.order}")
        # column 0 is the identity's class: the number of cosets
        for r, (row, own) in enumerate(zip(chars, c.own_orders), 1):
            if row[0] * own != c.order:
                raise ValueError(f"perm_chars row {r}: {row[0]} cosets of a "
                                 f"subgroup of order {own} do not make the "
                                 f"order {c.order}")
        for i, g in enumerate(c.generators, 1):
            # the sift indexes by the entries, so check them first
            if sorted(g) != list(range(ambient.degree)):
                raise ValueError(f"generator {i} is not a permutation of "
                                 f"0..{ambient.degree - 1}")
            if g not in ambient:
                raise ValueError(f"generator {i} is not in the ambient group")
        if len(c.own_gclass) != len(c.own_orders):
            raise ValueError(f"own_gclass must be {len(c.own_orders)} ids "
                             f"(one per own_orders entry), not "
                             f"{len(c.own_gclass)}")
        return c


FORMAT_TAG = "psp4obs-lattice/1"
_dumps = partial(json.dumps, separators=(",", ":"), sort_keys=True)


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

    def save(self, path):
        """Compact JSON with sorted keys, each class encoded by json.dumps
        in C: json.dump would take the Python encoder, and one json.dumps
        of the lattice would hold all of its chunks at once."""
        gens = _dumps([list(g) for g in self.ambient.generators])
        classes = ",".join(_dumps(c.to_json()) for c in self.classes)
        with open(path, "w") as fh:
            fh.write(f'{{"ambient_generators":{gens},"classes":[{classes}],'
                     f'"degree":{self.ambient.degree},'
                     f'"format":{_dumps(FORMAT_TAG)}}}\n')

    @classmethod
    def load(cls, path) -> "SubgroupLattice":
        with InputFile(path) as f:
            d = f.json(FORMAT_TAG)
            ambient = PermGroup(
                [int_list(g, "ambient generator")
                 for g in checked(d["ambient_generators"], list,
                                  "ambient_generators")],
                checked(d["degree"], int, "degree"))
            classes = []
            for c in checked(d["classes"], list, "classes"):
                f.where = f"class {len(classes) + 1}"
                classes.append(SubgroupClassInfo.from_json(
                    checked(c, dict, "class"), ambient))
            f.where = None
            n = len(classes)
            if not classes or classes[-1].order != ambient.order:
                raise ValueError(f"the last class must be the whole group, "
                                 f"of order {ambient.order}")
            # the whole group's element classes are the ambient classes
            k = len(classes[-1].elem_fusion)
            if classes[-1].elem_fusion != tuple(range(k)):
                raise ValueError(f"class {n}: elem_fusion must be 0..{k - 1}, "
                                 f"the ambient classes in order")
            f.check_numbering(
                [(f"class {pos}", c.class_id,
                  [("own_gclass id", c.own_gclass, 1, n),
                   ("maximal id", c.maximal, 1, n),
                   ("elem_fusion id", c.elem_fusion, 0, k - 1)])
                 for pos, c in enumerate(classes, 1)],
                "class ids must run 1..{n} in order, but position {pos} "
                "holds id {got}")
            # own_gclass names the class of each own_orders entry, the class
            # itself last
            for pos, c in enumerate(classes, 1):
                for r, (j, own) in enumerate(zip(c.own_gclass, c.own_orders),
                                             1):
                    if classes[j - 1].order != own:
                        raise ValueError(
                            f"class {pos}: own_gclass entry {r} is class {j}, "
                            f"of order {classes[j - 1].order}, but own_orders "
                            f"entry {r} is {own}")
                if c.own_gclass[-1] != pos:
                    raise ValueError(f"class {pos}: the last own_gclass id "
                                     f"must be the class itself, not "
                                     f"{c.own_gclass[-1]}")
                # a maximal class is a proper own class
                for j in c.maximal:
                    if j not in c.own_gclass[:-1]:
                        raise ValueError(f"class {pos}: maximal id {j} is not "
                                         f"one of its proper own classes")
            # each element generates exactly one cyclic subgroup, so every
            # ambient class meets the cyclic classes
            cyclic = [c for c in classes if c.order == 1
                      or c.fingerprint.abelianization == (c.order,)]
            count = sum(ambient.order // c.normalizer_order
                        * prod(p ** (a - 1) * (p - 1)
                               for p, a in prime_powers(c.order))
                        for c in cyclic)
            if count != ambient.order:
                raise ValueError(f"the cyclic classes count {count} "
                                 f"elements, not {ambient.order}")
            met = len(set().union(*(c.elem_fusion for c in cyclic)))
            if met != k:
                raise ValueError(f"the cyclic classes meet only {met} of {k} "
                                 f"ambient classes")
        return cls(ambient, classes)


def _conjugate(rows, g):
    """The rows x^g = g^-1 x g, which send i to g[x[g^-1[i]]]."""
    return g[rows[:, np.argsort(g)]]


def _own_classes(ambient: PermGroup, raws) -> tuple:
    """For each raw H, its subgroup classes as (K, g) pairs: the raw index
    of an ambient class K and the least row g of a double coset N_G(K) g H
    with K^g in H (Pfeiffer 1997); and the raw indices of its maximal
    classes.  Only the H with a multiple of K's order and as many elements
    as K in every ambient class are scanned.

    The classes K run by descending order, and each makes three table
    lookups for every H at once.  C = {g : K^g in H} is a union of cosets
    N_G(K) g, so the first looks up t^-1 k t for every least row t of a
    coset and every generator k of K, and the cosets in C are those whose
    conjugates H holds.  H permutes its cosets by right multiplication and
    its orbits are the double cosets, so the second looks up x h for x in
    H's cosets and h a generator of H, over the disjoint union of every
    H's cosets; the least row of each orbit names its class.

    A proper subgroup K^g of H lies in a maximal one, which is larger, so
    it is maximal unless an H-conjugate of it lies in a maximal class L^g'
    found before it.  The K^x in L are those of the cosets N_G(K) x in L's
    part of the union, and K^x lies in L^g' as K^(x g'), whose double coset
    N_G(K) x g' H names its class in H; the third lookup takes every such x
    g'.  The products for H read only the maximal classes of H found so
    far, which K changes only after the lookup, so one lookup serves every
    H.
    """
    anchor = ambient.conjugacy_anchor()
    et = anchor.table
    n = len(et)
    orders = np.array([raw.order for raw in raws])
    held = np.zeros((len(raws), n), dtype=bool)
    fusion = np.zeros((len(raws), len(ambient.conjugacy_classes())),
                      dtype=np.intp)
    for i, raw in enumerate(raws):
        held[i, raw.index] = True
        fusion[i, [c for c, _ in raw.fusion]] = [m for _, m in raw.fusion]
    # the generators of each H as rows, the missing ones the identity (row 0)
    counts = np.array([len(raw.gens) for raw in raws])
    gens = np.zeros((len(raws), counts.max()), dtype=np.intp)
    gens[np.arange(counts.max()) < counts[:, None]] = et.index_of(
        [g for raw in raws for g in raw.gens])
    owns = [[] for _ in raws]
    tops = [[] for _ in raws]  # the maximal (L, g') of each H so far
    for k in np.argsort(-orders, kind="stable").tolist():
        labels = anchor.coset_labels(raws[k].normalizer)
        transversal = np.flatnonzero(labels == np.arange(n))
        scan = np.flatnonzero((orders % orders[k] == 0)
                              & (fusion >= fusion[k]).all(1))
        # lookup 1: the cosets in C, as (scanned H, least row) by H
        conj = et.conjugates(transversal, raws[k].gens)
        part, pos = np.nonzero(held[scan[:, None, None], conj].all(1))
        cosets = transversal[pos]
        # lookup 2: a union position is (H, coset), keyed H * |G| + row,
        # which stays below len(raws) * |G| and fits in an intp
        keys = part * n + cosets
        acts = np.searchsorted(keys, part * n + labels[et.times(
            cosets, gens[scan[part]].T)])
        # the key of the least row in each position's orbit; an own class
        # is an orbit, named at its least position
        least = keys[orbit_minima(acts, len(keys))]
        own = keys[least == keys]
        # lookup 3: each x g' with (L, g') maximal in H and x a coset in L,
        # as (H, L, g') triples, each repeated over L's part of the union
        starts = np.searchsorted(part, np.arange(len(scan) + 1))
        where = {h: s for s, h in enumerate(scan.tolist())}
        pairs = [(s, where[j], gj) for s, h in enumerate(scan.tolist())
                 if orders[h] > orders[k] and starts[s] < starts[s + 1]
                 for j, gj in tops[h] if j in where]
        hpos, lpos, moves = np.array(pairs, dtype=np.intp).reshape(-1, 3).T
        sizes = starts[lpos + 1] - starts[lpos]
        # the union positions of L's cosets, pair after pair
        xs = np.arange(sizes.sum()) + np.repeat(
            starts[lpos] - np.cumsum(sizes) + sizes, sizes)
        hpos = np.repeat(hpos, sizes)
        below = set(least[np.searchsorted(keys, hpos * n + labels[et.times(
            cosets[xs], np.repeat(moves, sizes))])].tolist())
        for key in own.tolist():
            h, g = scan[key // n], key % n
            owns[h].append((k, g))
            if orders[h] > orders[k] and key not in below:
                tops[h].append((k, g))
    return owns, [{k for k, _ in top} for top in tops]


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
    raws = _layer_closure(ambient).raws
    log(f"found {len(raws)} classes; fingerprinting")

    fps = [fingerprint_of(r.group) for r in raws]
    sorted_idx = sorted(range(len(raws)),
                        key=lambda i: (raws[i].order, fps[i], raws[i].fusion,
                                       i))
    id_of_raw = {old: new + 1 for new, old in enumerate(sorted_idx)}
    log("reading the own lattices off the double cosets")
    owns, maximals = _own_classes(ambient, raws)
    table = ambient.element_table().table

    infos = []
    for pos, i in enumerate(sorted_idx):
        raw = raws[i]
        rep = raw.group
        cid = pos + 1
        log(f"class {cid}/{len(raws)}: order {raw.order}")
        own = sorted(owns[i], key=lambda kg: (raws[kg[0]].order,
                                              id_of_raw[kg[0]], kg[1]))
        own_ids = [id_of_raw[k] for k, _ in own]
        orders = np.array([raws[k].order for k, _ in own])
        rows = [_conjugate(table[raws[k].index], table[g]) for k, g in own]
        chars = burnside.perm_characters(rep, rows)
        elem_fusion = tuple(ambient.class_indices(np.asarray(
            [crep for crep, _ in rep.conjugacy_classes()])).tolist())
        infos.append(SubgroupClassInfo(
            class_id=cid,
            order=raw.order,
            generators=[tuple(g) for g in rep.generators
                        if not is_identity(g)] or [pident(ambient.degree)],
            fingerprint=fps[i],
            normalizer_order=len(raw.normalizer),
            maximal=tuple(sorted(id_of_raw[k] for k in maximals[i])),
            elem_fusion=elem_fusion,
            own_orders=tuple(orders.tolist()),
            own_gclass=tuple(own_ids),
            perm_chars=chars,
        ))
    return SubgroupLattice(ambient, infos)
