"""Tests for subgroup classification.

Class counts are cross-checked against a brute-force closure enumeration
(every subgroup arises by repeatedly adjoining one element), which is
feasible for ambient groups up to a few hundred elements.
"""

import hashlib
import json

import numpy as np
import pytest

from oracles import (brute_subgroups, closure_own_lattice, lattice_ids,
                     may_contain, quotient_order)
from psp4obs import cli, subgroups
from psp4obs.permgroups import ElementTable, PermGroup, pconj, pmul

C6 = PermGroup([(1, 2, 3, 4, 5, 0)], 6)
A4 = PermGroup([(1, 2, 0, 3), (0, 2, 3, 1)], 4)
S4 = PermGroup([(1, 0, 2, 3), (1, 2, 3, 0)], 4)
D4 = PermGroup([(1, 2, 3, 0), (3, 2, 1, 0)], 4)
Q8 = PermGroup([(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)], 8)
A5 = PermGroup([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], 5)
S5 = PermGroup([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], 5)


def brute_class_count(g):
    """Number of conjugacy classes of subgroups, by closure enumeration."""
    et = g.element_table()
    elems = [tuple(r) for r in et.table]
    seen = {}

    def key(h):
        return h.element_table().table.tobytes()

    start = PermGroup([], g.degree)
    queue = [start]
    seen[key(start)] = start
    while queue:
        h = queue.pop()
        for x in elems:
            k = PermGroup(list(h.generators) + [x], g.degree)
            kk = key(k)
            if kk not in seen:
                seen[kk] = k
                queue.append(k)
    classes = 0
    used = set()
    for h in seen.values():
        if key(h) in used:
            continue
        classes += 1
        ht = h.element_table().table
        for e in elems:
            rows = np.array(sorted(tuple(pconj(tuple(r), e)) for r in ht),
                            dtype=ht.dtype)
            used.add(rows.tobytes())
    return classes


def brute_maximal(lat):
    """For each class, the ids of the classes of its maximal subgroups,
    read off every subgroup of the ambient group."""
    elements = [tuple(r) for r in lat.ambient.element_table().table.tolist()]

    def members(class_id):
        return frozenset(map(tuple, lat.rep(class_id).element_table()
                             .table.tolist()))
    class_of = {frozenset(pconj(h, x) for h in members(c.class_id)):
                c.class_id for c in lat.classes for x in elements}
    subs = brute_subgroups(elements)
    out = []
    for c in lat.classes:
        below = [s for s in subs if s < members(c.class_id)]
        out.append(tuple(sorted({class_of[s] for s in below
                                 if not any(s < t for t in below)})))
    return out


class TestClassification:
    @pytest.mark.parametrize("g,expected", [
        (C6, 4), (A4, 5), (S4, 11), (D4, 8), (Q8, 6), (A5, 9), (S5, 19)])
    def test_counts_vs_brute_force(self, g, expected):
        lat = subgroups.subgroup_classes(g)
        assert len(lat) == expected
        assert brute_class_count(g) == expected

    @pytest.mark.parametrize("g", [S4, A5, S5], ids=["S4", "A5", "S5"])
    def test_maximal_vs_brute_force(self, g):
        lat = subgroups.subgroup_classes(g)
        assert [c.maximal for c in lat.classes] == brute_maximal(lat)

    def test_ids_sequential_and_sorted(self):
        lat = subgroups.subgroup_classes(S4)
        assert [c.class_id for c in lat.classes] == list(range(1, 12))
        orders = [c.order for c in lat.classes]
        assert orders == sorted(orders)
        assert orders[0] == 1 and orders[-1] == 24


@pytest.fixture(scope="module")
def lat():
    return subgroups.subgroup_classes(S4)


class TestS4Structure:
    def test_whole_group_row(self, lat):
        top = lat.classes[-1]
        assert top.order == 24
        assert sorted(lat.by_id(m).order for m in top.maximal) == [6, 8, 12]
        assert frozenset(top.own_gclass) == set(range(1, 12))

    def test_perm_chars(self, lat):
        top = lat.classes[-1]
        pc = top.perm_chars
        # row for the trivial subgroup is the regular character
        assert pc[0][0] == 24 and all(v == 0 for v in pc[0][1:])
        # row for the whole group is identically one
        assert all(v == 1 for v in pc[-1])
        # degrees are index = |G| / |H|, aligned with own_orders
        assert [row[0] for row in pc] == [24 // o for o in top.own_orders]

    def test_elem_fusion(self, lat):
        top = lat.classes[-1]
        # fusion of the top class into itself is the identity map
        assert top.elem_fusion == tuple(range(len(top.elem_fusion)))
        # proper classes: fused class has compatible element orders
        amb = lat.ambient.conjugacy_classes()
        from psp4obs.permgroups import porder
        for c in lat.classes:
            rep = c.rep(lat.ambient.degree)
            own = rep.conjugacy_classes()
            assert len(c.elem_fusion) == len(own)
            for (p, _), fused in zip(own, c.elem_fusion):
                assert porder(p) == porder(amb[fused][0])

    def test_normalizers(self, lat):
        for c in lat.classes:
            assert c.normalizer_order % c.order == 0
            assert 24 % c.normalizer_order == 0
        # a transposition's C2 has normalizer of order 4 in S4
        c2s = [c for c in lat.classes if c.order == 2]
        assert sorted(c.normalizer_order for c in c2s) == [4, 8]

    def test_maximal_is_antichain(self, lat):
        for c in lat.classes:
            for m in c.maximal:
                below = frozenset(lat.by_id(m).own_gclass)
                others = set(c.maximal) - {m}
                assert not (others & {m}), "self-containment"
                for o in others:
                    assert m not in frozenset(lat.by_id(o).own_gclass) or \
                        lat.by_id(o).order == lat.by_id(m).order

    def test_fingerprints(self, lat):
        fp = lat.classes[-1].fingerprint
        assert fp.order == 24
        assert fp.abelianization == (2,)
        assert fp.exponent == 12
        assert fp.class_count == 5
        assert fp.derived_length == 3
        assert not fp.nilpotent
        rt = subgroups.Fingerprint.from_json(fp.to_json())
        assert rt == fp


def check_coset_powers(sub, ambient):
    """Batched coset orders and power cosets of ``sub`` in its normaliser
    agree with one multiplication and one lookup per power."""
    n_rows = ambient.normalizer_rows(sub)
    n_et = ElementTable(n_rows, ambient.degree,
                        ambient.element_table().base)
    coset_of, order, powers = subgroups._coset_powers(sub, n_et)
    assert len(order) == coset_of.max() == len(n_et) // sub.order - 1
    sub_rows = sub.element_table().table
    for c in range(1, len(order) + 1):
        z = n_et.perm(int(np.flatnonzero(coset_of == c)[0]))
        assert order[c - 1] == quotient_order(z, sub_rows)
        w = z
        for k in range(1, order[c - 1]):
            assert powers[k - 1, c - 1] == n_et.index_of([w])[0]
            w = pmul(w, z)
    return len(order)


class TestCosetPowers:
    @pytest.mark.parametrize("gens", [
        [(1, 0, 3, 2), (2, 3, 0, 1)],   # V4, normal in S4
        [(1, 0, 2, 3)],                 # C2, normaliser C2 x C2
        [(1, 2, 0, 3)],                 # C3, normaliser S3
        [(1, 2, 3, 0)],                 # C4, normaliser D8
        [],                             # the trivial group
    ], ids=["V4", "C2", "C3", "C4", "trivial"])
    def test_s4(self, gens):
        assert check_coset_powers(S4.subgroup(gens), S4) > 0

    def test_lattice_classes(self, lattice):
        # |N/H| = 288, 216, 24, 60 (A5), 18 and 2
        for cid in (2, 4, 10, 45, 71, 110):
            assert check_coset_powers(lattice.rep(cid), lattice.ambient) > 0


class TestPersistence:
    def test_roundtrip_and_determinism(self, tmp_path):
        lat = subgroups.subgroup_classes(S4)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        lat.save(p1)
        lat2 = subgroups.SubgroupLattice.load(p1)
        assert len(lat2) == len(lat)
        for a, b in zip(lat.classes, lat2.classes):
            assert (a.order, a.maximal, a.own_gclass, a.elem_fusion,
                    a.normalizer_order, a.fingerprint) == \
                   (b.order, b.maximal, b.own_gclass, b.elem_fusion,
                    b.normalizer_order, b.fingerprint)
            assert np.array_equal(a.perm_chars, b.perm_chars)
        lat2.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        # the file is the compact, key-sorted encoding of its own content
        text = p1.read_text()
        assert text == json.dumps(json.loads(text), separators=(",", ":"),
                                  sort_keys=True) + "\n"

    def test_load_rejects_other_formats(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            subgroups.SubgroupLattice.load(p)

    @staticmethod
    def _without_key(lattice_path, tmp_path, class_id, key):
        d = json.loads(lattice_path.read_text())
        del d["classes"][class_id - 1][key]
        p = tmp_path / "broken.json"
        p.write_text(json.dumps(d))
        return p

    def test_load_names_a_missing_key(self, lattice_path, tmp_path):
        p = self._without_key(lattice_path, tmp_path, 60, "perm_chars")
        with pytest.raises(ValueError) as err:
            subgroups.SubgroupLattice.load(p)
        assert str(p) in str(err.value)
        assert "class 60" in str(err.value)
        assert "'perm_chars'" in str(err.value)

    def test_load_rejects_a_duplicated_class_id(self, lattice_path,
                                                tmp_path):
        # class 5 written twice: the ids run 1..5, 5, 7..116
        d = json.loads(lattice_path.read_text())
        d["classes"][5] = d["classes"][4]
        p = tmp_path / "duplicated.json"
        p.write_text(json.dumps(d))
        with pytest.raises(ValueError) as err:
            subgroups.SubgroupLattice.load(p)
        assert str(p) in str(err.value)
        assert "position 6 holds id 5" in str(err.value)

    def test_cli_rejects_a_missing_key(self, lattice_path, tmp_path,
                                       capsys):
        p = self._without_key(lattice_path, tmp_path, 60, "perm_chars")
        code = cli.main(["table", "compute", "--lattice", str(p),
                         "--out", str(tmp_path / "table.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] \
            == [f"error: {p}: class 60: missing key 'perm_chars'"]
        assert "Traceback" not in err


# Generators of the classes 110 (A6) and 112 (solvable, of order 648) of
# PSp4(3), written out so that the pins below do not depend on the session
# lattice
A6_GENERATORS = [
    (18, 8, 32, 28, 38, 11, 22, 15, 1, 21, 25, 5, 35, 30, 33, 7, 17, 16, 0, 31,
     29, 9, 6, 34, 26, 10, 24, 39, 3, 20, 13, 19, 2, 14, 23, 12, 37, 36, 4,
     27),
    (12, 26, 31, 21, 33, 20, 25, 19, 32, 27, 11, 10, 0, 38, 16, 24, 14, 36, 28,
     7, 5, 3, 34, 29, 15, 6, 1, 9, 18, 23, 37, 2, 8, 4, 22, 39, 17, 30, 13,
     35),
    (20, 12, 33, 25, 14, 17, 1, 36, 22, 9, 28, 39, 6, 10, 32, 26, 11, 27, 31,
     0, 19, 21, 35, 23, 7, 30, 37, 5, 13, 18, 3, 29, 4, 38, 34, 8, 24, 15, 2,
     16),
]
SOLVABLE_648_GENERATORS = [
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15, 13, 17, 18, 16, 20, 21,
     19, 23, 24, 22, 26, 27, 25, 29, 30, 28, 32, 33, 31, 35, 36, 34, 38, 39,
     37),
    (0, 1, 2, 3, 5, 6, 4, 8, 9, 7, 11, 12, 10, 16, 17, 18, 19, 20, 21, 13, 14,
     15, 26, 27, 25, 29, 30, 28, 23, 24, 22, 36, 34, 35, 39, 37, 38, 33, 31,
     32),
    (0, 1, 2, 3, 7, 8, 9, 10, 11, 12, 4, 5, 6, 13, 14, 15, 16, 17, 18, 19, 20,
     21, 25, 26, 27, 28, 29, 30, 22, 23, 24, 37, 38, 39, 31, 32, 33, 34, 35,
     36),
    (0, 2, 3, 1, 4, 5, 6, 8, 9, 7, 12, 10, 11, 31, 32, 33, 35, 36, 34, 39, 37,
     38, 13, 14, 15, 17, 18, 16, 21, 19, 20, 22, 23, 24, 26, 27, 25, 30, 28,
     29),
    (1, 0, 3, 2, 13, 19, 16, 14, 20, 17, 15, 21, 18, 4, 7, 10, 6, 9, 12, 5, 8,
     11, 31, 37, 34, 32, 38, 35, 33, 39, 36, 22, 25, 28, 24, 27, 30, 23, 26,
     29),
    (0, 1, 3, 2, 4, 6, 5, 7, 9, 8, 10, 12, 11, 13, 14, 15, 19, 20, 21, 16, 17,
     18, 31, 32, 33, 37, 38, 39, 34, 35, 36, 22, 23, 24, 28, 29, 30, 25, 26,
     27),
]

# sha256 of the lattice file that subgroup_classes saves for PSp4(3), the
# session lattice that every lattice and table test reads
PSP4_LATTICE_SHA256 = \
    "8c04111d7632a7d547d573c8e2209125b6c9fc2c8c658cbc907458847ae8016c"


def test_session_lattice_is_byte_identical(lattice_path):
    assert hashlib.sha256(lattice_path.read_bytes()).hexdigest() == \
        PSP4_LATTICE_SHA256


# sha256 of the lattice file that subgroup_classes saves for A6: the file
# depends on the perfect-subgroup search, which picks the generators of
# its A5 classes
A6_LATTICE_SHA256 = \
    "87290565cf178a1b8371e78ef052a5aadad97051bc0c6dc8a9d06c364605d612"


def test_classification_is_byte_identical(tmp_path):
    rep = PermGroup(A6_GENERATORS, 40)
    assert rep.order == 360 and rep.derived_length() is None
    path = tmp_path / "a6.json"
    subgroups.subgroup_classes(rep).save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == A6_LATTICE_SHA256


# sha256 of the lattice file that subgroup_classes saves for class 112, a
# solvable group, which registers no perfect class and builds no pair
SOLVABLE_648_LATTICE_SHA256 = \
    "c2c3602edd95f636cb8c9c5873b7171953922c797cb61231d624ad2f882e1566"


def test_solvable_classification_is_byte_identical(tmp_path):
    rep = PermGroup(SOLVABLE_648_GENERATORS, 40)
    assert rep.order == 648 and rep.derived_length() is not None
    path = tmp_path / "c112.json"
    subgroups.subgroup_classes(rep).save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        SOLVABLE_648_LATTICE_SHA256


def test_solvable_groups_build_no_pairs(monkeypatch):
    """A solvable group and all its subgroups have no perfect subgroup
    but 1, so neither level of the search builds a pair's group."""
    calls = []
    build = PermGroup.subgroup
    monkeypatch.setattr(PermGroup, "subgroup", lambda self, gens:
                        calls.append(1) or build(self, gens))
    for group in (S4, PermGroup(SOLVABLE_648_GENERATORS, 40)):
        subgroups.subgroup_classes(group)
    assert calls == []


def tie_groups(orders, gclass, perm_chars) -> dict:
    """The perm_chars rows of each (order, id) group, sorted."""
    groups = {}
    for key, row in zip(zip(orders, gclass), np.asarray(perm_chars).tolist()):
        groups.setdefault(key, []).append(row)
    return {key: sorted(rows) for key, rows in groups.items()}


# A6 (110), class 112 and five smaller classes: an elementary abelian 2^4
# (45), C3 x Q8 (60), A5 (85), and groups of order 64 (87) and 108 (97)
@pytest.mark.parametrize("class_id", [45, 60, 85, 87, 97, 110, 112])
def test_own_lattices_match_the_closure_oracle(lattice, class_id):
    """The own lattices read off the double cosets of the ambient lattice
    equal those of a second search inside every class, up to the order of
    the perm_chars rows within an (order, id) group."""
    lat = subgroups.subgroup_classes(
        PermGroup(lattice.by_id(class_id).generators, 40))
    for c in lat.classes:
        maximal, orders, gclass, chars = closure_own_lattice(lat, c.class_id)
        assert (c.maximal, c.own_orders, c.own_gclass) == \
            (maximal, orders, gclass), c.class_id
        assert tie_groups(orders, gclass, chars) == tie_groups(
            c.own_orders, c.own_gclass, c.perm_chars), c.class_id


@pytest.mark.parametrize("g,count", [(A5, 1), (S5, 4)], ids=["A5", "S5"])
def test_prescreened_pairs_without_a_conjugate_inside(g, count):
    """Some H have a multiple of K's order and as many elements as K in
    every class, yet hold no conjugate of K (in A5, an S3 and the A4).  H's
    own lattice still names no class of K and equals the oracle's."""
    raws = subgroups._layer_closure(g).raws
    pairs = [(k, h) for k, sub in enumerate(raws) for h, raw in
             enumerate(raws) if may_contain(raw, sub)
             and g.conjugate_into(sub.group, raw.group) is None]
    assert len(pairs) == count
    lat = subgroups.subgroup_classes(g)
    ids = lattice_ids(lat, raws)
    for k, h in pairs:
        c = lat.by_id(ids[h])
        assert ids[k] not in c.own_gclass
        maximal, orders, gclass, chars = closure_own_lattice(lat, ids[h])
        assert (c.maximal, c.own_orders, c.own_gclass) == \
            (maximal, orders, gclass)
        assert tie_groups(orders, gclass, chars) == tie_groups(
            c.own_orders, c.own_gclass, c.perm_chars)


# sha256 of the lattice files that subgroup_classes saves for the two
# largest non-solvable proper classes of PSp4(3), classified from the
# session lattice's generators: both depend on the perfect-subgroup search
NONSOLVABLE_LATTICE_SHA256 = {
    115: "01b75be2af07eaa6122831fad1dcccd6b4be2e4b358e4d292aa54b58c501d8b2",
    114: "e69de06b92cbd9d7af2b774863f2f9d2ca367b8f61b5910b1010d4610c950404",
}


@pytest.mark.parametrize("class_id", sorted(NONSOLVABLE_LATTICE_SHA256))
def test_nonsolvable_classification_is_byte_identical(lattice, class_id,
                                                      tmp_path):
    rep = PermGroup(lattice.by_id(class_id).generators, 40)
    assert rep.derived_length() is None
    path = tmp_path / f"c{class_id}.json"
    subgroups.subgroup_classes(rep).save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        NONSOLVABLE_LATTICE_SHA256[class_id]


@pytest.mark.parametrize("class_id", [85, 86, 100, 101, 110, 114, 115, 116])
def test_pairs_find_every_perfect_class(lattice, class_id):
    """The pairs of an element of prime order p >= 5 and an involution,
    searched in the class on their own, find every nontrivial perfect
    subgroup class that the lattice stores in the class."""
    info = lattice.by_id(class_id)
    assert info.fingerprint.derived_length == -1
    want = sorted((c.order, c.fingerprint) for c in map(
        lattice.by_id, info.own_gclass)
        if c.order > 1 and c.fingerprint.abelianization == ())
    collector = subgroups._ClassCollector(lattice.rep(class_id))
    subgroups.perfect_subgroup_classes(collector)
    got = sorted((r.order, subgroups.fingerprint_of(r.group))
                 for r in collector.raws)
    assert want and got == want


def test_normaliser_residuals_are_lattice_classes(lattice):
    """The solvable residual of the normaliser of every class is 1 or
    conjugate to exactly one class of the lattice, so that no perfect
    subgroup reachable from a normaliser is missing."""
    ambient = lattice.ambient
    met = set()
    for info in lattice.classes:
        res = ambient.normalizer(lattice.rep(info.class_id)) \
            .solvable_residual().group()
        if res.order == 1:
            continue
        ids = [c.class_id for c in lattice.classes if c.order == res.order
               and ambient.is_conjugate_subgroup(lattice.rep(c.class_id),
                                                 res)]
        assert len(ids) == 1, info.class_id
        met.update(ids)
    assert met == {85, 86, 110, 115, 116}


class TestAmbientLattice:
    """Checks on the full 116-class lattice (session-cached)."""

    def test_class_count(self, lattice):
        assert len(lattice) == 116

    def test_top_class_is_whole_group(self, lattice):
        top = lattice.classes[-1]
        assert top.order == 25920
        assert top.class_id == 116
        assert len(top.own_gclass) == 116

    def test_lagrange_and_normalizers(self, lattice):
        for c in lattice.classes:
            assert 25920 % c.order == 0
            assert c.normalizer_order % c.order == 0
            assert 25920 % c.normalizer_order == 0

    def test_maximal_subgroups_of_g(self, lattice):
        # the five maximal subgroup orders of the simple group
        tops = sorted(lattice.by_id(m).order
                      for m in lattice.classes[-1].maximal)
        assert tops == [576, 648, 648, 720, 960]

    def test_index_40_and_45_stabilizers(self, lattice):
        # two non-conjugate classes of order 648, one of order 576
        assert sum(1 for c in lattice.classes if c.order == 648) == 2
        assert sum(1 for c in lattice.classes if c.order == 576) == 1

    def test_perm_char_row_shapes(self, lattice):
        for c in lattice.classes[:20]:
            assert c.perm_chars.shape == (len(c.own_orders),
                                          len(c.elem_fusion))
            assert c.perm_chars[0][0] == c.order
