"""Closures and Schreier-Sims builds against their incremental references.

``ReferenceChain`` is the Schreier-Sims build that sifts every Schreier
generator with its word and rebuilds every orbit on each pass, and never
stops at a known order;
``reference_group_from_elements`` and ``reference_normal_closure`` build
one chain per accepted generator.  The production code must give the same
generators, base, strong generators, words and transversals, because saved
lattices record the generators.
"""

import os
import pathlib
import subprocess
import sys
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import random_element
from psp4obs import permgroups as pg
from psp4obs.permgroups import PermGroup

S4 = PermGroup([(1, 0, 2, 3), (1, 2, 3, 0)], 4)
A5 = PermGroup([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], 5)
S5 = PermGroup([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], 5)
SMALL = [S4, A5, S5]
# lattice classes: C3 x Q8, S5, A6 and the largest proper class (order 960)
LATTICE_IDS = [60, 100, 110, 115]


class ReferenceChain(PermGroup):
    """Schreier-Sims with a word for every Schreier generator."""

    def _rebuild_orbit(self, i):
        level = self.levels[i]
        level.gen_indices = [j for j, s in enumerate(self.sgens)
                             if self._sgen_level(s) >= i]
        b = level.point
        level.orbit = {b: pg.pident(self.degree)}
        level.orbit_words = {b: ()}
        level.inverses = {}
        frontier = [b]
        while frontier:
            new = []
            for pt in frontier:
                t = level.orbit[pt]
                w = level.orbit_words[pt]
                for j in level.gen_indices:
                    s = self.sgens[j]
                    img = s[pt]
                    if img not in level.orbit:
                        level.orbit[img] = pg.pmul(t, s)
                        level.orbit_words[img] = w + ((j, 1),)
                        new.append(img)
            frontier = new

    def _sift_with_word(self, p, word, start):
        for i in range(start, len(self.levels)):
            level = self.levels[i]
            img = p[level.point]
            if img not in level.orbit:
                return i, p, word
            word = word + pg.word_inverse(level.orbit_words[img])
            p = pg.pmul(p, pg.pinv(level.orbit[img]))
        return len(self.levels), p, word

    def _build(self):
        for idx, g in enumerate(self.generators):
            if not pg.is_identity(g):
                self._add_sgen(g, ((idx, 1),))
        if not self.base:
            return
        for i in range(len(self.levels)):
            self._rebuild_orbit(i)
        i = len(self.levels) - 1
        while i >= 0:
            self._rebuild_orbit(i)
            level = self.levels[i]
            restart = None
            for pt in sorted(level.orbit):
                t = level.orbit[pt]
                tw = level.orbit_words[pt]
                for j in level.gen_indices:
                    s = self.sgens[j]
                    img = s[pt]
                    schreier = pg.pmul(pg.pmul(t, s),
                                       pg.pinv(level.orbit[img]))
                    word = tw + ((j, 1),) + pg.word_inverse(
                        level.orbit_words[img])
                    lvl, res, word = self._sift_with_word(
                        schreier, word, i + 1)
                    if not pg.is_identity(res):
                        self._add_sgen(res, self._expand_sgen_word(word))
                        for k in range(i + 1, len(self.levels)):
                            self._rebuild_orbit(k)
                        restart = len(self.levels) - 1 if lvl >= len(
                            self.levels) - 1 else lvl
                        break
                if restart is not None:
                    break
            i = restart if restart is not None else i - 1


def reference_group_from_elements(rows, degree):
    gens = []
    cur = None
    target = len(rows)
    for r in np.asarray(rows):
        p = tuple(int(x) for x in r)
        if pg.is_identity(p):
            continue
        if cur is None or p not in cur:
            gens.append(p)
            cur = ReferenceChain(gens, degree)
            if cur.order == target:
                break
    return cur if cur is not None else ReferenceChain([], degree)


def reference_normal_closure(ambient, seeds):
    gens = []
    cur = ReferenceChain([], ambient.degree)
    queue = [tuple(s) for s in seeds if not pg.is_identity(s)]
    while queue:
        x = queue.pop(0)
        if x in cur:
            continue
        gens.append(x)
        cur = ReferenceChain(gens, ambient.degree)
        for g in pg._generating_rows(ambient):
            queue.append(pg.pconj(x, g))
            queue.append(pg.pconj(x, pg.pinv(g)))
    return cur


def chain(group):
    """Everything a build produces, with the transversals in dict order."""
    return (group.generators, group.base, group.sgens, group.sgen_words,
            [(lv.point, lv.gen_indices, list(lv.orbit.items()),
              list(lv.orbit_words.items())) for lv in group.levels])


def lattice_groups(lattice):
    return [lattice.rep(cid) for cid in LATTICE_IDS]


def check_closures(group, ambient):
    """Both closures of ``group`` agree with their references."""
    rows = group.element_table().table
    shuffled = rows[np.random.default_rng(group.order).permutation(len(rows))]
    for r in (rows, shuffled):
        got = pg.group_from_elements(r, group.degree)
        assert chain(got) == chain(
            reference_group_from_elements(r, group.degree))
    gens = [g for g in group.generators if not pg.is_identity(g)]
    for seeds in ([pg.pcommutator(a, b) for a in gens for b in gens],
                  gens[:1]):
        got = pg.normal_closure(ambient, seeds).group()
        assert chain(got) == chain(reference_normal_closure(ambient, seeds))


def random_pairs(group, count):
    rng = Random(0)
    return [[random_element(group, rng), random_element(group, rng)]
            for _ in range(count)]


def involution_pairs(group, count):
    """Pairs of conjugate involutions: they generate dihedral groups."""
    rng = Random(0)
    t = next(rep for rep, _ in group.conjugacy_classes()
             if pg.porder(rep) == 2)
    return [[pg.pconj(t, random_element(group, rng)),
             pg.pconj(t, random_element(group, rng))] for _ in range(count)]


def check_bounded_pairs(group, pairs):
    """Each pair's chain built under ``group``'s order as a bound is the
    unbounded one; returns which pairs generate the whole group."""
    whole = set()
    for pair in pairs:
        bounded = group.subgroup(pair)
        unbounded = PermGroup(pair, group.degree)
        assert chain(bounded) == chain(unbounded) == chain(
            ReferenceChain(pair, group.degree))
        whole.add(bounded.order == group.order)
    return whole


class TestChainsMatchReference:
    @pytest.mark.parametrize("g", SMALL)
    def test_small(self, g):
        assert chain(g) == chain(ReferenceChain(g.generators, g.degree))

    def test_lattice_representatives(self, lattice):
        for g in lattice_groups(lattice) + [lattice.ambient]:
            assert chain(g) == chain(ReferenceChain(g.generators, g.degree))

    @given(st.integers(2, 8).flatmap(
        lambda n: st.lists(st.permutations(tuple(range(n))).map(tuple),
                           min_size=1, max_size=3)))
    @settings(max_examples=60, deadline=None)
    def test_random(self, gens):
        g = PermGroup(gens)
        assert chain(g) == chain(ReferenceChain(gens))

    @pytest.mark.parametrize("g", [S4, A5])
    def test_bounded_small_pairs(self, g):
        pairs = random_pairs(g, 20) + involution_pairs(g, 5)
        assert check_bounded_pairs(g, pairs) == {True, False}

    def test_bounded_ambient_pairs(self, lattice):
        ambient = lattice.ambient
        pairs = random_pairs(ambient, 3) + involution_pairs(ambient, 3)
        assert check_bounded_pairs(ambient, pairs) == {True, False}

    def test_bounded_element_sets(self, lattice):
        for g in lattice_groups(lattice) + [lattice.ambient]:
            elements = pg.closed_set(g.element_table().table, g.degree)
            gens = elements.generators
            assert chain(elements.group()) == chain(
                PermGroup(gens, g.degree)) == chain(
                ReferenceChain(gens, g.degree))

    def test_the_bound_saves_sifts(self, monkeypatch):
        calls = []
        sift = PermGroup.sift

        def counted(self, p, start=0):
            calls.append(p)
            return sift(self, p, start)

        monkeypatch.setattr(PermGroup, "sift", counted)
        PermGroup(S5.generators, 5)
        unbounded = len(calls)
        calls.clear()
        S5.subgroup(S5.generators)  # two membership tests, then the build
        assert len(calls) - 2 < unbounded

    def test_subgroup_rejects_a_foreign_generator(self):
        with pytest.raises(ValueError):
            A5.subgroup([(1, 2, 0, 3, 4), (1, 0, 2, 3, 4)])
        with pytest.raises(ValueError):
            S4.subgroup([(1, 0, 2, 3, 4)])


class TestClosuresMatchReference:
    @pytest.mark.parametrize("g", SMALL)
    def test_small(self, g):
        check_closures(g, S5 if g.degree == 5 else g)

    def test_lattice_representatives(self, lattice):
        for g in lattice_groups(lattice):
            check_closures(g, g)

    def test_normal_closure_in_the_whole_group(self, lattice):
        rep = lattice.rep(60)
        seeds = [g for g in rep.generators if not pg.is_identity(g)][:1]
        got = pg.normal_closure(lattice.ambient, seeds).group()
        assert got.order == lattice.ambient.order
        assert chain(got) == chain(
            reference_normal_closure(lattice.ambient, seeds))

    def test_normalizer_rows(self, lattice):
        ambient = lattice.ambient
        for g in lattice_groups(lattice)[:2]:
            et = ambient.element_table()
            rows = et.table[et.conjugators(pg._generating_rows(g),
                                           g.element_table())]
            assert chain(ambient.normalizer(g)) == chain(
                reference_group_from_elements(rows, ambient.degree))


class TestUnclosedRows:
    def test_raises(self):
        rows = S4.element_table().table
        with pytest.raises(RuntimeError):
            pg.group_from_elements(rows[:-1], 4)
        with pytest.raises(RuntimeError):
            pg.group_from_elements([(0, 1, 2, 3), (1, 2, 0, 3)], 4)
        with pytest.raises(RuntimeError):
            pg.group_from_elements(np.concatenate([rows, rows[:1]]), 4)

    def test_raises_without_asserts(self):
        # python -O strips asserts, so the check must not be one
        code = ("from psp4obs import permgroups as pg\n"
                "try:\n"
                "    pg.group_from_elements([(0, 1, 2, 3), (1, 2, 0, 3)], 4)\n"
                "except RuntimeError:\n"
                "    raise SystemExit(0)\n"
                "raise SystemExit(3)\n")
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr


class TestConjugationScans:
    @pytest.mark.parametrize("g", SMALL)
    def test_conjugates_match_pconj(self, g):
        # the rows conjugating each generator into its own cyclic group
        et = g.element_table()
        for h in g.generators:
            cyclic = g.subgroup([h])
            want = [i for i in range(len(et))
                    if pg.pconj(h, et.perm(i)) in cyclic]
            assert et.conjugators([h], cyclic.element_table()).tolist() == \
                want

    def test_inverse_table_keeps_the_dtype(self, lattice):
        # PSp4(3)'s keys are int64, and a scan over them agrees with the
        # normaliser of the whole group
        et = lattice.ambient.element_table()
        assert et.sorted_keys.dtype == np.int64
        index = et.conjugators(lattice.ambient.generators[:1], et)
        assert index.tolist() == list(range(len(et)))

    def test_conjugators(self):
        c4 = S4.subgroup([(1, 2, 3, 0)])
        et = S4.element_table()
        index = et.conjugators(c4.generators, c4.element_table())
        brute = [i for i in range(len(et))
                 if pg.pconj(c4.generators[0], et.perm(i)) in c4]
        assert index.tolist() == brute
