"""Median quasimorphisms: evaluation, homogenization, independence."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treelocal.errors import SizeLimitExceeded, TreeLocalError
from treelocal.autom import Compose, Diagonal, Inverse, WordTranslation, power
from treelocal import medianqm, ratmat
from treelocal.analysis import RunConfig, validate_inputs
from treelocal.medianqm import (
    MedianQM,
    axis_column,
    cyclic_reduction,
    eval_colors,
    eval_qm,
    find_nonvanishing_qm,
    homogenize,
    homogenize_limit,
    independence_certificate,
    independence_search,
)
from treelocal.medianqm import _axis_words
from treelocal.permgroups import parse_cycles
from treelocal.tree import BASE, Segment, Vertex, reduced_words

from conftest import (
    FIXED_COLOR_PAIRS,
    SlotwiseMatcher,
    equal_on_ball,
    fraction_pivot_positions,
    pairwise_census,
    random_composite,
    random_reduced_word,
    valid_contexts,
)


def word_element(letters, d):
    return WordTranslation(Vertex(letters), d)


def search_words(d: int, search_bound: int) -> list[tuple[int, ...]]:
    """The cyclically reduced words (w[0] != w[-1]) of length
    2..search_bound, in word order."""
    return [w for n in range(2, search_bound + 1)
            for w in reduced_words(d, n) if w[0] != w[-1]]


class TestEval:
    def test_counts_on_dihedral_example(self, ctxd4):
        f = MedianQM(Segment(BASE, (1, 2)), BASE, ctxd4)
        res = eval_qm(f, word_element((1, 2, 1, 2), 4))
        # three length-2 windows, all matchable forward and backward
        assert res.forward_count == 3
        assert res.backward_count == 3
        assert res.value == 0

    def test_unmatchable_window_not_counted(self, ctxd4):
        f = MedianQM(Segment(BASE, (1, 3)), BASE, ctxd4)
        res = eval_qm(f, word_element((1, 2, 1, 2), 4))
        assert res.forward_count == 0
        assert res.backward_count == 0

    def test_antisymmetry(self, ctxd4):
        rng = random.Random(4)
        for _ in range(30):
            s = Segment(BASE, tuple(random_reduced_word(rng, 4,
                                                        rng.randint(1, 4))))
            f = MedianQM(s, BASE, ctxd4)
            g = random_composite(rng, 4, rng.randint(1, 3))
            assert eval_qm(f, Inverse(g)).value == -eval_qm(f, g).value

    def test_identity_evaluates_to_zero(self, ctx3):
        f = MedianQM(Segment(BASE, (1, 2)), BASE, ctx3)
        assert eval_qm(f, WordTranslation(Vertex(), 3)).value == 0


class TestVanishing2Transitive:
    def test_always_zero(self, ctx3):
        rng = random.Random(6)
        for _ in range(100):
            s = Segment(BASE, tuple(random_reduced_word(rng, 3,
                                                        rng.randint(1, 4))))
            f = MedianQM(s, BASE, ctx3)
            g = word_element(tuple(random_reduced_word(rng, 3,
                                                       rng.randint(1, 6))), 3)
            assert eval_qm(f, g).value == 0


class TestHomogenize:
    def test_elliptic_is_zero(self, ctxd4):
        from treelocal.autom import Diagonal
        from treelocal.permgroups import parse_cycles
        f = MedianQM(Segment(BASE, (1, 2)), BASE, ctxd4)
        assert homogenize(f, Diagonal(parse_cycles("(1 3)", 4))) == 0

    def test_matches_word_fast_path(self, ctxd4):
        rng = random.Random(8)
        s = (1, 2, 1, 3, 1)
        f = MedianQM(Segment(BASE, s), BASE, ctxd4)
        for _ in range(10):
            w = tuple(random_reduced_word(rng, 4, rng.randint(2, 7)))
            assert (homogenize(f, word_element(w, 4))
                    == axis_column(ctxd4, w, len(s))[ctxd4.orbital_word(s)])

    def test_homogeneous_on_powers(self, ctxd4):
        f = MedianQM(Segment(BASE, (1, 2, 1, 3, 1)), BASE, ctxd4)
        g = word_element((1, 2, 1, 2, 4, 2, 3), 4)
        h = homogenize(f, g)
        assert h != 0
        for n in range(1, 5):
            assert homogenize(f, power(g, n)) == n * h

    def test_conjugation_invariance(self, ctxd4):
        f = MedianQM(Segment(BASE, (1, 2, 1, 3, 1)), BASE, ctxd4)
        g = word_element((1, 2, 1, 2, 4, 2, 3), 4)
        rng = random.Random(9)
        for _ in range(5):
            a = word_element(tuple(random_reduced_word(rng, 4,
                                                       rng.randint(1, 4))), 4)
            conj = Compose(a, Compose(g, Inverse(a)))
            assert homogenize(f, conj) == homogenize(f, g)

    def test_limit_sequence_agreement(self, ctxd4):
        f = MedianQM(Segment(BASE, (1, 2, 1, 3, 1)), BASE, ctxd4)
        g = word_element((1, 2, 1, 2, 4, 2, 3), 4)
        h = homogenize(f, g)
        limit = homogenize_limit(f, g, 8)
        assert limit[5:] == [Fraction(h)] * 3

    def test_limit_over_cap_refused_before_any_term(self, ctxd4, monkeypatch):
        f = MedianQM(Segment(BASE, (1, 2, 1, 3, 1)), BASE, ctxd4)
        g = word_element((1, 2, 1, 2, 4, 2, 3), 4)
        monkeypatch.setattr(medianqm, "HOMOGENIZE_LIMIT_CAP", 8)
        assert len(homogenize_limit(f, g, 8)) == 8
        monkeypatch.setattr(medianqm, "eval_qm", None)
        with pytest.raises(SizeLimitExceeded, match="HOMOGENIZE_LIMIT_CAP 8"):
            homogenize_limit(f, g, 9)

    def test_cyclic_reduction(self):
        assert cyclic_reduction((1, 2, 3, 2, 1)) == (3,)
        assert cyclic_reduction((1, 2)) == (1, 2)


class TestSearches:
    def test_nonvanishing_witness_found(self, ctxd4):
        found = find_nonvanishing_qm(ctxd4, 5, 8)
        assert found is not None
        f, g, value = found
        assert value != 0
        assert homogenize(f, g) == value
        # exact tail agreement, the property the search filters for
        limit = homogenize_limit(f, g, 8)
        assert all(limit[n - 1] == Fraction(value) for n in (6, 7, 8))

    def test_search_exhausts_within_spec_scale_bounds(self, ctxd4):
        # length <= 4 patterns are reversal-balanced on every axis, so the
        # small-scale search must come back empty rather than fabricate
        assert find_nonvanishing_qm(ctxd4, 4, 6) is None

    def test_search_empty_for_2transitive(self, ctx3):
        assert find_nonvanishing_qm(ctx3, 3, 5) is None


class TestIndependence:
    SEGMENTS = ((1, 2, 1, 3, 1), (1, 2, 1, 3, 1, 3), (1, 2, 4, 1, 2, 4))
    WORDS = ((1, 2, 1, 2, 4, 1, 3), (1, 2, 1, 2, 4, 2, 4, 3),
             (1, 2, 1, 3, 1, 2, 4, 3))

    def test_known_certificate_rank3(self, ctxd4):
        qms = [MedianQM(Segment(BASE, s), BASE, ctxd4) for s in self.SEGMENTS]
        els = [word_element(w, 4) for w in self.WORDS]
        cert = independence_certificate(qms, els)
        assert cert.rank == 3

    def test_rank_bounded_by_size(self, ctxd4):
        qms = [MedianQM(Segment(BASE, s), BASE, ctxd4)
               for s in self.SEGMENTS[:2]]
        els = [word_element(w, 4) for w in self.WORDS]
        cert = independence_certificate(qms, els)
        assert cert.rank <= 2

    @pytest.mark.parametrize("target", [0, -1])
    def test_target_below_one_refused(self, ctxd4, target):
        with pytest.raises(TreeLocalError, match="at least 1"):
            independence_search(ctxd4, target, 0, 8)

    def test_length5_segments_cap_at_rank1(self, ctxd4):
        # reversal-count functionals of length-5 segments are all
        # proportional, so no element choice can push past rank 1
        assert independence_search(ctxd4, 2, 5, 8) is None

    # the lemma of IndependenceCertificate: its columns lie in the group W
    # of word translations, generated by involutions, so Hom(G, R) vanishes
    # on them
    def test_search_columns_are_word_translations(self, ctxd4):
        cert = independence_search(ctxd4, 3, 6, 8)
        assert cert.rank == 3
        assert all(type(g) is WordTranslation for g in cert.elements)

    @pytest.mark.parametrize("d", [3, 4])
    def test_one_letter_translations_are_involutions(self, d):
        identity = WordTranslation(BASE, d)
        for k in range(1, d + 1):
            s = WordTranslation(Vertex((k,)), d)
            assert equal_on_ball(Compose(s, s), identity, 4)

    def test_column_outside_word_translations_refused(self, ctxd4):
        qms = [MedianQM(Segment(BASE, s), BASE, ctxd4) for s in self.SEGMENTS]
        els = [word_element(w, 4) for w in self.WORDS]
        els[1] = Compose(els[1], Diagonal(parse_cycles("(1 3)", 4)))
        with pytest.raises(TreeLocalError, match="not a word translation"):
            independence_certificate(qms, els)


class TestWordEnumeration:
    def test_reduced_word_counts(self):
        assert len(list(reduced_words(3, 0))) == 1
        assert len(list(reduced_words(3, 1))) == 3
        assert len(list(reduced_words(3, 4))) == 3 * 2 ** 3

    def test_eval_colors_signed(self, ctxd4):
        assert eval_colors(ctxd4, (1, 2, 1, 2), (1, 2)) == 0

    def test_search_words_closed_form_count(self):
        # words of length n with w_1 != w_n: (d-1)^n + (-1)^n (d-1)
        for d in (3, 4, 5):
            for n in range(2, 7):
                assert len(search_words(d, n)) - len(search_words(d, n - 1)) \
                    == (d - 1) ** n + (-1) ** n * (d - 1)
        assert len(search_words(4, 8)) == 9840

    def test_search_words_capped_before_enumeration(self, ctxd4):
        # the searches refuse a bound whose axis words pass the cap
        with pytest.raises(SizeLimitExceeded):
            find_nonvanishing_qm(ctxd4, 2, 13)
        with pytest.raises(SizeLimitExceeded):
            independence_search(ctxd4, 3, 2, 13)


class TestAxisWords:
    def test_first_word_per_axis(self):
        # the oracle: dedupe the listed words by axis, keeping the first
        for d in (3, 4):
            words = {b: search_words(d, b) for b in range(2, 9)}
            for ctx in valid_contexts(d):
                for b, ws in words.items():
                    first = {}
                    for w in ws:
                        first.setdefault(ctx.orbital_word(w + w[:1]), w)
                    assert _axis_words(ctx, b) == list(first.values())

    def test_cap_counts_prefixes_and_colors(self, ctxd4):
        # the dihedral pair keeps 32,712 prefixes up to length 12 and
        # returns 4,089 words of 45,021 colors; length 13 passes the cap
        assert len(_axis_words(ctxd4, 12)) == 4089
        for bound in (13, 10 ** 9):
            with pytest.raises(SizeLimitExceeded, match="ENUMERATION_CAP"):
                _axis_words(ctxd4, bound)

    def test_cap_bounds_linear_levels(self, ctx3):
        # F' 2-transitive: every level keeps at most d^2 prefixes, so it is
        # the colors of the words returned, one per length, that reach the
        # cap (first at bound 438)
        with pytest.raises(SizeLimitExceeded, match="ENUMERATION_CAP"):
            _axis_words(ctx3, 10 ** 9)


# The window counts and searches as first written, on the slotwise oracle
# matcher: the orbital-word versions must agree with them exactly.

def naive_count(match, word, pattern, start, stop) -> int:
    """Window starts in [start, stop) matching the pattern, minus those
    whose reversed window matches it."""
    n = len(pattern)
    starts = [i for i in range(start, stop) if i + n <= len(word)]
    return (sum(1 for i in starts if match(tuple(word[i:i + n]), pattern))
            - sum(1 for i in starts if match(tuple(reversed(word[i:i + n])), pattern)))


def naive_homogenize_word(match, pattern, w) -> int:
    t = cyclic_reduction(w)
    ell = len(t)
    if ell <= 1:
        return 0
    reps = 3 + (len(pattern) + ell - 1) // ell
    return naive_count(match, t * reps, pattern, ell, 2 * ell)


def naive_find_nonvanishing(match, max_seg, search_bound):
    ctx = match.ctx
    for seg_len in range(1, max_seg + 1):
        for rep in pairwise_census(match, seg_len):
            for w in search_words(ctx.d, search_bound):
                h = naive_homogenize_word(match, rep, w)
                if h != 0 and all(naive_count(match, w * n, rep, 0, len(w) * n) == n * h
                                  for n in (6, 7, 8)):
                    return rep, w, h
    return None


def naive_independence_search(match, target_rank, max_seg, search_bound):
    ctx = match.ctx
    chosen_reps, chosen_words, matrix = [], [], []
    for seg_len in range(1, max_seg + 1):
        for rep in pairwise_census(match, seg_len):
            for w in search_words(ctx.d, search_bound):
                if naive_homogenize_word(match, rep, w) == 0:
                    continue
                cand = [row + [naive_homogenize_word(match, g, w)]
                        for row, g in zip(matrix, chosen_reps)]
                cand.append([naive_homogenize_word(match, rep, wj) for wj in chosen_words]
                            + [naive_homogenize_word(match, rep, w)])
                if len(fraction_pivot_positions(cand)) == len(chosen_reps) + 1:
                    chosen_reps.append(rep)
                    chosen_words.append(w)
                    matrix = cand
                    break
            if len(chosen_reps) >= target_rank:
                return chosen_reps, chosen_words
    return None


class TestAgainstSlotwiseOracle:
    def test_eval_colors_and_homogenize_word(self):
        rng = random.Random(12)
        for ctx in valid_contexts(3) + valid_contexts(4):
            match = SlotwiseMatcher(ctx)
            for _ in range(40):
                pattern = tuple(random_reduced_word(rng, ctx.d, rng.randint(1, 4)))
                word = tuple(random_reduced_word(rng, ctx.d, rng.randint(0, 12)))
                assert (eval_colors(ctx, word, pattern)
                        == naive_count(match, word, pattern, 0, len(word)))
                assert (axis_column(ctx, word, len(pattern))[ctx.orbital_word(pattern)]
                        == naive_homogenize_word(match, pattern, word))

    @pytest.mark.parametrize("pair, max_seg, search_bound", [
        pytest.param("ctxd4", 3, 6, id="3-6"),
        pytest.param("ctxd4", 5, 7, id="5-7"),
        pytest.param("ctxi4", 5, 7, id="intransitive-5-7")])
    def test_find_nonvanishing_qm(self, request, pair, max_seg, search_bound):
        ctx = request.getfixturevalue(pair)
        expected = naive_find_nonvanishing(SlotwiseMatcher(ctx), max_seg, search_bound)
        assert pair == "ctxd4" or expected is not None
        found = find_nonvanishing_qm(ctx, max_seg, search_bound)
        if expected is None:
            assert found is None
        else:
            f, g, value = found
            rep, w, h = expected
            assert (f.s.colors, g.describe(), value) == (
                rep, word_element(w, 4).describe(), h)

    @pytest.mark.parametrize("pair, target, max_seg, search_bound", [
        pytest.param("ctxd4", 2, 3, 6, id="2-3-6"),
        pytest.param("ctxd4", 1, 5, 7, id="1-5-7"),
        pytest.param("ctxi4", 1, 5, 7, id="intransitive-1-5-7")])
    def test_independence_search(self, request, pair, target, max_seg, search_bound):
        ctx = request.getfixturevalue(pair)
        expected = naive_independence_search(SlotwiseMatcher(ctx), target, max_seg,
                                             search_bound)
        assert pair == "ctxd4" or expected is not None
        cert = independence_search(ctx, target, max_seg, search_bound)
        if expected is None:
            assert cert is None
        else:
            reps, words = expected
            assert [q.s.colors for q in cert.qms] == reps
            assert [g.describe() for g in cert.elements] == [
                word_element(w, 4).describe() for w in words]

    @pytest.mark.parametrize("target, max_seg, search_bound",
                             [(2, 3, 6), (1, 5, 7), (3, 6, 8), (2, 5, 8)])
    def test_independence_search_ranks_once(self, ctxd4, monkeypatch,
                                            target, max_seg, search_bound):
        # the candidates are tested by their Schur complements; only the
        # final certificate takes a rank
        calls = 0
        pivot_positions = ratmat.pivot_positions

        def counting(rows):
            nonlocal calls
            calls += 1
            return pivot_positions(rows)

        monkeypatch.setattr(ratmat, "pivot_positions", counting)
        cert = independence_search(ctxd4, target, max_seg, search_bound)
        assert calls == (0 if cert is None else 1)


class TestOneWordPerAxis:
    @pytest.mark.parametrize("search, args", [
        pytest.param(find_nonvanishing_qm, (5, 7), id="nonvanishing-5-7"),
        pytest.param(independence_search, (2, 3, 6), id="independence-2-3-6"),
        pytest.param(independence_search, (3, 6, 8), id="independence-3-6-8"),
        pytest.param(independence_search, (2, 5, 8), id="independence-2-5-8"),
    ])
    def test_each_column_computed_once(self, ctxd4, monkeypatch, search, args):
        # every (word, length) column is computed once per search, and
        # only for the first word of its axis
        computed = []
        axis_column = medianqm.axis_column

        def recording(ctx, w, n):
            computed.append((tuple(w), n))
            return axis_column(ctx, w, n)

        monkeypatch.setattr(medianqm, "axis_column", recording)
        search(ctxd4, *args)
        assert computed and len(set(computed)) == len(computed)
        words = {w for w, _ in computed}
        axes = {ctxd4.orbital_word(w + w[:1]) for w in words}
        assert len(axes) == len(words)
        first = {}
        for w in search_words(4, args[-1]):
            first.setdefault(ctxd4.orbital_word(w + w[:1]), w)
        assert words <= set(first.values())


# The window counts as first written: tally every window with Counters
# and read one key; the searches as first written: scan every axis word
# lazily for every representative, on columns taken from those tallies.

CONTEXTS = valid_contexts(3) + valid_contexts(4)
NON_2T = [ctx for ctx in CONTEXTS if not ctx.two_transitive]
DEFAULT = RunConfig()


def counter_signed_count(ctx, word, pattern, start, stop):
    ahead, back = medianqm._window_counts(ctx, word, len(pattern), start, stop)
    key = ctx.orbital_word(pattern)
    return ahead[key], back[key]


def counter_column(ctx, w, n) -> Counter:
    t = cyclic_reduction(w)
    ell = len(t)
    if ell <= 1:
        return Counter()
    ahead, back = medianqm._window_counts(ctx, t * (2 + n // ell), n, 0, ell)
    ahead.subtract(back)
    return ahead


class LazyColumns:
    """The columns of the axis words, built on first read and recorded."""

    def __init__(self, ctx, bound):
        self.ctx = ctx
        self.words = _axis_words(ctx, bound)
        self.columns = {}

    def __call__(self, i, n):
        if (i, n) not in self.columns:
            self.columns[i, n] = counter_column(self.ctx, self.words[i], n)
        return self.columns[i, n]


def lazy_find_nonvanishing(ctx, max_seg, bound):
    column = LazyColumns(ctx, bound)
    for seg_len in range(1, max_seg + 1):
        for rep in medianqm.segment_orbit_census(ctx, seg_len):
            key = ctx.orbital_word(rep)
            for i, w in enumerate(column.words):
                h = column(i, seg_len)[key]
                if h != 0 and all(eval_colors(ctx, w * n, rep) == n * h
                                  for n in (6, 7, 8)):
                    return (rep, w, h), column
    return None, column


def lazy_independence_search(ctx, target, max_seg, bound):
    column = LazyColumns(ctx, bound)
    reps, keys, chosen = [], [], []
    det, adj = 1, []
    for seg_len in range(1, max_seg + 1):
        for rep in medianqm.segment_orbit_census(ctx, seg_len):
            key = ctx.orbital_word(rep)
            u = [column(j, seg_len)[key] for j in chosen]
            for i in range(len(column.words)):
                h = column(i, seg_len)[key]
                if h:
                    c = [column(i, n)[k] for n, k in keys]
                    new_det, new_adj = ratmat.border(det, adj, u, c, h)
                    if new_adj is not None:
                        reps.append(rep)
                        keys.append((seg_len, key))
                        chosen.append(i)
                        det, adj = new_det, new_adj
                        break
            if len(reps) >= target:
                return (reps, [column.words[j] for j in chosen]), column
    return None, column


def recorded_columns(monkeypatch):
    """The (word, length) of every column that axis_column builds."""
    built = []
    axis_column = medianqm.axis_column

    def recording(ctx, w, n):
        built.append((tuple(w), n))
        return axis_column(ctx, w, n)

    monkeypatch.setattr(medianqm, "axis_column", recording)
    return built


def rotation_class(ctx, w) -> tuple[int, ...]:
    """The least rotation of the cyclic orbital word of w."""
    labels = ctx.orbital_word(w + w[:1])
    return min(labels[j:] + labels[:j] for j in range(len(labels)))


def assert_one_column_per_class(ctx, built, lazy):
    """The search built one column per (rotation class, length) that the
    lazy per-word scan read, and no other: its index is built from
    columns that the scan built."""
    read = {(rotation_class(ctx, lazy.words[i]), n) for i, n in lazy.columns}
    assert len(built) == len(read)
    assert {(rotation_class(ctx, w), n) for w, n in built} == read


class TestOnePatternCounts:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_signed_count_against_window_counters(self, data):
        ctx = data.draw(st.sampled_from(CONTEXTS))
        colors = st.integers(1, ctx.d)
        word = data.draw(st.lists(colors, max_size=14))
        pattern = data.draw(st.lists(colors, min_size=1, max_size=5))
        start = data.draw(st.integers(0, 15))
        stop = data.draw(st.integers(0, 16))
        assert (medianqm._signed_count(ctx, word, pattern, start, stop)
                == counter_signed_count(ctx, word, pattern, start, stop))

    def test_one_color_columns_are_zero(self):
        for ctx in CONTEXTS:
            for w in _axis_words(ctx, 6):
                assert not any(counter_column(ctx, w, 1).values())
                assert medianqm.axis_column(ctx, w, 1) == Counter()

    @pytest.mark.parametrize("max_seg, bound", [
        pytest.param(3, 6, id="3-6"),
        pytest.param(DEFAULT.qm_max_seg, DEFAULT.qm_search_bound, id="default")])
    def test_find_nonvanishing_qm_as_lazy_scan(self, monkeypatch, max_seg, bound):
        for ctx in NON_2T:
            expected, lazy = lazy_find_nonvanishing(ctx, max_seg, bound)
            built = recorded_columns(monkeypatch)
            found = find_nonvanishing_qm(ctx, max_seg, bound)
            monkeypatch.undo()
            if expected is None:
                assert found is None
            else:
                f, g, value = found
                rep, w, h = expected
                assert (f.s.colors, g.describe(), value) == (
                    rep, word_element(w, ctx.d).describe(), h)
            assert_one_column_per_class(ctx, built, lazy)

    @pytest.mark.parametrize("target, max_seg, bound", [
        pytest.param(2, 3, 6, id="2-3-6"),
        pytest.param(DEFAULT.rank_target, DEFAULT.qm_rank_max_seg,
                     DEFAULT.qm_search_bound, id="default")])
    def test_independence_search_as_lazy_scan(self, monkeypatch, target,
                                              max_seg, bound):
        for ctx in NON_2T:
            expected, lazy = lazy_independence_search(ctx, target, max_seg, bound)
            built = recorded_columns(monkeypatch)
            cert = independence_search(ctx, target, max_seg, bound)
            monkeypatch.undo()
            if expected is None:
                assert cert is None
            else:
                reps, words = expected
                assert [q.s.colors for q in cert.qms] == reps
                assert [g.describe() for g in cert.elements] == [
                    word_element(w, ctx.d).describe() for w in words]
                assert cert == independence_certificate(cert.qms,
                                                        cert.elements)
            assert_one_column_per_class(ctx, built, lazy)


class TestColumnsPerRotationClass:
    """_AxisColumns keeps one column per (rotation class, length): the
    words of a class share it, and the searches find what they found
    with one column per word."""

    def test_shared_column_is_the_word_column(self):
        for ctx in CONTEXTS:
            column = medianqm._AxisColumns(ctx, 8)
            for n in range(1, 7):
                for i, w in enumerate(column.words):
                    assert column(i, n) == axis_column(ctx, w, n)
                    assert column.rotation_class(i) == rotation_class(ctx, w)

    @pytest.mark.parametrize("d, F, Fp", [
        pytest.param(4, ["(1 2 3 4)"], ["(1 2 3 4)", "(1 3)"], id="dihedral"),
        *FIXED_COLOR_PAIRS])
    def test_searches_match_per_word_columns(self, monkeypatch, d, F, Fp):
        # the oracle keys every word's columns on the word itself
        _, ctx = validate_inputs(d, F, Fp)
        max_seg, bound, rank_max_seg = 6, 11, 8
        built = recorded_columns(monkeypatch)
        found = find_nonvanishing_qm(ctx, max_seg, bound)
        searched = len(built)
        cert = independence_search(ctx, DEFAULT.rank_target, rank_max_seg, bound)
        shared = len(built)
        # each search calls axis_column once per (class, length)
        for calls in (built[:searched], built[searched:]):
            assert len(calls) == len({(rotation_class(ctx, w), n)
                                      for w, n in calls})
        monkeypatch.setattr(medianqm._AxisColumns, "rotation_class",
                            lambda self, i: (i,))
        per_word = find_nonvanishing_qm(ctx, max_seg, bound)
        per_word_cert = independence_search(ctx, DEFAULT.rank_target,
                                            rank_max_seg, bound)
        assert found is not None and cert is not None
        f, g, h = found
        assert (f.s.colors, g.describe(), h) == (
            per_word[0].s.colors, per_word[1].describe(), per_word[2])
        assert cert.to_dict() == per_word_cert.to_dict()
        assert shared < len(built) - shared
