"""Tests for SAX, motif discovery and SPRING matching."""

import numpy as np
import pytest

from repro.common.exceptions import ParameterError
from repro.common.rng import make_np_rng
from repro.temporal import (
    MotifDetector,
    SpringMatcher,
    dtw_distance,
    gaussian_breakpoints,
    paa,
    sax_distance,
    sax_word,
    znormalise,
)


class TestSAX:
    def test_breakpoints_equiprobable(self):
        bp = gaussian_breakpoints(4)
        assert len(bp) == 3
        assert bp[0] == pytest.approx(-0.6745, abs=1e-3)
        assert bp[1] == pytest.approx(0.0, abs=1e-9)

    def test_breakpoints_are_scipy_norm_ppf_exactly(self):
        # SAX words depend on these bits; statistics.NormalDist differs by
        # up to 9e-16, so it is no substitute.
        from scipy import stats

        for size in range(2, 27):
            expected = stats.norm.ppf(np.linspace(0, 1, size + 1)[1:-1])
            assert gaussian_breakpoints(size).tobytes() == expected.tobytes()

    def test_breakpoints_bounds(self):
        with pytest.raises(ParameterError):
            gaussian_breakpoints(1)

    def test_paa_means(self):
        out = paa([1.0, 1.0, 5.0, 5.0], 2)
        np.testing.assert_allclose(out, [1.0, 5.0])

    def test_paa_validation(self):
        with pytest.raises(ParameterError):
            paa([], 2)
        with pytest.raises(ParameterError):
            paa([1.0], 2)

    def test_znormalise_constant(self):
        np.testing.assert_array_equal(znormalise([3.0, 3.0]), [0.0, 0.0])

    def test_word_shape_invariance(self):
        """SAX is invariant to offset and scale (z-normalised)."""
        base = np.sin(np.linspace(0, 2 * np.pi, 64))
        assert sax_word(base) == sax_word(base * 100 + 7)

    def test_distinct_shapes_distinct_words(self):
        up = np.linspace(0, 1, 32)
        down = np.linspace(1, 0, 32)
        assert sax_word(up) != sax_word(down)

    def test_mindist_zero_for_same_word(self):
        assert sax_distance("abba", "abba", window_len=32) == 0.0

    def test_mindist_positive_for_far_words(self):
        assert sax_distance("aaaa", "dddd", window_len=32) > 0.0

    def test_mindist_length_check(self):
        with pytest.raises(ParameterError):
            sax_distance("ab", "abc", window_len=8)


class TestMotifDetector:
    def test_finds_embedded_motif(self):
        rng = make_np_rng(81)
        motif = np.sin(np.linspace(0, 4 * np.pi, 32)) * 3
        stream = []
        for rep in range(30):
            stream.extend(rng.normal(0, 0.2, size=48))  # noise gap (stride-aligned)
            stream.extend(motif + rng.normal(0, 0.05, size=32))
        det = MotifDetector(window=32, segments=8, alphabet_size=4, stride=4)
        det.update_many(stream)
        motif_word = sax_word(motif, 8, 4)
        top_words = [w for w, __ in det.motifs(5)]
        assert motif_word in top_words

    def test_validation(self):
        with pytest.raises(ParameterError):
            MotifDetector(window=0)
        with pytest.raises(ParameterError):
            MotifDetector(window=4, segments=8)

    def test_merge(self):
        a = MotifDetector(window=8, segments=4, stride=8)
        b = MotifDetector(window=8, segments=4, stride=8)
        pattern = [0, 1, 2, 3, 3, 2, 1, 0] * 4
        a.update_many(pattern)
        b.update_many(pattern)
        a.merge(b)
        assert a.count == len(pattern) * 2


class TestDTW:
    def test_identity_zero(self):
        assert dtw_distance([1, 2, 3], [1, 2, 3]) == 0.0

    def test_warping_beats_euclidean(self):
        a = [0, 0, 1, 2, 1, 0, 0]
        b = [0, 1, 2, 1, 0, 0, 0]  # same shape, shifted
        euclid = sum((x - y) ** 2 for x, y in zip(a, b))
        assert dtw_distance(a, b) < euclid

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            dtw_distance([], [1.0])


class TestSpring:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SpringMatcher([], 1.0)
        with pytest.raises(ParameterError):
            SpringMatcher([1.0], 0.0)

    def test_finds_exact_occurrences(self):
        query = [1.0, 3.0, 2.0]
        stream = [0.0] * 10 + query + [0.0] * 10 + query + [0.0] * 10
        matcher = SpringMatcher(query, threshold=0.5)
        matches = [m for x in stream if (m := matcher.update(x))]
        tail = matcher.flush()
        if tail:
            matches.append(tail)
        assert len(matches) == 2
        for m in matches:
            assert m.distance == pytest.approx(0.0)
            assert m.end - m.start == len(query) - 1

    def test_finds_warped_occurrence(self):
        query = [0.0, 1.0, 2.0, 1.0, 0.0]
        warped = [0.0, 1.0, 1.0, 2.0, 2.0, 1.0, 0.0]  # stretched
        stream = [5.0] * 8 + warped + [5.0] * 8
        matcher = SpringMatcher(query, threshold=0.5)
        matches = [m for x in stream if (m := matcher.update(x))]
        tail = matcher.flush()
        if tail:
            matches.append(tail)
        assert len(matches) == 1
        assert matches[0].distance <= 0.5

    def test_no_match_below_threshold(self):
        matcher = SpringMatcher([10.0, 20.0, 10.0], threshold=1.0)
        for x in np.zeros(50):
            assert matcher.update(x) is None
        assert matcher.flush() is None

    def test_match_positions_correct(self):
        query = [7.0, 8.0, 9.0]
        stream = [0.0] * 5 + query + [0.0] * 5
        matcher = SpringMatcher(query, threshold=0.1)
        matches = [m for x in stream if (m := matcher.update(x))]
        tail = matcher.flush()
        if tail:
            matches.append(tail)
        (m,) = matches
        assert (m.start, m.end) == (6, 8)  # 1-based positions 6..8
