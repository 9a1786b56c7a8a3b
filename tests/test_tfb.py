import numpy as np
import pytest

from beta_ntd.errors import ParseError
from beta_ntd.tfb import (
    BarGrid,
    Spectrogram,
    build_tfb,
    nnlms,
    read_bars,
    read_spectrogram,
    write_bars,
    write_spectrogram,
)

from oracles import loop_build_tfb


class TestNnlms:
    def test_analytic_points(self):
        spec = Spectrogram(np.array([[0.0, np.e - 1.0]]), 0.01)
        out = nnlms(spec)
        np.testing.assert_allclose(out.data, [[0.0, 1.0]], atol=1e-15)

    def test_preserves_ordering(self):
        rng = np.random.default_rng(2)
        a = rng.random((4, 6))
        b = rng.random((4, 6))
        fa = nnlms(Spectrogram(a, 0.01)).data
        fb = nnlms(Spectrogram(b, 0.01)).data
        assert np.array_equal(a <= b, fa <= fb)


class TestBuildTfb:
    def test_constant_spectrogram(self):
        spec = Spectrogram(np.full((3, 100), 2.5), 0.1)
        bars = BarGrid([0.0, 2.0, 4.0, 6.0])
        t = build_tfb(spec, bars, frames_per_bar=8)
        assert t.shape == (3, 8, 3)
        assert np.all(t == 2.5)

    def test_hop_aligned_bar_reproduces_frames(self):
        # frame f holds value f; one bar over exactly frames 0..95
        hop = 0.01
        spec = Spectrogram(np.arange(96.0)[None, :], hop)
        bars = BarGrid([0.0, 96 * hop])
        t = build_tfb(spec, bars, frames_per_bar=96)
        np.testing.assert_array_equal(t[0, :, 0], np.arange(96.0))

    def test_identical_bars_give_identical_slices(self):
        rng = np.random.default_rng(3)
        pattern = rng.random((4, 10))
        spec = Spectrogram(np.concatenate([pattern, pattern], axis=1), 0.05)
        bars = BarGrid([0.0, 0.5, 1.0])
        t = build_tfb(spec, bars, frames_per_bar=6)
        np.testing.assert_array_equal(t[:, :, 0], t[:, :, 1])

    def test_entries_are_subset_of_spectrogram(self):
        rng = np.random.default_rng(4)
        spec = Spectrogram(rng.random((3, 50)), 0.1)
        bars = BarGrid([0.3, 1.7, 3.1, 4.9])
        t = build_tfb(spec, bars, frames_per_bar=7)
        values = set(np.round(spec.data.reshape(-1), 12))
        assert set(np.round(t.reshape(-1), 12)) <= values

    def test_commutes_with_nnlms(self):
        rng = np.random.default_rng(5)
        spec = Spectrogram(rng.random((3, 50)), 0.1)
        bars = BarGrid([0.0, 2.0, 4.0])
        a = build_tfb(nnlms(spec), bars, 8)
        b = np.log1p(build_tfb(spec, bars, 8))
        np.testing.assert_allclose(a, b, rtol=1e-15)

    def test_bar_outside_span(self):
        spec = Spectrogram(np.ones((2, 10)), 0.1)
        with pytest.raises(ValueError, match="bar 1"):
            build_tfb(spec, BarGrid([0.0, 0.5, 50.0]), 4)

    def test_first_failing_bar_is_named(self):
        spec = Spectrogram(np.ones((2, 10)), 0.1)  # spans [0, 1.0]
        # bar 1 is shorter than a hop, bar 3 lies outside
        with pytest.raises(ValueError, match=r"^bar 1 spans less than one hop$"):
            build_tfb(spec, BarGrid([0.0, 0.3, 0.35, 0.6, 5.0]), 4)
        # bar 2 is both: lying outside wins
        with pytest.raises(ValueError, match=r"^bar 2 \[1\.0, 1\.05\] lies outside the "
                                             r"spectrogram span \[0, 1\.0\]$"):
            build_tfb(spec, BarGrid([0.0, 0.5, 1.0, 1.05]), 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_bar_loop(self, seed):
        rng = np.random.default_rng(seed)
        hop = float(rng.choice([0.01, 0.023, 1 / 3]))
        spec = Spectrogram(rng.random((3, 400)), hop)
        bars = BarGrid(np.cumsum(rng.uniform(hop, 40 * hop, 9)))
        fpb = int(rng.integers(1, 20))
        t = build_tfb(spec, bars, fpb)
        assert t.flags.c_contiguous
        np.testing.assert_array_equal(t, loop_build_tfb(spec.data, bars.boundaries, hop, fpb))

    def test_frames_per_bar_must_be_whole(self):
        spec = Spectrogram(np.arange(20.0).reshape(2, 10), 0.1)
        bars = BarGrid([0.0, 0.5, 1.0])
        for bad in (2.5, np.nan, np.inf, 0):
            with pytest.raises(ValueError, match="frames_per_bar must be an integer >= 1"):
                build_tfb(spec, bars, bad)
        for whole in (4.0, np.int64(4)):
            np.testing.assert_array_equal(build_tfb(spec, bars, whole), build_tfb(spec, bars, 4))

    def test_dims_for_valid_inputs(self):
        rng = np.random.default_rng(6)
        spec = Spectrogram(rng.random((5, 200)), 0.02)
        bars = BarGrid([0.1, 1.1, 2.3, 3.0, 3.9])
        t = build_tfb(spec, bars, frames_per_bar=12)
        assert t.shape == (5, 12, 4)


class TestFiles:
    def test_spectrogram_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        spec = Spectrogram(rng.random((4, 9)), 0.0125)
        path = tmp_path / "s.txt"
        write_spectrogram(path, spec)
        back = read_spectrogram(path)
        np.testing.assert_array_equal(back.data, spec.data)
        assert back.hop_seconds == spec.hop_seconds

    def test_spectrogram_bad_header(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("ntd-spec v2 1 1 0.1\n0.0\n")
        with pytest.raises(ParseError):
            read_spectrogram(path)

    def test_spectrogram_rejects_negative(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("ntd-spec v1 1 2 0.1\n1.0 -1.0\n")
        with pytest.raises(ParseError):
            read_spectrogram(path)

    @pytest.mark.parametrize("hop", ["nan", "inf", "-inf", "0", "-0.1"])
    def test_spectrogram_rejects_bad_hop(self, tmp_path, hop):
        path = tmp_path / "s.txt"
        path.write_text(f"ntd-spec v1 2 6 {hop}\n" + "1 2 3 4 5 6\n" * 2)
        with pytest.raises(ParseError, match=r"s\.txt:1: hop_seconds"):
            read_spectrogram(path)

    def test_spectrogram_malformed_hop_names_header(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("ntd-spec v1 1 2 abc\n1 2\n")
        with pytest.raises(ParseError, match=r"s\.txt:1: malformed header fields$"):
            read_spectrogram(path)

    def test_bars_roundtrip(self, tmp_path):
        bars = BarGrid([0.0, 1.5, 3.25])
        path = tmp_path / "b.txt"
        write_bars(path, bars)
        np.testing.assert_array_equal(read_bars(path).boundaries, bars.boundaries)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_bars_non_finite_names_line(self, tmp_path, bad):
        path = tmp_path / "b.txt"
        path.write_text(f"0.0\n2.0\n{bad}\n4.0\n")
        with pytest.raises(ParseError, match=f"b.txt:3: non-finite time '{bad}'"):
            read_bars(path)

    @pytest.mark.parametrize("bad", ["1_5", "\u0661\u0662"])
    def test_bars_number_the_array_reader_rejects_names_line(self, tmp_path, bad):
        path = tmp_path / "b.txt"
        path.write_text(f"0.0\n2.0\n{bad}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"b.txt:3: not a number: '{bad}'"):
            read_bars(path)

    def test_bars_unsorted_names_line(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0.0\n2.0\n1.0\n")
        with pytest.raises(ParseError, match=":3:"):
            read_bars(path)

    def test_bars_blank_lines_are_skipped_but_counted(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0\n\n  \n2\n1\n")
        with pytest.raises(ParseError, match=r"b\.txt:5: boundary 1\.0 not strictly increasing$"):
            read_bars(path)

    @pytest.mark.parametrize("body", ["0\n", ""], ids=["one-time", "empty"])
    def test_bars_need_two_times(self, tmp_path, body):
        path = tmp_path / "b.txt"
        path.write_text(body)
        with pytest.raises(ParseError, match=r"b\.txt: need at least 2 boundary times$"):
            read_bars(path)


def test_bargrid_validation():
    with pytest.raises(ValueError):
        BarGrid([1.0])
    with pytest.raises(ValueError):
        BarGrid([0.0, 0.0])
    with pytest.raises(ValueError):
        BarGrid([-1.0, 1.0])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="times must be finite"):
            BarGrid([0.0, bad, 2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
def test_spectrogram_rejects_non_finite_or_negative_data(bad):
    with pytest.raises(ValueError, match="data must be finite and nonnegative"):
        Spectrogram([[0.5, 1.0], [bad, 2.0]], 0.1)
    spec = Spectrogram([[0.5, 1.0], [0.0, 2.0]], 0.1)
    spec.data[1, 0] = bad  # nnlms' output checks the log again
    with pytest.raises(ValueError, match="data must be finite and nonnegative"):
        with np.errstate(invalid="ignore", divide="ignore"):
            nnlms(spec)


def test_spectrogram_rejects_data_that_is_not_a_matrix():
    with pytest.raises(ValueError, match=r"^spectrogram data must be 2D, got ndim=3$"):
        Spectrogram(np.ones((2, 3, 4)), 0.1)


@pytest.mark.parametrize("hop", [float("nan"), float("inf"), 0.0, -1.0])
def test_spectrogram_rejects_bad_hop(hop):
    with pytest.raises(ValueError, match="hop_seconds"):
        Spectrogram(np.ones((2, 3)), hop)
