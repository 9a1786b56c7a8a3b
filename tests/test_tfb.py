import numpy as np
import pytest

from beta_ntd.errors import ParseError
from beta_ntd.tfb import (
    BarGrid,
    Spectrogram,
    apply_mel,
    build_tfb,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    nnlms,
    read_bars,
    read_spectrogram,
    write_bars,
    write_spectrogram,
)


class TestMelFilterbank:
    def test_default_configuration_shape(self):
        bank = mel_filterbank(80, 80.0, 16000.0, 44100.0, 2048)
        assert bank.weights.shape == (80, 1025)

    def test_rows_nonnegative_unimodal(self):
        bank = mel_filterbank(40, 80.0, 16000.0, 44100.0, 2048)
        for row in bank.weights:
            assert np.all(row >= 0)
            nz = np.flatnonzero(row)
            assert nz.size > 0
            # contiguous support
            assert np.array_equal(nz, np.arange(nz[0], nz[-1] + 1))
            # single rise then fall
            d = np.diff(row[nz[0] : nz[-1] + 1])
            peak = int(np.argmax(row))
            assert np.all(d[: peak - nz[0]] >= 0)
            assert np.all(d[peak - nz[0] :] <= 0)

    def test_centers_monotone_in_hz(self):
        bank = mel_filterbank(30, 100.0, 8000.0, 44100.0, 2048)
        centers = [np.argmax(row) for row in bank.weights]
        assert all(a <= b for a, b in zip(centers, centers[1:]))

    def test_support_inside_band_edges(self):
        bank = mel_filterbank(20, 200.0, 5000.0, 44100.0, 2048)
        freqs = np.arange(1025) * (44100.0 / 2048)
        outside = (freqs < 200.0) | (freqs > 5000.0)
        assert np.all(bank.weights[:, outside] == 0)

    def test_mel_scale_roundtrip(self):
        f = np.array([80.0, 440.0, 16000.0])
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, rtol=1e-12)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            mel_filterbank(10, 5000.0, 100.0, 44100.0, 2048)
        with pytest.raises(ValueError):
            mel_filterbank(10, 80.0, 30000.0, 44100.0, 2048)


class TestApplyMel:
    def test_zero_in_zero_out(self):
        bank = mel_filterbank(10, 80.0, 8000.0, 22050.0, 512)
        spec = Spectrogram(np.zeros((257, 5)), 0.01)
        out = apply_mel(spec, bank)
        assert out.bands == 10
        assert np.all(out.data == 0)

    def test_single_frame_matches_loop(self):
        rng = np.random.default_rng(0)
        bank = mel_filterbank(10, 80.0, 8000.0, 22050.0, 512)
        spec = Spectrogram(rng.random((257, 1)), 0.01)
        out = apply_mel(spec, bank)
        for i in range(10):
            expected = sum(
                bank.weights[i, j] * spec.data[j, 0] for j in range(257)
            )
            assert out.data[i, 0] == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_output(self):
        rng = np.random.default_rng(1)
        bank = mel_filterbank(10, 80.0, 8000.0, 22050.0, 512)
        out = apply_mel(Spectrogram(rng.random((257, 7)), 0.01), bank)
        assert np.all(out.data >= 0)

    def test_band_mismatch(self):
        bank = mel_filterbank(10, 80.0, 8000.0, 22050.0, 512)
        with pytest.raises(ValueError):
            apply_mel(Spectrogram(np.zeros((100, 5)), 0.01), bank)


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

    def test_bars_roundtrip(self, tmp_path):
        bars = BarGrid([0.0, 1.5, 3.25])
        path = tmp_path / "b.txt"
        write_bars(path, bars)
        np.testing.assert_array_equal(read_bars(path).boundaries, bars.boundaries)

    def test_bars_unsorted_names_line(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0.0\n2.0\n1.0\n")
        with pytest.raises(ParseError, match=":3:"):
            read_bars(path)


def test_bargrid_validation():
    with pytest.raises(ValueError):
        BarGrid([1.0])
    with pytest.raises(ValueError):
        BarGrid([0.0, 0.0])
    with pytest.raises(ValueError):
        BarGrid([-1.0, 1.0])


@pytest.mark.parametrize("hop", [float("nan"), float("inf"), 0.0, -1.0])
def test_spectrogram_rejects_bad_hop(hop):
    with pytest.raises(ValueError, match="hop_seconds"):
        Spectrogram(np.ones((2, 3)), hop)
