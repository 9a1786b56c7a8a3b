"""Each output check of the benchmark passes on a correct output and
fails on a corrupted one."""

import numpy as np
import pytest

from beta_ntd.cli import main
from beta_ntd.tfb import BarGrid, Spectrogram, build_tfb, nnlms

import checks
import gen


def test_beta_divergence_matches_hand_values():
    x, y = np.array([2.0, 1.0]), np.array([1.0, 2.0])
    ln2 = np.log(2.0)
    assert checks.beta_divergence(x, y, 0) == pytest.approx((1 - ln2) + (ln2 - 0.5), rel=1e-15)
    assert checks.beta_divergence(x, y, 1) == pytest.approx((2 * ln2 - 1) + (1 - ln2), rel=1e-15)
    assert checks.beta_divergence(x, y, 2) == pytest.approx(0.5 + 0.5, rel=1e-15)
    for beta in (0, 1, 2):
        assert checks.beta_divergence(x, x, beta) == 0.0


def test_loss_check_fails_on_perturbed_factor_file(tmp_path):
    x = gen.tiny_tensor([0], (6, 5, 4), (2, 2, 2))
    gen.write_tensor(tmp_path / "x.txt", x)
    out = tmp_path / "out"
    assert main(["decompose", str(tmp_path / "x.txt"), "--beta", "1", "--core-dims", "2,2,2",
                 "--max-iters", "20", "--rel-tol", "0", "--out", str(out)]) == 0
    reported = checks.read_loss_trace(out / "loss_trace.txt")[-1]
    checks.check_loss(x, 1.0, checks.read_factors(out), reported)

    path = out / "factor_w.txt"
    lines = path.read_text().split("\n")
    values = lines[1].split()
    values[0] = repr(float(values[0]) * 1.001)
    lines[1] = " ".join(values)
    path.write_text("\n".join(lines))
    with pytest.raises(checks.CheckFailed, match="recomputed loss"):
        checks.check_loss(x, 1.0, checks.read_factors(out), reported)


def test_monotone_check_fails_on_one_increase():
    losses = np.geomspace(100.0, 1.0, 20)
    checks.check_monotone(losses)
    losses[10] = losses[9] * (1 + 1e-8)
    with pytest.raises(checks.CheckFailed, match="iteration 10"):
        checks.check_monotone(losses)


def test_seam_check_fails_on_boundary_shifted_two_bars():
    bars = gen.BAR_START_S + gen.BAR_S * np.arange(41)
    seams = bars[[8, 20, 28]]
    checks.check_seams(seams, seams, 3.0)
    assert checks.f_measure(seams, seams, 3.0) == 1.0
    shifted = bars[[8, 22, 28]]
    with pytest.raises(checks.CheckFailed, match="1 of 3 seams"):
        checks.check_seams(shifted, seams, 3.0)


def test_tfb_check_fails_on_one_wrong_column():
    rng = np.random.default_rng(0)
    data = rng.uniform(0.0, 5.0, (8, 240))
    bars = gen.BAR_START_S + 0.5 * np.arange(11) + rng.uniform(-0.02, 0.02, 11)
    tfb = build_tfb(nnlms(Spectrogram(data, gen.HOP)), BarGrid(bars), frames_per_bar=16)
    checks.check_tfb(tfb, data, bars, gen.HOP, 16)
    tfb[:, 5, 3] = np.log1p(data[:, 0])  # frame 0 lies before the first bar
    with pytest.raises(checks.CheckFailed, match="column 5 of bar 3"):
        checks.check_tfb(tfb, data, bars, gen.HOP, 16)


def test_rerun_check_ignores_wall_time_but_not_one_changed_byte(tmp_path):
    (tmp_path / "manifest.json").write_text('{"final_loss": 1.5, "wall_seconds": 0.25}')
    (tmp_path / "core.txt").write_text("ntd-t3 1 1 2\n0.5 0.25\n")
    before = checks.digest(tmp_path)
    (tmp_path / "manifest.json").write_text('{"final_loss": 1.5, "wall_seconds": 9.75}')
    assert checks.digest(tmp_path) == before
    (tmp_path / "core.txt").write_text("ntd-t3 1 1 2\n0.5 0.26\n")
    assert checks.digest(tmp_path) != before

    arrays = (np.ones((2, 2)), np.arange(3.0))
    changed = (np.ones((2, 2)), np.arange(3.0) + 1e-16 * np.array([0, 0, 8]))
    assert checks.digest(arrays) == checks.digest(tuple(a.copy() for a in arrays))
    assert checks.digest(arrays) != checks.digest(changed)
