import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osseg import cli, styletransfer
from osseg.errors import ArgumentError, DimensionError, NumericError
from osseg.styletransfer import _window_bounds, build_pseudo_target, fda_stylize, swap_mask
from osseg.synthdata import DomainSample, DomainTag, SceneSpec, TARGET_PALETTE, generate_dataset, generate_sample


def dft2_direct(img):
    """O(N^4) direct-summation 2-D DFT oracle (single channel)."""
    h, w = img.shape
    out = np.zeros((h, w), dtype=complex)
    ys, xs = np.arange(h), np.arange(w)
    for u in range(h):
        for v in range(w):
            phase = np.exp(-2j * np.pi * (u * ys[:, None] / h + v * xs[None, :] / w))
            out[u, v] = (img * phase).sum()
    return out


def fda_full_fft(src, reference, beta):
    """The amplitude swap on full FFTs: the formula `fda_stylize` computes on the window only."""
    h, w = src.shape[:2]
    if reference.shape[:2] != (h, w):
        reference = styletransfer._resize_bilinear(reference, h, w)
    window = swap_mask(h, w, beta)
    if not window.any():
        return src.copy()
    out = np.empty_like(src)
    for ch in range(3):
        f_src = np.fft.fftshift(np.fft.fft2(src[:, :, ch]))
        f_ref = np.fft.fftshift(np.fft.fft2(reference[:, :, ch]))
        amp = np.abs(f_src)
        amp[window] = np.abs(f_ref)[window]
        mixed = amp * np.exp(1j * np.angle(f_src))
        out[:, :, ch] = np.real(np.fft.ifft2(np.fft.ifftshift(mixed)))
    return np.clip(out, 0.0, 1.0)


def textured(rng, h, w):
    """A smooth pattern plus noise with values in [0.1, 0.9]. Its window bins are seldom
    near 0, where the phase, and so the swap, is set by rounding."""
    ys, xs = np.mgrid[0:h, 0:w]
    freq = rng.uniform(0.1, 1.0, size=(2, 3))
    base = 0.5 + 0.2 * np.sin(ys[..., None] * freq[0] + xs[..., None] * freq[1])
    return base + rng.uniform(-0.2, 0.2, size=(h, w, 3))


class TestConfig:
    def test_beta_bounds(self):
        img = np.zeros((8, 8, 3))
        fda_stylize(img, img, beta=0.0)
        fda_stylize(img, img, beta=1.0)
        for beta in (1.5, -0.1):
            with pytest.raises(ArgumentError):
                fda_stylize(img, img, beta=beta)
            with pytest.raises(ArgumentError):
                build_pseudo_target([], img, beta=beta)


class TestFdaStylize:
    def test_beta_zero_is_identity(self):
        rng = np.random.default_rng(0)
        src = rng.random((8, 8, 3))
        ref = rng.random((8, 8, 3))
        out = fda_stylize(src, ref, beta=0.0)
        assert np.abs(out - src).max() < 1e-9

    def test_self_reference_is_identity(self):
        rng = np.random.default_rng(1)
        src = rng.random((8, 8, 3)) * 0.8 + 0.1
        out = fda_stylize(src, src, beta=0.5)
        assert np.abs(out - src).max() < 1e-9

    def test_dc_swap_on_constant_images(self):
        src = np.full((4, 4, 3), 0.5)
        ref = np.full((4, 4, 3), 0.25)
        out = fda_stylize(src, ref, beta=0.25)
        assert np.abs(out - 0.25).max() < 1e-9

    def test_dc_amplitude_is_hw_times_value(self):
        # The constant image's spectrum is concentrated at DC with
        # amplitude H*W*value; verified by the direct-summation oracle.
        img = np.full((4, 4), 0.5)
        spectrum = dft2_direct(img)
        assert abs(spectrum[0, 0] - 8.0) < 1e-9
        off_dc = np.abs(spectrum).sum() - abs(spectrum[0, 0])
        assert off_dc < 1e-9

    def test_matches_direct_dft_oracle(self):
        # Re-implement the swap with the O(N^4) oracle on 4x4 and 8x8.
        for size, beta in [(4, 0.3), (8, 0.25), (8, 0.6)]:
            rng = np.random.default_rng(size)
            src = rng.random((size, size, 3))
            ref = rng.random((size, size, 3))
            out = fda_stylize(src, ref, beta=beta)
            window = swap_mask(size, size, beta)
            for ch in range(3):
                f_src = np.fft.fftshift(dft2_direct(src[:, :, ch]))
                f_ref = np.fft.fftshift(dft2_direct(ref[:, :, ch]))
                amp = np.abs(f_src)
                amp[window] = np.abs(f_ref)[window]
                mixed = amp * np.exp(1j * np.angle(f_src))
                recon = np.fft.ifft2(np.fft.ifftshift(mixed)).real
                assert np.abs(np.clip(recon, 0, 1) - out[:, :, ch]).max() < 1e-9

    def test_amplitude_preserved_outside_window(self):
        # Choose inputs that cannot clip so the spectrum check is exact.
        rng = np.random.default_rng(3)
        src = rng.random((8, 8, 3)) * 0.2 + 0.4
        ref = rng.random((8, 8, 3)) * 0.2 + 0.4
        beta = 0.25
        out = fda_stylize(src, ref, beta=beta)
        window = swap_mask(8, 8, beta)
        for ch in range(3):
            amp_out = np.abs(np.fft.fftshift(np.fft.fft2(out[:, :, ch])))
            amp_src = np.abs(np.fft.fftshift(np.fft.fft2(src[:, :, ch])))
            rel = np.abs(amp_out - amp_src) / np.maximum(amp_src, 1e-9)
            assert rel[~window].max() < 1e-6

    def test_window_is_monotone_in_beta(self):
        for size in (4, 8, 64, 63):
            prev_bounds = None
            prev_mask = None
            for beta in np.linspace(0.0, 1.0, 21):
                lo, hi = _window_bounds(size, beta)
                mask = swap_mask(size, size, beta)
                if prev_bounds is not None:
                    assert lo <= prev_bounds[0] and hi >= prev_bounds[1]
                    assert (mask | prev_mask == mask).all()
                prev_bounds = (lo, hi)
                prev_mask = mask
            assert prev_bounds == (0, size)
            assert prev_mask.all()

    def test_default_beta_window_is_plain_rectangle_at_64(self):
        # floor(0.05 * 64) == 3: odd span, already symmetric about DC.
        mask = swap_mask(64, 64, 0.05)
        expect = np.zeros((64, 64), dtype=bool)
        expect[31:34, 31:34] = True
        assert np.array_equal(mask, expect)

    def test_shape_mismatch_resizes_reference(self):
        rng = np.random.default_rng(4)
        src = rng.random((8, 8, 3))
        ref = rng.random((16, 16, 3))
        out = fda_stylize(src, ref, beta=0.25)
        assert out.shape == src.shape

    def test_non_finite_rejected(self):
        src = np.full((4, 4, 3), np.inf)
        with pytest.raises(NumericError):
            fda_stylize(src, np.zeros((4, 4, 3)), beta=0.1)

    def test_wrong_rank_rejected(self):
        with pytest.raises(DimensionError):
            fda_stylize(np.zeros((4, 4)), np.zeros((4, 4, 3)), )

    def test_never_reads_labels(self):
        # fda_stylize's signature takes only images: this is a static
        # property; determinism is checked instead.
        rng = np.random.default_rng(5)
        src = rng.random((8, 8, 3))
        ref = rng.random((8, 8, 3))
        a = fda_stylize(src, ref, beta=0.3)
        b = fda_stylize(src, ref, beta=0.3)
        assert np.array_equal(a, b)


class TestWindowOnlyDft:
    @given(h=st.integers(1, 40), w=st.integers(1, 40), ref_h=st.integers(1, 40),
           ref_w=st.integers(1, 40), beta=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_full_fft_swap(self, h, w, ref_h, ref_w, beta, seed):
        rng = np.random.default_rng(seed)
        src, ref = textured(rng, h, w), textured(rng, ref_h, ref_w)
        out = fda_stylize(src, ref, beta=beta)
        assert out.shape == src.shape
        assert np.abs(out - fda_full_fft(src, ref, beta)).max() <= 1e-12

    def test_makes_no_fft_call(self, monkeypatch):
        def no_fft(*args, **kwargs):
            raise AssertionError("an FFT ran")

        for name in ("fft2", "ifft2", "fft", "ifft"):
            monkeypatch.setattr(np.fft, name, no_fft)
        rng = np.random.default_rng(2)
        data = [DomainSample(textured(rng, 16, 16), np.zeros((16, 16), np.uint8),
                             DomainTag.SOURCE) for _ in range(2)]
        assert len(build_pseudo_target(data, textured(rng, 16, 16), beta=0.3)) == 2


class TestBuildPseudoTarget:
    def test_empty_dataset(self):
        assert build_pseudo_target([], np.zeros((8, 8, 3))) == []

    def test_labels_preserved_bit_exactly(self):
        data = generate_dataset(SceneSpec(seed=6), 4)
        ref = generate_sample(SceneSpec(palette=TARGET_PALETTE, seed=7), 0).image
        out = build_pseudo_target(data, ref, beta=0.1)
        assert len(out) == 4
        for src, pt in zip(data, out):
            assert np.array_equal(src.label, pt.label)
            assert pt.domain_tag is DomainTag.PSEUDO_TARGET

    def test_rejects_non_source_samples(self):
        sample = DomainSample(
            image=np.zeros((8, 8, 3)), label=np.zeros((8, 8), dtype=np.uint8),
            domain_tag=DomainTag.TARGET,
        )
        with pytest.raises(ArgumentError, match="sample 0"):
            build_pseudo_target([sample], np.zeros((8, 8, 3)))

    def test_mean_moves_toward_reference(self):
        data = generate_dataset(SceneSpec(seed=8), 10)
        ref = generate_sample(
            SceneSpec(palette=TARGET_PALETTE, seed=9), 0
        ).image
        styled = build_pseudo_target(data, ref, beta=0.05)
        src_mean = np.mean([s.image.mean() for s in data])
        styled_mean = np.mean([s.image.mean() for s in styled])
        ref_mean = ref.mean()
        assert abs(styled_mean - ref_mean) < abs(src_mean - ref_mean)

    def test_equals_fda_stylize_per_sample_and_resizes_once_per_size(self, monkeypatch):
        rng = np.random.default_rng(10)
        sizes = [(16, 16), (24, 8), (16, 16), (9, 13), (24, 8), (16, 16)]
        data = [DomainSample(textured(rng, h, w), np.zeros((h, w), np.uint8), DomainTag.SOURCE)
                for h, w in sizes]
        ref = textured(rng, 20, 20)
        expect = [fda_stylize(s.image, ref, beta=0.2) for s in data]
        resized = []
        resize = styletransfer._resize_bilinear
        monkeypatch.setattr(styletransfer, "_resize_bilinear",
                            lambda img, h, w: resized.append((h, w)) or resize(img, h, w))
        out = build_pseudo_target(data, ref, beta=0.2)
        assert all(np.array_equal(a, b.image) for a, b in zip(expect, out))
        assert sorted(resized) == sorted(set(sizes))


class TestStylizeRasters:
    # SHA-256 of the PPMs `osseg stylize` writes for three generated 64x64
    # scenes, taken from the full-FFT implementation; the window-only DFT
    # must leave these 8-bit pseudo-target rasters unchanged.
    GOLDEN = [
        "9a325f2af0696c0438c923d3381cea0bc7cb410c7cd21d93f0390d38de362ca6",
        "c65aa4d00ed6a3f133e5dfe4168d5ac5bfceefa7fdc61f309954a8f8c22cf4d9",
        "d86ea5dbf2672a0d4e9e2a3db3a8c7aa1d0a8c05e494f09371916e8c2fc8f5c6",
    ]

    def test_stylized_rasters_match_golden_hashes(self, tmp_path):
        assert cli.main(["gen-data", "--domain", "source", "--count", "3", "--seed", "21",
                         "--out", str(tmp_path / "source")]) == 0
        assert cli.main(["gen-data", "--domain", "target", "--count", "1", "--seed", "22",
                         "--out", str(tmp_path / "ref")]) == 0
        assert cli.main(["stylize", "--src-dir", str(tmp_path / "source"),
                         "--reference", str(tmp_path / "ref" / "target" / "img_0.ppm"),
                         "--out-dir", str(tmp_path / "pt")]) == 0
        digests = [hashlib.sha256((tmp_path / "pt" / "pt" / f"img_{n}.ppm").read_bytes()).hexdigest()
                   for n in range(3)]
        assert digests == self.GOLDEN
