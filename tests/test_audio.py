"""Audio frontend: WAV parsing, STFT geometry, mel filters, log floor."""
import sys
import tracemalloc

import numpy as np
import pytest

from wavetransformer import audio
from wavetransformer.audio import (
    AudioClip,
    AudioConfig,
    LOG_FLOOR,
    extract_features,
    hamming_window,
    load_wav,
    log_mel,
    mel_filterbank,
    stft_power,
    write_wav,
)
from wavetransformer.errors import AudioFormatError, ConfigError, DataError
from wavetransformer.fileformats import read_wtf1, write_wtf1
from wavetransformer.tensor import ops

from helpers import record_pooled_jobs


def dft_power_oracle(frame: np.ndarray, n_fft: int) -> np.ndarray:
    """O(N^2) direct DFT of one frame, single-sided power."""
    n = np.arange(n_fft)
    out = np.zeros(n_fft // 2 + 1)
    for k in range(n_fft // 2 + 1):
        z = np.sum(frame * np.exp(-2j * np.pi * k * n / n_fft))
        out[k] = abs(z) ** 2
    return out


class TestWavIO:
    def test_constant_16bit_scaling(self, tmp_path):
        path = tmp_path / "c.wav"
        write_wav(path, np.full(100, 16384 / 32768.0), 8000, bits=16)
        clip = load_wav(path)
        np.testing.assert_allclose(clip.samples, 0.5)
        assert clip.sample_rate == 8000

    def test_stereo_downmix_mean(self, tmp_path):
        path = tmp_path / "s.wav"
        left = np.full(50, 1.0)
        right = np.zeros(50)
        write_wav(path, np.stack([left, right], axis=1), 16000, bits=32)
        clip = load_wav(path)
        np.testing.assert_allclose(clip.samples, 0.5)

    def test_float32_round_trip(self, tmp_path):
        path = tmp_path / "f.wav"
        x = np.sin(np.linspace(0, 20, 300))
        write_wav(path, x, 22050, bits=32)
        np.testing.assert_allclose(load_wav(path).samples, x, atol=1e-7)

    def test_truncated_data_chunk_rejected(self, tmp_path):
        path = tmp_path / "t.wav"
        write_wav(path, np.zeros(100), 8000)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])  # cut into the data chunk
        with pytest.raises(AudioFormatError) as exc:
            load_wav(path)
        assert exc.value.byte_offset is not None

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "b.wav"
        path.write_bytes(b"JUNK" + bytes(60))
        with pytest.raises(AudioFormatError):
            load_wav(path)

    def test_unsupported_codec_rejected(self, tmp_path):
        path = tmp_path / "u.wav"
        write_wav(path, np.zeros(40), 8000, bits=16)
        blob = bytearray(path.read_bytes())
        blob[34] = 24  # bits-per-sample field -> 24
        path.write_bytes(bytes(blob))
        with pytest.raises(AudioFormatError, match="unsupported codec"):
            load_wav(path)


class TestStft:
    def test_zero_signal_zero_power(self):
        power = stft_power(AudioClip(np.zeros(4000), 8000), 256, 128, 256)
        np.testing.assert_array_equal(power, 0.0)

    def test_zero_length_window_rejected(self):
        clip = AudioClip(np.ones(4000) * 0.1, 8000)
        with pytest.raises(ConfigError, match="window_length"):
            stft_power(clip, 0, 128, 256)
        # under half a sample period rounds to a zero-sample window
        with pytest.raises(ConfigError, match="window_length"):
            extract_features(clip, AudioConfig(sample_rate=8000, window_ms=0.05, n_fft=256,
                                               hop=128, n_mels=8))

    def test_frame_count_formula(self):
        for n in (4000, 4095, 4096, 4097):
            clip = AudioClip(np.ones(n) * 0.1, 8000)
            power = stft_power(clip, 256, 128, 256)
            assert power.shape == (n // 128 + 1, 129)

    def test_paper_frame_counts_at_44k(self):
        cfg = AudioConfig()
        for seconds, expect in ((30, 2584), (15, 1292)):
            clip = AudioClip(np.random.default_rng(0).uniform(-0.1, 0.1, 44100 * seconds), 44100)
            power = stft_power(clip, cfg.window_length, cfg.hop, cfg.n_fft)
            assert power.shape[0] == expect

    def test_sine_matches_direct_dft_and_concentrates(self):
        # window == n_fft so the windowed sine is exactly bin-periodic
        n_fft = 512
        sr = 8000
        bin_idx = 32
        freq = bin_idx * sr / n_fft
        t = np.arange(sr) / sr
        clip = AudioClip(0.5 * np.sin(2 * np.pi * freq * t), sr)
        power = stft_power(clip, n_fft, n_fft // 2, n_fft)
        mid = power.shape[0] // 2
        # oracle: direct DFT of the same windowed frame
        pad = n_fft // 2
        padded = np.pad(clip.samples, pad, mode="reflect")
        frame = padded[mid * (n_fft // 2) : mid * (n_fft // 2) + n_fft] * hamming_window(n_fft)
        oracle = dft_power_oracle(frame, n_fft)
        np.testing.assert_allclose(power[mid], oracle, rtol=1e-6, atol=1e-9)
        # Hamming mainlobe spans 3 bins; nearly all energy lives there and
        # the peak is the target bin
        assert power[mid].argmax() == bin_idx
        neighborhood = power[mid, bin_idx - 1 : bin_idx + 2].sum()
        assert neighborhood / power[mid].sum() > 0.999

    def test_frame_locality(self):
        # a frame only sees samples inside its centered n_fft window
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.5, 0.5, 4096)
        n_fft, hop = 256, 128
        base = stft_power(AudioClip(x, 8000), 256, hop, n_fft)
        t = 8
        y = x.copy()
        window_lo = t * hop - n_fft // 2
        window_hi = t * hop + n_fft // 2
        y[:window_lo] += 0.1
        y[window_hi + 1 :] -= 0.1
        shifted = stft_power(AudioClip(y, 8000), 256, hop, n_fft)
        np.testing.assert_array_equal(base[t], shifted[t])

    def test_too_short_clip_rejected(self):
        with pytest.raises(AudioFormatError):
            stft_power(AudioClip(np.ones(10), 8000), 256, 128, 256)


class TestMelFilterbank:
    def test_interior_bins_covered(self):
        fb = mel_filterbank(64, 2048, 44100)
        bins_hz = np.arange(1025) * (44100 / 2048)
        interior = (bins_hz > 0) & (bins_hz < 22050)
        coverage = fb.weights.sum(axis=0)
        assert (coverage[interior] > 0).all()

    def test_centers_strictly_increasing(self):
        fb = mel_filterbank(64, 2048, 44100)
        assert (np.diff(fb.centers_hz) > 0).all()

    def test_single_filter_spans_band(self):
        fb = mel_filterbank(1, 512, 8000, f_min=100, f_max=3000)
        assert fb.weights.shape == (1, 257)
        assert fb.weights.max() > 0

    def test_unit_peak_triangles(self):
        fb = mel_filterbank(16, 2048, 44100)
        assert fb.weights.max() <= 1.0 + 1e-12

    def test_unsupported_filter_raises(self):
        # far more mels than FFT resolution -> some filter has no bin support
        with pytest.raises(ConfigError):
            mel_filterbank(64, 64, 8000)


class TestLogMel:
    def test_silence_hits_log_floor(self):
        fb = mel_filterbank(8, 256, 8000)
        out = log_mel(np.zeros((5, 129)), fb)
        np.testing.assert_array_equal(out, np.log(LOG_FLOOR))

    def test_amplitude_doubling_shifts_by_ln4(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-0.25, 0.25, 8000)
        cfg = AudioConfig(sample_rate=8000, window_ms=32, n_fft=256, hop=128, n_mels=8)
        f1 = extract_features(AudioClip(x, 8000), cfg)
        f2 = extract_features(AudioClip(2 * x, 8000), cfg)
        delta = f2.values.astype(np.float64) - f1.values.astype(np.float64)
        above_floor = f1.values > np.log(LOG_FLOOR) + 2.0
        np.testing.assert_allclose(delta[above_floor], np.log(4.0), rtol=1e-4)

    def test_default_shape_is_ta_by_64(self):
        rng = np.random.default_rng(3)
        clip = AudioClip(rng.uniform(-0.1, 0.1, 44100), 44100)
        fm = extract_features(clip, AudioConfig())
        assert fm.values.shape == (44100 // 512 + 1, 64)
        assert np.isfinite(fm.values).all()


class TestFeatureTiles:
    """The STFT and the features run as tiles of whole frames on the op
    pool; the bits are those of one pass over the whole clip."""

    @staticmethod
    def whole_array(clip, cfg):
        """The features and power spectra as one pass over the clip makes
        them: every frame at once, then the mel product, floor and log."""
        x, n_fft, hop = clip.samples, cfg.n_fft, cfg.hop
        padded = np.pad(x, n_fft // 2, mode="reflect")
        frames = np.lib.stride_tricks.sliding_window_view(padded, n_fft)[::hop][: x.size // hop + 1]
        window = np.zeros(n_fft)
        left = (n_fft - cfg.window_length) // 2
        window[left : left + cfg.window_length] = hamming_window(cfg.window_length)
        spectra = np.fft.rfft(frames * window, n=n_fft, axis=1)
        power = (spectra.real ** 2 + spectra.imag ** 2).astype(np.float64)
        fb = mel_filterbank(cfg.n_mels, n_fft, cfg.sample_rate, cfg.f_min, cfg.f_max)
        feats = np.log(np.maximum(power @ fb.weights.T, LOG_FLOOR))
        return feats, power

    @staticmethod
    def clip_of(frames, seed=0):
        hop = AudioConfig().hop
        rng = np.random.default_rng(seed)
        samples = rng.uniform(-1, 1, (frames - 1) * hop + 300) * 10.0 ** rng.uniform(-6, 0)
        return AudioClip(samples, AudioConfig().sample_rate)

    @staticmethod
    def tile_rows(frames, monkeypatch):
        """The frames of each tile of one extraction of `frames` frames."""
        rows, each_tile = [], ops._each_tile

        def spy(fn, tiles, size, scratch=0):
            rows.extend(len(range(frames)[t]) for t in tiles)
            return each_tile(fn, tiles, size, scratch)

        with monkeypatch.context() as m:
            m.setattr(ops, "_each_tile", spy)
            extract_features(TestFeatureTiles.clip_of(frames), AudioConfig())
        return rows

    def test_tiles_are_whole_frames_none_short(self, monkeypatch):
        per_tile = self.tile_rows(10_000, monkeypatch)[0]
        # OpenBLAS gives a mel product of 15 rows or fewer, at 64 bands and
        # 1,025 bins, to its small-matrix kernel, which rounds differently
        assert 16 <= per_tile < 10_000
        for frames in (3, per_tile, per_tile + 1, 2 * per_tile - 1, 2 * per_tile, 431, 2584):
            rows = self.tile_rows(frames, monkeypatch)
            assert sum(rows) == frames
            # a short clip is one tile; otherwise every tile has per_tile
            # frames and the last takes the remainder
            assert rows[:-1] == [per_tile] * (len(rows) - 1)
            if frames < 2 * per_tile:
                assert rows == [frames]
            else:
                assert per_tile <= rows[-1] < 2 * per_tile

    # 3 is the fewest frames a clip can have at these settings: it must be
    # longer than half an FFT
    @pytest.mark.parametrize("frames", [3, "tile", "tile+1", "2 tiles", 431, 2584])
    def test_bits_are_the_whole_array_formula(self, frames, monkeypatch):
        per_tile = self.tile_rows(10_000, monkeypatch)[0]
        named = {"tile": per_tile, "tile+1": per_tile + 1, "2 tiles": 2 * per_tile}
        frames = named.get(frames, frames)
        clip, cfg = self.clip_of(frames, seed=frames), AudioConfig()
        want64, power = self.whole_array(clip, cfg)
        want = want64.astype(np.float32)
        # the float64 log mel energies too, tile by tile in frame order: the
        # float32 cast would hide most of a last-bit difference in the mel GEMM
        tiles64, log_mel_into = [], audio._log_mel

        def spy(power, weights, out):
            tiles64.append(log_mel_into(power, weights, out).copy())
            return out

        with monkeypatch.context() as m:
            m.setattr(audio, "_log_mel", spy)
            monkeypatch.setattr(ops, "_WORKERS", 1)
            extract_features(clip, cfg)
        assert np.concatenate(tiles64).tobytes() == want64.tobytes()
        interval = sys.getswitchinterval()
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(ops, "_WORKERS", workers)
                if workers == 3:
                    sys.setswitchinterval(1e-5)  # a tile writing outside its part would show
                got = extract_features(clip, cfg).values
                assert got.shape == (frames, cfg.n_mels)
                assert got.tobytes() == want.tobytes(), workers
                got = stft_power(clip, cfg.window_length, cfg.hop, cfg.n_fft)
                assert got.tobytes() == power.tobytes()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("tile_bytes", [1 << 21, 1 << 22])
    def test_bits_do_not_depend_on_the_tile_size(self, tile_bytes, monkeypatch):
        clip, cfg = self.clip_of(431, seed=5), AudioConfig()
        want = extract_features(clip, cfg).values
        monkeypatch.setattr(ops, "_TILE_BYTES", tile_bytes)
        monkeypatch.setattr(ops, "_WORKERS", 2)
        jobs = record_pooled_jobs(monkeypatch)
        assert extract_features(clip, cfg).values.tobytes() == want.tobytes()
        assert jobs and jobs[0] >= 2  # the tiles ran on the pool

    def test_thirty_second_extract_makes_no_whole_clip_temporaries(self):
        clip = AudioClip(np.random.default_rng(6).uniform(-1, 1, 30 * 44100), 44100)
        tracemalloc.start()
        try:
            extract_features(clip, AudioConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the padded clip (10.6 MB) and a few MB of tiles; one pass over the
        # whole clip peaked at 91 MB
        assert peak <= 25e6, peak / 1e6


class TestWtf1:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        from wavetransformer.audio import FeatureMatrix
        fm = FeatureMatrix(rng.normal(size=(7, 8)).astype(np.float32), 16000.0, 160, 400)
        path = tmp_path / "x.wtf1"
        write_wtf1(path, fm)
        back = read_wtf1(path)
        np.testing.assert_array_equal(back.values, fm.values)
        assert (back.sample_rate, back.frame_hop, back.window_length) == (16000.0, 160, 400)

    def test_exact_length_enforced(self, tmp_path):
        from wavetransformer.audio import FeatureMatrix
        fm = FeatureMatrix(np.zeros((3, 4), dtype=np.float32), 8000.0, 10, 20)
        path = tmp_path / "x.wtf1"
        write_wtf1(path, fm)
        blob = path.read_bytes()
        path.write_bytes(blob + b"\x00")
        with pytest.raises(DataError, match="expected"):
            read_wtf1(path)

    def test_non_finite_value_named_by_frame_and_band(self, tmp_path):
        from wavetransformer.audio import FeatureMatrix
        fm = FeatureMatrix(np.zeros((7, 8), dtype=np.float32), 8000.0, 10, 20)
        path = tmp_path / "x.wtf1"
        write_wtf1(path, fm)
        blob = bytearray(path.read_bytes())
        header = len(blob) - 4 * 7 * 8
        values = np.frombuffer(blob, dtype="<f4", offset=header).reshape(7, 8)
        values[3, 5], values[6, 0] = np.nan, np.inf
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match=r"x\.wtf1: non-finite value nan at frame 3, band 5"):
            read_wtf1(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.wtf1"
        path.write_bytes(b"NOPE" + bytes(24))
        with pytest.raises(DataError, match="magic"):
            read_wtf1(path)
