"""CLI contracts and config handling, on a tiny synthetic corpus."""
import csv
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wavetransformer
from wavetransformer import training
from wavetransformer.cli import main
from wavetransformer.audio import write_wav
from wavetransformer.config import SECTIONS, load_config
from wavetransformer.errors import ConfigError, TrainingError
from wavetransformer.fileformats import read_wtf1, write_wtf1
from wavetransformer.training import load_checkpoint

README = Path(__file__).resolve().parents[1] / "README.md"


TINY_CONFIG = """
[audio]
sample_rate = 8000
window_ms = 16
n_fft = 128
hop = 64
n_mels = 4

[encoder]
n_temp_blocks = 1
n_tf_blocks = 2
channels = 8
pool_factors = 2, 2
dropout_tf = 0.0

[decoder]
n_blocks = 1
n_heads = 2
dropout = 0.0
max_len = 32

[train]
batch_size = 4
lr = 0.002
max_epochs = 3
patience = 5

[decode]
max_words = 8
beam_size = 2

[run]
seed = 11
val_size = 0
rarity_threshold = 1
"""

CAPTIONS = [
    ("clip_a.wav", "a dog barks"),
    ("clip_b.wav", "rain falls hard"),
    ("clip_c.wav", "a dog naps"),
    ("clip_d.wav", "wind blows"),
]


def make_corpus_dir(tmp_path: Path) -> tuple[Path, Path, Path]:
    audio_dir = tmp_path / "audio"
    audio_dir.mkdir()
    rng = np.random.default_rng(0)
    for i, (name, _) in enumerate(CAPTIONS):
        t = np.arange(4000) / 8000.0
        tone = 0.4 * np.sin(2 * np.pi * (300 + 150 * i) * t)
        noise = 0.05 * rng.standard_normal(t.size)
        write_wav(audio_dir / name, tone + noise, 8000)
    caps_path = tmp_path / "captions.csv"
    with open(caps_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["file_name", "caption_1", "caption_2", "caption_3", "caption_4", "caption_5"])
        for name, cap in CAPTIONS:
            writer.writerow([name, cap, "", "", "", ""])
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(TINY_CONFIG)
    return audio_dir, caps_path, cfg_path


class TestBlasThreads:
    """Importing the CLI pins BLAS to one thread before numpy loads, so BLAS
    threads do not oversubscribe the conv pool's; a count the user set
    wins."""

    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def _after_import(self, preset: dict) -> list:
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env.update(preset, PYTHONPATH=str(Path(wavetransformer.__file__).parents[1]))
        code = ("import os, sys, wavetransformer\n"
                "numpy_first = 'numpy' in sys.modules\n"
                "import wavetransformer.cli\n"
                f"print(numpy_first, *(os.environ[v] for v in {self.VARS!r}))\n")
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True).stdout.split()

    def test_unset_counts_become_one(self):
        assert self._after_import({}) == ["False", "1", "1", "1"]

    def test_a_count_the_user_set_wins(self):
        assert self._after_import(dict.fromkeys(self.VARS, "2")) == ["False", "2", "2", "2"]


class TestConfigDefaults:
    def test_published_hyperparameters_frozen(self):
        # every default the method's description fixes, pinned in one place
        cfg = load_config()
        assert cfg.encoder.n_temp_blocks == 4
        assert cfg.encoder.n_tf_blocks == 3
        assert cfg.encoder.channels == 128
        assert cfg.decoder.n_blocks == 3
        assert cfg.decoder.n_heads == 4
        assert cfg.decoder.dropout == 0.25
        assert cfg.encoder.dropout_tf == 0.25
        assert cfg.train.batch_size == 12
        assert cfg.train.clip_norm == 1.0
        assert cfg.train.patience == 10
        assert cfg.decode.beam_size == 2
        assert cfg.decode.max_words == 22
        assert cfg.audio.n_mels == 64
        assert cfg.audio.sample_rate == 44100
        assert cfg.audio.window_ms == 46.0
        assert cfg.val_size == 100
        assert cfg.rarity_threshold == 10
        assert int(np.prod(cfg.encoder.pool_factors)) == 64

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[train]\nbatch_size = 4\nwarp_drive = on\n")
        with pytest.raises(ConfigError, match="warp_drive"):
            load_config(bad)

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[reactor]\npower = 9\n")
        with pytest.raises(ConfigError, match="reactor"):
            load_config(bad)

    def test_wt_seed_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WT_SEED", "777")
        cfg = load_config()
        assert cfg.seed == 777 and cfg.train.seed == 777

    def test_pool_factor_tuple_parsing(self, tmp_path):
        good = tmp_path / "g.cfg"
        good.write_text("[encoder]\nn_tf_blocks = 2\npool_factors = 8, 8\n")
        assert load_config(good).encoder.pool_factors == (8, 8)


def write_cfg(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "c.cfg"
    path.write_text(text)
    return path


class TestConfigTable:
    def test_readme_block_lists_every_key_at_its_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("WT_SEED", raising=False)
        block = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
        documented, section = set(), None
        for line in block.splitlines():
            line = line.lstrip("# ")
            if line.startswith("["):
                section = line.strip("[]")
            elif "=" in line:
                documented.add((section, line.split("=", 1)[0].strip()))
        table = {(s, k) for s, (_, keys) in SECTIONS.items() for k in keys}
        assert len(table) == 32
        assert documented == table
        assert load_config(write_cfg(tmp_path, block)) == load_config()

    def test_n_mels_set_once_under_audio(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "[audio]\nn_mels = 32\n[encoder]\n"
                                              "n_tf_blocks = 2\npool_factors = 4, 8\n"))
        assert cfg.audio.n_mels == cfg.encoder.n_mels == 32

    def test_n_mels_checked_against_pool_factors_at_load(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[encoder\].*F=32"):
            load_config(write_cfg(tmp_path, "[audio]\nn_mels = 32\n"))

    def test_decoder_heads_checked_against_encoder_width_at_load(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[decoder\].*n_heads=3"):
            load_config(write_cfg(tmp_path, "[decoder]\nn_heads = 3\n"))
        cfg = load_config(write_cfg(tmp_path, "[encoder]\nchannels = 96\n[decoder]\nn_heads = 3\n"))
        assert cfg.decoder.d_model == 96

    @pytest.mark.parametrize("section,key,value", [
        ("encoder", "channels", 0), ("encoder", "channels", -4),
        ("decoder", "n_heads", 0), ("decoder", "n_heads", -1),
    ])
    def test_no_channels_or_heads_rejected_at_load(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key} must be >= 1, got {value}"):
            load_config(overrides={(section, key): value})

    @pytest.mark.parametrize("order", ["[run]\nseed = 5\n[train]\nlr = 0.01\n",
                                       "[train]\nlr = 0.01\n[run]\nseed = 5\n"])
    def test_one_seed_whatever_the_section_order(self, tmp_path, monkeypatch, order):
        monkeypatch.delenv("WT_SEED", raising=False)
        path = write_cfg(tmp_path, order)
        cfg = load_config(path)
        assert cfg.seed == cfg.train.seed == 5
        monkeypatch.setenv("WT_SEED", "6")
        cfg = load_config(path)
        assert cfg.seed == cfg.train.seed == 6
        cfg = load_config(path, overrides={("run", "seed"): 7})
        assert cfg.seed == cfg.train.seed == 7

    @pytest.mark.parametrize("text", [
        "[train]\nseed = 5\n",
        "[encoder]\nn_mels = 64\n",
        "[encoder]\ntf_post_relu = true\n",
        "[paths]\ndata_dir = data\n",
        "[paths]\n",
    ])
    def test_removed_keys_and_sections_rejected(self, tmp_path, text):
        with pytest.raises(ConfigError, match="unknown"):
            load_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("section,key", [
        ("audio", "hop"), ("audio", "f_max"), ("encoder", "channels"),
        ("encoder", "pool_factors"), ("decoder", "n_blocks"), ("train", "lr"),
        ("decode", "beam_size"), ("run", "val_size"),
    ])
    def test_malformed_value_names_section_and_key(self, tmp_path, section, key):
        path = write_cfg(tmp_path, f"[{section}]\n{key} = abc\n")
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}:"):
            load_config(path)

    def test_malformed_wt_seed_named(self, monkeypatch):
        monkeypatch.setenv("WT_SEED", "x")
        with pytest.raises(ConfigError, match="WT_SEED"):
            load_config()

    def test_out_of_range_value_names_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[train\] batch_size"):
            load_config(write_cfg(tmp_path, "[train]\nbatch_size = 0\n"))

    @pytest.mark.parametrize("key,value,rule", [
        ("lr", "0", "> 0"), ("lr", "-0.001", "> 0"), ("beta1", "1", "in [0, 1)"),
        ("beta1", "-0.1", "in [0, 1)"), ("beta2", "1.0", "in [0, 1)"), ("eps", "0", "> 0"),
        ("max_epochs", "-1", ">= 0"),
    ])
    def test_impossible_adam_settings_rejected(self, tmp_path, key, value, rule):
        with pytest.raises(ConfigError, match=re.escape(f"[train] {key} must be {rule}")):
            load_config(write_cfg(tmp_path, f"[train]\n{key} = {value}\n"))

    def test_edge_adam_settings_accepted(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "[train]\nbeta1 = 0\nbeta2 = 0\nmax_epochs = 0\n"))
        assert (cfg.train.beta1, cfg.train.beta2, cfg.train.max_epochs) == (0.0, 0.0, 0)

    def test_unparsable_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="hop"):
            load_config(write_cfg(tmp_path, "[audio]\nhop = 1\nhop = 2\n"))


class TestPipeline:
    def test_extract_train_caption_evaluate(self, tmp_path):
        audio_dir, caps, cfg = make_corpus_dir(tmp_path)
        feat_dir = tmp_path / "features"
        run_dir = tmp_path / "run"

        assert main(["extract", "--audio-dir", str(audio_dir),
                     "--out-dir", str(feat_dir), "--config", str(cfg)]) == 0
        wtf1s = sorted(feat_dir.glob("*.wtf1"))
        assert len(wtf1s) == 4

        assert main(["train", "--features", str(feat_dir), "--captions", str(caps),
                     "--out", str(run_dir), "--config", str(cfg)]) == 0
        assert (run_dir / "best.wtck").exists()
        assert (run_dir / "loss_log.csv").exists()

        preds = tmp_path / "preds.csv"
        assert main(["caption", "--features", str(feat_dir),
                     "--checkpoint", str(run_dir / "best.wtck"),
                     "--out", str(preds), "--beam", "2", "--config", str(cfg)]) == 0
        rows = list(csv.reader(open(preds)))
        assert rows[0] == ["file_name", "caption_predicted"]
        assert len(rows) == 5
        for row in rows[1:]:
            assert len(row[1].split()) <= 8  # decode.max_words in the config

        assert main(["evaluate", "--predictions", str(preds),
                     "--references", str(caps)]) == 0

    def test_a_crash_in_epoch_two_leaves_epoch_one_outputs(self, tmp_path, capsys, monkeypatch):
        audio_dir, caps, cfg = make_corpus_dir(tmp_path)
        feat_dir, run_dir = tmp_path / "features", tmp_path / "run"
        assert main(["extract", "--audio-dir", str(audio_dir),
                     "--out-dir", str(feat_dir), "--config", str(cfg)]) == 0
        train_epoch = training.train_epoch

        def crashing(model, items, optimizer, train_cfg, epoch, *args):
            if epoch == 2:
                raise TrainingError("gradient is not finite in epoch 2")
            return train_epoch(model, items, optimizer, train_cfg, epoch, *args)

        monkeypatch.setattr(training, "train_epoch", crashing)
        assert main(["train", "--features", str(feat_dir), "--captions", str(caps),
                     "--out", str(run_dir), "--config", str(cfg)]) == 2
        assert "not finite in epoch 2" in capsys.readouterr().err
        rows = list(csv.reader(open(run_dir / "loss_log.csv")))
        assert rows[0] == ["epoch", "train_loss", "val_loss"] and [r[0] for r in rows[1:]] == ["1"]
        for name in ("best.wtck", "last.wtck"):
            ckpt = load_checkpoint(run_dir / name)
            assert ckpt.epoch == 1
            assert ckpt.train_history == pytest.approx([float(rows[1][1])], abs=1e-6)
            ckpt.build_model()

    def test_train_with_every_entry_in_validation_is_an_error(self, tmp_path, capsys):
        audio_dir, caps, cfg = make_corpus_dir(tmp_path)
        cfg.write_text(TINY_CONFIG.replace("val_size = 0", f"val_size = {len(CAPTIONS)}"))
        feat_dir, run_dir = tmp_path / "features", tmp_path / "run"
        assert main(["extract", "--audio-dir", str(audio_dir),
                     "--out-dir", str(feat_dir), "--config", str(cfg)]) == 0
        assert main(["train", "--features", str(feat_dir), "--captions", str(caps),
                     "--out", str(run_dir), "--config", str(cfg)]) == 2
        assert "no training items" in capsys.readouterr().err
        assert not any(run_dir.glob("*.wtck")) and not (run_dir / "loss_log.csv").exists()

    def test_train_with_no_channels_exits_2_naming_the_section(self, tmp_path, capsys):
        audio_dir, caps, cfg = make_corpus_dir(tmp_path)
        feat_dir, run_dir = tmp_path / "features", tmp_path / "run"
        assert main(["extract", "--audio-dir", str(audio_dir),
                     "--out-dir", str(feat_dir), "--config", str(cfg)]) == 0
        cfg.write_text(TINY_CONFIG.replace("channels = 8", "channels = 0"))
        assert main(["train", "--features", str(feat_dir), "--captions", str(caps),
                     "--out", str(run_dir), "--config", str(cfg)]) == 2
        assert "[encoder] channels must be >= 1" in capsys.readouterr().err
        assert not any(run_dir.glob("*.wtck"))

    def test_caption_verbose_prints_encode_and_decode_time(self, tmp_path, capsys):
        audio_dir, caps, cfg = make_corpus_dir(tmp_path)
        cfg.write_text(TINY_CONFIG.replace("max_epochs = 3", "max_epochs = 1"))
        feat_dir, run_dir, preds = tmp_path / "features", tmp_path / "run", tmp_path / "preds.csv"
        assert main(["extract", "--audio-dir", str(audio_dir),
                     "--out-dir", str(feat_dir), "--config", str(cfg)]) == 0
        assert main(["train", "--features", str(feat_dir), "--captions", str(caps),
                     "--out", str(run_dir), "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["caption", "--features", str(feat_dir),
                     "--checkpoint", str(run_dir / "best.wtck"),
                     "--out", str(preds), "--config", str(cfg), "--verbose"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = list(csv.reader(open(preds)))[1:]
        assert len(lines) == len(rows) + 1 == 5
        for line, (name, caption) in zip(lines, rows):
            assert re.fullmatch(rf"{re.escape(name)}: {re.escape(caption)}  "
                                r"\(encode \d+\.\d ms, decode \d+\.\d ms\)", line), line

    def test_band_count_set_only_under_audio(self, tmp_path):
        audio_dir, caps, cfg = make_corpus_dir(tmp_path)
        cfg.write_text(TINY_CONFIG.replace("n_fft = 128", "n_fft = 512")
                       .replace("n_mels = 4", "n_mels = 32")
                       .replace("pool_factors = 2, 2", "pool_factors = 4, 8")
                       .replace("max_epochs = 3", "max_epochs = 1"))
        feat_dir, run_dir = tmp_path / "features", tmp_path / "run"
        assert main(["extract", "--audio-dir", str(audio_dir),
                     "--out-dir", str(feat_dir), "--config", str(cfg)]) == 0
        assert read_wtf1(feat_dir / "clip_a.wtf1").num_bands == 32
        assert main(["train", "--features", str(feat_dir), "--captions", str(caps),
                     "--out", str(run_dir), "--config", str(cfg)]) == 0
        assert load_checkpoint(run_dir / "best.wtck").encoder_config["n_mels"] == 32
        assert main(["caption", "--features", str(feat_dir),
                     "--checkpoint", str(run_dir / "best.wtck"),
                     "--out", str(tmp_path / "preds.csv"), "--config", str(cfg)]) == 0

    def test_caption_names_file_with_wrong_band_count(self, tmp_path, capsys):
        audio_dir, caps, cfg = make_corpus_dir(tmp_path)
        cfg.write_text(TINY_CONFIG.replace("max_epochs = 3", "max_epochs = 1"))
        feat_dir, run_dir = tmp_path / "features", tmp_path / "run"
        assert main(["extract", "--audio-dir", str(audio_dir),
                     "--out-dir", str(feat_dir), "--config", str(cfg)]) == 0
        assert main(["train", "--features", str(feat_dir), "--captions", str(caps),
                     "--out", str(run_dir), "--config", str(cfg)]) == 0
        fm = read_wtf1(feat_dir / "clip_a.wtf1")
        write_wtf1(feat_dir / "clip_e.wtf1", replace(fm, values=np.zeros((fm.num_frames, 8))))
        capsys.readouterr()
        assert main(["caption", "--features", str(feat_dir),
                     "--checkpoint", str(run_dir / "best.wtck"),
                     "--out", str(tmp_path / "preds.csv"), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "clip_e.wtf1" in err and "mel band count is 8" in err and "takes 4" in err
        assert not (tmp_path / "preds.csv").exists()

    def test_caption_names_file_made_with_another_hop(self, tmp_path, capsys):
        # the checkpoint records the [audio] config it was trained with, so a
        # file of the right band count but another hop is refused too
        audio_dir, caps, cfg = make_corpus_dir(tmp_path)
        cfg.write_text(TINY_CONFIG.replace("max_epochs = 3", "max_epochs = 1"))
        feat_dir, run_dir = tmp_path / "features", tmp_path / "run"
        assert main(["extract", "--audio-dir", str(audio_dir),
                     "--out-dir", str(feat_dir), "--config", str(cfg)]) == 0
        assert main(["train", "--features", str(feat_dir), "--captions", str(caps),
                     "--out", str(run_dir), "--config", str(cfg)]) == 0
        assert load_checkpoint(run_dir / "best.wtck").audio_config["hop"] == 64
        fm = read_wtf1(feat_dir / "clip_a.wtf1")
        write_wtf1(feat_dir / "clip_e.wtf1", replace(fm, frame_hop=32))
        capsys.readouterr()
        assert main(["caption", "--features", str(feat_dir),
                     "--checkpoint", str(run_dir / "best.wtck"),
                     "--out", str(tmp_path / "preds.csv"), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "clip_e.wtf1" in err and "hop is 32" in err and "takes 64" in err
        assert not (tmp_path / "preds.csv").exists()

    def test_non_finite_feature_named_by_train_and_caption(self, tmp_path, capsys):
        audio_dir, caps, cfg = make_corpus_dir(tmp_path)
        cfg.write_text(TINY_CONFIG.replace("max_epochs = 3", "max_epochs = 1"))
        feat_dir, run_dir = tmp_path / "features", tmp_path / "run"
        assert main(["extract", "--audio-dir", str(audio_dir),
                     "--out-dir", str(feat_dir), "--config", str(cfg)]) == 0
        assert main(["train", "--features", str(feat_dir), "--captions", str(caps),
                     "--out", str(run_dir), "--config", str(cfg)]) == 0
        # a NaN in frame 2, band 1 of one clip's WTF1 file
        path = feat_dir / "clip_b.wtf1"
        blob = bytearray(path.read_bytes())
        fm = read_wtf1(path)
        header = len(blob) - fm.values.nbytes
        np.frombuffer(blob, dtype="<f4", offset=header).reshape(fm.values.shape)[2, 1] = np.nan
        path.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["train", "--features", str(feat_dir), "--captions", str(caps),
                     "--out", str(tmp_path / "run2"), "--config", str(cfg)]) == 2
        assert main(["caption", "--features", str(feat_dir),
                     "--checkpoint", str(run_dir / "best.wtck"),
                     "--out", str(tmp_path / "preds.csv"), "--config", str(cfg)]) == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2
        for line in errors:
            assert line.startswith("error: ") and line.endswith(
                "clip_b.wtf1: non-finite value nan at frame 2, band 1"), line
        assert not (tmp_path / "preds.csv").exists()

    @pytest.mark.parametrize("old,new,name", [
        ("sample_rate = 8000", "sample_rate = 16000", "sample rate is 8000"),
        ("hop = 64", "hop = 32", "hop is 64"),
        ("window_ms = 16", "window_ms = 8", "window length is 128"),
    ])
    def test_train_rejects_feature_geometry_mismatch(self, tmp_path, capsys, old, new, name):
        audio_dir, caps, cfg = make_corpus_dir(tmp_path)
        feat_dir = tmp_path / "features"
        assert main(["extract", "--audio-dir", str(audio_dir),
                     "--out-dir", str(feat_dir), "--config", str(cfg)]) == 0
        cfg.write_text(TINY_CONFIG.replace(old, new))
        assert main(["train", "--features", str(feat_dir), "--captions", str(caps),
                     "--out", str(tmp_path / "run"), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "clip_a.wtf1" in err and name in err

    def test_extract_skips_corrupt_file_with_warning(self, tmp_path, capsys):
        audio_dir, _, cfg = make_corpus_dir(tmp_path)
        (audio_dir / "broken.wav").write_bytes(b"RIFFxxxxWAVEjunk")
        feat_dir = tmp_path / "features"
        code = main(["extract", "--audio-dir", str(audio_dir),
                     "--out-dir", str(feat_dir), "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert "broken.wav" in err
        assert len(list(feat_dir.glob("*.wtf1"))) == 4

    def test_extract_skips_wav_at_another_sample_rate(self, tmp_path, capsys):
        audio_dir, _, cfg = make_corpus_dir(tmp_path)
        write_wav(audio_dir / "clip_e.wav", 0.1 * np.sin(np.arange(8000) / 5.0), 16000)
        feat_dir = tmp_path / "features"
        code = main(["extract", "--audio-dir", str(audio_dir),
                     "--out-dir", str(feat_dir), "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert "clip_e.wav" in err and "16000 Hz" in err and "8000 Hz" in err
        assert not (feat_dir / "clip_e.wtf1").exists()
        assert len(list(feat_dir.glob("*.wtf1"))) == 4

    def test_extract_with_nothing_extracted_is_an_error(self, tmp_path, capsys):
        audio_dir, _, cfg = make_corpus_dir(tmp_path)
        cfg.write_text(TINY_CONFIG.replace("window_ms = 16", "window_ms = 0"))
        feat_dir = tmp_path / "features"
        code = main(["extract", "--audio-dir", str(audio_dir),
                     "--out-dir", str(feat_dir), "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert "none of 4 files extracted" in err and "clip_a.wav" in err
        assert not list(feat_dir.glob("*.wtf1"))

    def test_extract_deterministic_bytes(self, tmp_path):
        audio_dir, _, cfg = make_corpus_dir(tmp_path)
        d1, d2 = tmp_path / "f1", tmp_path / "f2"
        for d in (d1, d2):
            assert main(["extract", "--audio-dir", str(audio_dir),
                         "--out-dir", str(d), "--config", str(cfg)]) == 0
        for f1 in sorted(d1.glob("*.wtf1")):
            f2 = d2 / f1.name
            assert f1.read_bytes() == f2.read_bytes()

    def test_mode_temp_checkpoint_has_no_tf_parameters(self, tmp_path):
        audio_dir, caps, cfg = make_corpus_dir(tmp_path)
        feat_dir = tmp_path / "features"
        run_dir = tmp_path / "run_temp"
        main(["extract", "--audio-dir", str(audio_dir), "--out-dir", str(feat_dir),
              "--config", str(cfg)])
        assert main(["train", "--features", str(feat_dir), "--captions", str(caps),
                     "--out", str(run_dir), "--config", str(cfg),
                     "--mode", "temp", "--max-epochs", "1"]) == 0
        ckpt = load_checkpoint(run_dir / "best.wtck")
        assert not any(".tf." in n or ".merge." in n for n in ckpt.arrays)
        assert any(".temp." in n for n in ckpt.arrays)

    def test_identical_invocations_identical_checkpoints(self, tmp_path):
        audio_dir, caps, cfg = make_corpus_dir(tmp_path)
        feat_dir = tmp_path / "features"
        main(["extract", "--audio-dir", str(audio_dir), "--out-dir", str(feat_dir),
              "--config", str(cfg)])
        outs = []
        for tag in ("r1", "r2"):
            run_dir = tmp_path / tag
            assert main(["train", "--features", str(feat_dir), "--captions", str(caps),
                         "--out", str(run_dir), "--config", str(cfg)]) == 0
            outs.append((run_dir / "best.wtck").read_bytes())
        assert outs[0] == outs[1]

    def test_evaluate_self_prediction_is_one(self, tmp_path, capsys):
        _, caps, _ = make_corpus_dir(tmp_path)
        preds = tmp_path / "self.csv"
        with open(preds, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["file_name", "caption_predicted"])
            for name, cap in CAPTIONS:
                writer.writerow([name, cap])
        assert main(["evaluate", "--predictions", str(preds),
                     "--references", str(caps)]) == 0
        out = capsys.readouterr().out
        assert "bleu_1=1.0000" in out

    def test_evaluate_missing_reference_fails(self, tmp_path):
        _, caps, _ = make_corpus_dir(tmp_path)
        preds = tmp_path / "bad.csv"
        with open(preds, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["file_name", "caption_predicted"])
            writer.writerow(["mystery.wav", "a ghost whistles"])
        assert main(["evaluate", "--predictions", str(preds),
                     "--references", str(caps)]) == 2

    def test_spice_file_enables_spider(self, tmp_path, capsys):
        _, caps, _ = make_corpus_dir(tmp_path)
        preds = tmp_path / "self.csv"
        spice = tmp_path / "spice.csv"
        with open(preds, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["file_name", "caption_predicted"])
            for name, cap in CAPTIONS:
                writer.writerow([name, cap])
        with open(spice, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["file_name", "spice"])
            for name, _ in CAPTIONS:
                writer.writerow([name, "0.099"])
        assert main(["evaluate", "--predictions", str(preds), "--references", str(caps),
                     "--spice-file", str(spice)]) == 0
        out = capsys.readouterr().out
        assert "spider=" in out and "spice=0.0990" in out

    def test_caption_rejects_max_words_beyond_the_checkpoint_horizon(self, tmp_path, capsys):
        audio_dir, caps, cfg = make_corpus_dir(tmp_path)
        cfg.write_text(TINY_CONFIG.replace("max_epochs = 3", "max_epochs = 1"))
        feat_dir, run_dir, preds = tmp_path / "features", tmp_path / "run", tmp_path / "preds.csv"
        assert main(["extract", "--audio-dir", str(audio_dir),
                     "--out-dir", str(feat_dir), "--config", str(cfg)]) == 0
        assert main(["train", "--features", str(feat_dir), "--captions", str(caps),
                     "--out", str(run_dir), "--config", str(cfg)]) == 0
        caption = ["caption", "--features", str(feat_dir), "--checkpoint",
                   str(run_dir / "best.wtck"), "--out", str(preds), "--config"]
        capsys.readouterr()
        too_long = write_cfg(tmp_path, TINY_CONFIG.replace("max_words = 8", "max_words = 33"))
        assert main(caption + [str(too_long)]) == 2
        err = capsys.readouterr().err
        assert "max_words = 33" in err and "max_len = 32" in err
        assert not preds.exists()
        at_horizon = write_cfg(tmp_path, TINY_CONFIG.replace("max_words = 8", "max_words = 32"))
        assert main(caption + [str(at_horizon)]) == 0


def write_rows(path: Path, rows: list[list[str]]) -> Path:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


class TestEvaluateFiles:
    """Malformed prediction and SPICE rows exit 2 naming the file and line."""

    def self_predictions(self, tmp_path, extra=()):
        rows = [["file_name", "caption_predicted"], *map(list, CAPTIONS), *extra]
        return write_rows(tmp_path / "preds.csv", rows)

    @pytest.mark.parametrize("bad_row,message", [
        (["clip_a.wav"], "expected 2 columns, got 1"),
        (["clip_a.wav", "a cat", "extra"], "expected 2 columns, got 3"),
        (["clip_a.wav", "a cat"], "repeated file name 'clip_a.wav'"),
    ])
    def test_bad_prediction_row(self, tmp_path, capsys, bad_row, message):
        _, caps, _ = make_corpus_dir(tmp_path)
        preds = self.self_predictions(tmp_path, [bad_row])
        assert main(["evaluate", "--predictions", str(preds), "--references", str(caps)]) == 2
        assert f"{preds}:6: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("with_spice", [False, True])
    def test_no_prediction_rows(self, tmp_path, capsys, with_spice):
        _, caps, _ = make_corpus_dir(tmp_path)
        preds = write_rows(tmp_path / "preds.csv", [["file_name", "caption_predicted"]])
        spice = write_rows(tmp_path / "spice.csv", [["file_name", "spice"]])
        args = ["evaluate", "--predictions", str(preds), "--references", str(caps)]
        assert main(args + (["--spice-file", str(spice)] if with_spice else [])) == 2
        captured = capsys.readouterr()
        assert f"{preds}: no prediction rows" in captured.err and captured.out == ""

    @pytest.mark.parametrize("bad_row,message", [
        (["clip_d.wav"], "expected 2 columns, got 1"),
        (["clip_d.wav", "abc"], "could not convert string to float: 'abc'"),
        (["clip_d.wav", "nan"], "not a finite number: 'nan'"),
        (["clip_d.wav", "-inf"], "not a finite number: '-inf'"),
        (["clip_a.wav", "0.2"], "repeated file name 'clip_a.wav'"),
    ])
    def test_bad_spice_row(self, tmp_path, capsys, bad_row, message):
        _, caps, _ = make_corpus_dir(tmp_path)
        preds = self.self_predictions(tmp_path)
        rows = [["file_name", "spice"], *[[name, "0.1"] for name, _ in CAPTIONS[:3]], bad_row]
        spice = write_rows(tmp_path / "spice.csv", rows)
        assert main(["evaluate", "--predictions", str(preds), "--references", str(caps),
                     "--spice-file", str(spice)]) == 2
        assert f"{spice}:5: {message}" in capsys.readouterr().err


    def test_a_prediction_that_cleans_to_no_words_scores_as_the_empty_caption(self, tmp_path,
                                                                             capsys):
        _, caps, _ = make_corpus_dir(tmp_path)
        with open(caps, "a", newline="") as fh:
            csv.writer(fh).writerow(["clip_e.wav", "a cat", "", "", "", ""])
        reports = []
        for last in ("", "!!!"):
            preds = self.self_predictions(tmp_path, [["clip_e.wav", last]])
            assert main(["evaluate", "--predictions", str(preds), "--references", str(caps)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] and "bleu_1=" in reports[0]

    def test_a_reference_that_cleans_to_no_words_names_its_line_and_clip(self, tmp_path, capsys):
        _, caps, _ = make_corpus_dir(tmp_path)
        with open(caps, "a", newline="") as fh:  # line 6, after the header and 4 rows
            csv.writer(fh).writerow(["clip_e.wav", "a cat", "?!", "", "", ""])
        preds = self.self_predictions(tmp_path)
        assert main(["evaluate", "--predictions", str(preds), "--references", str(caps)]) == 2
        err = capsys.readouterr().err
        assert f"{caps}:6: clip_e.wav: caption empty after cleaning: '?!'" in err


class TestCsvInputs:
    """Every CSV input goes through one row reader: a malformed row exits 2
    naming the file and line, and bytes that are not UTF-8 name the file."""

    @pytest.mark.parametrize("flag", ["--captions", "--references", "--predictions",
                                      "--spice-file"])
    def test_oversized_field_exits_2_at_its_line(self, tmp_path, capsys, flag):
        _, caps, cfg = make_corpus_dir(tmp_path)
        preds = write_rows(tmp_path / "preds.csv",
                           [["file_name", "caption_predicted"], *map(list, CAPTIONS)])
        spice = write_rows(tmp_path / "spice.csv",
                           [["file_name", "spice"], *[[name, "0.1"] for name, _ in CAPTIONS]])
        bad = {"--captions": caps, "--references": caps, "--predictions": preds,
               "--spice-file": spice}[flag]
        with open(bad, "a", newline="") as fh:  # line 6, after the header and 4 rows
            csv.writer(fh).writerow(["clip_e.wav", "x" * 200_000])
        if flag == "--captions":
            args = ["train", "--features", str(tmp_path / "features"), "--captions", str(caps),
                    "--out", str(tmp_path / "run"), "--config", str(cfg)]
        else:
            args = ["evaluate", "--predictions", str(preds), "--references", str(caps),
                    "--spice-file", str(spice)]
        assert main(args) == 2
        assert f"{bad}:6: field larger than field limit (131072)" in capsys.readouterr().err

    def test_predictions_not_in_utf8_name_the_file(self, tmp_path, capsys):
        _, caps, _ = make_corpus_dir(tmp_path)
        preds = tmp_path / "preds.csv"
        preds.write_bytes("file_name,caption_predicted\nclip_a.wav,a dog in a café\n"
                          .encode("latin-1"))
        assert main(["evaluate", "--predictions", str(preds), "--references", str(caps)]) == 2
        assert f"error: {preds}: not UTF-8 text" in capsys.readouterr().err
