"""Command-line surface: extract, train, caption, evaluate.

Exit codes: 0 success, 1 completed with data warnings (e.g. unreadable
input files were skipped), 2 hard error.
"""
from __future__ import annotations

import os

# One BLAS thread per calling thread, set before numpy loads: the conv pool
# already runs a task on every core, and BLAS threads of their own would
# oversubscribe them.  A value already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import csv  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict, replace  # noqa: E402
from pathlib import Path  # noqa: E402

from . import __version__  # noqa: E402
from .audio import AudioConfig, extract_features, load_wav  # noqa: E402
from .config import load_config  # noqa: E402
from .errors import ConfigError, DataError  # noqa: E402
from .fileformats import read_wtf1, write_wtf1  # noqa: E402
from .inference import caption_corpus  # noqa: E402
from .metrics import EvalPair, assemble_report  # noqa: E402
from .model import CaptionModel  # noqa: E402
from .tensor import RngState  # noqa: E402
from .text import (  # noqa: E402
    clean_words,
    csv_rows,
    load_caption_csv,
    make_validation_split,
    write_split_manifest,
)
from .training import (  # noqa: E402
    TrainItem,
    load_checkpoint,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_WARNINGS = 1
EXIT_ERROR = 2


def cmd_extract(args) -> int:
    cfg = load_config(args.config)
    audio_dir = Path(args.audio_dir)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    wavs = sorted(audio_dir.glob("*.wav"))
    if not wavs:
        print(f"error: no .wav files in {audio_dir}", file=sys.stderr)
        return EXIT_ERROR
    skipped = []
    written = []
    for wav in wavs:
        try:
            clip = load_wav(wav)
            fm = extract_features(clip, cfg.audio)
        except ValueError as exc:
            print(f"warning: skipping {wav.name}: {exc}", file=sys.stderr)
            skipped.append(f"{wav.name}: {exc}")
            continue
        target = out_dir / (wav.stem + ".wtf1")
        write_wtf1(target, fm)
        written.append((wav.name, target.name, fm.num_frames))
    if not written:
        print(f"error: none of {len(wavs)} files extracted; first failure: {skipped[0]}",
              file=sys.stderr)
        return EXIT_ERROR
    manifest = out_dir / "features_manifest.csv"
    with open(manifest, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["file_name", "feature_file", "frames"])
        writer.writerows(written)
    print(f"extracted {len(written)} of {len(wavs)} files -> {out_dir}")
    return EXIT_WARNINGS if skipped else EXIT_OK


def _read_features(path: Path, source: str, expected: dict):
    """The values of the WTF1 file at `path`, each field named in `expected`
    ({name: value}) checked against the value that `source` gives."""
    fm = read_wtf1(path)
    found = {"mel band count": fm.num_bands, "sample rate": fm.sample_rate,
             "hop": fm.frame_hop, "window length": fm.window_length}
    for name, want in expected.items():
        if found[name] != want:
            raise DataError(f"{path}: {name} is {found[name]:g} but {source} {want:g}")
    return fm.values


def _geometry(audio: AudioConfig) -> dict:
    """The WTF1 fields that features made with `audio` have, by name."""
    return {"mel band count": audio.n_mels, "sample rate": audio.sample_rate,
            "hop": audio.hop, "window length": audio.window_length}


def _load_items(feature_dir: Path, corpus, audio: AudioConfig) -> dict:
    """{file_name: features} of every corpus entry."""
    expected = _geometry(audio)
    features = {}
    for entry in corpus.entries:
        path = feature_dir / (Path(entry.file_name).stem + ".wtf1")
        if not path.exists():
            raise DataError(f"no feature file for {entry.file_name}: expected {path}")
        features[entry.file_name] = _read_features(path, "the [audio] config gives", expected)
    return features


def cmd_train(args) -> int:
    from .text import build_vocab, encode

    cfg = load_config(args.config, overrides={
        ("run", "seed"): args.seed, ("encoder", "mode"): args.mode,
        ("train", "max_epochs"): args.max_epochs,
    })
    feature_dir = Path(args.features)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    corpus = load_caption_csv(args.captions)
    features_by_name = _load_items(feature_dir, corpus, cfg.audio)

    vocab = build_vocab(corpus.all_token_lists())
    if cfg.val_size > 0:
        train_corpus, val_corpus = make_validation_split(
            corpus, n=cfg.val_size, rarity_threshold=cfg.rarity_threshold,
            rng=RngState(cfg.seed),
        )
    else:
        train_corpus, val_corpus = corpus, type(corpus)([])
    write_split_manifest(out_dir / "train_manifest.txt", train_corpus)
    write_split_manifest(out_dir / "val_manifest.txt", val_corpus)

    def to_items(split):
        out = []
        for entry in split.entries:
            for words in entry.tokens:
                out.append(TrainItem(
                    entry.file_name, features_by_name[entry.file_name],
                    encode(words, vocab).indices,
                ))
        return out

    train_items = to_items(train_corpus)
    val_items = to_items(val_corpus)

    dec_cfg = replace(cfg.decoder, vocab_size=vocab.size)
    model = CaptionModel(cfg.encoder, dec_cfg, seed=cfg.seed)
    print(f"training: {len(train_items)} items, {len(val_items)} validation, "
          f"{model.params.count()} parameters, mode={cfg.encoder.mode}")

    log_rows = []
    audio = asdict(cfg.audio)

    def save(result):
        with open(out_dir / "loss_log.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_loss"])
            for epoch, tr, vl in log_rows:
                writer.writerow([epoch, f"{tr:.6f}", "" if vl is None else f"{vl:.6f}"])
        for name, ckpt in (("best", result.best_checkpoint), ("last", result.final_checkpoint)):
            save_checkpoint(out_dir / f"{name}.wtck", replace(ckpt, audio_config=audio))

    def log(epoch, tr, vl, result):
        log_rows.append((epoch, tr, vl))
        msg = f"epoch {epoch}: train {tr:.4f}"
        if vl is not None:
            msg += f"  val {vl:.4f}"
        print(msg)
        save(result)  # so that a crash in a later epoch leaves this one's outputs

    result = train(model, train_items, val_items, cfg.train, vocab, log=log)
    if not log_rows:  # no epoch ran: the outputs of the model as built
        save(result)
    print(f"best epoch {result.best_epoch} of {result.epochs_run}; "
          f"checkpoints in {out_dir}")
    return EXIT_OK


def cmd_caption(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model, vocab = ckpt.build_model()
    cfg = load_config(args.config, overrides={("decode", "beam_size"): args.beam})
    if cfg.decode.max_words > model.dec_cfg.max_len:
        raise ConfigError(f"[decode] max_words = {cfg.decode.max_words} exceeds the "
                          f"checkpoint's [decoder] max_len = {model.dec_cfg.max_len}")
    feature_dir = Path(args.features)
    files = sorted(feature_dir.glob("*.wtf1"))
    if not files:
        print(f"error: no .wtf1 files in {feature_dir}", file=sys.stderr)
        return EXIT_ERROR
    # a checkpoint that does not record its features' geometry has its band count
    audio = ckpt.audio()
    expected = {"mel band count": model.enc_cfg.n_mels} if audio is None else _geometry(audio)
    named = [(f.stem + ".wav", _read_features(f, "the checkpoint's model takes", expected))
             for f in files]
    manifest = caption_corpus(named, model, vocab, cfg.decode,
                              log=print if args.verbose else None)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["file_name", "caption_predicted"])
        writer.writerows(manifest)
    print(f"captioned {len(manifest)} files -> {out}")
    return EXIT_OK


def _read_by_file(path, header: list[str], convert=str) -> dict:
    """{file_name: convert(value)} from the rows of a two-column CSV file
    under `header`; a repeated name or a bad value raises DataError at its line."""
    out = {}
    for where, (name, value) in csv_rows(path, header):
        if name in out:
            raise DataError(f"{where}: repeated file name {name!r}")
        try:
            out[name] = convert(value)
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from None
    return out


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def cmd_evaluate(args) -> int:
    predictions = _read_by_file(args.predictions, ["file_name", "caption_predicted"])
    if not predictions:
        raise DataError(f"{args.predictions}: no prediction rows")
    references = load_caption_csv(args.references)
    ref_by_name = {e.file_name: e for e in references.entries}
    corpus = []
    for name in sorted(predictions):
        if name not in ref_by_name:
            raise DataError(f"no references for predicted file {name!r}")
        # a prediction that cleans to no words scores as the empty caption
        cand = clean_words(predictions[name])
        corpus.append(EvalPair(cand, ref_by_name[name].tokens))
    spice = None
    if args.spice_file:
        per_file = _read_by_file(args.spice_file, ["file_name", "spice"], _finite)
        missing = sorted(set(predictions) - set(per_file))
        if missing:
            raise DataError(f"spice file lacks entries for: {missing[:3]}")
        spice = sum(per_file[n] for n in sorted(predictions)) / len(predictions)
    report = assemble_report(corpus, spice=spice)
    text = "\n".join(report.lines())
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavetransformer",
        description="Audio captioning: feature extraction, training, decoding, evaluation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="WAV files -> WTF1 log-mel feature files")
    p.add_argument("--audio-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a captioning model")
    p.add_argument("--features", required=True, help="directory of .wtf1 files")
    p.add_argument("--captions", required=True, help="caption CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None)
    p.add_argument("--mode", choices=["full", "temp", "tf", "avg"], default=None,
                   help="encoder ablation (default: config value)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-epochs", dest="max_epochs", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("caption", help="decode captions for feature files")
    p.add_argument("--features", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--beam", type=int, default=None, help="1 = greedy")
    p.add_argument("--config", default=None)
    p.add_argument("--verbose", action="store_true",
                   help="print each caption with its encode and decode time")
    p.set_defaults(func=cmd_caption)

    p = sub.add_parser("evaluate", help="score predictions against references")
    p.add_argument("--predictions", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--spice-file", default=None,
                   help="optional per-file SPICE CSV to enable SPIDEr")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)
    return parser


_MODE_ALIASES = {"temp": "temp_only", "tf": "tf_only"}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "mode", None) in _MODE_ALIASES:
        args.mode = _MODE_ALIASES[args.mode]
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # every package error type (data, config, format, checkpoint,
        # dimension, usage) derives from ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
