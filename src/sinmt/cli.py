"""Command-line entry point: gen / train / eval / probe / export.

Every command is deterministic given its config and seeds; reruns
produce byte-identical artifacts. Progress and warnings go to standard
error; data goes to files or standard output.

Exit codes: 0 success, 2 configuration or usage error, 3 I/O error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
import warnings
from pathlib import Path

from . import autodiff as ad
from . import config as cf
from . import evaluation as ev
from . import model as md
from . import synthdata as sd
from . import training as tr

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

# glibc mallopt parameters (malloc.h) and the values main() sets.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MMAP_THRESHOLD = 32 << 20  # glibc's own ceiling for its dynamic threshold
_TRIM_THRESHOLD = 1 << 30


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _read_config(path: str | None) -> cf.ExperimentConfig:
    """The config at ``path``, or the defaults, not yet validated: a
    command validates it after applying its flags."""
    if path is None:
        return cf.ExperimentConfig()
    return cf.read(path)


def _load_network(path: str):
    # scoring reads the spoof branch only: no speaker head, no reversal
    try:
        return md.load_checkpoint(path, mode=md.MODE_BASELINE)
    except ValueError as exc:
        raise ValueError(f"cannot load checkpoint {path}: {exc}") from exc


def _require_writable_dir(out: Path) -> None:
    """Raise OSError unless ``out`` is, or can be made as, a directory:
    its nearest existing ancestor (itself included) must be a writable
    directory."""
    ancestor = out
    while not ancestor.exists():
        ancestor = ancestor.parent
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK)):
        raise OSError(f"cannot write --out {out}: {ancestor} is not a "
                      f"writable directory")


def cmd_gen(args) -> int:
    cfg = _read_config(args.config)
    cfg.validate()
    out = Path(args.out)
    manifest = sd.generate_corpus(cfg.corpus, out, force=args.force)
    cf.write_resolved(cfg, out / "config.resolved")
    counts = {s: len(manifest.split_records(s)) for s in sd.SPLITS}
    _log(f"wrote {len(manifest.records)} utterances to {out} "
         f"(train {counts['train']}, dev {counts['dev']}, "
         f"eval {counts['eval']})")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _read_config(args.config)
    if args.mode:
        cfg.train.mode = args.mode
    if args.init:
        cfg.train.init_checkpoint = args.init
    cfg.validate()
    out = Path(args.out)
    _require_writable_dir(out)
    if cfg.train.mode == md.MODE_SPEAKER_INVARIANT and \
            not cfg.train.init_checkpoint:
        _log("warning: adversarial mode is starting cold; the reference "
             "recipe warm-starts it from the best cooperative ('spk') "
             "checkpoint via --init")

    manifest = sd.read_manifest(args.corpus)
    _log(f"training mode={cfg.train.mode} grl={cfg.train.resolved_grl()} "
         f"alpha={cfg.train.alpha} seed={cfg.train.seed}")
    result = tr.train(cfg.train, manifest,
                      encoder=cfg.model.encoder, head=cfg.model.head)

    out.mkdir(parents=True, exist_ok=True)
    md.save_checkpoint(result.network, out / "best.ckpt")
    tr.write_history(result.history, out / "history.txt")
    cf.write_resolved(cfg, out / "config.resolved")
    _log(f"best epoch {result.best_epoch} "
         f"(dev EER {result.best_dev_eer:.4f}); "
         f"checkpoint at {out / 'best.ckpt'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    network = _load_network(args.ckpt)
    manifest = sd.read_manifest(args.corpus)
    out = Path(args.out)
    _require_writable_dir(out)
    scores = ev.score_split(network, manifest, args.split,
                            batch_size=args.batch_size)
    out.mkdir(parents=True, exist_ok=True)
    ev.write_scores(scores, out / "scores.txt")
    report = ev.breakdown_report(
        scores, expected_attacks=[a.attack_id for a in manifest.attacks])
    text = ev.render_report(report)
    ev.write_report(report, out / "report.txt")
    print(text, end="")
    for message in report.warnings:
        _log(f"warning: {message}")
    _log(f"scores at {out / 'scores.txt'}, report at {out / 'report.txt'}")
    return EXIT_OK


def cmd_probe(args) -> int:
    network = _load_network(args.ckpt)
    manifest = sd.read_manifest(args.corpus)
    report = ev.separability_report(network, manifest, args.split,
                                    seed=args.seed)
    print(f"split            {args.split}")
    print(f"speakers         {report.n_speakers}")
    print(f"probe_accuracy   {report.probe_accuracy:.6f}")
    print(f"chance_level     {report.chance_level:.6f}")
    print(f"silhouette       {report.silhouette_score:.6f}")
    return EXIT_OK


def cmd_export(args) -> int:
    network = _load_network(args.ckpt)
    manifest = sd.read_manifest(args.corpus)
    _require_writable_dir(Path(args.out).parent)
    count = ev.export_embeddings(network, manifest, args.split, args.out)
    _log(f"wrote {count} embeddings to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinmt",
        description="Speaker-invariant spoofing-detection experiments "
                    "on a synthetic corpus")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--config", help="experiment config (JSON)")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument("--force", action="store_true",
                   help="overwrite an existing corpus directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train one model")
    p.add_argument("--config", help="experiment config (JSON)")
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--mode", choices=sorted(md.MODES),
                   help="override the config's training mode")
    p.add_argument("--init", help="warm-start checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a split and report EER")
    p.add_argument("--ckpt", required=True, help="trained checkpoint")
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--split", default="eval", choices=cf.SPLIT_CHOICES)
    p.add_argument("--batch-size", type=int, default=32)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("probe",
                       help="speaker separability of the embeddings")
    p.add_argument("--ckpt", required=True, help="trained checkpoint")
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--split", default="all", choices=cf.SPLIT_CHOICES)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("export", help="write embeddings to a file")
    p.add_argument("--ckpt", required=True, help="trained checkpoint")
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="output file")
    p.add_argument("--split", default="eval", choices=cf.SPLIT_CHOICES)
    p.set_defaults(func=cmd_export)

    return parser


def _keep_freed_heap_mapped() -> None:
    """Stop glibc from returning freed heap to the OS between steps.

    ``Tape.backward`` frees each node's forward captures during the
    sweep, so the heap top is free once a step ends. By default glibc
    trims it, and the next forward pass faults it back in page by page:
    about 32k minor faults and 100-140 ms of system time per 32x4000
    training step (one BLAS thread, 2-core x86-64). With trimming held
    off and the mmap threshold fixed at its dynamic ceiling, the freed
    heap stays mapped and is reused. glibc is also held to one arena:
    every op that splits its batch across CPUs (conv1d, layer norm,
    attention, gelu, add and the linear layers' matmul) allocates
    temporaries in worker threads, which would otherwise each get an
    arena of their own, so memory freed in one thread could not serve
    the next allocation in another and the peak resident size grows.
    Does nothing without glibc.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_ARENA_MAX, 1)


def main(argv=None) -> int:
    _keep_freed_heap_mapped()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help; keep both
        return int(exc.code or 0)
    try:
        # a warning is shown even when the command then fails
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return args.func(args)
            finally:
                for w in caught:
                    _log(f"warning: {w.message}")
    except ad.NumericsError as exc:
        _log(f"numerical failure: {exc}")
        return EXIT_NUMERIC
    except FileExistsError as exc:
        _log(f"refusing to overwrite: {exc}")
        return EXIT_IO
    except OSError as exc:
        _log(f"I/O error: {exc}")
        return EXIT_IO
    except ValueError as exc:
        _log(f"configuration error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
