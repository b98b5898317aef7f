#!/usr/bin/env python3
"""The sinmt benchmark: training, scoring and probing, end to end.

    python3 perfbench/run.py --workload cascade --seed 0 --seconds 10 --trace 0

Runs one workload in this process against the sinmt source under
``src/`` of the checkout, checks the program's outputs, and prints one
JSON object as the last line of standard output: end-to-end metrics
with ``--trace 0``, per-layer metrics from a traced run with
``--trace 1``. ``--workload all`` runs every workload, each in a process
of its own, and prints them together. Result files (with the
environment they ran in) and span files go to ``.perfbench_out/results``;
corpora and checkpoints live in ``.perfbench_out/work`` and are removed
when the run ends. See ``perfbench/README.md``.
"""

import os

# Pin BLAS to one thread before numpy loads: parameters after one epoch
# already differ between one and two threads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import checks as ck  # noqa: E402
import spec  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".perfbench_out"

SETUP_REPEATS = 3
# scripts/run_demo.sh's recipe; each stage's epochs cut from 60:30:30
REFERENCE_RECIPE = {"learning_rate": 0.0015, "batch_size": 32,
                    "clip_len": 2000, "patience": 100, "augment": False}
CASCADE = (("baseline", {"epochs": 2}, None),
           ("spk", {"epochs": 1, "alpha": 1.0}, "baseline"),
           ("ivspk", {"epochs": 1, "alpha": 0.1,
                      "fold_alpha_into_lambda": True}, "spk"))
DEFAULT_EPOCHS = 2
GRADIENT_BATCH = 4
GRADIENT_COORDS = {"extractor": 8, "spoof_head": 4, "speaker_head": 4}
SINGLE_SCORES = 6


class BenchError(Exception):
    """A sinmt command failed, or the program could not be loaded."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def load_sinmt() -> SimpleNamespace:
    """Import sinmt from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sinmt" / "cli.py").is_file():
        raise BenchError(f"no sinmt source under {src}")
    sys.path.insert(0, str(src))
    import sinmt
    from sinmt import (autodiff, cli, config, evaluation, model, synthdata,
                       training)
    if Path(sinmt.__file__).resolve().parent != (src / "sinmt").resolve():
        raise BenchError(f"sinmt imported from {sinmt.__file__}, "
                         f"not from {src}")
    return SimpleNamespace(ad=autodiff, cli=cli, cf=config, ev=evaluation,
                           md=model, sd=synthdata, tr=training,
                           modules=(autodiff, cli, config, evaluation, model,
                                    synthdata, training))


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def blas_threads():
    """The thread count OpenBLAS reports, when its library can be found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def git_state():
    if not (ROOT / ".git").exists():
        return {"revision": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=60,
                              check=True).stdout.strip()

    try:
        return {"revision": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError):
        return {"revision": None, "dirty": None}


def environment(seed: int) -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "pinned_threads": {v: os.environ[v]
                                    for v in BLAS_THREAD_VARS},
                 "reported_threads": blas_threads()},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "git": git_state(),
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


class Bench:
    """Set-up, measured rounds and checks of one workload in one process.

    A round always runs the same sinmt commands and the same checks, so
    the share of failed operations does not depend on run length.
    """

    def __init__(self, sinmt, workload, seed, work, tracer):
        self.s = sinmt
        self.workload = workload
        self.work = work
        self.tracer = tracer
        corpus_seed, train_seed, check_seed = (
            int(x) for x in np.random.SeedSequence(seed).generate_state(3))
        self.corpus_seed = corpus_seed
        self.train_seed = train_seed
        self.check_seed = check_seed
        self.attempted = 0
        self.failed = 0
        self.checks: list[ck.CheckResult] = []
        self.epochs = 0
        self.peak_rss_mb = None
        self.setup_times: list[float] = []

    # -- operations -----------------------------------------------------

    def commands_done(self) -> None:
        """Read the peak resident memory once the first round's commands
        have run and before any check adds to it."""
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _span(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def command(self, *argv) -> tuple[float, str]:
        """Run one sinmt command; returns (wall seconds, its stdout)."""
        argv = [str(a) for a in argv]
        out = io.StringIO()
        self.attempted += 1
        with self._span(f"cli.{argv[0]}"):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = self.s.cli.main(argv)
            elapsed = time.perf_counter() - t0
        if code != 0:
            self.failed += 1
            raise BenchError(f"sinmt {' '.join(argv)} exited with {code}")
        return elapsed, out.getvalue()

    def check(self, name, fn) -> None:
        """Run one check with tracing paused; a raise counts as a fail."""
        self.attempted += 1
        paused = (self.tracer.paused() if self.tracer is not None
                  else contextlib.nullcontext())
        with paused:
            try:
                result = fn()
            except Exception as exc:  # a crashing check is a failed check
                result = ck.CheckResult(False, f"raised {exc!r}")
        result.name = name
        if not result.ok:
            self.failed += 1
            log(f"check failed: {name}: {result.detail}")
        self.checks.append(result)

    # -- set-up -----------------------------------------------------------

    def write_config(self, name, document) -> Path:
        path = self.work / name
        path.write_text(json.dumps(document, indent=2) + "\n")
        return path

    def set_up_once(self, target: Path) -> float:
        """Generate the corpus into ``target`` (and, for score-probe,
        write a seeded ivspk checkpoint there); returns the seconds."""
        with self._span("bench.setup"):
            t0 = time.perf_counter()
            self.command("gen", "--config", self.corpus_config, "--out",
                         target, "--force")
            if self.workload == "score-probe":
                self.write_seeded_checkpoint(target)
            return time.perf_counter() - t0

    def setup(self) -> None:
        """All set-ups but the last run here, each into a fresh
        directory; the rounds use the last of them."""
        self.work.mkdir(parents=True)
        self.corpus_config = self.write_config(
            "corpus.json", {"corpus": {"seed": self.corpus_seed}})
        for i in range(SETUP_REPEATS - 1):
            if i:
                shutil.rmtree(self.corpus)
            self.corpus = self.work / f"corpus{i}"
            self.setup_times.append(self.set_up_once(self.corpus))
        rows = ck.read_manifest_rows(self.corpus)
        self.rows = rows
        self.n_train = sum(r["split"] == "train" for r in rows)
        self.train_classes = sorted({r["speaker"] for r in rows
                                     if r["split"] == "train"})
        base = {"seed": self.train_seed, **REFERENCE_RECIPE}
        self.cascade_configs = {
            mode: self.write_config(f"{mode}.json",
                                    {"train": {**base, **extra}})
            for mode, extra, _ in CASCADE}
        self.default_config = self.write_config(
            "default.json", {"train": {"seed": self.train_seed,
                                       "epochs": DEFAULT_EPOCHS}})

    def setup_s(self) -> float:
        """The last set-up runs after the rounds, so the median samples
        the machine's speed at both ends of the run; returns setup_s."""
        target = self.work / "corpus_last"
        self.setup_times.append(self.set_up_once(target))
        shutil.rmtree(target)
        return statistics.median(self.setup_times)

    def write_seeded_checkpoint(self, corpus) -> None:
        speakers = {r["speaker"] for r in ck.read_manifest_rows(corpus)
                    if r["split"] == "train"}
        net = self.s.md.SInMTNetwork("ivspk", n_speakers=len(speakers),
                                     seed=self.train_seed)
        self.s.md.save_checkpoint(net, corpus / "ivspk.ckpt")

    # -- rounds -------------------------------------------------------------

    def measure(self, seconds: float) -> list[dict]:
        """Whole rounds until ``seconds`` have passed (at least one)."""
        run_round = {"cascade": self.cascade_round,
                     "train-default": self.train_default_round,
                     "score-probe": self.score_probe_round}[self.workload]
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            round_dir = self.work / f"round{len(rounds)}"
            round_dir.mkdir()
            with self._span("bench.round"):
                rounds.append(run_round(round_dir))
            shutil.rmtree(round_dir)
        return rounds

    def train(self, config, out, *extra) -> tuple[float, int]:
        """One ``sinmt train``; returns (seconds, utterances consumed)."""
        elapsed, _ = self.command("train", "--config", config, "--corpus",
                                  self.corpus, "--out", out, *extra)
        epochs = len(ck.read_history_file(out / "history.txt"))
        self.epochs += epochs
        return elapsed, epochs * self.n_train

    def cascade_round(self, d: Path) -> dict:
        starts = {}
        stage = [None]

        def first_step(original):
            def step(network, *args, **kwargs):
                if stage[0] not in starts:
                    starts[stage[0]] = network.params.state()
                return original(network, *args, **kwargs)
            return step

        seconds = utts = 0
        with ck.patched(self.s.tr, "train_step", first_step):
            for mode, _, parent in CASCADE:
                stage[0] = mode
                init = ("--init", d / parent / "best.ckpt") if parent else ()
                dt, n = self.train(self.cascade_configs[mode], d / mode,
                                   "--mode", mode, *init)
                seconds += dt
                utts += n
        self.commands_done()
        for mode, _, parent in CASCADE:
            self.training_checks(d / mode, mode)
            if parent:
                self.check(f"warm_start_{mode}", lambda m=mode, p=parent:
                           ck.check_bit_identical(
                               starts[m], ck.read_checkpoint_values(
                                   d / p / "best.ckpt")))
        self.check("reversal_gradients",
                   lambda: self.reversal_check(d / "ivspk" / "best.ckpt"))
        return {"utts": utts, "seconds": seconds,
                "train_utts": utts, "train_s": seconds}

    def train_default_round(self, d: Path) -> dict:
        seconds, utts = self.train(self.default_config, d / "default")
        self.commands_done()
        self.training_checks(d / "default", "default")
        return {"utts": utts, "seconds": seconds,
                "train_utts": utts, "train_s": seconds}

    def score_probe_round(self, d: Path) -> dict:
        ckpt = self.corpus / "ivspk.ckpt"
        eval_s, _ = self.command("eval", "--ckpt", ckpt, "--corpus",
                                 self.corpus, "--out", d, "--split", "eval")
        embedded = {}

        def capture(original):
            def embed_split(*args, **kwargs):
                records, emb = original(*args, **kwargs)
                embedded["ids"] = [r.utt_id for r in records]
                embedded["emb"] = emb
                return records, emb
            return embed_split

        with ck.patched(self.s.ev, "embed_split", capture):
            probe_s, text = self.command("probe", "--ckpt", ckpt, "--corpus",
                                         self.corpus, "--split", "all")
        printed = dict(line.split(None, 1) for line in text.splitlines()
                       if line.strip())
        self.commands_done()
        scores = d / "scores.txt"
        self.check("report_eers",
                   lambda: ck.check_report(scores, d / "report.txt"))
        self.check("scored_once",
                   lambda: ck.check_scored_once(scores, self.corpus, "eval"))
        self.check("single_vs_batched",
                   lambda: self.single_scores_check(ckpt, scores))
        self.check("silhouette", lambda: self.silhouette_check(
            embedded, float(printed["silhouette"])))
        self.check("probe_accuracy", lambda: ck.check_range(
            float(printed["probe_accuracy"]), 0.0, 1.0))
        n_eval = sum(r["split"] == "eval" for r in self.rows)
        n_all = len(self.rows)
        return {"utts": n_eval + n_all, "seconds": eval_s + probe_s,
                "score_utts": n_eval, "score_s": eval_s, "probe_s": probe_s}

    # -- checks that need the network -------------------------------------

    def training_checks(self, run_dir: Path, name: str) -> None:
        history = run_dir / "history.txt"
        self.check(f"finite_losses_{name}",
                   lambda: ck.check_history_finite(history))
        self.check(f"best_dev_eer_{name}",
                   lambda: self.dev_eer_check(run_dir))

    def dev_eer_check(self, run_dir: Path) -> ck.CheckResult:
        """The recorded best dev EER against the bracket of the dev
        scores that the saved best.ckpt gives."""
        best = min(r[4] for r in ck.read_history_file(
            run_dir / "history.txt"))
        net = self.s.md.load_checkpoint(run_dir / "best.ckpt")
        manifest = self.s.sd.read_manifest(self.corpus)
        # both recipes train, and so score dev, in batches of 32
        scores = self.s.ev.score_split(net, manifest, "dev", batch_size=32)
        rows = [(t.utt_id, t.score, t.label, t.attack_id)
                for t in scores.trials]
        return ck.check_mean_eer(best, rows)

    def reversal_check(self, ckpt: Path) -> ck.CheckResult:
        """The program's gradients on one ivspk batch against central
        differences of losses computed here from the logits."""
        s = self.s
        net = s.md.load_checkpoint(ckpt)
        train = [r for r in self.rows if r["split"] == "train"]
        class_of = {c: i for i, c in enumerate(self.train_classes)}
        rng = np.random.default_rng(
            np.random.SeedSequence([self.check_seed, 1]))
        clip = REFERENCE_RECIPE["clip_len"]
        wavs, y_spoof, y_spk = [], [], []
        for i in rng.choice(len(train), size=GRADIENT_BATCH, replace=False):
            wav = ck.read_waveform_file(self.corpus / train[i]["path"])
            start = int(rng.integers(0, len(wav) - clip + 1))
            wavs.append(wav[start:start + clip])
            y_spoof.append(int(train[i]["label"] != ck.BONAFIDE))
            y_spk.append(class_of[train[i]["speaker"]])
        batch = s.tr.Batch(np.stack(wavs), np.array(y_spoof),
                           np.array(y_spk))
        counts = np.bincount([int(r["label"] != ck.BONAFIDE) for r in train],
                             minlength=2).astype(np.float64)
        spoof_w = (1.0 / counts) / (1.0 / counts).mean()
        speaker_w = np.ones(len(class_of))
        recipe = dict(CASCADE[2][1])
        recipe.pop("epochs")
        config = s.tr.TrainConfig(mode="ivspk", **REFERENCE_RECIPE, **recipe)
        analytic = ck.program_gradients(s.tr, s.ad, net, batch, config,
                                        spoof_w, speaker_w)
        # folding alpha into lambda leaves the speaker loss unweighted
        speaker_weight = 1.0 if config.fold_alpha_into_lambda else config.alpha
        return ck.check_network_reversal(
            net, batch, spoof_w, speaker_w, analytic,
            reversal=net.grl_scale * config.alpha,
            speaker_weight=speaker_weight, per_group=GRADIENT_COORDS,
            seed=self.check_seed)

    def single_scores_check(self, ckpt: Path, scores: Path):
        """A seeded sample of eval utterances scored one at a time."""
        rows = ck.read_scores_file(scores)
        path_of = {r["utt_id"]: r["path"] for r in self.rows}
        rng = np.random.default_rng(
            np.random.SeedSequence([self.check_seed, 2]))
        sample = [rows[i] for i in rng.choice(len(rows), size=SINGLE_SCORES,
                                              replace=False)]
        net = self.s.md.load_checkpoint(ckpt)
        alone = []
        for utt_id, _, _, _ in sample:
            wav = ck.read_waveform_file(self.corpus / path_of[utt_id])
            logits = net.forward(wav[None, :]).spoof_logits.data[0]
            alone.append(logits[0] - logits[1])
        return ck.check_close(alone, [r[1] for r in sample],
                              ck.SINGLE_SCORE_RTOL)

    def silhouette_check(self, embedded, printed):
        if embedded.get("ids") != [r["utt_id"] for r in self.rows]:
            return ck.CheckResult(False, "probe embedded other utterances "
                                         "than the manifest lists")
        return ck.check_silhouette(embedded["emb"],
                                   [r["speaker"] for r in self.rows],
                                   printed)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def median_rate(rounds, count, seconds) -> float:
    rates = [r[count] / r[seconds] for r in rounds if r.get(seconds)]
    return statistics.median(rates) if rates else 0.0


def command_metrics(rounds) -> dict:
    """Throughput of each sinmt command on its own; 0 where the
    workload does not run the command."""
    probe = [r["probe_s"] for r in rounds if "probe_s" in r]
    return {"cli.train_utts_per_s": median_rate(rounds, "train_utts",
                                                "train_s"),
            "cli.score_utts_per_s": median_rate(rounds, "score_utts",
                                                "score_s"),
            "cli.probe_s": statistics.median(probe) if probe else 0.0}


def layer_metrics(tracer: Tracer, bench: Bench, rounds) -> dict:
    """Per-layer figures from the traced run; see README for the base
    each one is divided by."""
    totals = tracer.totals()

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def per(value, base):
        return value / base if base else 0.0

    def per_call_ms(name):
        return per(total(name) * 1e3, calls(name))

    def per_call_s(name):
        return per(total(name), calls(name))

    batches = calls("model.forward") + calls("model.infer")
    backwards = calls("autodiff.backward")
    n_rounds = len(rounds)
    m = {}
    for op in spec.OPS:
        fwd, bwd, n = tracer.ops.get(op, (0.0, 0.0, 0))
        m[f"autodiff.{op}.fwd_ms"] = per(fwd * 1e3, batches)
        m[f"autodiff.{op}.bwd_ms"] = per(bwd * 1e3, backwards)
        m[f"autodiff.{op}.calls"] = per(n, batches)
    m.update({
        "autodiff.backward_ms": per_call_ms("autodiff.backward"),
        "autodiff.tape_nodes": per(tracer.tape_nodes, backwards),
        "autodiff.optimizer_step_ms": per_call_ms("autodiff.optimizer_step"),
        "model.forward_ms": per_call_ms("model.forward"),
        "model.infer_ms": per_call_ms("model.infer"),
        "model.encode_ms": per(total("model.encode") * 1e3, batches),
        "model.mhfa_pool_ms": per(total("model.mhfa_pool") * 1e3, batches),
        "model.mhfa_pool_calls": per(calls("model.mhfa_pool"), batches),
        "model.save_checkpoint_ms": per_call_ms("model.save_checkpoint"),
        "model.load_checkpoint_ms": per_call_ms("model.load_checkpoint"),
        "training.train_step_ms": per_call_ms("training.train_step"),
        "training.train_step_calls": per(calls("training.train_step"),
                                         n_rounds),
        "training.dev_infer_s": per(
            tracer.inside("model.infer", "training.train"), bench.epochs),
        "synthdata.generate_corpus_s": per_call_s("synthdata.generate_corpus"),
        "synthdata.augment_ms": per_call_ms("synthdata.augment"),
        "synthdata.augment_calls": per(calls("synthdata.augment"), n_rounds),
        "synthdata.load_waveform_ms": per_call_ms("synthdata.load_waveform"),
        "synthdata.load_waveform_calls": per(
            calls("synthdata.load_waveform"), n_rounds),
        "synthdata.read_manifest_ms": per_call_ms("synthdata.read_manifest"),
        "evaluation.score_split_s": per_call_s("evaluation.score_split"),
        "evaluation.breakdown_report_ms": per_call_ms(
            "evaluation.breakdown_report"),
        "evaluation.write_scores_ms": per_call_ms("evaluation.write_scores"),
        "evaluation.embed_split_s": per_call_s("evaluation.embed_split"),
        "evaluation.speaker_probe_s": per_call_s("evaluation.speaker_probe"),
        "evaluation.silhouette_s": per_call_s("evaluation.silhouette"),
    })
    m.update(command_metrics(rounds))
    return m


def untraced_medians(workload: str) -> dict:
    """Medians of earlier untraced results of this workload, if any."""
    values: dict[str, list] = {}
    for path in sorted((OUT_ROOT / "results").glob(f"{workload}-*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if data.get("trace") == 0 and data.get("correct"):
            for name, value in data["end_to_end"].items():
                values.setdefault(name, []).append(value)
    return {k: statistics.median(v) for k, v in values.items()}


def tracing_overhead(workload: str, traced: dict) -> dict:
    """How much worse each end-to-end metric reads with tracing on, as a
    share of the untraced median."""
    base = untraced_medians(workload)
    out = {}
    for name, _, better, _ in spec.END_TO_END:
        if base.get(name):
            change = traced[name] / base[name] - 1.0
            out[name] = -change if better == "higher" else change
    return out


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_workload(args) -> int:
    try:
        sinmt = load_sinmt()
    except (BenchError, ImportError) as exc:
        log(f"cannot load sinmt: {exc}")
        return 2
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    work = OUT_ROOT / "work" / stem
    results = OUT_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(sinmt.ad, sinmt.md, sinmt.tr, sinmt.sd, sinmt.ev,
                       sinmt.modules)
    origin = time.perf_counter()
    bench = Bench(sinmt, args.workload, args.seed, work, tracer)
    rounds, setup_s, error = [], None, None
    try:
        bench.setup()
        rounds = bench.measure(args.seconds)
        setup_s = bench.setup_s()
    except Exception as exc:  # report any failure as a failed run
        error = f"{exc!r}"
        log(traceback.format_exc())
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    correct = error is None and bench.failed == 0
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed),
              "correct": correct, "error": error,
              "attempted": bench.attempted, "failed": bench.failed,
              "rounds": rounds,
              "checks": [vars(c) for c in bench.checks]}
    metrics = {}
    if error is None:
        end_to_end = {
            "setup_s": setup_s,
            "utts_per_s": median_rate(rounds, "utts", "seconds"),
            "peak_rss_mb": bench.peak_rss_mb,
        }
        record["end_to_end"] = end_to_end
        record["commands"] = command_metrics(rounds)
        for name, unit, _, _ in spec.END_TO_END:
            log(f"{args.workload:14s} {name:14s} {end_to_end[name]:12.4f} "
                f"{unit}")
        if tracer is None:
            metrics = {n: {"value": end_to_end[n], "unit": u}
                       for n, u, _, _ in spec.END_TO_END}
        else:
            layers = layer_metrics(tracer, bench, rounds)
            record["per_layer"] = layers
            record["ops"] = {op: {"fwd_s": v[0], "bwd_s": v[1], "calls": v[2]}
                             for op, v in tracer.ops.items()}
            record["spans"] = tracer.totals()
            overhead = tracing_overhead(args.workload, end_to_end)
            record["tracing_overhead"] = overhead
            for name, share in overhead.items():
                log(f"tracing overhead {name}: {100 * share:+.1f}%")
            if not overhead:
                log("tracing overhead: no untraced result of this workload "
                    "to compare with")
            tracer.write_spans(results / f"{stem}.spans.json", origin)
            metrics = {n: {"value": layers[n], "unit": u}
                       for n, u, _ in spec.PER_LAYER}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    log(f"{args.workload}: attempted {bench.attempted}, failed "
        f"{bench.failed}, rounds {len(rounds)}; result in "
        f"{results / (stem + '.json')}")
    print(json.dumps({"correct": correct, "attempted": max(bench.attempted, 1),
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in a process of its own, one after another."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for workload in spec.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            log(f"{workload}: exited {proc.returncode} without a result")
            correct = False
            continue
        result = json.loads(lines[-1])
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for name, value in result["metrics"].items():
            metrics[f"{workload}.{name}"] = value
    for name, value in metrics.items():
        log(f"{name:40s} {value['value']:12.4f} {value['unit']}")
    log(f"attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
