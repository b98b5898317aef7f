"""Tests of the benchmark's manifest, tracer and failure path.

Run with ``python -m pytest perfbench/tests``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spec  # noqa: E402
from tracing import Tracer  # noqa: E402
from sinmt import autodiff as ad  # noqa: E402
from sinmt import cli, config, evaluation, model, synthdata  # noqa: E402
from sinmt import training  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_spec():
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(data) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert data["command"] == ["python3", "perfbench/run.py"]
    assert data["paths"] == ["perfbench"]
    assert data["run_seconds"] == spec.RUN_SECONDS
    assert data["workloads"] == [{"name": n, "why": w}
                                 for n, w in spec.WORKLOADS.items()]
    assert data["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in spec.END_TO_END]
    assert data["per_layer"] == [{"name": n, "unit": u, "better": b}
                                 for n, u, b in spec.PER_LAYER]


def test_spec_stays_within_the_manifest_limits():
    names = ([w for w in spec.WORKLOADS]
             + [m[0] for m in spec.END_TO_END]
             + [m[0] for m in spec.PER_LAYER])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w) <= 200 and "\n" not in w
               for w in spec.WORKLOADS.values())
    assert all(UNIT.match(m[1]) for m in spec.END_TO_END + spec.PER_LAYER)
    assert all(0 < m[3] <= 0.25 for m in spec.END_TO_END)
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.PER_LAYER) <= 128
    setup = [m for m in spec.END_TO_END if m[0] == "setup_s"]
    assert setup == [("setup_s", "s", "lower",
                      max(m[3] for m in spec.END_TO_END))]


def test_tracer_times_every_primitive_that_runs_and_uninstalls():
    modules = (ad, cli, config, evaluation, model, synthdata, training)
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    methods = (model.SInMTNetwork.forward, ad.Tape.backward)
    net = model.SInMTNetwork("ivspk", n_speakers=3, seed=0)
    batch = training.Batch(np.random.default_rng(0).normal(size=(2, 400)),
                           np.array([0, 1]), np.array([0, 2]))
    tracer = Tracer()
    tracer.install(ad, model, training, synthdata, evaluation, modules)
    try:
        training.train_step(net, batch, training.TrainConfig(mode="ivspk"),
                            ad.OptimizerState.adam(net.params, lr=1e-3))
    finally:
        tracer.uninstall()
    used = {op: v for op, v in tracer.ops.items() if v[2]}
    assert {"matmul", "softmax", "gradient_reversal", "conv1d"} <= set(used)
    assert all(fwd > 0 for fwd, _, _ in used.values())
    assert tracer.ops["matmul"][1] > 0
    totals = tracer.totals()
    assert totals["model.forward"]["calls"] == 1
    assert totals["model.mhfa_pool"]["calls"] == 2
    assert totals["autodiff.backward"]["calls"] == 1
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after == before
    assert (model.SInMTNetwork.forward, ad.Tape.backward) == methods


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cascade",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
