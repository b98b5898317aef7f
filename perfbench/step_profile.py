#!/usr/bin/env python3
"""Per-op forward and backward time of one 32x2000 ``spk`` training step.

    python3 perfbench/step_profile.py [--steps 5] [--seed 0]

Builds the default ``spk`` network (16 speakers, as on the default
corpus's train split) and a seeded batch of 32 clips of 2000 samples
(125 frames), runs one untimed warm-up step, then ``--steps`` training
steps with the tracer installed, and prints ms per step for each tape
primitive, forward + backward. The cost of a dense step does not depend
on the data, so the clips are seeded noise. BLAS is pinned to one
thread, as in ``run.py``.
"""

import argparse
import sys

import run  # first: pins BLAS before numpy loads

import numpy as np  # noqa: E402
from tracing import Tracer  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--steps", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    s = run.load_sinmt()
    rng = np.random.default_rng(args.seed)
    net = s.md.SInMTNetwork("spk", n_speakers=16, seed=args.seed)
    batch = s.tr.Batch(0.1 * rng.normal(size=(32, 2000)),
                       rng.integers(0, 2, size=32),
                       rng.integers(0, 16, size=32))
    config = s.tr.TrainConfig(mode="spk", alpha=1.0, learning_rate=0.0015)
    opt = s.ad.OptimizerState.adam(net.params, lr=config.learning_rate)
    s.tr.train_step(net, batch, config, opt)

    tracer = Tracer()
    tracer.install(s.ad, s.md, s.tr, s.sd, s.ev, s.modules)
    try:
        for _ in range(args.steps):
            s.tr.train_step(net, batch, config, opt)
    finally:
        tracer.uninstall()

    n = args.steps
    rows = sorted(((op, fwd / n * 1e3, bwd / n * 1e3, calls / n)
                   for op, (fwd, bwd, calls) in tracer.ops.items() if calls),
                  key=lambda r: -(r[1] + r[2]))
    print(f"32x2000 spk step, mean of {n} steps, BLAS threads "
          f"{run.blas_threads()}")
    print("| op | fwd ms | bwd ms | calls |")
    print("|---|---:|---:|---:|")
    for op, fwd, bwd, calls in rows:
        print(f"| {op} | {fwd:.1f} | {bwd:.1f} | {calls:.0f} |")
    totals = tracer.totals()
    for name in ("training.train_step", "model.forward", "autodiff.backward",
                 "autodiff.optimizer_step"):
        print(f"{name}: {totals[name]['total_s'] / n * 1e3:.1f} ms/step")
    return 0


if __name__ == "__main__":
    sys.exit(main())
