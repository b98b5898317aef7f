#!/bin/sh
# Three-condition comparison on the default synthetic corpus:
#   1. baseline — spoof detector alone
#   2. spk      — cooperative multi-task (speaker head sharpens identity)
#   3. ivspk    — adversarial multi-task (gradient reversal suppresses
#                 identity), warm-started from the spk checkpoint
# The same cascade took 252-357 s (4-6 min) in three runs as acceptance
# criterion 6 on a 2-core machine.
set -eu

WORK="${1:-runs/demo}"
mkdir -p "$WORK"

# The runs cascade: the detector trains from scratch; the cooperative
# stage warm-starts from it with a full-weight speaker loss; the
# adversarial stage warm-starts from the cooperative one, keeping the
# speaker head at full strength while the extractor sees the
# 0.1-scaled reversed gradient. Warm-started stages need half the
# epochs.
CFG_BASE="$WORK/experiment_base.json"
cat > "$CFG_BASE" <<'JSON'
{
  "train": {
    "learning_rate": 0.0015,
    "batch_size": 32,
    "epochs": 60,
    "clip_len": 2000,
    "seed": 0,
    "patience": 100,
    "augment": false
  }
}
JSON

CFG_SPK="$WORK/experiment_spk.json"
cat > "$CFG_SPK" <<'JSON'
{
  "train": {
    "learning_rate": 0.0015,
    "batch_size": 32,
    "epochs": 30,
    "alpha": 1.0,
    "clip_len": 2000,
    "seed": 0,
    "patience": 100,
    "augment": false
  }
}
JSON

CFG_IVSPK="$WORK/experiment_ivspk.json"
cat > "$CFG_IVSPK" <<'JSON'
{
  "train": {
    "learning_rate": 0.0015,
    "batch_size": 32,
    "epochs": 30,
    "alpha": 0.1,
    "fold_alpha_into_lambda": true,
    "clip_len": 2000,
    "seed": 0,
    "patience": 100,
    "augment": false
  }
}
JSON

echo "== generating corpus =="
sinmt gen --out "$WORK/corpus" --force

echo "== training: baseline =="
sinmt train --config "$CFG_BASE" --corpus "$WORK/corpus" \
            --out "$WORK/baseline" --mode baseline

echo "== training: cooperative multi-task (spk), warm-started =="
sinmt train --config "$CFG_SPK" --corpus "$WORK/corpus" \
            --out "$WORK/spk" --mode spk --init "$WORK/baseline/best.ckpt"

echo "== training: adversarial multi-task (ivspk), warm-started =="
sinmt train --config "$CFG_IVSPK" --corpus "$WORK/corpus" \
            --out "$WORK/ivspk" --mode ivspk --init "$WORK/spk/best.ckpt"

echo "== evaluation: spoof EER on held-out speakers =="
for mode in baseline spk ivspk; do
  echo "-- $mode --"
  sinmt eval --ckpt "$WORK/$mode/best.ckpt" --corpus "$WORK/corpus" \
             --out "$WORK/$mode" --split eval
done

echo "== speaker separability of the embeddings =="
for mode in spk ivspk; do
  echo "-- $mode --"
  sinmt probe --ckpt "$WORK/$mode/best.ckpt" --corpus "$WORK/corpus" \
              --split all
done

echo "done; artifacts under $WORK/"
