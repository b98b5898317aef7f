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

# The reference recipe, one config per stage: baseline trains from
# scratch, spk warm-starts from it and ivspk from spk (README,
# "Reference recipe").
RECIPE="$(dirname "$0")/recipe"

echo "== generating corpus =="
sinmt gen --out "$WORK/corpus" --force

echo "== training: baseline =="
sinmt train --config "$RECIPE/baseline.json" --corpus "$WORK/corpus" \
            --out "$WORK/baseline"

echo "== training: cooperative multi-task (spk), warm-started =="
sinmt train --config "$RECIPE/spk.json" --corpus "$WORK/corpus" \
            --out "$WORK/spk" --init "$WORK/baseline/best.ckpt"

echo "== training: adversarial multi-task (ivspk), warm-started =="
sinmt train --config "$RECIPE/ivspk.json" --corpus "$WORK/corpus" \
            --out "$WORK/ivspk" --init "$WORK/spk/best.ckpt"

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
