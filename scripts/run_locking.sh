#!/bin/sh
# Scheme-comparison grid over (thickness, n), every cell solved in this
# process; extra arguments go to the CLI.
set -e
cd "$(dirname "$0")/.."
python3 -m sparsebeam.cli locking --config configs/locking.ini \
    --out results/locking "$@"
echo "wrote results/locking/locking.csv"
