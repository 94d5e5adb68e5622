#!/bin/sh
# Scheme-comparison grid over (thickness, n); --jobs N runs the cells in N
# processes, which on this grid is slower than one.
set -e
cd "$(dirname "$0")/.."
python3 -m sparsebeam.cli locking --config configs/locking.ini \
    --out results/locking "$@"
echo "wrote results/locking/locking.csv"
