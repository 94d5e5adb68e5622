#!/bin/sh
# Refinement study at the shipped thickness; --jobs N runs the cells in N
# processes, which on this grid is slower than one.
set -e
cd "$(dirname "$0")/.."
python3 -m sparsebeam.cli convergence --config configs/convergence.ini \
    --out results/convergence "$@"
echo "wrote results/convergence/convergence.csv and convergence_slopes.csv"
