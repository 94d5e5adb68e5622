#!/bin/sh
# Refinement study at the shipped thickness, every cell solved in this
# process; extra arguments go to the CLI.
set -e
cd "$(dirname "$0")/.."
python3 -m sparsebeam.cli convergence --config configs/convergence.ini \
    --out results/convergence "$@"
echo "wrote results/convergence/convergence.csv and convergence_slopes.csv"
