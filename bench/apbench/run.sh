#!/usr/bin/env bash
# Runs the apbench suite or one workload; see README.md.
# Every argument is forwarded to run.py.
exec python3 "$(dirname "$0")/run.py" "$@"
