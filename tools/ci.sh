#!/usr/bin/env bash
# Tier-1 CI entrypoint: layering check, smokes, the benchmark's traced
# self-test, then the fast test suite.
# Benchmarks (benchmarks/) are tier-2 and run separately.
set -euo pipefail
cd "$(dirname "$0")/.."

python tools/check_imports.py
PYTHONPATH=src python tools/obs_smoke.py
PYTHONPATH=src python tools/attack_smoke.py
PYTHONPATH=src python tools/adv_train_smoke.py
PYTHONPATH=src python tools/parallel_smoke.py
PYTHONPATH=src python tools/fleet_smoke.py
PYTHONPATH=src python tools/mlops_smoke.py
PYTHONPATH=src python tools/network_smoke.py
PYTHONPATH=src python tools/network_train_smoke.py
# The benchmark's patch points (perfbench/instrument.py) must survive refactors.
python3 -m pytest perfbench/tests -q -k traced
PYTHONPATH=src python -m pytest -x -q "$@"
