#!/usr/bin/env bash
# Opt-in stress lane: long-running chaos soaks (daemon kill/restart
# cycles, pool chaos) marked `stress` and excluded from the default
# pytest run by pytest.ini's addopts.
#
# Usage: scripts/stress.sh [extra pytest args]
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
exec python -m pytest -m stress -q "$@"
