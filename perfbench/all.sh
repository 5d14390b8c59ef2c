#!/usr/bin/env bash
# Runs every workload once and prints each one's metrics by name with
# its unit (see run.sh). Extra arguments pass through, e.g.
#
#   bash perfbench/all.sh --seed 1 --seconds 10 --trace 0
set -euo pipefail
for w in object-rw dedup-ingest zlog-append control-plane; do
	echo "== $w"
	bash "$(dirname "$0")/run.sh" --workload "$w" "$@"
done
