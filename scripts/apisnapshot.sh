#!/bin/bash
# Regenerate the committed public-API surface listing. Run from the repo
# root after an intentional facade change:
#
#   ./scripts/apisnapshot.sh > api.txt
#
# CI regenerates the listing and diffs it against api.txt, so any change
# to the exported surface must land together with its refreshed snapshot.
#
# Two sections: the exported facade of the root package, then the
# user-facing surface of cmd/airvet — its analyzer roster — so renaming an
# analyzer is a reviewed, deliberate act too.
set -euo pipefail
cd "$(dirname "$0")/.."
go run ./internal/tools/apisnapshot .
echo "# cmd/airvet: analyzer suite"
go run ./cmd/airvet -list
