#!/usr/bin/env bash
# Tier-1 CI gate: build, vet, race-detected tests, and the repo's own
# static-analysis suite (cmd/kcvet). Any failure fails the gate.
# Performance is measured by `go run ./benchmark`, not here.
#
# Usage: scripts/ci.sh            # from anywhere inside the repo
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

# Every binary is held to account here: cmd/kcserved, cmd/couple,
# cmd/npbrun and cmd/paper each test their process in-process through
# run() (hardened node and 3-node fleet; parallel campaign, warm-cache
# reuse, analytic agreement, seeded faults, -ref coupling reuse and its
# flag conflicts, rank crash), so this line race-checks them along with
# everything else.
echo "==> go test -race ./..."
go test -race ./...

# Ten seconds of arbitrary bytes as a cache log: opening never fails, and
# Get agrees with the plainest reading of the format (the committed corpus
# under internal/plan/testdata/fuzz already ran above as a unit test).
# Minimizing each input that reaches new coverage is off: with it the ten
# seconds go to a dozen inputs instead of some ten thousand.
echo "==> go test -run '^\$' -fuzz FuzzCacheLogScan -fuzztime 10s -fuzzminimizetime 0s ./internal/plan"
go test -run '^$' -fuzz FuzzCacheLogScan -fuzztime 10s -fuzzminimizetime 0s ./internal/plan

# Ten seconds of arbitrary text as a -fault-spec: Parse never panics, a
# spec it takes renders to a canonical form that parses back to itself and
# suits exactly its own command, and a refusal names the class it is
# about. go test -fuzz takes one target per run, hence a line of its own.
echo "==> go test -run '^\$' -fuzz FuzzParse -fuzztime 10s -fuzzminimizetime 0s ./internal/fault"
go test -run '^$' -fuzz FuzzParse -fuzztime 10s -fuzzminimizetime 0s ./internal/fault

# sync.Pool drops Puts under -race, so the zero-allocation assertions over
# pooled message paths (mpi round trips, the 4-rank kernels, the shared
# halo exchange's multi-rank cases in npb.TestHaloDoesNotAllocate), the
# allocation bound on a world that recycles its rank state and the warm
# /predict allocation budgets (its render encoder is pooled) skip above
# and run here, with the rank-state pool's tests beside them. So does the
# from-cache study's allocation budget, which the race build's
# instrumentation could move.
echo "==> go test -run 'NotAllocate|Recycle|Pool|WarmPredictAllocs|FromCacheStudyAllocs' ./internal/mpi ./internal/npb/... ./internal/serve ./internal/harness"
go test -run 'NotAllocate|Recycle|Pool|WarmPredictAllocs|FromCacheStudyAllocs' ./internal/mpi ./internal/npb/... ./internal/serve ./internal/harness

# kcvet publishes its findings as a JSON build artifact whether or not
# the gate passes; CI systems archive /tmp/kcvet-findings.json.
echo "==> go run ./cmd/kcvet -json ./... (artifact: /tmp/kcvet-findings.json)"
if ! go run ./cmd/kcvet -json ./... >/tmp/kcvet-findings.json; then
    echo "==> kcvet gate FAILED:" >&2
    cat /tmp/kcvet-findings.json >&2
    exit 1
fi

echo "==> ci: all gates passed"
