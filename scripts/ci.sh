#!/usr/bin/env bash
# Tier-1 CI gate: build, vet, gofmt, race-detected tests, and the repo's
# own static-analysis suite (cmd/kcvet). Any failure fails the gate.
# Performance is measured by `go run ./benchmark`, not here.
#
# Usage: scripts/ci.sh            # from anywhere inside the repo
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

# One layout: a file gofmt would rewrite, testdata included, fails the gate.
echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "==> gofmt gate FAILED; gofmt -w these:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# Every binary is held to account: a command directory without a test
# fails the gate before any test runs.
echo "==> every cmd/* has a _test.go"
untested=""
for dir in cmd/*/; do
    if ! compgen -G "${dir}*_test.go" >/dev/null; then
        untested="$untested ${dir%/}"
    fi
done
if [ -n "$untested" ]; then
    echo "==> command test gate FAILED; no _test.go in:$untested" >&2
    exit 1
fi

# Each command tests its process in-process through run() (kcserved's
# hardened node and 3-node fleet, and the README flag rows of kcserved,
# couple and npbrun; couple's parallel campaign, warm-cache reuse, cached
# backend, analytic agreement, seeded faults, -lattice coupling borrowing
# and its flag conflicts; npbrun's rank crash; paper's
# tables, -cache-dir reuse, a whole `paper -fast` run regenerating all 22
# tables, and a run that goes on past failed tables; kcreport's
# renderings; kcvet's reports and exit statuses), so this line
# race-checks them along with everything else. It also runs the
# whole-module audits in internal/analysis: TestGoroutineLeakAudit;
# TestExportedNameCensus, which fails on an exported name that no
# non-test file uses and its allow-list does not name, exported methods
# of unexported types included; and TestExportedFieldCensus, which fails
# on an exported struct field that no non-test file writes and its
# allow-list does not name (about 4 s for the module's one load, which
# the two censuses share). Tests run in shuffled
# order so none leans on another's leftovers; a failing run prints its
# seed, and -shuffle=<seed> replays it.
echo "==> go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

# Flake guard: tests that have failed at random before run 50 times each,
# under -race where they flaked under it, so a new flake shows here before
# it shows in a single tier-1 run. fault.TestChaosMildPerturbationKeepsPredictor
# is left out: it fails about 40 % of runs alone, from a bias between its
# faulted prediction and its faulted Actual that is not mended yet
# (ROADMAP item 20(b)).
echo "==> flake guard: route windows (-race), cross-size interpolation and pair workload, -count=50 each"
go test -race -count=50 -run '^TestMetricsListEveryRouteWindow$' ./internal/serve && go test -count=50 -run '^(TestCrossSizeInterpolation|TestPairWorkloadActualScalesWithTrips)$' ./internal/tables ./internal/memmodel

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

# Ten seconds of arbitrary text as a served query string: any query
# ParseQuery takes encodes to a peer-fill wire form that parses back to the
# same Query with the same Key.
echo "==> go test -run '^\$' -fuzz FuzzQueryRoundTrip -fuzztime 10s -fuzzminimizetime 0s ./internal/serve"
go test -run '^$' -fuzz FuzzQueryRoundTrip -fuzztime 10s -fuzzminimizetime 0s ./internal/serve

# sync.Pool drops Puts under -race, so the zero-allocation assertions over
# pooled message paths (mpi round trips on an unobserved and on a
# metrics-only observed world, the 4-rank kernels, the shared
# halo exchange's multi-rank cases in npb.TestHaloDoesNotAllocate), the
# allocation bound on a world that recycles its rank state and the warm
# /predict allocation budgets (its render encoder is pooled) skip above
# and run here, with the rank-state pool's tests beside them. So do the
# from-cache study's allocation budget and the untraced timed region's
# zero-allocation check (npb.TestStampSiteDoesNotAllocate), which the race
# build's instrumentation could move.
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
