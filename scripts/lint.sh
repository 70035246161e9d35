#!/usr/bin/env bash
# lint.sh — the local mirror of CI's static-analysis gauntlet: gofmt,
# go vet, the project's own enbloguevet analyzer suite (determinism, lock
# discipline, hot-path allocations, wire-shape stability — see DESIGN.md
# §9), the build + vet of the nested bench/ module and the api.txt pin of
# the public API, all run as the go tests that `go test ./...` also runs,
# and, when the tools are installed, staticcheck and govulncheck.
# CI installs those two from the network; locally they are best-effort so
# the script works offline.
#
# Usage:
#   scripts/lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
out=$(gofmt -l .)
if [ -n "$out" ]; then
  echo "gofmt needed on:" && echo "$out" && exit 1
fi

echo "== go vet"
go vet ./...

echo "== enbloguevet"
go test -count=1 -run '^TestSuite$' ./internal/analysis/

echo "== bench module (build + vet), public API (api.txt)"
go test -count=1 -run '^(TestBenchModuleBuilds|TestPublicAPIUnchanged)$' .

if command -v staticcheck >/dev/null 2>&1; then
  echo "== staticcheck"
  staticcheck ./...
else
  echo "== staticcheck: not installed, skipping (CI runs it)"
fi

if command -v govulncheck >/dev/null 2>&1; then
  echo "== govulncheck"
  govulncheck ./...
else
  echo "== govulncheck: not installed, skipping (CI runs it)"
fi

echo "lint: ALL CLEAN"
