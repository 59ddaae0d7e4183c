#!/usr/bin/env bash
# Prints the repository's Go line counts (wc -l), split into non-test and
# test files, excluding the benchmark harness under perfbench/. Ignored
# files (build output) are not counted.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
	git ls-files -co --exclude-standard -- '*.go' ':!perfbench/' |
		grep "$@" | tr '\n' '\0' | xargs -0 cat | wc -l
}
echo "non-test $(count -v '_test\.go$')"
echo "test     $(count '_test\.go$')"
