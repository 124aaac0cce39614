#!/usr/bin/env bash
# Runs the README command-line chain (the first code block under
# "## Command line" in README.md) in an empty temporary directory, and fails
# unless its report exists and every check row it collates passes.  The
# directory is removed on exit.
#
# Usage, from the repository root:
#   bash .github/scripts/readme-chain.sh
set -e
chain="$(python -c 'import sys; sys.stdout.write(open("README.md").read().split("## Command line", 1)[1].split("```")[1])')"
run="$(mktemp -d)"
trap 'rm -rf "$run"' EXIT
cd "$run"
bash -e -c "$chain"
# the chain's report collates every check row; each must pass
test -s report.md
if grep -F '| FAIL |' report.md; then exit 1; fi
