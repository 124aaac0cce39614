#!/usr/bin/env bash
# Runs the README command-line chain (the first code block under
# "## Command line" in README.md) in an empty temporary directory, prints
# the sha256 of every file the chain wrote (information only: a change that
# moves science bytes shows which outputs moved), and fails unless its
# report exists and every check row it collates passes.  The directory is
# removed on exit.
#
# Usage, from the repository root:
#   bash .github/scripts/readme-chain.sh
set -e
chain="$(python -c 'import sys; sys.stdout.write(open("README.md").read().split("## Command line", 1)[1].split("```")[1])')"
run="$(mktemp -d)"
trap 'rm -rf "$run"' EXIT
cd "$run"
bash -e -c "$chain"
find . -type f -print0 | LC_ALL=C sort -z | xargs -0 sha256sum
# the chain's report collates every check row; each must pass
test -s report.md
if grep -F '| FAIL |' report.md; then exit 1; fi
