#!/usr/bin/env sh
# lintdoc.sh — fail `make lint` when an exported identifier in the
# audited packages lacks a doc comment.
#
# The audit is a deliberately small grep/awk pass, not a full linter: it
# looks at top-level declarations that begin with an exported name —
# `func Name`, `func (r T) Name`, `type Name`, `var Name`, `const Name`
# — and requires the preceding line to be a comment. Grouped const/var
# blocks are outside its scope (their members rarely carry individual
# doc comments by design). Audited packages are the ones whose doc
# surface the performance work leans on; extend PKGS as packages mature.
#
#   ./scripts/lintdoc.sh
set -eu

cd "$(dirname "$0")/.."

PKGS="internal/vecmath internal/batch internal/kernel internal/core internal/optimize internal/convexfn internal/spec"

fail=0
for pkg in $PKGS; do
	for f in "$pkg"/*.go; do
		case "$f" in
		*_test.go) continue ;;
		esac
		if ! awk -v file="$f" '
			/^func [A-Z]/ || /^func \([^)]*\) [A-Z]/ || /^type [A-Z]/ || /^var [A-Z]/ || /^const [A-Z]/ {
				if (prev !~ /^\/\//) {
					split($0, parts, "{")
					printf "%s:%d: exported declaration has no doc comment: %s\n", file, NR, parts[1]
					bad = 1
				}
			}
			{ prev = $0 }
			END { exit bad }
		' "$f"; then
			fail=1
		fi
	done
done

if [ "$fail" -ne 0 ]; then
	echo "lintdoc: missing doc comments (see above)" >&2
	exit 1
fi
echo "lintdoc: all exported identifiers in $PKGS are documented"
