#!/bin/sh
# lint-pkgdocs.sh — fail when an internal package lacks a godoc package
# comment. `go doc <pkg>` prints the package clause, a blank line, then the
# package comment; a missing comment means line 3 does not start with
# "Package". Run from the repo root (CI does).
#
# Additionally, every NEW non-test .go file in internal/chase must open with
# a file-level doc comment (within its first three lines — either above the
# package clause or directly after it) explaining what the file is: the
# package has grown enough subsystems that bare files stopped scanning.
# Files that predate the rule are grandfathered below; do not add to the
# list.
set -u
fail=0
for pkg in $(go list ./internal/...); do
	summary=$(go doc "$pkg" 2>/dev/null | sed -n '3p')
	case "$summary" in
	Package*) ;;
	*)
		echo "lint-pkgdocs: $pkg has no package comment (go doc shows: '$summary')" >&2
		fail=1
		;;
	esac
done
grandfathered="compile.go derivation.go engine.go"
for f in internal/chase/*.go; do
	base=$(basename "$f")
	case "$base" in
	*_test.go) continue ;;
	esac
	case " $grandfathered " in
	*" $base "*) continue ;;
	esac
	if ! head -3 "$f" | grep -q '^//'; then
		echo "lint-pkgdocs: $f has no file doc comment in its first three lines" >&2
		fail=1
	fi
done
if [ "$fail" -ne 0 ]; then
	echo "lint-pkgdocs: every internal/* package needs a 'Package <name> ...' doc comment, and new internal/chase files need a file doc comment" >&2
fi
exit "$fail"
