#!/bin/sh
# check-linked.sh — fail on internal code that no binary links. It builds
# every main package (cmd/*, examples/*), the bench binary and every
# package's test binary without inlining (-gcflags=all=-l), lists each
# binary's airct/ text symbols with `go tool nm`, and compares them with the
# functions and methods declared in the non-test files under internal/. A
# declared function that no binary links is dead code and is named on
# stderr. A function that only test binaries link is allowed: it is a test
# reference or a fixture. Run from the repo root (CI does).
#
# Symbols are normalised before the comparison: closures (.funcN, nested
# .funcN.M, .gowrapN, .deferwrapN) and range-over-func bodies (-rangeN)
# fold into their enclosing function, method-value wrappers (-fm) into
# their method, and generic instantiations, whose brackets can nest
# (chase.sized[go.shape.struct {…}]), into the generic name. A declaration
# is named pkg.F, pkg.T.M or pkg.(*T).M, with a generic receiver's type
# parameters dropped; init functions are skipped. Declarations are read
# from gofmt-formatted source: a top-level func starts its line.
set -eu

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
mkdir "$out/bin"

for d in cmd/* examples/*; do
	go build -gcflags=all=-l -o "$out/bin/$(basename "$d")" "./$d"
done
(cd bench && go build -gcflags=all=-l -o "$out/bin/bench" .)
for p in $(go list ./...); do
	go test -c -gcflags=all=-l -o "$out/bin/$(echo "$p" | tr / _).test" "$p" > /dev/null
done

for b in "$out"/bin/*; do
	go tool nm "$b"
done | sed -n 's/^ *[0-9a-f]* [Tt] \(airct\/.*\)$/\1/p' |
	sed -e ':a' -e 's/\[[^][]*\]//' -e 'ta' \
		-e 's/-fm$//' \
		-e ':b' \
		-e 's/-range[0-9][0-9]*$//' -e 'tb' \
		-e 's/\.func[0-9][0-9]*$//' -e 'tb' \
		-e 's/\.gowrap[0-9][0-9]*$//' -e 'tb' \
		-e 's/\.deferwrap[0-9][0-9]*$//' -e 'tb' \
		-e 's/\(\.func[0-9][0-9]*\)\.[0-9][0-9]*$/\1/' -e 'tb' |
	sort -u > "$out/linked"

find internal -name '*.go' ! -name '*_test.go' | sort | while read -r f; do
	awk -v pkg="airct/$(dirname "$f")" '
	/^func / {
		line = substr($0, 6)
		recv = ""
		if (substr(line, 1, 1) == "(") {
			i = index(line, ")")
			recv = substr(line, 2, i - 2)
			line = substr(line, i + 1)
			sub(/^ +/, "", line)
		}
		if (!match(line, /^[A-Za-z_][A-Za-z0-9_]*/)) next
		name = substr(line, 1, RLENGTH)
		if (recv == "") {
			if (name != "init") print pkg "." name
			next
		}
		sub(/\[.*\]/, "", recv)
		n = split(recv, parts, " ")
		t = parts[n]
		if (substr(t, 1, 1) == "*") t = "(" t ")"
		print pkg "." t "." name
	}' "$f"
done | sort -u > "$out/declared"

dead=$(comm -23 "$out/declared" "$out/linked")
if [ -n "$dead" ]; then
	echo "check-linked: declared under internal/ but linked by no binary:" >&2
	echo "$dead" | sed 's/^/  /' >&2
	exit 1
fi
echo "check-linked: every function declared under internal/ is linked ($(wc -l < "$out/declared") declarations)"
