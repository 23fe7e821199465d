#!/bin/sh
# callerless: the "no product caller, no code" gate (make callerless; in ci).
#
# Lists every exported func or method declared in a non-test file under
# internal/ whose name appears in no non-test .go file of the root module or
# of bench/ other than in its own declaration. Such a name is reachable only
# from tests: delete it with the tests that exercise it, or give it a line in
# scripts/callerless.allow ("Name — reason"; methods as Type.Method) saying
# why tests alone justify it. Exits 1 on any unlisted name and on any allow
# entry that no longer matches a callerless name.
#
# The scan is grep, not a type checker: a name counts as referenced when the
# bare identifier occurs as a word on any non-comment line, so two types that
# share a method name hide each other. That errs towards keeping code; what
# it does print is certainly unreached.
set -eu
cd "$(dirname "$0")/.."

ALLOW=scripts/callerless.allow
TMP=$(mktemp -d "${TMPDIR:-/tmp}/callerless.XXXXXX")
trap 'rm -rf "$TMP"' EXIT

# Reference corpus: every product line that is not a comment, with the
# "func (recv) Name" head of each declaration cut off so a declaration does
# not count as a reference to itself.
find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -print |
    xargs cat |
    grep -v '^[[:space:]]*//' |
    sed -E 's/^func (\([^)]*\) )?[A-Za-z0-9_]+//' > "$TMP/corpus"

# Declarations: "Type.Method" or "Func", exported names only.
find internal -name '*.go' ! -name '*_test.go' -print |
    xargs grep -hE '^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*[(\[]' |
    sed -E -e 's/^func \(([A-Za-z0-9_]+ )?\*?([A-Za-z0-9_]+)[^)]*\) ([A-Za-z0-9_]+).*/\2.\3/' \
        -e 's/^func ([A-Za-z0-9_]+).*/\1/' |
    sort -u > "$TMP/decls"

: > "$TMP/callerless"
while read -r decl; do
    if ! grep -qw -- "${decl##*.}" "$TMP/corpus"; then
        echo "$decl" >> "$TMP/callerless"
    fi
done < "$TMP/decls"

sed -n 's/ — .*//p' "$ALLOW" | sort -u > "$TMP/allowed"
unlisted=$(comm -23 "$TMP/callerless" "$TMP/allowed")
stale=$(comm -13 "$TMP/callerless" "$TMP/allowed")

status=0
if [ -n "$unlisted" ]; then
    echo "callerless: exported under internal/, referenced by no product code (delete, or list in $ALLOW):"
    echo "$unlisted" | sed 's/^/  /'
    status=1
fi
if [ -n "$stale" ]; then
    echo "callerless: $ALLOW entries that match no callerless name (remove them):"
    echo "$stale" | sed 's/^/  /'
    status=1
fi
exit $status
