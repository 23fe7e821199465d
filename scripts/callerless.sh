#!/bin/sh
# callerless: the "no product caller, no code" gate (make callerless; in ci).
#
# Lists every exported func or method declared in a non-test file under
# internal/ that no non-test .go file of the root module or of bench/
# references other than in its own declaration. Such a name is reachable only
# from tests: delete it with the tests that exercise it, or give it a line in
# scripts/callerless.allow ("Name — reason"; funcs as pkg.Func, methods as
# Type.Method) saying why tests alone justify it. Exits 1 on any unlisted name
# and on any allow entry that no longer matches a callerless name.
#
# A package-level func is referenced by pkg.Name outside its package and by
# Name( inside it; a method by its bare name anywhere. internal/testutil is
# not scanned: it is the tests' own harness, so its exported funcs have test
# callers only, by design.
#
# A second pass does the same for configuration: every exported field of an
# exported *Config, *Options, *Plan, *Policy, *Model, *Fault, Spec or SLO
# struct under internal/ (the option structs, and the fault plans and retry
# shapes a run is handed; listed as Type.Field) that no non-test file outside
# the declaring package names as a field — a selector that is not a call
# (x.Field) or a literal key (Field:) — or that no non-test file anywhere
# reads: a selector (x.Field) that is not an assignment target (x.Field = ).
# The first has no product setter: whatever reads it only ever sees the zero
# value or what a test put there. (Package, not file: code next to the
# declaration that reads a field, or refuses it, does not make it settable.)
# The second is set but never read: the run does the same without it.
#
# The scan is grep, not a type checker: a reference is a word match on any
# non-comment line (a field: in field position), so two types that share a
# method or field name hide each other. That errs towards keeping code; what
# it does print is certainly unreached.
set -eu
cd "$(dirname "$0")/.."

ALLOW=scripts/callerless.allow
TMP=$(mktemp -d "${TMPDIR:-/tmp}/callerless.XXXXXX")
trap 'rm -rf "$TMP"' EXIT

# Reference corpus: every product line that is not a comment, prefixed with
# its file's directory and a tab, with the "func (recv) Name" head of each
# declaration cut off so a declaration does not count as a reference to
# itself.
find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -print |
    xargs awk '
        FNR == 1 { d = FILENAME; sub(/\/[^\/]*$/, "", d); sub(/^\.\//, "", d) }
        !/^[[:space:]]*\/\// { sub(/^func (\([^)]*\) )?[A-Za-z0-9_]+/, ""); print d "\t" $0 }
    ' > "$TMP/corpus"

# Declarations: "dir Type.Method" or "dir Func", exported names only.
find internal -name '*.go' ! -name '*_test.go' ! -path 'internal/testutil/*' -print |
    xargs grep -HE '^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*[(\[]' |
    sed -E -e 's#^(.*)/[^/]*:func \(([A-Za-z0-9_]+ )?\*?([A-Za-z0-9_]+)[^)]*\) ([A-Za-z0-9_]+).*#\1 \3.\4#' \
        -e 's#^(.*)/[^/]*:func ([A-Za-z0-9_]+).*#\1 \2#' |
    sort -u > "$TMP/decls"

# inside dir / outside dir: the corpus lines of dir's files / of every
# other file.
inside() { awk -F '\t' -v d="$1" '$1 == d' "$TMP/corpus"; }
outside() { awk -F '\t' -v d="$1" '$1 != d' "$TMP/corpus"; }

while read -r dir decl; do
    case $decl in
    *.*) grep -qw -- "${decl##*.}" "$TMP/corpus" || echo "$decl" ;;
    *) pkg=${dir##*/}
        outside "$dir" | grep -qE "(^|[^A-Za-z0-9_.])$pkg\.$decl([^A-Za-z0-9_]|\$)" ||
            inside "$dir" | grep -qE "(^|[^A-Za-z0-9_.])$decl\(" ||
            echo "$pkg.$decl" ;;
    esac
done < "$TMP/decls" > "$TMP/callerless"

# Fields: "dir Type.Field" for each exported field (one per name of a
# multi-name line; embedded types are skipped), then the same corpus rule
# restricted to the files outside dir.
find internal -name '*.go' ! -name '*_test.go' -print | while read -r f; do
    awk -v dir="$(dirname "$f")" '
        /^type ([A-Z][A-Za-z0-9_]*)?(Config|Options|Plan|Policy|Model|Fault) struct \{/ || /^type (Spec|SLO) struct \{/ { t = $2; next }
        t != "" && /^}/ { t = "" }
        t != "" && match($0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)* /) {
            n = split(substr($0, 2, RLENGTH - 2), names, /, /)
            for (i = 1; i <= n; i++) print dir, t "." names[i]
        }' "$f"
done | sort -u > "$TMP/fields"
while read -r dir decl; do
    field=${decl##*.}
    { outside "$dir" |
        grep -qE "\\.$field([^A-Za-z0-9_(]|\$)|(^|[^A-Za-z0-9_.])$field:" &&
        grep -qE "\\.$field([^A-Za-z0-9_ ]|\$| +([^=]|==))" "$TMP/corpus"; } ||
        echo "$decl" >> "$TMP/callerless"
done < "$TMP/fields"
sort -u -o "$TMP/callerless" "$TMP/callerless"

sed -n 's/ — .*//p' "$ALLOW" | sort -u > "$TMP/allowed"
unlisted=$(comm -23 "$TMP/callerless" "$TMP/allowed")
stale=$(comm -13 "$TMP/callerless" "$TMP/allowed")

status=0
if [ -n "$unlisted" ]; then
    echo "callerless: exported under internal/, referenced (a config field: set and read) by no product code (delete, or list in $ALLOW):"
    echo "$unlisted" | sed 's/^/  /'
    status=1
fi
if [ -n "$stale" ]; then
    echo "callerless: $ALLOW entries that match no callerless name (remove them):"
    echo "$stale" | sed 's/^/  /'
    status=1
fi
exit $status
