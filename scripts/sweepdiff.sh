#!/bin/sh
# sweepdiff: prove the simulator's outputs are byte-identical to a base
# commit (make sweepdiff BASE=<git ref>; not in ci, ~7 min on 2 CPUs).
#
# The base tree is extracted with `git archive` into a temp dir (nothing is
# left behind in .git), preduce-bench is built there and here, and both
# binaries run the same three seeded commands:
#
#   -exp all -quick -seed 1 -csv <dir>    every sweep + its CSV exports
#   -exp table1 -seed 1                   the full-budget headline table
#   -trace x.jsonl -quick -seed 1         the traced run
#
# Every CSV, the trace, and stdout must match. Only the wall-clock fields are
# stripped from stdout first: "--- <id> done in <dur> ---" and the traced
# run's trailing "(<dur>)".
set -eu

GO=${GO:-go}
BASE=${1:?usage: sweepdiff.sh <git ref>}
DIR=$(mktemp -d "${TMPDIR:-/tmp}/sweepdiff.XXXXXX")
trap 'rm -rf "$DIR"' EXIT

mkdir "$DIR/src" "$DIR/base" "$DIR/head"
git archive "$BASE" | tar -x -C "$DIR/src"
echo "sweepdiff: building preduce-bench at $BASE and in the working tree"
(cd "$DIR/src" && $GO build -o "$DIR/base/preduce-bench" ./cmd/preduce-bench)
$GO build -o "$DIR/head/preduce-bench" ./cmd/preduce-bench

strip_timing() {
    sed -e 's/^\(--- .* done in\) .* ---$/\1 ---/' \
        -e 's/^\(traced run: .*\) ([^()]*)$/\1/' "$1"
}

for side in base head; do
    (
        cd "$DIR/$side"
        echo "sweepdiff: $side: -exp all -quick"
        ./preduce-bench -exp all -quick -seed 1 -csv csv > all.out
        echo "sweepdiff: $side: -exp table1"
        ./preduce-bench -exp table1 -seed 1 > table1.out
        echo "sweepdiff: $side: -trace"
        ./preduce-bench -trace x.jsonl -quick -seed 1 > trace.out
        for f in all table1 trace; do strip_timing $f.out > $f.txt; done
    )
done

bad=0
same() {
    if cmp -s "$DIR/base/$1" "$DIR/head/$1"; then
        echo "  same    $1"
    else
        echo "  DIFFERS $1"
        bad=$((bad + 1))
    fi
}
# The union of both sides' CSV names: a file only one side wrote differs.
for f in $( (cd "$DIR/base" && ls csv/*.csv; cd "$DIR/head" && ls csv/*.csv) | sort -u); do
    same "$f"
done
same x.jsonl
for f in all table1 trace; do same $f.txt; done

if [ "$bad" -ne 0 ]; then
    echo "sweepdiff: $bad output(s) differ from $BASE"
    exit 1
fi
echo "sweepdiff: zero differences against $BASE"
