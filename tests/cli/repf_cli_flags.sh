#!/bin/sh
# repf flag and --json checks. Usage: repf_cli_flags.sh path/to/repf
#
# A hex --seed reaches the report header, a malformed or non-finite numeric
# flag exits 2, a report command writes its --json file, and a listing
# command refuses --json with exit 2 and writes nothing.
set -e
repf=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

"$repf" verify --seed 0xC4A05 --families strided | head -n 1 \
  | grep -q 'seed=805381 '

for args in 'serve --jobs 4abc' 'chaos --rate abc' 'chaos --rate nan'; do
  rc=0
  "$repf" $args > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "repf $args: exit $rc, want 2"
    exit 1
  fi
done

"$repf" coverage libquantum --json "$dir/coverage.json" > /dev/null
test -s "$dir/coverage.json"

rc=0
"$repf" dump libquantum --json "$dir/dump.json" > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ] || [ -e "$dir/dump.json" ]; then
  echo "repf dump --json: exit $rc, want 2 and no file"
  exit 1
fi
