#!/bin/sh
# Runs each figure binary and compares its stdout byte for byte with
# <golden-dir>/<binary name>.txt. The bench binaries run at --scale=0.05;
# occupancy_explorer takes no flags. The actual output is left in the
# working directory as <binary name>.txt.
#
# usage: check_golden.sh <golden-dir> <binary>...
golden=$1
shift
status=0
for bin in "$@"; do
  name=$(basename "$bin")
  args=--scale=0.05
  [ "$name" = occupancy_explorer ] && args=
  if ! "$bin" $args > "$name.txt"; then
    echo "FAIL $name: exited non-zero"
    status=1
  elif ! cmp -s "$name.txt" "$golden/$name.txt"; then
    echo "FAIL $name: output differs from $golden/$name.txt"
    diff -u "$golden/$name.txt" "$name.txt" | head -40
    echo "re-record with: $bin $args > $golden/$name.txt"
    status=1
  fi
done
exit $status
