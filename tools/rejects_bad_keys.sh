#!/bin/sh
# Runs each given binary once with an undeclared key (no_such_key=1) and
# once with a malformed SimConfig value (read_rate=abc). Every run must exit
# non-zero and name the key on stderr; exits 1 listing the runs that did not.
#
#   tools/rejects_bad_keys.sh build/bench/expt3_read_rate build/examples/...
status=0
for bin in "$@"; do
  for arg in no_such_key=1 read_rate=abc; do
    key="${arg%%=*}"
    if err="$("$bin" "$arg" 2>&1 >/dev/null)"; then
      echo "FAIL: $bin $arg exited 0"
      status=1
    elif ! printf '%s\n' "$err" | grep -q "'$key'"; then
      echo "FAIL: $bin $arg did not name '$key': $err"
      status=1
    fi
  done
done
exit "$status"
