#!/bin/sh
# `crowdrank infer` under a 2 GB address-space limit, asked to size step 1
# for 4,000,000,001 workers (32 GB of per-worker row offsets): the
# allocation fails with std::bad_alloc, and the CLI must print one
# `error: ...` line and exit 1 instead of aborting.
#
# Usage: cli_out_of_memory.sh CROWDRANK_BINARY sanitize=NAME
# A non-empty NAME skips the test with exit code 77: the sanitizer
# runtimes reserve more address space than the limit allows.
set -u
bin=$1
case ${2:-sanitize=} in
  sanitize=) ;;
  *)
    echo "skipped: built with -f${2}"
    exit 77
    ;;
esac

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cat > "$dir/votes.csv" <<'CSV'
worker,i,j,prefers_i
0,0,1,1
1,0,1,1
2,0,1,0
0,1,2,1
1,1,2,0
2,1,2,1
CSV

(
  ulimit -v 2000000 || exit 3
  exec "$bin" infer --votes "$dir/votes.csv" --worker-count 4000000001
) > "$dir/out.txt" 2> "$dir/err.txt"
code=$?
cat "$dir/err.txt"
if [ "$code" -ne 1 ]; then
  echo "FAIL: exit code $code, want 1"
  exit 1
fi
if [ "$(grep -c '^error: ' "$dir/err.txt")" -ne 1 ]; then
  echo "FAIL: want exactly one 'error: ' line on stderr"
  exit 1
fi
echo "PASS: exit code 1 with one error line"
