#!/bin/sh
# The CLI under a 2 GB address-space limit, asked for more memory than the
# limit allows, must report the failure instead of aborting:
#
#  * `crowdrank infer` sized for 4,000,000,001 workers (32 GB of step 1's
#    per-worker row offsets) fails with std::bad_alloc; it must print one
#    `error: ...` line and exit 1.
#  * `crowdrank index` on a batch with one vote naming object
#    1,000,000,000 fails inside hardening, which sizes its per-object
#    arrays by the largest id + 1; it must exit 2 and name stage
#    `hardening`, not step 1, as the stage that failed.
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
  echo "FAIL: infer exit code $code, want 1"
  exit 1
fi
if [ "$(grep -c '^error: ' "$dir/err.txt")" -ne 1 ]; then
  echo "FAIL: want exactly one 'error: ' line on stderr"
  exit 1
fi
echo "PASS: infer exit code 1 with one error line"

cp "$dir/votes.csv" "$dir/far.csv"
echo "0,2,1000000000,1" >> "$dir/far.csv"
(
  ulimit -v 2000000 || exit 3
  exec "$bin" index --votes "$dir/far.csv" --artifacts "$dir/artifacts"
) > "$dir/out.txt" 2> "$dir/err.txt"
code=$?
cat "$dir/out.txt" "$dir/err.txt"
if [ "$code" -ne 2 ]; then
  echo "FAIL: index exit code $code, want 2"
  exit 1
fi
if ! grep -q 'failed at stage hardening' "$dir/out.txt"; then
  echo "FAIL: want 'failed at stage hardening' on stdout"
  exit 1
fi
echo "PASS: index exit code 2, failed at stage hardening"
