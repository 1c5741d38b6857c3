# expect CODE LINE ARGV...: runs ARGV in a fresh process, prints ARGV with
# its exit code and first output line, and sets failed=1 unless they are
# CODE and LINE.  Source it, call expect once per expectation, then
# `exit $failed`.
failed=0
expect() {
  local want_code=$1 want=$2 out code
  shift 2
  out=$("$@") && code=0 || code=$?
  echo "$* -> exit $code: ${out%%$'\n'*}"
  if [ "$code" != "$want_code" ] || [ "${out%%$'\n'*}" != "$want" ]; then
    echo "  expected exit $want_code: $want"
    failed=1
  fi
}
