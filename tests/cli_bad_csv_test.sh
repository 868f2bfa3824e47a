#!/usr/bin/env bash
# A malformed CSV given to dcmt_cli fails closed: the reader names the bad
# cell as path:line:column and the command exits 1 ("cannot read"), never
# with an uncaught exception or an abort (exit 134).
#
# Usage: tests/cli_bad_csv_test.sh path/to/dcmt_cli
set -u
CLI="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

HEADER='deep:user:10,wide:cat:3,click,conversion,oracle_conversion,true_ctr,true_cvr,user_index,item_index'
GOOD='4,2,1,1,1,0.5,0.25,7,9'
printf '%s\n%s\n%s\n' "$HEADER" "$GOOD" 'abc,2,1,1,1,0.5,0.25,7,9' > "$DIR/nonnumeric.csv"
printf '%s\n%s\n%s\n' "$HEADER" "$GOOD" '4,99,1,1,1,0.5,0.25,7,9' > "$DIR/oov.csv"

status=0
expect_exit_1() {  # name, location, command...
  local name="$1" where="$2"
  shift 2
  "$@" > "$DIR/out.txt" 2> "$DIR/err.txt"
  local code=$?
  if [[ $code -ne 1 ]]; then
    echo "FAIL $name: exit $code, expected 1"; cat "$DIR/err.txt"; status=1
  elif ! grep -q "$where" "$DIR/err.txt"; then
    echo "FAIL $name: stderr does not name $where"; cat "$DIR/err.txt"; status=1
  else
    echo "ok   $name"
  fi
}

expect_exit_1 "train non-numeric cell" "nonnumeric.csv:3:1:" \
  "$CLI" train --train="$DIR/nonnumeric.csv" --epochs=1 --threads=1 \
  --ckpt="$DIR/model.bin"
expect_exit_1 "train out-of-vocab id" "oov.csv:3:3:" \
  "$CLI" train --train="$DIR/oov.csv" --epochs=1 --threads=1 \
  --ckpt="$DIR/model.bin"
expect_exit_1 "evaluate out-of-vocab id" "oov.csv:3:3:" \
  "$CLI" evaluate --test="$DIR/oov.csv" --ckpt="$DIR/model.bin" --threads=1
expect_exit_1 "predict non-numeric cell" "nonnumeric.csv:3:1:" \
  "$CLI" predict --input="$DIR/nonnumeric.csv" --ckpt="$DIR/model.bin" \
  --out="$DIR/pred.csv" --threads=1
exit $status
