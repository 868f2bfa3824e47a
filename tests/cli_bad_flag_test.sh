#!/usr/bin/env bash
# A batch size, queue bound or embedding width below 1 given to dcmt_cli
# fails closed: the command exits 2 naming the flag, as a value that does
# not parse does, never with a library abort (exit 134).
#
# Usage: tests/cli_bad_flag_test.sh path/to/dcmt_cli
set -u
CLI="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

status=0
expect_exit_2() {  # name, flag, command...
  local name="$1" flag="$2"
  shift 2
  "$@" > "$DIR/out.txt" 2> "$DIR/err.txt"
  local code=$?
  if [[ $code -ne 2 ]]; then
    echo "FAIL $name: exit $code, expected 2"; cat "$DIR/err.txt"; status=1
  elif ! grep -q -- "invalid value for $flag:" "$DIR/err.txt"; then
    echo "FAIL $name: stderr does not name $flag"; cat "$DIR/err.txt"; status=1
  else
    echo "ok   $name"
  fi
}

printf '%s\n%s\n' \
  'deep:user:10,wide:cat:3,click,conversion,oracle_conversion,true_ctr,true_cvr,user_index,item_index' \
  '4,2,1,1,1,0.5,0.25,7,9' > "$DIR/train.csv"
TRAIN=(train --train="$DIR/train.csv" --ckpt="$DIR/model.bin" --epochs=1
       --threads=1)
expect_exit_2 "train --batch=0" --batch "$CLI" "${TRAIN[@]}" --batch=0
expect_exit_2 "train --batch=-5" --batch "$CLI" "${TRAIN[@]}" --batch=-5
expect_exit_2 "check-graph --batch=0" --batch \
  "$CLI" check-graph --model=dcmt --batch=0
expect_exit_2 "train --embedding-dim=0" --embedding-dim \
  "$CLI" "${TRAIN[@]}" --embedding-dim=0
expect_exit_2 "check-graph --embedding-dim=-1" --embedding-dim \
  "$CLI" check-graph --model=dcmt --embedding-dim=-1
for cmd in serve-bench router-bench; do
  expect_exit_2 "$cmd --max-batch=0" --max-batch \
    "$CLI" "$cmd" --threads=1 --max-batch=0
  expect_exit_2 "$cmd --queue-capacity=0" --queue-capacity \
    "$CLI" "$cmd" --threads=1 --queue-capacity=0
done
expect_exit_2 "continual --batch=0" --batch \
  "$CLI" continual --work-dir="$DIR/continual" --threads=1 --batch=0

# The smallest accepted value still runs.
if ! "$CLI" check-graph --model=dcmt --batch=1 > "$DIR/out.txt" 2>&1; then
  echo "FAIL check-graph --batch=1 rejected"; cat "$DIR/out.txt"; status=1
else
  echo "ok   check-graph --batch=1"
fi
exit $status
