#!/usr/bin/env bash
# A batch size, queue bound, embedding width or other count below its floor
# given to dcmt_cli fails closed: the command exits 2 naming the flag, as a
# value that does not parse does, never with a library abort (exit 134) and
# never silently clamped to the floor. So does a trainer
# setting that would train nothing or diverge (an epoch count below 1, a
# learning rate that is not positive and finite, a validation fraction
# outside [0, 1)), and no such run writes its --ckpt. A run that diverges
# anyway (a finite but huge --lr) stops at its first non-finite step loss,
# naming the epoch and step, exits 1 and writes no --ckpt either. A
# router-bench --requests count that --clients does not divide is sent
# exactly, not rounded, and a --requests count below --clients starts one
# client per request.
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
  elif [[ -e "$DIR/model.bin" ]]; then
    echo "FAIL $name: wrote --ckpt"; status=1
  else
    echo "ok   $name"
  fi
  rm -f "$DIR/model.bin"
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
expect_exit_2 "train --prefetch-depth=-1" --prefetch-depth \
  "$CLI" "${TRAIN[@]}" --prefetch-depth=-1
expect_exit_2 "gen-shards --shard-rows=0" --shard-rows \
  "$CLI" gen-shards --out-dir="$DIR/shards" --shard-rows=0
expect_exit_2 "serve-bench --window=0" --window \
  "$CLI" serve-bench --threads=1 --window=0
for flag in engines requests clients; do
  expect_exit_2 "router-bench --$flag=0" "--$flag" \
    "$CLI" router-bench --threads=1 "--$flag=0"
done
CONTINUAL=(continual --work-dir="$DIR/continual" --threads=1)
for flag in days pvs candidates exposed first-screen pretrain rows-per-shard \
            engines; do
  expect_exit_2 "continual --$flag=0" "--$flag" \
    "$CLI" "${CONTINUAL[@]}" "--$flag=0"
done
expect_exit_2 "continual --segments=1" --segments \
  "$CLI" "${CONTINUAL[@]}" --segments=1
for flag in prefetch lag-max; do
  expect_exit_2 "continual --$flag=-1" "--$flag" \
    "$CLI" "${CONTINUAL[@]}" "--$flag=-1"
done
for v in 0 -1; do
  expect_exit_2 "train --epochs=$v" --epochs "$CLI" "${TRAIN[@]}" --epochs="$v"
  expect_exit_2 "continual --epochs=$v" --epochs \
    "$CLI" continual --work-dir="$DIR/continual" --threads=1 --epochs="$v"
done
for v in 0 -1 nan inf; do
  expect_exit_2 "train --lr=$v" --lr "$CLI" "${TRAIN[@]}" --lr="$v"
  expect_exit_2 "continual --lr=$v" --lr \
    "$CLI" continual --work-dir="$DIR/continual" --threads=1 --lr="$v"
done
for v in 1.5 1 -0.1 nan; do
  expect_exit_2 "train --val-fraction=$v" --val-fraction \
    "$CLI" "${TRAIN[@]}" --val-fraction="$v"
done

# Step 1's Adam update moves every weight by ~1e30, so step 2's logits
# overflow and its loss is not finite.
"$CLI" "${TRAIN[@]}" --epochs=3 --lr=1e30 > "$DIR/out.txt" 2> "$DIR/err.txt"
code=$?
if [[ $code -ne 1 ]]; then
  echo "FAIL train --lr=1e30: exit $code, expected 1"; cat "$DIR/err.txt"
  status=1
elif ! grep -q "non-finite loss .* at epoch 2 step 2" "$DIR/err.txt"; then
  echo "FAIL train --lr=1e30: stderr does not name the epoch and step"
  cat "$DIR/err.txt"; status=1
elif [[ -e "$DIR/model.bin" ]]; then
  echo "FAIL train --lr=1e30: wrote --ckpt"; status=1
else
  echo "ok   train --lr=1e30 stops at the non-finite loss"
fi
rm -f "$DIR/model.bin"

# The smallest accepted value still runs.
if ! "$CLI" check-graph --model=dcmt --batch=1 > "$DIR/out.txt" 2>&1; then
  echo "FAIL check-graph --batch=1 rejected"; cat "$DIR/out.txt"; status=1
else
  echo "ok   check-graph --batch=1"
fi

# --requests is sent exactly, not rounded to a multiple of --clients.
if ! "$CLI" router-bench --threads=1 --requests=7 --clients=3 --swap=0 \
     --overload=0 > "$DIR/out.txt" 2>&1; then
  echo "FAIL router-bench --requests=7 --clients=3 failed"; cat "$DIR/out.txt"
  status=1
elif ! grep -q "requests=7$" "$DIR/out.txt"; then
  echo "FAIL router-bench --requests=7 --clients=3: not 7 requests"
  cat "$DIR/out.txt"; status=1
else
  echo "ok   router-bench --requests=7 --clients=3 sends 7"
fi

# A client with no request to send is not started.
if ! "$CLI" router-bench --threads=1 --requests=2 --clients=4 --swap=0 \
     --overload=0 > "$DIR/out.txt" 2>&1; then
  echo "FAIL router-bench --requests=2 --clients=4 failed"; cat "$DIR/out.txt"
  status=1
elif ! grep -q "clients=2 requests=2$" "$DIR/out.txt"; then
  echo "FAIL router-bench --requests=2 --clients=4: not 2 clients"
  cat "$DIR/out.txt"; status=1
else
  echo "ok   router-bench --requests=2 --clients=4 starts 2 clients"
fi
exit $status
