# tests/goldens.txt for CI's bash steps: `. tests/golden.sh` from the repo
# root. `check_rows PREFIX GETTER FILE` checks every row under PREFIX (at
# least one) against `GETTER FILE NAME`, NAME being the key after PREFIX,
# and fails naming the key.

check_rows() {
  keys=$(awk -v p="$1" 'index($1, p) == 1 { print $1 }' tests/goldens.txt)
  [ -n "$keys" ] || { echo "tests/goldens.txt: no row under $1"; exit 1; }
  for key in $keys; do
    want=$(awk -v k="$key" '$1 == k { n++; v = $2 } END { if (n == 1) print v }' tests/goldens.txt)
    [ -n "$want" ] || { echo "tests/goldens.txt: more than one row $key"; exit 1; }
    got=$("$2" "$3" "${key#"$1"}")
    [ "$got" = "$want" ] || { echo "$key: got '$got', tests/goldens.txt records $want"; exit 1; }
    echo "$key = $got"
  done
}

# Field NAME of the one-line JSON object in FILE.
json_field() {
  awk -v k="\"$2\":" '{
    i = index($0, k)
    if (i) { v = substr($0, i + length(k)); sub(/[,}].*/, "", v); gsub(/"/, "", v); print v; exit }
  }' "$1"
}

# Field NAME= of FILE's RESULT line.
result_field() {
  awk -v k="$2=" '/^RESULT / {
    for (i = 2; i <= NF; i++) if (index($i, k) == 1) { print substr($i, length(k) + 1); exit }
  }' "$1"
}

# FNV-1a 64 of FILE's bytes as 16 hex digits (the NAME check_rows passes
# is ignored). Bash arithmetic wraps at 64 bits, as FNV's multiply does.
fnv_of() {
  h=$((0xcbf29ce484222325))
  for b in $(od -An -v -tu1 "$1"); do
    h=$(( (h ^ b) * 0x100000001b3 ))
  done
  printf '%016x\n' "$h"
}
