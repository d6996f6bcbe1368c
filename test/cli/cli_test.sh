#!/bin/sh
# CLI regression tests for ddbtool:
#   - `models --limit` prints the true total and an explicit truncation
#     marker instead of silently passing a clipped listing off as complete;
#   - a degraded-but-clean run exits 7 with a stderr note; a hard error
#     keeps its own exit code but the degraded-cell note is not swallowed;
#   - `classify` reports the fast-path fragment view;
#   - --no-fastpath (generic-oracle ablation) does not change answers;
#   - ICWA existence honours integrity clauses;
#   - `query --witness` and `query --brave --witness` answer as recorded in
#     the expected-answers file and print a witness or counterexample line
#     exactly when the answer calls for one;
#   - `query --minimize` fixes every atom named in no option (Q), query
#     atoms the database does not contain included, for each
#     partition-parametric semantics, and is refused for the others;
#   - a .dl file is grounded on load, its `ground` output prints each rule
#     on one line, and that output re-read as .ddb answers the same;
#   - parse errors name the file, line and column;
#   - a --jobs count below 1 or past the runtime's domain limit is a usage
#     error (exit 124), refused before any worker domain starts;
#   - a negative --limit or --budget-* value is a usage error (exit 124).
set -eu
tool="$1"
quickstart="$2"
answers="$3"
tmp="${TMPDIR:-/tmp}/ddbtool_cli_$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

printf 'a | b.\n' > "$tmp/two.ddb"

# 1. A --limit cut is flagged, and the reported count is the true total.
out=$("$tool" models "$tmp/two.ddb" -s egcwa --limit 1)
echo "$out" | grep -q '^2 model(s) under egcwa' || fail "models: total count"
echo "$out" | grep -q 'truncated by --limit: 1 of 2 shown' \
  || fail "models: truncation marker"

# 2. An uncut listing carries no marker.
out=$("$tool" models "$tmp/two.ddb" -s egcwa)
if echo "$out" | grep -q 'truncated'; then
  fail "models: spurious truncation marker"
fi

# 3. A run that degraded an answer (but hit no error) exits 7 and reports
#    the degraded count on stderr.
code=0
err=$("$tool" query "$quickstart" -s gcwa -q '~cat' --budget-ticks 1 \
  2>&1 >/dev/null) || code=$?
[ "$code" -eq 7 ] || fail "degraded run: expected exit 7, got $code"
echo "$err" | grep -q 'degraded to unknown' || fail "degraded run: stderr note"

# 4. --on-exhaust fail: the hard error outranks exit 7, and stderr still
#    carries the degraded-cell information.
code=0
err=$("$tool" query "$quickstart" -s gcwa -q '~cat' --budget-ticks 1 \
  --on-exhaust fail 2>&1 >/dev/null) || code=$?
[ "$code" -ne 0 ] || fail "hard error: expected nonzero exit"
[ "$code" -ne 7 ] || fail "hard error: must outrank exit 7"
echo "$err" | grep -q 'budget exhausted' || fail "hard error: message"
echo "$err" | grep -q 'degraded to unknown' \
  || fail "hard error: degraded note swallowed"

# 5. classify reports the fragment classifier's view.
out=$("$tool" classify "$quickstart")
echo "$out" | grep -q '^fragments: *positive' || fail "classify: fragments line"

# 6. The fast-path dispatch and the generic oracle agree on a routed cell.
a=$("$tool" query "$quickstart" -s gcwa -q '~cat')
b=$("$tool" query "$quickstart" -s gcwa -q '~cat' --no-fastpath)
[ "$a" = "$b" ] || fail "fastpath ablation changed the answer"

# 7. ICWA existence agrees with the ICWA model listing when an integrity
#    clause excludes the only candidate model.
printf 'a.\n:- a.\n' > "$tmp/ic.ddb"
"$tool" exists "$tmp/ic.ddb" -s icwa | grep -q 'has no model' \
  || fail "icwa exists: integrity clause ignored"
"$tool" models "$tmp/ic.ddb" -s icwa | grep -q '^0 model(s) under icwa' \
  || fail "icwa models: expected none"

# 8. Brave and cautious queries with --witness under every semantics: the
#    answer lines are the recorded ones.  A brave answer |~ is followed by
#    one "witness:" line, a failed cautious answer |/= by one
#    "counterexample:" line, and any other answer by nothing.  The models
#    themselves are not recorded: any intended model satisfying the query
#    (or its negation) is correct.
for s in $("$tool" semantics | cut -d' ' -f1); do
  for q in 'dog' '~cat' 'dog | cat' 'muddy & ~cat' 'cat' '~dog'; do
    for flags in "--witness" "--brave --witness"; do
      # shellcheck disable=SC2086
      out=$("$tool" query "$quickstart" -s "$s" -q "$q" $flags)
      answer=$(echo "$out" | head -n 1)
      echo "$answer" >> "$tmp/answers"
      rest=$(echo "$out" | sed -n '2,$p')
      case "$answer" in
        *' |~ '*) label=witness ;;
        *' |/= '*) label=counterexample ;;
        *) label= ;;
      esac
      if [ -z "$label" ]; then
        [ -z "$rest" ] || fail "query -s $s -q '$q' $flags: unexpected '$rest'"
      else
        echo "$rest" | grep -qx "$label: {.*}" \
          || fail "query -s $s -q '$q' $flags: no $label line in '$rest'"
      fi
    done
  done
done
diff "$answers" "$tmp/answers" || fail "query answers differ from $answers"

# 9. --minimize: the unmentioned atom c and the fresh query atom zz are
#    fixed, as in Circ(DB; P; Z), so ECWA leaves zz open.  CIRC and ICWA
#    take the same partition.
printf 'a | b.\nc :- a.\n' > "$tmp/circ.ddb"
out=$("$tool" query "$tmp/circ.ddb" -s ccwa -q b --minimize a)
[ "$out" = "ccwa(DB) |/= b   (P={a}; Q={b, c}; Z={})" ] \
  || fail "query --minimize: got '$out'"
out=$("$tool" query "$tmp/circ.ddb" -s ecwa -q '~zz' --minimize a --vary b)
[ "$out" = "ecwa(DB) |/= ~zz   (P={a}; Q={c, zz}; Z={b})" ] \
  || fail "query --minimize with a fresh query atom: got '$out'"
out=$("$tool" query "$tmp/circ.ddb" -s circ -q b --minimize a)
[ "$out" = "circ(DB) |/= b   (P={a}; Q={b, c}; Z={})" ] \
  || fail "query -s circ --minimize: got '$out'"
out=$("$tool" query "$tmp/circ.ddb" -s icwa -q '~b' --minimize a)
[ "$out" = "icwa(DB) |/= ~b   (P={a}; Q={b, c}; Z={})" ] \
  || fail "query -s icwa --minimize: got '$out'"
#    The models minimal in a with b and c fixed are {b}, {b, c} and
#    {a, c}, so {b} is the one counterexample to c.
out=$("$tool" query "$tmp/circ.ddb" -s ecwa -q c --minimize a --witness)
want=$(printf 'ecwa(DB) |/= c   (P={a}; Q={b, c}; Z={})\ncounterexample: {b}')
[ "$out" = "$want" ] || fail "query --minimize --witness: got '$out'"
#    GCWA is defined at the total partition only.
err=$("$tool" query "$tmp/circ.ddb" -s gcwa -q b --minimize a 2>&1 >/dev/null \
  | tr -s '\n ' '  ')
echo "$err" | grep -qF \
  "need a partition-parametric semantics (ccwa, ecwa, circ, icwa), not gcwa" \
  || fail "query -s gcwa --minimize: got '$err'"

# 10. A Datalog game: b moves to the lost position c, so win(b) holds in
#     every stable model, read from the .dl file and from its grounding,
#     which prints each rule on one line.
printf 'move(a, b). move(b, c).\nwin(X) :- move(X, Y), not win(Y).\n' \
  > "$tmp/game.dl"
out=$("$tool" query "$tmp/game.dl" -s dsm -q 'win(b)')
[ "$out" = "dsm(DB) |= win(b)" ] || fail "query on .dl: got '$out'"
"$tool" ground "$tmp/game.dl" > "$tmp/game.ddb"
grep -qxF 'win(a) :- move(a,b), not win(b).' "$tmp/game.ddb" \
  || fail "ground: a rule is not printed on one line: $(cat "$tmp/game.ddb")"
out=$("$tool" query "$tmp/game.ddb" -s dsm -q 'win(b)')
[ "$out" = "dsm(DB) |= win(b)" ] || fail "query on ground output: got '$out'"

# 11. Parse errors carry file:line:col, in .ddb and in .dl files (the
#     message may be wrapped across lines).
printf 'a.\na :- not a,\nb | c.\n' > "$tmp/bad.ddb"
err=$("$tool" models "$tmp/bad.ddb" 2>&1 >/dev/null | tr -s '\n ' '  ')
echo "$err" | grep -qF "$tmp/bad.ddb:3:3: expected '.' but found '|'" \
  || fail "malformed .ddb: no file:line:col in '$err'"
printf 'p(a).\nq(X) :- p(X)) .\n' > "$tmp/bad.dl"
err=$("$tool" ground "$tmp/bad.dl" 2>&1 >/dev/null | tr -s '\n ' '  ')
echo "$err" | grep -qF "$tmp/bad.dl:2:13: expected '.' but found ')'" \
  || fail "malformed .dl: no file:line:col in '$err'"

# 12. --jobs takes a worker count the pool can run: 0 and 1000 are usage
#     errors naming the accepted range.
for n in 0 1000; do
  code=0
  err=$("$tool" stats "$tmp/two.ddb" --jobs "$n" 2>&1 >/dev/null) || code=$?
  [ "$code" -eq 124 ] || fail "--jobs $n: expected exit 124, got $code"
  echo "$err" | grep -q "expected a worker count from 1 to" \
    || fail "--jobs $n: got '$err'"
done

# 13. Counts and caps are never negative, also written --opt=-N: a usage
#     error, not an empty listing or a budget that trips at once.
for args in "models --limit=-2" "exists --budget-conflicts=-1" \
  "exists --budget-ticks=-1" "exists --budget-ms=-1" "exists --budget-ms=nan"
do
  code=0
  err=$("$tool" "${args%% *}" "$tmp/two.ddb" "${args#* }" 2>&1 >/dev/null) \
    || code=$?
  [ "$code" -eq 124 ] || fail "$args: expected exit 124, got $code"
  echo "$err" | tr -s '\n ' '  ' | grep -q "expected a non-negative number" \
    || fail "$args: got '$err'"
done

echo "cli tests passed"
