#!/usr/bin/env bash
# The full local CI gate: format, lint, release build, tests.
# Run from the repo root; any failure stops the script.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
# A deleted or renamed item must not leave a dangling intra-doc link.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release"
cargo build --release

# perfbench/ mirrors the CLI's public calls; a change to one of
# them must fail here, not in the benchmark run. It is a workspace of its
# own; sharing `target` keeps its build output out of perfbench/.
echo "==> cargo build --release (perfbench)"
# The build rewrites perfbench/Cargo.lock; the committed file is put back
# afterwards, also when the build fails, so the run leaves the tree clean.
LOCK_COPY="$(mktemp)"
cp perfbench/Cargo.lock "$LOCK_COPY"
trap 'cp "$LOCK_COPY" perfbench/Cargo.lock; rm -f "$LOCK_COPY"' EXIT
cargo build --release --offline --manifest-path perfbench/Cargo.toml --target-dir target
cp "$LOCK_COPY" perfbench/Cargo.lock
rm -f "$LOCK_COPY"
trap - EXIT

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> pinned world: the quick seed-7 world's files match their sha256 digests"
FAULT_DIR="$(mktemp -d)"
trap 'rm -rf "$FAULT_DIR"' EXIT
WEARSCOPE=target/release/wearscope
"$WEARSCOPE" generate --out "$FAULT_DIR/world" --seed 7 --scale quick 2>/dev/null
# The generator is pinned byte for byte: any drift in the simulated
# behaviour, the network or the log encoder changes one of these digests.
(cd "$FAULT_DIR/world" && sha256sum --quiet -c -) <<'DIGESTS'
7c66cc6d5c0430153e0efd5d163cbd0f7411152a75005d0a982bf322b639c84c  manifest.tsv
eb2cb2ac57ca9ed749d23a9603240aef0e43277e1e0fc2cc070ab674046c7a58  mme.log
bc427c022f9ff7f7b63450a3d1cbfae384b45cacc38b9fb34ea37346766eff89  proxy.log
4a4890f95f73456e9be7f7fb2b6a4159ed297b6a20134994fc4e538093f1a339  sectors.tsv
d010dcb92b170fa4eed95278d4b9ab1a304a475b5c444d64a67fa37df330eda1  summary_mme.tsv
7de98562e68ccb7d2e194cc662e4d3722b28f03f7fbc6aa15c5e038c5b618dbc  summary_traffic.tsv
DIGESTS
test "$(find "$FAULT_DIR/world" -type f | wc -l)" -eq 6
echo "    the quick seed-7 world's six files match their pinned sha256 digests"

echo "==> pinned corruption: the quick seed-7 logs after corrupt --seed 3 --faults all"
# The injector is pinned like the generator: a change to how it reads,
# claims or copies lines changes one of these digests.
cp -r "$FAULT_DIR/world" "$FAULT_DIR/corrupt-world"
"$WEARSCOPE" corrupt --world "$FAULT_DIR/corrupt-world" --seed 3 --faults all >/dev/null
(cd "$FAULT_DIR/corrupt-world" && sha256sum --quiet -c -) <<'DIGESTS'
37a32bcf32c8ac9a157fa00eb1157209f7ce8ec80837ee4e798e49abd8e54d0b  mme.log
430b18f7ee7264ef4fa7e46a55dae0428d7252e90a7b74dd6a2e9826afeef687  proxy.log
DIGESTS
test "$(find "$FAULT_DIR/corrupt-world" -type f | wc -l)" -eq 6
echo "    the corrupted quick seed-7 logs match their pinned sha256 digests"
# The corrupted-world drills on this world (the fault matrix across worker
# counts, metrics determinism, batch/stream agreement) are
# tests/cli_faults.rs, run by `cargo test` above.

# The per-reason quarantine counts on a run's `quality:`/`stream:` lines.
quarantine_counts() { grep -E '^(quality|stream):' "$1" | grep -o 'quarantined: .*'; }

# The stream kill/resume drills on the quick seed-11 world (the kill-point
# sweep, --checkpoint-every 1, two stopped runs' metrics, and the reordered,
# 400-day and drop-oldest resumes) are tests/cli_stream.rs, run by `cargo
# test` above. The steps below use the same world.
"$WEARSCOPE" generate --out "$FAULT_DIR/stream-world" --seed 11 --scale quick 2>/dev/null

echo "==> a non-UTF-8 log byte is quarantined, not fatal; crafted lines keep the decoder's precedence"
# Storage damage that leaves a line undecodable as UTF-8 is one bad line,
# like a bit flip: analyze and stream must both exit 0, list it as
# bad-field and agree on the decode-error counters. A 0xff byte inside a
# number is still "not valid UTF-8", not a bad field; a user id past
# u64::MAX and an eighth field are bad fields; a `+`-signed timestamp and
# a host with `\t` and `\\` escapes decode as records.
rm -rf "$FAULT_DIR/utf8-world"
cp -r "$FAULT_DIR/stream-world" "$FAULT_DIR/utf8-world"
break_utf8() { # FILE LINE: overwrite the line's first byte with 0xff
    local offset
    offset=$(head -n "$(($2 - 1))" "$1" | wc -c)
    printf '\377' | dd of="$1" bs=1 seek="$offset" conv=notrunc status=none
}
break_utf8 "$FAULT_DIR/utf8-world/proxy.log" 100
break_utf8 "$FAULT_DIR/utf8-world/mme.log" 50
LC_ALL=C sed -i -e '200s/^\([0-9]\{3\}\)/\1\xff/' \
    -e '300s/^\([0-9]*\)\t[0-9]*\t/\1\t18446744073709551616\t/' \
    -e '400s/^/+/' \
    -e '500s/^\(\([^\t]*\t\)\{3\}\)[^\t]*/\1tab\\tand\\\\slash.example/' \
    -e '600s/$/\t9/' "$FAULT_DIR/utf8-world/proxy.log"
sed -n '500p' "$FAULT_DIR/utf8-world/proxy.log" | grep -qF $'\ttab\\tand\\\\slash.example\t'
"$WEARSCOPE" analyze --world "$FAULT_DIR/utf8-world" --workers 2 \
    --metrics "$FAULT_DIR/utf8-analyze.json" >/dev/null 2>"$FAULT_DIR/utf8-analyze.err"
"$WEARSCOPE" stream --world "$FAULT_DIR/utf8-world" --lateness 0s \
    --metrics "$FAULT_DIR/utf8-stream.json" >/dev/null 2>"$FAULT_DIR/utf8-stream.err"
# The quarantine.log that the string decoder this byte decoder replaced
# wrote for this world.
diff - "$FAULT_DIR/utf8-world/quarantine.log" <<'QUARANTINE'
proxy	line:100	bad-field	line is not valid UTF-8
proxy	line:200	bad-field	line is not valid UTF-8
proxy	line:300	bad-field	field 1 is not a valid u64
proxy	line:600	bad-field	more than 7 fields
mme	line:50	bad-field	line is not valid UTF-8
QUARANTINE
quarantine_counts "$FAULT_DIR/utf8-analyze.err" >"$FAULT_DIR/utf8-analyze.quarantine"
quarantine_counts "$FAULT_DIR/utf8-stream.err" >"$FAULT_DIR/utf8-stream.quarantine"
grep -q "quarantined: 5 bad-field)" "$FAULT_DIR/utf8-analyze.quarantine"
diff "$FAULT_DIR/utf8-analyze.quarantine" "$FAULT_DIR/utf8-stream.quarantine"
for run in analyze stream; do
    awk '/^  "timing":/{exit} {print}' "$FAULT_DIR/utf8-$run.json" |
        grep '"trace\.' >"$FAULT_DIR/utf8-$run.trace"
done
grep -q '"trace.proxy.decode_errors": 4' "$FAULT_DIR/utf8-analyze.trace"
grep -q '"trace.mme.decode_errors": 1' "$FAULT_DIR/utf8-analyze.trace"
diff "$FAULT_DIR/utf8-analyze.trace" "$FAULT_DIR/utf8-stream.trace"
echo "    0xff bytes and crafted fields quarantined as the string decoder did, by analyze and stream"

echo "==> corrupt reads and writes the logs as bytes"
# `corrupt` splits the logs on `\n` only and writes every line no fault
# claims back byte for byte: a spec that injects nothing leaves the
# non-UTF-8 world's logs as they are, and leaves a CRLF-damaged world's
# `\r`s in place. Every fault class runs on the non-UTF-8 world, and
# analyze then still lists its 0xff lines as bad-field.
rm -rf "$FAULT_DIR/bytes-world" "$FAULT_DIR/crlf-world" "$FAULT_DIR/crlf-once"
cp -r "$FAULT_DIR/utf8-world" "$FAULT_DIR/bytes-world"
"$WEARSCOPE" corrupt --world "$FAULT_DIR/bytes-world" --faults dup=0 >/dev/null
cp -r "$FAULT_DIR/stream-world" "$FAULT_DIR/crlf-world"
"$WEARSCOPE" corrupt --world "$FAULT_DIR/crlf-world" --faults crlf=0.01 >/dev/null
grep -q $'\r$' "$FAULT_DIR/crlf-world/proxy.log"
cp -r "$FAULT_DIR/crlf-world" "$FAULT_DIR/crlf-once"
"$WEARSCOPE" corrupt --world "$FAULT_DIR/crlf-world" --faults dup=0 >/dev/null
for log in proxy.log mme.log; do
    cmp "$FAULT_DIR/utf8-world/$log" "$FAULT_DIR/bytes-world/$log"
    cmp "$FAULT_DIR/crlf-once/$log" "$FAULT_DIR/crlf-world/$log"
done
"$WEARSCOPE" corrupt --world "$FAULT_DIR/bytes-world" --seed 3 --faults all >/dev/null
"$WEARSCOPE" analyze --world "$FAULT_DIR/bytes-world" --workers 2 >/dev/null 2>&1
utf8_lines() { # LOG: quarantine.log's not-UTF-8 entries for LOG
    grep -cE "^$1"$'\tline:[0-9]+\tbad-field\tline is not valid UTF-8$' \
        "$FAULT_DIR/bytes-world/quarantine.log"
}
test "$(utf8_lines proxy)" -eq 2
test "$(utf8_lines mme)" -eq 1
echo "    a no-op spec rewrites non-UTF-8 and CRLF logs byte for byte; every class corrupts a non-UTF-8 world"

echo "==> a sector outside the cell plan is quarantined, not kept"
# An MME record naming sector 999999 (not in sectors.tsv) must be
# quarantined as unknown-sector by analyze and stream alike, with the same
# per-reason counts.
rm -rf "$FAULT_DIR/sector-world"
cp -r "$FAULT_DIR/stream-world" "$FAULT_DIR/sector-world"
sed -i '50s/\t[0-9]*$/\t999999/' "$FAULT_DIR/sector-world/mme.log"
sed -n '50p' "$FAULT_DIR/sector-world/mme.log" | grep -q $'\t999999$'
"$WEARSCOPE" analyze --world "$FAULT_DIR/sector-world" --workers 2 \
    >/dev/null 2>"$FAULT_DIR/sector-analyze.err"
"$WEARSCOPE" stream --world "$FAULT_DIR/sector-world" --lateness 0s \
    >/dev/null 2>"$FAULT_DIR/sector-stream.err"
quarantine_counts "$FAULT_DIR/sector-analyze.err" >"$FAULT_DIR/sector-analyze.quarantine"
quarantine_counts "$FAULT_DIR/sector-stream.err" >"$FAULT_DIR/sector-stream.quarantine"
grep -q "quarantined: 1 unknown-sector)" "$FAULT_DIR/sector-analyze.quarantine"
diff "$FAULT_DIR/sector-analyze.quarantine" "$FAULT_DIR/sector-stream.quarantine"
grep -q $'^mme\trecord:49\tunknown-sector\tsector 999999 ' "$FAULT_DIR/sector-world/quarantine.log"
echo "    sector 999999 quarantined as unknown-sector by analyze and stream"

echo "==> stream applies analyze's error budget"
# A 15-day summary window on a 42-day world puts every detailed record
# past the skew horizon: both commands must exit 1 with the same budget
# error, naming the proxy log's first quarantined record.
rm -rf "$FAULT_DIR/skewed-world"
cp -r "$FAULT_DIR/stream-world" "$FAULT_DIR/skewed-world"
sed -i 's/^summary_days\t.*$/summary_days\t15/' "$FAULT_DIR/skewed-world/manifest.tsv"
for cmd in analyze stream; do
    status=0
    "$WEARSCOPE" "$cmd" --world "$FAULT_DIR/skewed-world" >/dev/null 2>"$FAULT_DIR/skewed-$cmd.err" ||
        status=$?
    test "$status" -eq 1
    grep -o 'proxy log: .*' "$FAULT_DIR/skewed-$cmd.err" >"$FAULT_DIR/skewed-$cmd.budget"
done
grep -q "records quarantined (100.000%), .*(first: proxy record:0 skewed)" \
    "$FAULT_DIR/skewed-stream.budget"
diff "$FAULT_DIR/skewed-analyze.budget" "$FAULT_DIR/skewed-stream.budget"
# The per-log ledgers are checkpointed, so a run killed part-way and
# resumed applies the budget over the whole log, not only the records it
# read itself.
rm -rf "$FAULT_DIR/skewed-ckpt"
"$WEARSCOPE" stream --world "$FAULT_DIR/skewed-world" --checkpoint "$FAULT_DIR/skewed-ckpt" \
    --checkpoint-every 2000 --stop-after 50001 >/dev/null 2>&1
status=0
"$WEARSCOPE" stream --world "$FAULT_DIR/skewed-world" --checkpoint "$FAULT_DIR/skewed-ckpt" \
    --resume >/dev/null 2>"$FAULT_DIR/skewed-resumed.err" || status=$?
test "$status" -eq 1
grep -o 'proxy log: .*' "$FAULT_DIR/skewed-resumed.err" >"$FAULT_DIR/skewed-resumed.budget"
diff "$FAULT_DIR/skewed-analyze.budget" "$FAULT_DIR/skewed-resumed.budget"
"$WEARSCOPE" stream --world "$FAULT_DIR/skewed-world" --max-error-rate 1 >/dev/null 2>&1
echo "    analyze, stream and a killed and resumed stream exit 1 with the same budget error;"
echo "    --max-error-rate 1 lets stream pass"

echo "==> crafted checkpoint: an inflated count is a typed error, not a crash"
# A count in a checkpoint only bounds the loop over its block, so a count
# far beyond the file must give `error: checkpoint line N: ...` and exit 1,
# not a capacity-overflow panic (101) or an allocation abort (134). The
# checkpoint is a complete run's final one.
"$WEARSCOPE" stream --world "$FAULT_DIR/stream-world" --window 1h --lateness 5m \
    --checkpoint "$FAULT_DIR/ckpt" --checkpoint-every 2000 >/dev/null 2>&1
for count in 1000000000000000000 100000000000000; do
    rm -rf "$FAULT_DIR/ckpt-crafted"
    cp -r "$FAULT_DIR/ckpt" "$FAULT_DIR/ckpt-crafted"
    sed -i "s/^reports\t[0-9]*\$/reports\t$count/" "$FAULT_DIR/ckpt-crafted/stream.ckpt"
    grep -q "^reports.$count\$" "$FAULT_DIR/ckpt-crafted/stream.ckpt"
    status=0
    "$WEARSCOPE" stream --world "$FAULT_DIR/stream-world" --window 1h --lateness 5m \
        --checkpoint "$FAULT_DIR/ckpt-crafted" --resume >/dev/null 2>"$FAULT_DIR/crafted.err" ||
        status=$?
    test "$status" -eq 1
    grep -q "checkpoint line" "$FAULT_DIR/crafted.err"
done
# Each MME stream is one mobility row, `user imei first sector since`: an
# attachment has both its sector and its since, or neither (`-` and `-`).
# A stopped run's checkpoint holds open windows, so it has such rows.
rm -rf "$FAULT_DIR/ckpt-crafted"
"$WEARSCOPE" stream --world "$FAULT_DIR/stream-world" --window 1h --lateness 5m \
    --checkpoint "$FAULT_DIR/ckpt-crafted" --checkpoint-every 2000 --stop-after 6001 >/dev/null 2>&1
awk 'BEGIN { FS = OFS = "\t" }
     row == 1 { if ($4 == "-") $4 = 1; $5 = "-"; row = 2 }
     /^mobility\t[1-9]/ && !row { row = 1 }
     { print }
     END { exit row != 2 }' "$FAULT_DIR/ckpt-crafted/stream.ckpt" >"$FAULT_DIR/crafted.ckpt"
mv "$FAULT_DIR/crafted.ckpt" "$FAULT_DIR/ckpt-crafted/stream.ckpt"
status=0
"$WEARSCOPE" stream --world "$FAULT_DIR/stream-world" --window 1h --lateness 5m \
    --checkpoint "$FAULT_DIR/ckpt-crafted" --resume >/dev/null 2>"$FAULT_DIR/crafted.err" ||
    status=$?
test "$status" -eq 1
grep -q 'checkpoint line [0-9]*: sector and since must both be present or both `-`' \
    "$FAULT_DIR/crafted.err"
# A `position` row must point at a line start of each log: one byte into
# a proxy line is refused, not resumed with the line's tail quarantined.
rm -rf "$FAULT_DIR/ckpt-crafted"
"$WEARSCOPE" stream --world "$FAULT_DIR/stream-world" --window 1h --lateness 5m \
    --checkpoint "$FAULT_DIR/ckpt-crafted" --checkpoint-every 2000 --stop-after 6001 >/dev/null 2>&1
awk 'BEGIN { FS = OFS = "\t" }
     $1 == "position" { $2 += 1; moved = 1 }
     { print }
     END { exit !moved }' "$FAULT_DIR/ckpt-crafted/stream.ckpt" >"$FAULT_DIR/crafted.ckpt"
mv "$FAULT_DIR/crafted.ckpt" "$FAULT_DIR/ckpt-crafted/stream.ckpt"
status=0
"$WEARSCOPE" stream --world "$FAULT_DIR/stream-world" --window 1h --lateness 5m \
    --checkpoint "$FAULT_DIR/ckpt-crafted" --resume >/dev/null 2>"$FAULT_DIR/crafted.err" ||
    status=$?
test "$status" -eq 1
grep -q 'proxy\.log is not at a line start' "$FAULT_DIR/crafted.err"
# Its line counts must be the lines before each offset: a proxy count
# 1000 too high would shift every line number the ledgers report. The
# world is a corrupted compact one, so the ledgers hold such numbers.
rm -rf "$FAULT_DIR/count-world" "$FAULT_DIR/ckpt-crafted"
"$WEARSCOPE" generate --out "$FAULT_DIR/count-world" --seed 7 --scale compact 2>/dev/null
"$WEARSCOPE" corrupt --world "$FAULT_DIR/count-world" --seed 3 --faults all >/dev/null
"$WEARSCOPE" stream --world "$FAULT_DIR/count-world" --checkpoint "$FAULT_DIR/ckpt-crafted" \
    --checkpoint-every 1000 --stop-after 1001 >/dev/null 2>&1
awk 'BEGIN { FS = OFS = "\t" }
     $1 == "position" { $3 += 1000; moved = 1 }
     { print }
     END { exit !moved }' "$FAULT_DIR/ckpt-crafted/stream.ckpt" >"$FAULT_DIR/crafted.ckpt"
mv "$FAULT_DIR/crafted.ckpt" "$FAULT_DIR/ckpt-crafted/stream.ckpt"
status=0
"$WEARSCOPE" stream --world "$FAULT_DIR/count-world" --checkpoint "$FAULT_DIR/ckpt-crafted" \
    --resume >/dev/null 2>"$FAULT_DIR/crafted.err" || status=$?
test "$status" -eq 1
grep -q 'resume line count [0-9]* in .*proxy\.log is not the [0-9]* lines before offset' \
    "$FAULT_DIR/crafted.err"
echo "    crafted reports counts, a mobility row with a sector but no since, a"
echo "    position inside a proxy line and a proxy line count 1000 too high exit 1"
echo "    with a typed error"

echo "==> malformed world metadata: typed errors, not crashes"
# A world's manifest and cell plan are files a user can hand us: a layout
# the window cannot hold, a summary window past 100 years or a coordinate
# that is not a number must give
# `error: ...` naming the file and exit 1 — never a panic (101), an
# allocation abort (134) or a run over garbage (0).
for bad in detailed max huge nan cut; do
    rm -rf "$FAULT_DIR/bad-$bad"
    cp -r "$FAULT_DIR/stream-world" "$FAULT_DIR/bad-$bad"
done
sed -i 's/^detailed_days\t.*$/detailed_days\t1000/' "$FAULT_DIR/bad-detailed/manifest.tsv"
sed -i 's/^summary_days\t.*$/summary_days\t18446744073709551615/' "$FAULT_DIR/bad-max/manifest.tsv"
sed -i 's/^summary_days\t.*$/summary_days\t1000000000000/' "$FAULT_DIR/bad-huge/manifest.tsv"
sed -i '1s/^\([0-9]*\)\t[^\t]*\t/\1\tnan\t/' "$FAULT_DIR/bad-nan/sectors.tsv"
grep -q "^0.nan" "$FAULT_DIR/bad-nan/sectors.tsv"
# A summary cut to half its lines no longer matches its manifest check.
summary="$FAULT_DIR/bad-cut/summary_mme.tsv"
head -n "$(($(wc -l <"$summary") / 2))" "$summary" >"$summary.half"
mv "$summary.half" "$summary"
for case in detailed:manifest.tsv max:manifest.tsv huge:manifest.tsv nan:sectors.tsv \
    cut:manifest.tsv.*summary_mme.tsv; do
    bad="${case%%:*}"
    file="${case#*:}"
    for cmd in "analyze" "analyze --max-error-rate 1" "stream"; do
        status=0
        # shellcheck disable=SC2086 # the command's flags split on purpose
        "$WEARSCOPE" $cmd --world "$FAULT_DIR/bad-$bad" >/dev/null 2>"$FAULT_DIR/bad.err" ||
            status=$?
        if [ "$status" -ne 1 ] || ! grep -q "^error: .*$file" "$FAULT_DIR/bad.err"; then
            echo "$cmd on the $bad world: exit $status, expected 1 naming $file" >&2
            cat "$FAULT_DIR/bad.err" >&2
            exit 1
        fi
    done
done
echo "    bad manifest layouts, a nan sector coordinate and a cut summary exit 1 naming the file"

echo "==> trace-QA verdict: ingest loss past the 1% tolerance is not healthy"
# About 15% of this world's lines are quarantined after the corruption:
# within a raised --max-error-rate, so analyze succeeds, but the figures
# then describe only what was kept, and the verdict must say so.
rm -rf "$FAULT_DIR/qa-world"
cp -r "$FAULT_DIR/stream-world" "$FAULT_DIR/qa-world"
qa_line() {
    "$WEARSCOPE" analyze --world "$FAULT_DIR/qa-world" --full "$@" 2>/dev/null |
        grep -A1 '^== trace QA ==$' | tail -n 1
}
clean_qa=$(qa_line)
case "$clean_qa" in
*"healthy: true") ;;
*) echo "clean world's trace QA: $clean_qa (expected healthy: true)" >&2 && exit 1 ;;
esac
"$WEARSCOPE" corrupt --world "$FAULT_DIR/qa-world" --seed 3 --faults all=0.03 >/dev/null
dirty_qa=$(qa_line --max-error-rate 0.2)
case "$dirty_qa" in
*"healthy: false") ;;
*) echo "corrupted world's trace QA: $dirty_qa (expected healthy: false)" >&2 && exit 1 ;;
esac
echo "    healthy: true on the clean world, healthy: false after quarantining 15% of it"

echo "==> a world without manifest checks loads with one warning"
rm -rf "$FAULT_DIR/unchecked-world"
cp -r "$FAULT_DIR/stream-world" "$FAULT_DIR/unchecked-world"
sed -i '/^check\t/d' "$FAULT_DIR/unchecked-world/manifest.tsv"
"$WEARSCOPE" analyze --world "$FAULT_DIR/unchecked-world" >/dev/null 2>"$FAULT_DIR/unchecked.err"
test "$(grep -c '^warning: ' "$FAULT_DIR/unchecked.err")" -eq 1
grep -q "^warning: manifest.tsv records no check for summary_mme.tsv, summary_traffic.tsv, sectors.tsv" \
    "$FAULT_DIR/unchecked.err"
echo "    analyze exits 0 and names the unchecked files once"

echo "==> memory gate: analyze holds less than a store of its proxy records"
# The pipeline folds records as they are parsed, so peak RSS follows fold
# state, not log size: on a compact world it must stay below what the
# kept proxy records alone would take in a store (48 B each). A second
# parse worker may add a bounded queue of parsed chunks, never a second
# copy of anything: its peak must stay within 1 MiB of one worker's.
"$WEARSCOPE" generate --out "$FAULT_DIR/mem-world" --seed 7 --scale compact 2>/dev/null
for workers in 1 2; do
    "$WEARSCOPE" analyze --world "$FAULT_DIR/mem-world" --workers "$workers" --full \
        --csv "$FAULT_DIR/mem-csv$workers" --metrics "$FAULT_DIR/mem$workers.json" >/dev/null 2>&1
done
metric() { grep -o "\"$2\": [0-9]*" "$FAULT_DIR/mem$1.json" | grep -o '[0-9]*$'; }
rss_kb=$(metric 2 process.peak_rss_kb)
one_worker_kb=$(metric 1 process.peak_rss_kb)
store_kb=$(($(metric 2 ingest.proxy.records_kept) * 48 / 1024))
if [ "$rss_kb" -ge "$store_kb" ]; then
    echo "analyze peak RSS ${rss_kb} KB is not below the ${store_kb} KB of its proxy records" >&2
    exit 1
fi
if [ "$rss_kb" -ge $((one_worker_kb + 1024)) ]; then
    echo "analyze --workers 2 peak RSS ${rss_kb} KB is 1 MiB or more above --workers 1's ${one_worker_kb} KB" >&2
    exit 1
fi
echo "    analyze peak RSS ${rss_kb} KB < ${store_kb} KB of proxy records in a store,"
echo "    and < ${one_worker_kb} KB at --workers 1 plus 1 MiB"

echo "==> stream smoke on the corrupted world: quarantine instead of crash"
"$WEARSCOPE" corrupt --world "$FAULT_DIR/world" --seed 3 --faults all >/dev/null
"$WEARSCOPE" stream --world "$FAULT_DIR/world" --window 1h --lateness 5m \
    >/dev/null 2>"$FAULT_DIR/stream-corrupt-log.txt"
grep -q "quarantined:" "$FAULT_DIR/stream-corrupt-log.txt"
echo "    corrupted world streamed with quarantine accounting"

echo "CI green."
