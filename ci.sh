#!/bin/sh
# Offline CI for the lcm workspace: formatting, release build, full tests.
# Requires nothing beyond the Rust toolchain — no network, no registry.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q (includes the lcm-faults and lcm-driver suites)"
cargo test --workspace -q

# Batch smoke: the workload suite as one module must optimize to
# byte-identical output at every thread count.
JOBS="$(nproc 2>/dev/null || echo 4)"
echo "==> batch smoke: lcmopt batch at --jobs 1 vs --jobs $JOBS"
SMOKE="$(mktemp -d)"
trap 'rm -rf "$SMOKE"' EXIT
cargo run -q -p lcm-bench --release --bin make_corpus > "$SMOKE/corpus.lcm"
for emit in text stats json; do
  cargo run -q --release --bin lcmopt -- batch "$SMOKE/corpus.lcm" \
    --jobs 1 --emit "$emit" > "$SMOKE/$emit.j1" 2>/dev/null
  cargo run -q --release --bin lcmopt -- batch "$SMOKE/corpus.lcm" \
    --jobs "$JOBS" --emit "$emit" > "$SMOKE/$emit.jn" 2>/dev/null
  diff "$SMOKE/$emit.j1" "$SMOKE/$emit.jn"
done

# Determinism smoke: `--emit stats` must be run-to-run deterministic, and a
# run without `--jobs` must print what `--jobs 1` printed.
echo "==> determinism smoke: --emit stats run to run; text vs --jobs 1"
cargo run -q --release --bin lcmopt -- batch "$SMOKE/corpus.lcm" \
  --emit text > "$SMOKE/text.default" 2>/dev/null
diff "$SMOKE/text.j1" "$SMOKE/text.default"
cargo run -q --release --bin lcmopt -- batch "$SMOKE/corpus.lcm" \
  --emit stats > "$SMOKE/stats.a" 2>/dev/null
cargo run -q --release --bin lcmopt -- batch "$SMOKE/corpus.lcm" \
  --emit stats > "$SMOKE/stats.b" 2>/dev/null
diff "$SMOKE/stats.a" "$SMOKE/stats.b"

# Speculative-PRE smoke: on the committed weighted golden example the
# profile-guided min-cut must adopt exactly one insertion (hoisting `a + b`
# above the guard) and beat plain LCM's dynamic evaluation count, at the
# full validation tier. The differential corpus suite backing this stage
# (tests/speculative_pre.rs, 300 weighted functions) runs as part of the
# `cargo test --workspace` gate above.
echo "==> spec smoke: --placement spec on testdata/guarded_loop.lcm"
cargo run -q --release --bin lcmopt -- --placement spec --emit stats \
  --validate=full < testdata/guarded_loop.lcm > "$SMOKE/spec.stats"
grep -q "speculative: 1 candidates, 1 speculated, weighted cost 6 -> 1" \
  "$SMOKE/spec.stats"
cargo run -q --release --bin lcmopt -- --placement spec \
  < testdata/guarded_loop.lcm > "$SMOKE/spec.out"
sed -n '/entry:/,/head:/p' "$SMOKE/spec.out" | grep -q "a + b"
cargo run -q --release --bin lcmopt -- --placement lcm --emit stats \
  < testdata/guarded_loop.lcm > "$SMOKE/lcm.stats"
SPEC_EVALS="$(sed -n 's/.*dynamic evaluations.*-> //p' "$SMOKE/spec.stats")"
LCM_EVALS="$(sed -n 's/.*dynamic evaluations.*-> //p' "$SMOKE/lcm.stats")"
test "$SPEC_EVALS" -lt "$LCM_EVALS"

# Lift smoke: the committed flat three-address listing must lift to
# exactly the committed module (byte-for-byte), and the lifted module must
# optimize cleanly at the full validation tier. The golden memory pair
# pins the alias model: the loop-invariant load hoists to the preheader,
# and the same load with an in-loop may-alias store stays put.
echo "==> lift smoke: lcmopt lift + memory golden pair"
cargo run -q --release --bin lcmopt -- lift testdata/memory_flat.l3a \
  > "$SMOKE/lifted.lcm"
diff testdata/memory_flat.lcm "$SMOKE/lifted.lcm"
cargo run -q --release --bin lcmopt -- batch "$SMOKE/lifted.lcm" \
  --validate=full > /dev/null
cargo run -q --release --bin lcmopt -- --validate=full \
  < testdata/memory_loop.lcm > "$SMOKE/memloop.out"
sed -n '/entry:/,/head:/p' "$SMOKE/memloop.out" | grep -q "load p"
cargo run -q --release --bin lcmopt -- --validate=full \
  < testdata/memory_alias.lcm > "$SMOKE/memalias.out"
diff testdata/memory_alias.lcm "$SMOKE/memalias.out"

# Watch smoke: an edit stream through `lcmopt watch` must track the file
# and answer byte-identically to a one-shot batch of each revision. Three
# scripted edits cover the incremental tiers: a pure content edit takes
# the delta path, a byte-different file whose `fn` sections are unchanged
# replays each function's span memo ("0 dirty" on stderr, output bytes
# unchanged), a universe-growing edit (new expression) stays on the delta
# path instead of falling back (PR 10 widening), and a comment-only edit of
# `fn d` is a delta with nothing dirty.
echo "==> watch smoke: scripted edits, output diffed vs one-shot batch"
LCMOPT="$(pwd)/target/release/lcmopt"
WFILE="$SMOKE/watched.lcm"
# Atomic publish (rename, not copy-in-place) so the watcher never reads a
# half-written revision; then wait for iteration $1's session line.
publish() { cp "$1" "$SMOKE/stage.tmp" && mv "$SMOKE/stage.tmp" "$WFILE"; }
wait_iter() {
  i=0
  while ! grep -q "watch\[$1\]: [0-9]* ok," "$SMOKE/watch.log" \
    && [ "$i" -lt 100 ]; do i=$((i + 1)); sleep 0.1; done
  grep -q "watch\[$1\]: [0-9]* ok," "$SMOKE/watch.log"
}
# The session line is logged just before the output file is rewritten;
# poll until the output settles on the expected bytes.
wait_out() {
  i=0
  while ! cmp -s "$SMOKE/watch.out" "$1" \
    && [ "$i" -lt 100 ]; do i=$((i + 1)); sleep 0.1; done
  cmp -s "$SMOKE/watch.out" "$1"
}
cat > "$SMOKE/rev0.lcm" <<'EOT'
fn d {
entry:
  br c, l, r
l:
  x = a + b
  jmp join
r:
  jmp join
join:
  y = a + b
  obs y
  ret
}

fn straight {
entry:
  x = p * q
  obs x
  ret
}
EOT
# Revision 1: a content edit in `join` (kills `a + b` downstream) that
# leaves the CFG shape and expression universe untouched — the canonical
# delta-path edit, same pair tests/watch.rs pins.
awk '{ print } /y = a \+ b/ { print "  a = 1" }' "$SMOKE/rev0.lcm" \
  > "$SMOKE/rev1.lcm"
# Revision 2: byte-different, but every `fn` section is byte-identical
# (one trailing blank line). Both functions must replay their span memo.
{ cat "$SMOKE/rev1.lcm"; echo; } > "$SMOKE/rev2.lcm"
# Revision 3: a universe-growing edit — `p + q` is a new expression in
# `straight` — which PR 10's widening keeps on the delta path.
awk '{ print } /x = p \* q/ { print "  w = p + q"; print "  obs w" }' \
  "$SMOKE/rev2.lcm" > "$SMOKE/rev3.lcm"
# Revision 4: a comment-only edit of `fn d` — it parses to the same
# function, so its span memo misses and its retained state answers it.
sed 's/^  y = a + b$/  y = a + b # recomputed/' "$SMOKE/rev3.lcm" > "$SMOKE/rev4.lcm"
if cmp -s "$SMOKE/rev3.lcm" "$SMOKE/rev4.lcm"; then exit 1; fi
cp "$SMOKE/rev0.lcm" "$WFILE"
"$LCMOPT" watch "$WFILE" --iterations 4 --interval-ms 20 \
  -o "$SMOKE/watch.out" 2> "$SMOKE/watch.log" &
WATCH_PID=$!
# The initial revision's output appears before polling starts; edit only
# after it exists so the watcher is guaranteed to see every revision.
i=0
while [ ! -s "$SMOKE/watch.out" ] && [ "$i" -lt 100 ]; do i=$((i + 1)); sleep 0.1; done
[ -s "$SMOKE/watch.out" ]
"$LCMOPT" batch "$SMOKE/rev0.lcm" --emit text > "$SMOKE/rev0.batch" 2>/dev/null
diff "$SMOKE/watch.out" "$SMOKE/rev0.batch"
"$LCMOPT" batch "$SMOKE/rev1.lcm" --emit text > "$SMOKE/rev1.batch" 2>/dev/null
"$LCMOPT" batch "$SMOKE/rev3.lcm" --emit text > "$SMOKE/rev3.batch" 2>/dev/null
# Edit 1: content delta on fn d, span memo replay on untouched fn straight.
publish "$SMOKE/rev1.lcm"
wait_iter 1
wait_out "$SMOKE/rev1.batch"
grep -q "watch\[1\]: fn d: delta, 1 dirty" "$SMOKE/watch.log"
# Edit 2: no-op rewrite — both functions report "0 dirty" memo replays
# and the output file stays byte-identical to revision 1's.
publish "$SMOKE/rev2.lcm"
wait_iter 2
grep -q "watch\[2\]: fn d: zero-dirty, 0 dirty" "$SMOKE/watch.log"
grep -q "watch\[2\]: fn straight: zero-dirty, 0 dirty" "$SMOKE/watch.log"
diff "$SMOKE/watch.out" "$SMOKE/rev1.batch"
# Edit 3: universe growth must be a delta solve, never a fallback.
publish "$SMOKE/rev3.lcm"
wait_iter 3
wait_out "$SMOKE/rev3.batch"
grep -q "watch\[3\]: fn straight: delta, 1 dirty" "$SMOKE/watch.log"
grep -q "watch\[3\]:.* 1 universe-grow, .* 0 fallback" "$SMOKE/watch.log"
# Edit 4: the comment-only edit is a delta with nothing dirty, and the
# output bytes do not change.
publish "$SMOKE/rev4.lcm"
wait "$WATCH_PID"
wait_out "$SMOKE/rev3.batch"
grep -q "watch\[4\]: fn d: delta, 0 dirty" "$SMOKE/watch.log"
WATCH_EDITS=$(sed -n 's/.*watch\[4\]: .* edits: \([^;]*\);.*/\1/p' "$SMOKE/watch.log")
[ -n "$WATCH_EDITS" ]

# Serve smoke: the daemon must answer byte-identically to batch, survive a
# SIGKILL crash (the write-behind cache file either loads or quarantines,
# never wedges the restart), and still answer identically from the warm
# cache before draining cleanly.
echo "==> serve smoke: daemon round-trip, kill -9 crash, warm restart"
SOCK="$SMOKE/daemon.sock"
DCACHE="$SMOKE/daemon.cache"
"$LCMOPT" serve --socket "$SOCK" --cache-file "$DCACHE" 2> "$SMOKE/serve1.log" &
SERVE_PID=$!
i=0
while [ ! -S "$SOCK" ] && [ "$i" -lt 100 ]; do i=$((i + 1)); sleep 0.1; done
[ -S "$SOCK" ]
"$LCMOPT" request --socket "$SOCK" "$SMOKE/corpus.lcm" > "$SMOKE/daemon.cold"
diff "$SMOKE/text.j1" "$SMOKE/daemon.cold"
[ -f "$DCACHE" ] # write-behind: the cache file is durable before any drain
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
rm -f "$SOCK" # the crash leaves a stale socket; clear it so the wait below sees the new bind
"$LCMOPT" serve --socket "$SOCK" --cache-file "$DCACHE" 2> "$SMOKE/serve2.log" &
SERVE_PID=$!
i=0
while [ ! -S "$SOCK" ] && [ "$i" -lt 100 ]; do i=$((i + 1)); sleep 0.1; done
[ -S "$SOCK" ]
"$LCMOPT" request --socket "$SOCK" "$SMOKE/corpus.lcm" > "$SMOKE/daemon.warm"
diff "$SMOKE/text.j1" "$SMOKE/daemon.warm"
grep -Eq "cache file (loaded|refused)" "$SMOKE/serve2.log"
"$LCMOPT" request --socket "$SOCK" --stats | grep -q "^lifetime:"
# The daemon's incremental hot path: re-sending an edited module must
# delta-solve against the fixpoints retained from the previous revision
# and report the hits, not pay a fresh solve. The daemon runs the same
# unit cycle as watch, so fed the watch smoke's revisions its edit-class
# ledger must equal watch's final `edits:` ledger, the comment-only edit
# included, and each answer must equal the batch answer.
for rev in 0 1 2 3 4; do
  "$LCMOPT" request --socket "$SOCK" "$SMOKE/rev$rev.lcm" > "$SMOKE/daemon.rev"
  "$LCMOPT" batch "$SMOKE/rev$rev.lcm" --emit text 2>/dev/null | diff - "$SMOKE/daemon.rev"
done
"$LCMOPT" request --socket "$SOCK" --stats > "$SMOKE/serve.stats"
grep -Eq "^incremental: [1-9][0-9]* hits" "$SMOKE/serve.stats"
grep -qxF "edit classes: $WATCH_EDITS" "$SMOKE/serve.stats"
"$LCMOPT" request --socket "$SOCK" --shutdown
wait "$SERVE_PID"

# lcmbench smoke: both benchmark workloads build from source and run for
# two seconds each, untraced and traced. run.py exits non-zero when the
# build fails or when the benchmark's independent oracle rejects any
# output, so a break in the library surface lcmbench/ uses fails CI here.
# The traced run re-composes the pipeline from public calls and aborts
# unless its output is byte-identical to the real pipeline's; it also
# drives the speculative, persist and revalidate probes. Each run's last
# stdout line is its result object: it must report `correct`, no failed
# operation and at least one attempted. lcmbench prints `attempted` as at
# least 1, so a positive `fn_per_s` (untraced) or `trace.op_ms` (traced) is
# what shows that operations actually ran. An untraced run must report
# every `end_to_end` metric BENCHMARK.json declares and a traced run every
# `per_layer` one, and tracing must cost under half of a traced operation
# (`trace.overhead_ratio` < 0.5).
echo "==> lcmbench smoke: batch-cold and watch-edit, 2 s each, --trace 0 and 1"
for workload in batch-cold watch-edit; do
  for trace in 0 1; do
    out="$SMOKE/lcmbench.$workload.$trace"
    python3 lcmbench/run.py --workload "$workload" --seed 1 --seconds 2 \
      --trace "$trace" > "$out"
    tail -n 1 "$out" | python3 -c '
import json, sys
r = json.load(sys.stdin)
traced = sys.argv[1] == "1"
with open("BENCHMARK.json") as f:
    declared = json.load(f)["per_layer" if traced else "end_to_end"]
metrics = r["metrics"]
assert r["correct"] is True and r["attempted"] > 0, r
assert r["failed"] == 0, r
missing = [m["name"] for m in declared if m["name"] not in metrics]
assert not missing, ("metrics missing from the result", missing)
assert metrics["trace.op_ms" if traced else "fn_per_s"]["value"] > 0, r
if traced:
    assert metrics["trace.overhead_ratio"]["value"] < 0.5, r
' "$trace"
  done
done

echo "ci: OK"
