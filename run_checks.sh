#!/usr/bin/env bash
# Full verification gate for the workspace. Run before every push.
#
#   ./run_checks.sh          # everything
#   ./run_checks.sh fast     # skip the test suites (format/lint/check only)
#
# Gates, in order:
#   1. cargo fmt --check               -- formatting drift
#   2. cargo clippy -D warnings        -- compiler + clippy lint floor,
#                                         with default features and with
#                                         --all-features (only the latter
#                                         compiles the sanitize hook). The
#                                         library crate roots warn on
#                                         unwrap/expect/panic-family
#                                         macros, stdio prints and the
#                                         clippy.toml disallowed methods
#                                         (whole-file reads, host tanh)
#                                         outside tests; missing_docs
#                                         holds doc coverage; every
#                                         #[allow] needs a reason = "..."
#   3. rustdoc -D warnings             -- every intra-doc link resolves and
#                                         no public doc links a private
#                                         item, so a deleted or renamed
#                                         type cannot leave broken links
#   4. etsb-check                      -- the seven project rules no
#                                         lint can express (shape asserts,
#                                         hash/float determinism,
#                                         fast-math confinement, _into
#                                         kernel contracts, unsafe
#                                         SAFETY comments); every finding
#                                         fails unless a justified
#                                         `// etsb: allow(<rule>) --
#                                         <reason>` exempts its line
#   5. perfbench compiles              -- cargo check of the end-to-end
#                                         benchmark package (perfbench/,
#                                         outside the workspace, so no
#                                         other step builds it) against
#                                         its committed lock file
#   6. vendored crates are locked      -- every vendor/*/Cargo.toml
#                                         package has a `name = "..."`
#                                         entry in Cargo.lock, so a
#                                         crate nothing depends on (and
#                                         so nothing compiles) cannot
#                                         linger in vendor/
#   7. cargo test (default features)   -- tier-1 suite
#   8. cargo test --features sanitize  -- suite again with numeric
#                                         NaN/Inf sanitizer hooks live
#   9. determinism under ETSB_WORKERS=2 -- sharded backward must stay
#                                         bitwise-identical when the
#                                         worker count is forced
#  10. paper-size generation and       -- a release `etsb generate` of the
#      tiny hospital pipeline             200,000-row Tax must finish within
#                                         60 s (built first, outside the
#                                         limit; quadratic error injection
#                                         would need minutes); then
#                                         detect with ETSB_TRACE=jsonl:...
#                                         and --manifest, gated by
#                                         trace_lint and by a count of
#                                         its train_loss events (one per
#                                         epoch); then detect --out
#                                         in memory and with
#                                         --chunk-rows 7, and cmp the two
#                                         flagged-cell files (streaming
#                                         must write the same bytes)
#  11. etsb serve smoke                 -- pipe JSONL requests through
#                                         `etsb serve --stdin` twice
#                                         (coalesced vs --max-batch 1),
#                                         schema-validate the responses
#                                         and assert byte equality
#  12. bench smoke + schema             -- bench_summary --smoke writes
#                                         BENCH_hotpath.json (the batched
#                                         forward+backward arm and the
#                                         exact/fast-math inference
#                                         arms), then --validate
#                                         schema-checks it
#  13. forced-portable dispatch          -- fast-math and exact-tier
#                                         bitwise suites again with
#                                         ETSB_KERNELS=portable, so the
#                                         scalar fallback (the only
#                                         backend a non-AVX2 host ever
#                                         runs, for both kernel tiers)
#                                         keeps the epsilon, dispatch,
#                                         golden-bits and batched-vs-
#                                         oracle contracts too (the
#                                         etsb-nn and etsb-core unit
#                                         suites hold the batched-vs-
#                                         allocating-oracle tests)
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings
step "cargo clippy --workspace --all-targets --all-features -- -D warnings"
cargo clippy --workspace --all-targets --all-features -- -D warnings

step "rustdoc -D warnings (cargo doc --workspace --no-deps)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

step "etsb-check (static invariants)"
cargo run -q -p etsb-check

step "perfbench compiles (cargo check --locked)"
cargo check -q --offline --locked --manifest-path perfbench/Cargo.toml

step "every vendored crate is locked"
for manifest in vendor/*/Cargo.toml; do
    name="$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)"
    if ! grep -qx "name = \"$name\"" Cargo.lock; then
        echo "unused vendored crate: $(dirname "$manifest") ($name)" >&2
        exit 1
    fi
done

if [[ "${1:-}" != "fast" ]]; then
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' EXIT

    step "cargo test --workspace"
    cargo test -q --workspace

    step "cargo test --workspace --features sanitize"
    cargo test -q --workspace --features sanitize

    step "determinism with 2 forced workers"
    ETSB_WORKERS=2 cargo test -q -p etsb-core --test determinism

    step "paper-size Tax generation within 60 s"
    cargo build --release -q -p etsb-cli
    if ! timeout 60 target/release/etsb generate --dataset tax --scale 1.0 --seed 7 \
        --dirty "$tmpdir/tax_dirty.csv" --clean "$tmpdir/tax_clean.csv" \
        > "$tmpdir/tax_generate.txt"; then
        echo "etsb generate --dataset tax --scale 1.0 failed or ran past 60 s" >&2
        exit 1
    fi
    if ! grep -q '^generated Tax: 200000 rows x 15 cols ' "$tmpdir/tax_generate.txt"; then
        echo "etsb generate --dataset tax --scale 1.0 printed: $(cat "$tmpdir/tax_generate.txt")" >&2
        exit 1
    fi
    rm "$tmpdir/tax_dirty.csv" "$tmpdir/tax_clean.csv"

    step "tiny hospital pipeline (trace + manifest schema, streamed --out bytes)"
    cargo run -q -p etsb-cli -- generate --dataset hospital --scale 0.03 --seed 7 \
        --dirty "$tmpdir/dirty.csv" --clean "$tmpdir/clean.csv"
    ETSB_TRACE="jsonl:$tmpdir/trace.jsonl" cargo run -q -p etsb-cli -- detect \
        --dirty "$tmpdir/dirty.csv" --clean "$tmpdir/clean.csv" \
        --tuples 5 --epochs 3 --manifest "$tmpdir/manifest.json" \
        --save "$tmpdir/detector.bin"
    cargo run -q -p etsb-obs --bin trace_lint -- \
        --trace "$tmpdir/trace.jsonl" --manifest "$tmpdir/manifest.json"
    train_losses="$(grep -c '"name":"train_loss"' "$tmpdir/trace.jsonl" || true)"
    if [[ "$train_losses" != 3 ]]; then
        echo "trace of the --epochs 3 run holds $train_losses train_loss events, not 3" >&2
        exit 1
    fi
    cargo run -q -p etsb-obs --bin trace_profile -- \
        --trace "$tmpdir/trace.jsonl" --top 15
    cargo run -q -p etsb-cli -- detect \
        --dirty "$tmpdir/dirty.csv" --clean "$tmpdir/clean.csv" \
        --tuples 5 --epochs 3 --out "$tmpdir/flags_in_memory.csv"
    cargo run -q -p etsb-cli -- detect \
        --dirty "$tmpdir/dirty.csv" --clean "$tmpdir/clean.csv" \
        --tuples 5 --epochs 3 --chunk-rows 7 --out "$tmpdir/flags_streamed.csv"
    cmp "$tmpdir/flags_in_memory.csv" "$tmpdir/flags_streamed.csv"

    step "etsb serve smoke (response schema + coalescing determinism)"
    cat > "$tmpdir/requests.jsonl" <<'EOF'
{"id":"r1","cells":[{"tuple_id":0,"attribute":"city","value":"boston"},{"tuple_id":0,"attribute":"state","value":"ma"}]}
{"id":"r2","cells":[{"tuple_id":1,"attribute":"city","value":"boston"},{"tuple_id":1,"attribute":"zip","value":"2116x"}]}
{"id":"r3","cells":[{"tuple_id":2,"attribute":"hospital_name","value":"general hospital"},{"tuple_id":2,"attribute":"city","value":""}]}
{"id":"r4","cells":[{"tuple_id":3,"attribute":"not_a_column","value":"x"}]}
{"id":"r5","cells":[]}
{"id":"r6","cells":[{"tuple_id":4,"attribute":"city","value":"boston"}]}
EOF
    cargo run -q -p etsb-cli -- serve --model "$tmpdir/detector.bin" --stdin \
        < "$tmpdir/requests.jsonl" > "$tmpdir/responses_coalesced.jsonl"
    cargo run -q -p etsb-cli -- serve --model "$tmpdir/detector.bin" --stdin \
        --max-batch 1 --cache 0 \
        < "$tmpdir/requests.jsonl" > "$tmpdir/responses_unbatched.jsonl"
    cargo run -q -p etsb-serve --bin serve_check -- \
        --validate "$tmpdir/responses_coalesced.jsonl"
    cargo run -q -p etsb-serve --bin serve_check -- \
        --equal "$tmpdir/responses_coalesced.jsonl" "$tmpdir/responses_unbatched.jsonl"

    step "bench smoke + BENCH_hotpath.json schema"
    cargo run --release -q -p etsb-bench --bin bench_summary -- --smoke
    cargo run --release -q -p etsb-bench --bin bench_summary -- --validate BENCH_hotpath.json

    step "forced-portable kernel dispatch (ETSB_KERNELS=portable)"
    ETSB_KERNELS=portable cargo test -q -p etsb-tensor --test kernel_dispatch --test exact_dispatch
    ETSB_KERNELS=portable cargo test -q -p etsb-nn --lib
    ETSB_KERNELS=portable cargo test -q -p etsb-core --lib
    ETSB_KERNELS=portable cargo test -q -p etsb-core --test fast_math_equiv
    ETSB_KERNELS=portable cargo test -q -p etsb-core --test determinism --test streaming
    ETSB_KERNELS=portable cargo test -q -p etsb-serve --test serve
fi

printf '\nAll checks passed.\n'
