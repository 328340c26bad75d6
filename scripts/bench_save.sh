#!/bin/sh
# Run the tracked benchmark suites and snapshot their results as JSON in
# the repo root, so performance is tracked across changes:
#
#   BENCH_storage.json — storage backends (sim vs durable file store:
#       write, group-committed parallel write, read, checkpoint, recovery
#       replay), the cost of durability, and the injection wrapper's
#       traversal on a read (BenchmarkBackendRead: bare sim, never-armed
#       WithFaults, armed plan matching nothing; 1 and RunParallel
#       goroutines).
#   BENCH_hotpath.json — the buffer pool's resident-hit path (the serial
#       oracle vs the production pool on core.SyncReplacer, 1/4/8/16
#       goroutines, both backends),
#       the §2.1 "negligible per-reference cost" trajectory, the
#       replacer's own share of a hit and of a miss, and a whole
#       resident-hit GET over loopback TCP (BenchmarkServerGet, with
#       allocations).
#
# Each suite keeps its latest snapshot at the stable name above, appends a
# dated copy under BENCH_history/, and — when a previous snapshot existed —
# prints a per-benchmark ns/op diff, flagging regressions beyond the noise
# threshold.
set -eu
cd "$(dirname "$0")/.."

mkdir -p BENCH_history
stamp=$(date -u +%Y%m%dT%H%M%SZ)
raw=$(mktemp)
prev=$(mktemp)
trap 'rm -f "$raw" "$prev"' EXIT INT TERM

# to_json <raw-bench-output> <out.json>: convert `go test -bench` text
# output into a stable JSON document — one object per benchmark with
# iterations, ns/op and (where reported) MB/s, B/op and allocs/op;
# goos/cpu lines go to metadata.
to_json() {
    awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
    BEGIN { n = 0 }
    /^goos:/   { goos = $2 }
    /^goarch:/ { goarch = $2 }
    /^cpu:/    { sub(/^cpu: /, ""); cpu = $0 }
    /^Benchmark/ {
        name = $1; iters = $2; ns = $3
        mbs = ""; bop = ""; allocs = ""
        for (i = 4; i <= NF; i++) {
            if ($(i) == "MB/s") mbs = $(i - 1)
            if ($(i) == "B/op") bop = $(i - 1)
            if ($(i) == "allocs/op") allocs = $(i - 1)
        }
        line = sprintf("  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns)
        if (mbs != "") line = line sprintf(", \"mb_per_s\": %s", mbs)
        if (bop != "") line = line sprintf(", \"bytes_per_op\": %s, \"allocs_per_op\": %s", bop, allocs)
        line = line "}"
        bench[n++] = line
    }
    END {
        printf "{\n"
        printf " \"date\": \"%s\",\n", date
        printf " \"goos\": \"%s\",\n", goos
        printf " \"goarch\": \"%s\",\n", goarch
        printf " \"cpu\": \"%s\",\n", cpu
        printf " \"benchmarks\": [\n"
        for (i = 0; i < n; i++) printf "%s%s\n", bench[i], (i < n - 1 ? "," : "")
        printf " ]\n}\n"
    }' "$1" >"$2"
}

# diff_json <prev.json> <new.json>: per-benchmark ns/op comparison over the
# stable JSON format written above. Regressions beyond 25% (generous: the
# CI container is a single shared CPU) are flagged; the script still exits
# 0 — the enforced gate is `make bench-hit`, this diff is for the reader.
diff_json() {
    awk '
    function extract(line,   name, ns) {
        if (line !~ /"name"/) return
        name = line; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
        ns = line; sub(/.*"ns_per_op": /, "", ns); sub(/[,}].*/, "", ns)
        if (FILENAME == ARGV[1]) old[name] = ns
        else { new[name] = ns; if (!(name in seen)) { order[n++] = name; seen[name] = 1 } }
    }
    { extract($0) }
    END {
        printf "  %-64s %12s %12s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta"
        regressions = 0
        for (i = 0; i < n; i++) {
            name = order[i]
            if (!(name in old)) { printf "  %-64s %12s %12s %8s\n", name, "-", new[name], "new"; continue }
            delta = (new[name] - old[name]) / old[name] * 100
            flag = ""
            if (delta > 25) { flag = "  << REGRESSION"; regressions++ }
            printf "  %-64s %12s %12s %+7.1f%%%s\n", name, old[name], new[name], delta, flag
        }
        for (name in old) if (!(name in new)) printf "  %-64s %12s %12s %8s\n", name, old[name], "-", "gone"
        if (regressions > 0) printf "  %d benchmark(s) regressed beyond the 25%% noise threshold\n", regressions
        else printf "  no regressions beyond the 25%% noise threshold\n"
    }' "$1" "$2"
}

# save <label> <out.json> <bench-cmd...>: run the suite, snapshot it, file
# the dated history copy, and diff against the previous snapshot.
save() {
    label=$1; out=$2; shift 2
    echo "== $label benchmarks (this takes a minute)"
    "$@" | tee "$raw"
    had_prev=0
    if [ -f "$out" ]; then
        cp "$out" "$prev"
        had_prev=1
    fi
    to_json "$raw" "$out"
    hist="BENCH_history/$(basename "$out" .json)_${stamp}.json"
    cp "$out" "$hist"
    echo "== wrote $out (history: $hist)"
    if [ "$had_prev" = 1 ]; then
        echo "== $label ns/op vs previous snapshot:"
        diff_json "$prev" "$out"
    else
        echo "== no previous $out; baseline recorded"
    fi
}

storage_suite() {
    go test -run '^$' -bench . -benchtime 200x -count 1 ./internal/storage/file/
    go test -run '^$' -bench BenchmarkBackendRead -benchtime 1s -count 1 ./internal/storage/
}

save storage BENCH_storage.json storage_suite

hot_path() {
    go test -run '^$' -bench BenchmarkPoolHit -benchtime 1s -count 1 ./internal/bufferpool/
    go test -run '^$' -bench 'BenchmarkReplacer(Hit|Miss)$' -benchtime 1s -count 1 ./internal/core/
    go test -run '^$' -bench BenchmarkServerGet -benchmem -benchtime 1s -count 1 ./internal/server/
}

save hot-path BENCH_hotpath.json hot_path
