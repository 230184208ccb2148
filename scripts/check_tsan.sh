#!/usr/bin/env bash
# Builds the concurrency-touching tests under ThreadSanitizer and runs the
# `unit` ctest tier with the threaded paths forced on (DBX_TEST_THREADS). A
# data race anywhere in the thread-pool execution layer — including the shared
# view cache — fails the run.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-tsan}
THREADS=${DBX_TEST_THREADS:-4}

fail() { echo "TSAN CHECK FAILED: $*" >&2; exit 1; }

cmake -B "$BUILD_DIR" -S . -DDBX_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo || fail "configure"
cmake --build "$BUILD_DIR" -j --target \
  thread_pool_test cad_view_test cluster_test discretizer_test \
  feature_selection_test \
  facet_index_test facet_test view_cache_test obs_test query_log_test \
  server_test server_replay_test shard_merge_test storage_test \
  storage_identity_test \
  lexer_fuzz parser_fuzz server_frame_fuzz dbxc_fuzz || fail "build"

export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
export DBX_TEST_THREADS="$THREADS"
# Force the sharded fan-out on under TSAN too: the per-shard scans write
# disjoint sketch slots concurrently, which is exactly the pattern a race
# detector should vet.
export DBX_TEST_SHARDS="${DBX_TEST_SHARDS:-4}"
# Unbuilt targets' _NOT_BUILT placeholders carry no label, so the label
# filter runs exactly the suites built above (storage_identity_test is the
# one `integration`-labelled suite in the list: it drives real client/server
# threads across every backend, exactly the cross-thread traffic a race
# detector should vet). The fuzz smoke rides along: the harnesses are
# single-threaded but exercise lexer/parser allocation paths, and a tier
# that exists must propagate its failures here like everywhere else.
ctest --test-dir "$BUILD_DIR" -L 'unit|integration|fuzz' --output-on-failure \
  || fail "unit+integration+fuzz tiers under TSAN"
echo "TSAN CHECKS PASSED"
