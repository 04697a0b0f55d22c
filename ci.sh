#!/usr/bin/env bash
# CI entry point. Legs are composable: pass any subset in any order.
#
#   ./ci.sh                      tier-1 + ASan/UBSan (the historical default)
#   ./ci.sh --tier1              configure, build, ctest (the gate, ROADMAP.md)
#   ./ci.sh --asan               AddressSanitizer + UBSan, Debug, full suite
#   ./ci.sh --tsan               ThreadSanitizer, full suite (data races in the
#                                fleet worker pool — the only threads — and
#                                the obs layer it shares)
#   ./ci.sh --paranoid           STAYAWAY_PARANOID=ON Debug build: every
#                                SA_INVARIANT audit enabled, full suite
#   ./ci.sh --tidy               best-effort clang-tidy over src/ (skipped
#                                when clang-tidy is not installed)
#   ./ci.sh --faults             fault-injection smoke: stayaway_sim under a
#                                generated fault plan in the ASan tree, so the
#                                degraded-mode path runs sanitized end to end
#   ./ci.sh --fleet              fleet gate (DESIGN.md §13): the fleet tests
#                                (pinned single-host goldens, scenario
#                                overlays, worker invariance) in the tier-1
#                                tree, then the fleet concurrency surfaces
#                                under ThreadSanitizer
#   ./ci.sh --fuzz               record/replay gate (DESIGN.md §14): replay
#                                every committed tests/regressions/*.runlog
#                                byte-identically, then a budgeted
#                                stayaway_fuzz batch over the pinned seed
#                                set (must keep reproducing findings)
#   ./ci.sh --ingest             streaming-ingestion gate (DESIGN.md §15):
#                                the ingest test suite plus the bench_ingest
#                                bounds (--smoke) in the tier-1 tree, then
#                                fleet workers over ring-fed members — 8
#                                ring-fed pipelines on a 4-worker pool —
#                                under ThreadSanitizer
#   ./ci.sh --recovery           crash-recovery gate (DESIGN.md §17): the
#                                checkpoint/restore test suite plus the
#                                bench_recovery acceptance bounds (--smoke:
#                                zero aborted runs with 1-of-8 hosts
#                                crashing) in the tier-1 tree, then
#                                end-to-end checkpoint -> restore round
#                                trips through stayaway_sim (synchronous
#                                and ring-fed), a plain vs supervised
#                                summary comparison and a corrupt-blob
#                                rejection
#   ./ci.sh --cluster            cluster-coordination gate (DESIGN.md §18):
#                                the cluster test suite plus the
#                                bench_cluster acceptance bound (--smoke:
#                                migration strictly beats per-host pausing
#                                on both violations and batch progress) in
#                                the tier-1 tree, then a coordinated
#                                migration run through a record -> replay
#                                round trip
#   ./ci.sh --analyze            static-analysis gate (DESIGN.md §16):
#                                stayaway_analyze self-test, then the
#                                include-graph / lock-discipline /
#                                determinism / style passes over src,
#                                tools and tests; when clang++ is on
#                                PATH, additionally a
#                                -DSTAYAWAY_ANALYZE=ON build so Clang's
#                                -Wthread-safety checks the SA_*
#                                annotations (skipped otherwise)
#   ./ci.sh --all                every leg above
#
# Each leg builds in its own tree (build, build-asan, build-tsan,
# build-paranoid) so configurations never contaminate each other. A
# per-leg pass/fail summary prints at the end; the exit code is non-zero
# when any requested leg failed. Warnings are errors in every leg
# (-Wall -Wextra -Wpedantic -Wshadow -Wconversion -Werror via
# STAYAWAY_STRICT_WARNINGS/STAYAWAY_WERROR, default ON).
set -uo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 4)"

LEGS=()
for arg in "$@"; do
  case "$arg" in
    --tier1) LEGS+=(tier1) ;;
    --asan) LEGS+=(asan) ;;
    --tsan) LEGS+=(tsan) ;;
    --paranoid) LEGS+=(paranoid) ;;
    --tidy) LEGS+=(tidy) ;;
    --faults) LEGS+=(faults) ;;
    --fleet) LEGS+=(fleet) ;;
    --fuzz) LEGS+=(fuzz) ;;
    --ingest) LEGS+=(ingest) ;;
    --recovery) LEGS+=(recovery) ;;
    --analyze) LEGS+=(analyze) ;;
    --cluster) LEGS+=(cluster) ;;
    --all) LEGS+=(tier1 asan tsan paranoid tidy faults fleet fuzz ingest recovery cluster analyze) ;;
    *)
      echo "usage: ./ci.sh [--tier1] [--asan] [--tsan] [--paranoid] [--tidy] [--faults] [--fleet] [--fuzz] [--ingest] [--recovery] [--cluster] [--analyze] [--all]" >&2
      exit 2
      ;;
  esac
done
if [[ ${#LEGS[@]} -eq 0 ]]; then
  LEGS=(tier1 asan)
fi

build_and_test() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@" >/dev/null &&
    cmake --build "$dir" -j"$JOBS" &&
    ctest --test-dir "$dir" --output-on-failure -j"$JOBS"
}

run_leg() {
  case "$1" in
    tier1)
      build_and_test build
      ;;
    asan)
      build_and_test build-asan \
        -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
      ;;
    tsan)
      build_and_test build-tsan \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
      ;;
    paranoid)
      build_and_test build-paranoid \
        -DCMAKE_BUILD_TYPE=Debug \
        -DSTAYAWAY_PARANOID=ON
      ;;
    faults)
      # Degraded-mode smoke: drive stayaway_sim end to end under a fault
      # plan, sanitized, so sensor dropout / QoS blindness / failed
      # actuation exercise the quarantine + failsafe + retry paths.
      cmake -B build-asan -S . \
        -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
        >/dev/null &&
        cmake --build build-asan -j"$JOBS" --target stayaway_sim || return 1
      local tmpdir
      tmpdir="$(mktemp -d)" || return 1
      cat >"$tmpdir/scenario.conf" <<'EOF'
sensitive     = vlc-stream
batch         = cpubomb
policy        = stay-away
duration_s    = 60
batch_start_s = 5
EOF
      cat >"$tmpdir/faults.conf" <<'EOF'
seed  = 7
fault = sensor-dropout start=10 end=40 p=0.2
fault = qos-blind start=20 end=30
fault = pause-fail start=10 end=40 p=0.5
EOF
      local out rc
      out="$(./build-asan/tools/stayaway_sim \
        --faults "$tmpdir/faults.conf" "$tmpdir/scenario.conf")"
      rc=$?
      rm -rf "$tmpdir"
      echo "$out"
      [[ $rc -eq 0 ]] || return 1
      # The degraded path must actually have been exercised.
      grep -q "fault plan loaded" <<<"$out" &&
        grep -q "readings quarantined" <<<"$out"
      ;;
    fleet)
      # Fleet gate: the single-host golden / overlay / invariance tests in
      # the tier-1 tree first (fast failure), then the fleet concurrency
      # surfaces — 8 pipelines on a 4-worker pool sharing one observer —
      # under ThreadSanitizer.
      cmake -B build -S . >/dev/null &&
        cmake --build build -j"$JOBS" \
          --target test_fleet test_scenario_file test_concurrency ||
        return 1
      ctest --test-dir build --output-on-failure -R 'Fleet' || return 1
      cmake -B build-tsan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
        >/dev/null &&
        cmake --build build-tsan -j"$JOBS" \
          --target test_fleet test_concurrency || return 1
      ./build-tsan/tests/test_fleet &&
        ./build-tsan/tests/test_concurrency \
          --gtest_filter='FleetConcurrency.*'
      ;;
    fuzz)
      # Record/replay gate (DESIGN.md §14). Budgeted to ~2 min: the
      # committed regression logs replay byte-identically (the recovery
      # one re-runs its host-crash -> restore path mid-retry-ledger on
      # every replay), then the pinned fuzz seed sets re-run and must
      # keep producing findings — at least one regenerated default-mode
      # log byte-identical to a committed one, and the recovery-mode
      # regression regenerated exactly (same seed, same budget, same
      # shrink => same bytes).
      cmake -B build -S . >/dev/null &&
        cmake --build build -j"$JOBS" \
          --target stayaway_sim stayaway_fuzz || return 1
      local log
      for log in tests/regressions/*.runlog; do
        [[ -f "$log" ]] || { echo "no committed regression logs" >&2; return 1; }
        ./build/tools/stayaway_sim --replay "$log" || return 1
      done
      local tmpdir rc
      tmpdir="$(mktemp -d)" || return 1
      ./build/tools/stayaway_fuzz --seed 8,10 --runs 20 --budget 30000 \
        --out "$tmpdir" --expect-findings
      rc=$?
      if [[ $rc -eq 0 ]]; then
        rc=1
        for log in tests/regressions/*.runlog; do
          if cmp -s "$log" "$tmpdir/$(basename "$log")"; then
            echo "regenerated byte-identically: $(basename "$log")"
            rc=0
          fi
        done
        [[ $rc -eq 0 ]] || echo "no regenerated log matches a committed one" >&2
      fi
      if [[ $rc -eq 0 ]]; then
        # Recovery palette (DESIGN.md §17): the crash-class mutation mode
        # must keep reproducing the committed regression whose host-crash
        # lands inside an active actuation retry ledger.
        ./build/tools/stayaway_fuzz --recovery --seed 13 --runs 20 \
          --budget 30000 --out "$tmpdir" --expect-findings &&
          cmp -s tests/regressions/qos-violation-burst-s13-2.runlog \
            "$tmpdir/qos-violation-burst-s13-2.runlog"
        rc=$?
        if [[ $rc -eq 0 ]]; then
          echo "regenerated byte-identically: qos-violation-burst-s13-2.runlog (--recovery)"
        else
          echo "recovery-mode regression did not regenerate" >&2
        fi
      fi
      rm -rf "$tmpdir"
      return $rc
      ;;
    cluster)
      # Cluster-coordination gate (DESIGN.md §18): the cluster test suite
      # (scoring, idle-coordinator byte identity, migration/admission,
      # coordinator checkpoint) plus the bench_cluster acceptance bound
      # (migration strictly beats per-host pausing on both violations and
      # batch progress) in the tier-1 tree, then a migration run driven
      # through a full record -> replay round trip via stayaway_sim.
      cmake -B build -S . >/dev/null &&
        cmake --build build -j"$JOBS" \
          --target test_cluster bench_cluster stayaway_sim || return 1
      ./build/tests/test_cluster || return 1
      ./build/bench/bench_cluster --smoke || return 1
      local tmpdir
      tmpdir="$(mktemp -d)" || return 1
      cat >"$tmpdir/cluster.conf" <<'EOF'
sensitive  = webservice-cpu
batch      = none
policy     = stay-away
duration_s = 120
workload   = constant
[host "web-a"]
seed = 3
[host "web-b"]
seed = 5
[host "web-c"]
seed = 7
[cluster]
mobile = crunch:cpubomb:web-a:20
admit  = late:soplex:90
EOF
      ./build/tools/stayaway_sim --record "$tmpdir/cluster.runlog" \
        "$tmpdir/cluster.conf" >/dev/null || { rm -rf "$tmpdir"; return 1; }
      grep -q "cluster-events" "$tmpdir/cluster.runlog" || {
        echo "cluster run recorded no coordinator events" >&2
        rm -rf "$tmpdir"
        return 1
      }
      ./build/tools/stayaway_sim --replay "$tmpdir/cluster.runlog" ||
        { rm -rf "$tmpdir"; return 1; }
      rm -rf "$tmpdir"
      echo "cluster record -> replay round trip: ok"
      ;;
    ingest)
      # Streaming-ingestion gate (DESIGN.md §15): the ingest suite and the
      # bench_ingest acceptance bounds (>=5x ring throughput, flat
      # landmark-incremental embed cost) in the tier-1 tree, then fleet
      # workers over ring-fed members — 8 ring sources generating inline
      # on a 4-worker fleet pool — under TSan.
      cmake -B build -S . >/dev/null &&
        cmake --build build -j"$JOBS" --target test_ingest bench_ingest ||
        return 1
      ./build/tests/test_ingest || return 1
      ./build/bench/bench_ingest --smoke || return 1
      cmake -B build-tsan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
        >/dev/null &&
        cmake --build build-tsan -j"$JOBS" --target test_concurrency ||
        return 1
      ./build-tsan/tests/test_concurrency \
        --gtest_filter='IngestConcurrency.*'
      ;;
    recovery)
      # Crash-recovery gate (DESIGN.md §17): the checkpoint codec + super-
      # visor test suite and the bench_recovery acceptance bounds (full
      # record streams, zero divergences, 1-of-8 hosts crashing) in the
      # tier-1 tree, then stayaway_sim driven through full checkpoint ->
      # restore round trips (synchronous and ring-fed: every pipeline
      # checkpoints), a supervised run that must summarize exactly like
      # the plain one, and a corrupted blob, which must be rejected by
      # checksum, not silently restored.
      cmake -B build -S . >/dev/null &&
        cmake --build build -j"$JOBS" \
          --target test_checkpoint bench_recovery stayaway_sim || return 1
      ./build/tests/test_checkpoint || return 1
      ./build/bench/bench_recovery --smoke || return 1
      local tmpdir out rc
      tmpdir="$(mktemp -d)" || return 1
      cat >"$tmpdir/scenario.conf" <<'EOF'
sensitive     = vlc-stream
batch         = cpubomb
policy        = stay-away
duration_s    = 40
batch_start_s = 5
EOF
      ./build/tools/stayaway_sim --supervise --checkpoint-every 5 \
        --checkpoint-dir "$tmpdir/ckpt" "$tmpdir/scenario.conf" >/dev/null &&
        [[ -s "$tmpdir/ckpt/host0.ckpt" ]] || { rm -rf "$tmpdir"; return 1; }
      ./build/tools/stayaway_sim --restore "$tmpdir/ckpt" \
        "$tmpdir/scenario.conf" >/dev/null || { rm -rf "$tmpdir"; return 1; }
      ./build/tools/stayaway_sim --ingest-rate 16 --supervise \
        --checkpoint-every 5 --checkpoint-dir "$tmpdir/ring" \
        "$tmpdir/scenario.conf" >/dev/null &&
        grep -q "ring_pending_sequence" "$tmpdir/ring/host0.ckpt" &&
        ./build/tools/stayaway_sim --ingest-rate 16 --restore "$tmpdir/ring" \
          "$tmpdir/scenario.conf" >/dev/null || { rm -rf "$tmpdir"; return 1; }
      # The recovery flags run a plain document as a fleet of one, which
      # must be the single-host run itself: same seed, same summary.
      cat >"$tmpdir/seeded.conf" <<'EOF'
sensitive      = webservice-mix
batch          = membomb
policy         = stay-away
duration_s     = 120
workload       = diurnal
noise_fraction = 0.05
batch_start_s  = 5
EOF
      local plain supervised
      plain="$(./build/tools/stayaway_sim "$tmpdir/seeded.conf" |
        tail -n 1 | awk '{$1 = ""; print}')"
      supervised="$(./build/tools/stayaway_sim --supervise \
        --checkpoint-every 5 "$tmpdir/seeded.conf" |
        tail -n 1 | awk '{$1 = ""; print}')"
      [[ -n "$plain" && "$plain" == "$supervised" ]] || {
        echo "supervised run diverged from the plain run:" \
          "[$plain] vs [$supervised]" >&2
        rm -rf "$tmpdir"
        return 1
      }
      # Flip one body byte; the restore must fail closed on the checksum.
      printf 'X' | dd of="$tmpdir/ckpt/host0.ckpt" bs=1 seek=64 conv=notrunc \
        status=none || { rm -rf "$tmpdir"; return 1; }
      out="$(./build/tools/stayaway_sim --restore "$tmpdir/ckpt" \
        "$tmpdir/scenario.conf" 2>&1)"
      rc=$?
      rm -rf "$tmpdir"
      [[ $rc -ne 0 ]] && grep -q "checksum mismatch" <<<"$out" || {
        echo "corrupted checkpoint was not rejected" >&2
        return 1
      }
      echo "checkpoint round trips (sync + ring) + plain/supervised" \
        "equality + corrupt-blob rejection: ok"
      ;;
    analyze)
      # Static-analysis gate (DESIGN.md §16). The textual passes always
      # run; the Clang thread-safety build is best-effort because the
      # SA_* annotations are no-ops under GCC.
      cmake -B build -S . >/dev/null &&
        cmake --build build -j"$JOBS" --target stayaway_analyze || return 1
      ./build/tools/stayaway_analyze --self-test || return 1
      ./build/tools/stayaway_analyze src tools tests || return 1
      if command -v clang++ >/dev/null 2>&1; then
        cmake -B build-analyze -S . \
          -DCMAKE_CXX_COMPILER=clang++ \
          -DSTAYAWAY_ANALYZE=ON \
          >/dev/null &&
          cmake --build build-analyze -j"$JOBS" || return 1
        echo "clang -Wthread-safety: clean"
      else
        echo "clang++ not installed; -Wthread-safety build skipped" \
             "(the stayaway_analyze lock-discipline pass still ran)"
      fi
      ;;
    tidy)
      if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "clang-tidy not installed; skipping (best-effort leg)"
        return 77
      fi
      # compile_commands.json comes from the tier-1 tree; configure it if
      # this leg runs alone.
      [[ -f build/compile_commands.json ]] || cmake -B build -S . >/dev/null
      local files
      files="$(find src -name '*.cpp')"
      # shellcheck disable=SC2086
      clang-tidy -p build --quiet $files
      ;;
  esac
}

declare -A RESULT
FAILED=0
for leg in "${LEGS[@]}"; do
  echo
  echo "== leg: $leg =="
  if run_leg "$leg"; then
    RESULT[$leg]=pass
  elif [[ $? -eq 77 ]]; then
    RESULT[$leg]=skipped
  else
    RESULT[$leg]=FAIL
    FAILED=1
  fi
done

echo
echo "== summary =="
for leg in "${LEGS[@]}"; do
  printf '  %-10s %s\n' "$leg" "${RESULT[$leg]}"
done
if [[ "$FAILED" == 1 ]]; then
  echo "CI FAILED"
  exit 1
fi
echo "CI OK"
