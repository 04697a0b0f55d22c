#!/usr/bin/env bash
# CI entry point. Legs are composable: pass any subset in any order.
#
#   ./ci.sh                      tier-1 + ASan/UBSan (the historical default)
#   ./ci.sh --tier1              configure, build, ctest (the gate, ROADMAP.md)
#   ./ci.sh --release            Release (-O3, NDEBUG) build of every target
#                                plus the full suite, so optimizer-only
#                                warnings fail CI like any other warning
#   ./ci.sh --asan               AddressSanitizer + UBSan, Debug, full suite
#   ./ci.sh --tsan               ThreadSanitizer, full suite (data races in the
#                                fleet's worker team and its period barrier
#                                — the only threads — and the obs layer
#                                they share)
#   ./ci.sh --paranoid           STAYAWAY_PARANOID=ON Debug build: every
#                                SA_INVARIANT audit enabled, full suite
#   ./ci.sh --tidy               best-effort clang-tidy over src/ (skipped
#                                when clang-tidy is not installed)
#   ./ci.sh --faults             fault-injection smoke: stayaway_sim under a
#                                generated fault plan in the ASan tree, so the
#                                degraded-mode path runs sanitized end to end;
#                                the faulted run must also record -> replay
#                                and summarize identically when supervised
#   ./ci.sh --fleet              fleet gate (DESIGN.md §13): the fleet tests
#                                (pinned single-host goldens, scenario
#                                overlays, worker invariance) in the tier-1
#                                tree, a diurnal --hosts 2 run against its
#                                own --record run and replay, then the fleet
#                                concurrency surfaces under ThreadSanitizer
#   ./ci.sh --fuzz               record/replay gate (DESIGN.md §14): replay
#                                every committed tests/regressions/*.runlog
#                                byte-identically, then a budgeted
#                                stayaway_fuzz batch over the pinned seed
#                                set (must keep reproducing findings)
#   ./ci.sh --ingest             streaming-ingestion gate (DESIGN.md §15):
#                                the ingest test suite plus the bench_ingest
#                                bounds (--smoke) in the tier-1 tree, then
#                                fleet workers over ring-fed members — 8
#                                ring-fed pipelines on a 4-worker team —
#                                under ThreadSanitizer
#   ./ci.sh --recovery           crash-recovery gate (DESIGN.md §17): the
#                                checkpoint/restore test suite in the tier-1
#                                tree (its acceptance bounds are tier-1
#                                tests: SupervisorGolden.
#                                FleetSurvivesSingleHostCrash pins 1-of-8
#                                hosts crashing at every checkpoint cadence
#                                and worker count), then end-to-end
#                                checkpoint -> restore -> re-export round
#                                trips through stayaway_sim (synchronous
#                                and ring-fed, re-export cmp-equal; the v4
#                                blob's record lines cmp-equal to a
#                                --record run's records block), a plain vs
#                                supervised summary row comparison and a
#                                corrupt-blob rejection
#   ./ci.sh --cluster            cluster-coordination gate (DESIGN.md §18):
#                                the cluster test suite in the tier-1 tree
#                                (its acceptance bound is a tier-1 test:
#                                ClusterCoordinator.
#                                FlashCrowdMigrationBeatsPausing requires
#                                migration to strictly beat per-host
#                                pausing on both violations and batch
#                                progress), then a coordinated migration
#                                run through a record -> replay round trip,
#                                and a supervised coordinated run through
#                                checkpoint -> restore -> re-export (every
#                                host blob and the coordinator blob
#                                cmp-equal)
#   ./ci.sh --analyze            static-analysis gate (DESIGN.md §16):
#                                stayaway_analyze self-test, then the
#                                include-graph / lock-discipline /
#                                determinism / style / test-only-api
#                                passes over src, tools, tests, bench,
#                                examples and perfbench; when clang++ is on
#                                PATH, additionally a
#                                -DSTAYAWAY_ANALYZE=ON build so Clang's
#                                -Wthread-safety checks the SA_*
#                                annotations (skipped otherwise)
#   ./ci.sh --perfbench          benchmark self-test: perfbench/smoke_test.py
#                                (every workload at smoke length, --trace 0
#                                and 1; the traced mirror's record digests
#                                must agree with the plain run's) with its
#                                build in build-perfbench, so a checkpoint
#                                or record-path change that breaks digest
#                                agreement fails here first
#   ./ci.sh --all                every leg above
#
# Each leg builds in its own tree (build, build-release, build-asan,
# build-tsan, build-paranoid) so configurations never contaminate each
# other. A per-leg pass/fail summary prints at the end; the exit code is
# non-zero when any requested leg failed. Warnings are errors in every leg
# (-Wall -Wextra -Wpedantic -Wshadow -Wconversion -Werror via
# STAYAWAY_STRICT_WARNINGS/STAYAWAY_WERROR, default ON).
set -uo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 4)"

LEGS=()
for arg in "$@"; do
  case "$arg" in
    --tier1) LEGS+=(tier1) ;;
    --release) LEGS+=(release) ;;
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
    --perfbench) LEGS+=(perfbench) ;;
    --all) LEGS+=(tier1 release asan tsan paranoid tidy faults fleet fuzz ingest recovery cluster analyze perfbench) ;;
    *)
      echo "usage: ./ci.sh [--tier1] [--release] [--asan] [--tsan] [--paranoid] [--tidy] [--faults] [--fleet] [--fuzz] [--ingest] [--recovery] [--cluster] [--analyze] [--perfbench] [--all]" >&2
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
    release)
      build_and_test build-release -DCMAKE_BUILD_TYPE=Release
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
      local out rc supervised
      out="$(./build-asan/tools/stayaway_sim \
        --faults "$tmpdir/faults.conf" "$tmpdir/scenario.conf")"
      rc=$?
      echo "$out"
      # The degraded path must actually have been exercised.
      [[ $rc -eq 0 ]] && grep -q "fault plan loaded" <<<"$out" &&
        grep -q "readings quarantined" <<<"$out" ||
        { rm -rf "$tmpdir"; return 1; }
      # --faults lands in the canonical scenario text, so a recording of
      # the faulted run replays; and supervising the run (one path for
      # every invocation) leaves its summary row unchanged.
      ./build-asan/tools/stayaway_sim --faults "$tmpdir/faults.conf" \
        --record "$tmpdir/faults.runlog" "$tmpdir/scenario.conf" \
        >/dev/null &&
        ./build-asan/tools/stayaway_sim --replay "$tmpdir/faults.runlog" ||
        { rm -rf "$tmpdir"; return 1; }
      supervised="$(./build-asan/tools/stayaway_sim --faults \
        "$tmpdir/faults.conf" --supervise "$tmpdir/scenario.conf" |
        tail -n 1)"
      rm -rf "$tmpdir"
      [[ -n "$supervised" && "$supervised" == "$(tail -n 1 <<<"$out")" ]] || {
        echo "supervised faulted run diverged from the plain one:" \
          "[$(tail -n 1 <<<"$out")] vs [$supervised]" >&2
        return 1
      }
      ;;
    fleet)
      # Fleet gate: the single-host golden / overlay / invariance tests in
      # the tier-1 tree first (fast failure), then a plain --hosts fleet
      # against its own recording, then the fleet concurrency surfaces
      # under ThreadSanitizer: all of test_fleet (its error-path test
      # stops a coordinated run at the period barrier on 3 workers) and
      # 8 pipelines on a 4-worker team sharing one observer.
      cmake -B build -S . >/dev/null &&
        cmake --build build -j"$JOBS" \
          --target test_fleet test_scenario_file test_concurrency \
          stayaway_sim ||
        return 1
      ctest --test-dir build --output-on-failure -R 'Fleet' || return 1
      # A --hosts fleet is canonicalized like a --record run (DESIGN.md
      # §14): each replica regenerates its diurnal trace from its own
      # seed, so the plain run prints the recording's summary rows, and
      # the recording replays.
      local tmpdir plain recorded
      tmpdir="$(mktemp -d)" || return 1
      cat >"$tmpdir/diurnal.conf" <<'EOF'
sensitive     = vlc-stream
batch         = cpubomb
policy        = stay-away
duration_s    = 60
workload      = diurnal
batch_start_s = 5
EOF
      plain="$(./build/tools/stayaway_sim --hosts 2 "$tmpdir/diurnal.conf" |
        grep -E '^host[0-9]+ ')"
      recorded="$(./build/tools/stayaway_sim --hosts 2 \
        --record "$tmpdir/diurnal.runlog" "$tmpdir/diurnal.conf" |
        grep -E '^host[0-9]+ ')"
      [[ -n "$plain" && "$plain" == "$recorded" ]] &&
        ./build/tools/stayaway_sim --replay "$tmpdir/diurnal.runlog" || {
        echo "--hosts run diverged from its recording:" >&2
        echo "$plain" >&2
        echo "$recorded" >&2
        rm -rf "$tmpdir"
        return 1
      }
      rm -rf "$tmpdir"
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
      # coordinator checkpoint) in the tier-1 tree. Its acceptance bound
      # lives in tier-1: ClusterCoordinator.FlashCrowdMigrationBeatsPausing
      # requires migration to strictly beat per-host pausing on both
      # violations and batch progress and pins the EXPERIMENTS.md counts.
      # Then a migration run driven through a full record -> replay round
      # trip via stayaway_sim, and a coordinated checkpoint -> restore ->
      # re-export round trip.
      cmake -B build -S . >/dev/null &&
        cmake --build build -j"$JOBS" \
          --target test_cluster stayaway_sim || return 1
      ./build/tests/test_cluster || return 1
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
      # Coordinated checkpoints: a supervised two-host run (mobile VM +
      # admission) exports one blob per host plus the coordinator's; a
      # restore that re-exports must write every blob it read, byte for
      # byte — the MigrationActuator and coordinator state included.
      cat >"$tmpdir/ckpt.conf" <<'CONF'
sensitive  = webservice-cpu
batch      = none
policy     = stay-away
duration_s = 80
workload   = constant
[host "web-a"]
seed = 3
[host "web-b"]
seed = 5
[cluster]
mobile = crunch:cpubomb:web-a:20
admit  = late:soplex:50
CONF
      ./build/tools/stayaway_sim --supervise --checkpoint-every 5 \
        --checkpoint-dir "$tmpdir/ckpt" "$tmpdir/ckpt.conf" >/dev/null &&
        ./build/tools/stayaway_sim --restore "$tmpdir/ckpt" \
          --checkpoint-dir "$tmpdir/ckpt2" "$tmpdir/ckpt.conf" >/dev/null ||
        { rm -rf "$tmpdir"; return 1; }
      local blob
      for blob in web-a.ckpt web-b.ckpt coordinator.ckpt; do
        [[ -s "$tmpdir/ckpt/$blob" ]] &&
          cmp "$tmpdir/ckpt/$blob" "$tmpdir/ckpt2/$blob" || {
          echo "coordinated checkpoint $blob did not re-export identically" >&2
          rm -rf "$tmpdir"
          return 1
        }
      done
      rm -rf "$tmpdir"
      echo "cluster record -> replay round trip + coordinated checkpoint" \
        "re-export cmp (hosts + coordinator): ok"
      ;;
    ingest)
      # Streaming-ingestion gate (DESIGN.md §15): the ingest suite and the
      # bench_ingest acceptance bounds (>=5x ring throughput, flat
      # landmark-incremental embed cost) in the tier-1 tree, then fleet
      # workers over ring-fed members — 8 ring sources generating inline
      # on a 4-worker fleet team — under TSan.
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
      # visor test suite in the tier-1 tree. Its acceptance bounds live in
      # tier-1: SupervisorGolden.FleetSurvivesSingleHostCrash runs 1-of-8
      # hosts crashing at workers {1, 4} x checkpoint cadence {0, 10, 5,
      # 2} and requires full record streams, zero divergences, the pinned
      # gap-period table and worker invariance. Then stayaway_sim driven
      # through full checkpoint -> restore -> re-export round trips
      # (synchronous and ring-fed: every pipeline checkpoints; the
      # re-exported blob must equal the one restored, and its record lines
      # the run-log's), a supervised run that must summarize exactly like
      # the plain one, and a corrupted blob, which must be rejected by
      # checksum, not silently restored.
      cmake -B build -S . >/dev/null &&
        cmake --build build -j"$JOBS" \
          --target test_checkpoint stayaway_sim || return 1
      ./build/tests/test_checkpoint || return 1
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
      # One PeriodRecord codec: the exported blob is v4 and its
      # `record = ` payloads are, line for line, the records block of a
      # --record run of the same scenario (--record rejects checkpoint
      # flags, so it is a second run; supervision does not perturb it).
      [[ "$(head -n 1 "$tmpdir/ckpt/host0.ckpt")" == \
        "stayaway-checkpoint v4" ]] || {
        echo "exported checkpoint is not stayaway-checkpoint v4" >&2
        rm -rf "$tmpdir"
        return 1
      }
      ./build/tools/stayaway_sim --record "$tmpdir/plain.runlog" \
        "$tmpdir/scenario.conf" >/dev/null &&
        sed -n 's/^record = //p' "$tmpdir/ckpt/host0.ckpt" \
          >"$tmpdir/ckpt.records" &&
        awk '/^records "/ { n = $NF; next } n > 0 { print; n-- }' \
          "$tmpdir/plain.runlog" >"$tmpdir/runlog.records" &&
        [[ -s "$tmpdir/ckpt.records" ]] &&
        cmp "$tmpdir/ckpt.records" "$tmpdir/runlog.records" || {
        echo "checkpoint record lines differ from the run-log's" >&2
        rm -rf "$tmpdir"
        return 1
      }
      # A restore that re-exports must write the blob it read, byte for
      # byte: the re-encoded history and state are canonical.
      ./build/tools/stayaway_sim --restore "$tmpdir/ckpt" \
        --checkpoint-dir "$tmpdir/ckpt2" "$tmpdir/scenario.conf" >/dev/null &&
        cmp "$tmpdir/ckpt/host0.ckpt" "$tmpdir/ckpt2/host0.ckpt" ||
        { rm -rf "$tmpdir"; return 1; }
      ./build/tools/stayaway_sim --ingest-rate 16 --supervise \
        --checkpoint-every 5 --checkpoint-dir "$tmpdir/ring" \
        "$tmpdir/scenario.conf" >/dev/null &&
        grep -q "ring_pending_sequence" "$tmpdir/ring/host0.ckpt" &&
        ./build/tools/stayaway_sim --ingest-rate 16 --restore "$tmpdir/ring" \
          --checkpoint-dir "$tmpdir/ring2" "$tmpdir/scenario.conf" \
          >/dev/null &&
        cmp "$tmpdir/ring/host0.ckpt" "$tmpdir/ring2/host0.ckpt" ||
        { rm -rf "$tmpdir"; return 1; }
      # The recovery flags leave a plain document the single-host run:
      # same seed, same summary row, label included.
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
      plain="$(./build/tools/stayaway_sim "$tmpdir/seeded.conf" | tail -n 1)"
      supervised="$(./build/tools/stayaway_sim --supervise \
        --checkpoint-every 5 "$tmpdir/seeded.conf" | tail -n 1)"
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
      echo "checkpoint v4 record lines = run-log lines + round trips +" \
        "re-export cmp (sync + ring) + plain/supervised equality +" \
        "corrupt-blob rejection: ok"
      ;;
    perfbench)
      # The repo benchmark's own self-test; it builds and runs only what
      # perfbench/ declares (CARGO_TARGET_DIR names run.py's build tree).
      CARGO_TARGET_DIR=build-perfbench python3 perfbench/smoke_test.py
      ;;
    analyze)
      # Static-analysis gate (DESIGN.md §16). The textual passes always
      # run; the Clang thread-safety build is best-effort because the
      # SA_* annotations are no-ops under GCC.
      cmake -B build -S . >/dev/null &&
        cmake --build build -j"$JOBS" --target stayaway_analyze || return 1
      ./build/tools/stayaway_analyze --self-test || return 1
      ./build/tools/stayaway_analyze src tools tests bench examples perfbench ||
        return 1
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
