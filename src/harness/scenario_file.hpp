// Scenario files: a small key = value format describing an experiment,
// consumed by the stayaway_sim command-line tool (tools/). Each section's
// keys are listed once, in scenario_file.cpp's describe_body and
// describe_cluster, which parse and serialize both walk: adding a key
// means adding one list entry.
//
//   # VLC protected from the Twitter analytics job
//   sensitive   = vlc-stream
//   batch       = twitter-analysis
//   policy      = stay-away
//   duration_s  = 300
//   workload    = diurnal
//   compare     = true          # also run no-prevention + isolated
//   template_out = vlc.template.csv
//
// Optional robustness keys (DESIGN.md §12):
//   metrics    = cpu,mem,io          # sampler metric set
//   vm         = extra1:cpubomb:30   # extra named batch VM (repeatable)
//   fault_seed = 7                   # fault plan seed (default: seed)
//   fault      = sensor-dropout start=20 end=60 p=0.2   # repeatable
//
// Multi-host fleet scenarios (DESIGN.md §13) add `[host "name"]`
// sections and the fleet-level `workers` key. Keys before the first
// section form the base scenario every host inherits; a section's keys
// overlay it (scalar keys override, the list-building `vm`/`fault` keys
// append):
//
//   sensitive = vlc-stream
//   policy    = stay-away
//   workers   = 4
//   [host "web-a"]
//   batch = twitter-analysis
//   [host "web-b"]
//   batch = cpubomb
//   seed  = 7
//
// Cluster coordination (DESIGN.md §18) adds a `[cluster]` section to a
// multi-host document — coordinator knobs plus the repeatable `mobile`
// (migratable batch VM: name:kind:home[:start_s]) and `admit` (incoming
// batch VM: name:kind:arrival_s) keys:
//
//   [cluster]
//   migrate = true
//   admit_margin = 0.25
//   mobile = crunch:cpubomb:web-a:20
//   admit  = late:soplex:90
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/fleet.hpp"

namespace stayaway::harness {

struct Scenario {
  ExperimentSpec spec;
  /// Workload kind as written ("constant" or "diurnal"); spec.workload
  /// holds the trace it materialized into. Retained so serialization
  /// round-trips — same kind + cycles + seed + duration regenerates the
  /// identical trace.
  std::string workload = "constant";
  double workload_cycles = 1.5;
  /// Also run the no-prevention and isolated references and report the
  /// gained utilization / violation comparison.
  bool compare = false;
  /// Load a template before the run / save the learned one after.
  std::optional<std::string> template_in;
  std::optional<std::string> template_out;
  /// Dump the per-period series to this CSV path.
  std::optional<std::string> series_csv;
};

/// A parsed multi-host scenario document.
struct FleetScenario {
  /// The keys before any [host] section — on its own a complete,
  /// runnable single-host scenario.
  Scenario base;
  /// Per-host overlays in file order: (section name, base scenario with
  /// the section's overrides applied). Empty for plain documents.
  std::vector<std::pair<std::string, Scenario>> hosts;
  /// Fleet-level `workers` key (hosts driven concurrently).
  std::size_t workers = 1;
  /// Parsed [cluster] section (DESIGN.md §18); nullopt without one. Only
  /// valid alongside [host] sections.
  std::optional<ClusterSpec> cluster;
  /// True when the document used any fleet syntax ([host] or [cluster]
  /// sections or the workers key), even for a degenerate fleet of one.
  bool fleet_syntax = false;
};

/// Parses a scenario document that may contain [host "name"] sections
/// and the `workers` key (see the header comment for the syntax). Unknown
/// keys, malformed lines, invalid values, duplicate VM names and unknown
/// fault/metric kinds throw PreconditionError naming the offending line.
/// Empty lines and '#' comments are ignored and values may be
/// double-quoted ("a # b"; the lexical rules are util/keyvalue.hpp's).
/// Keys may appear at most once, except the list-building `fault` and
/// `vm` keys. Plain single-host documents parse with fleet_syntax false,
/// hosts empty and the scenario in base. Section names must be unique
/// and non-empty; per-section keys may override any base key once.
FleetScenario parse_fleet_scenario(std::istream& in);

/// Canonical scenario-document form of a parsed scenario: every spec
/// scalar written explicitly with exact-round-trip numbers, values
/// quoted when they need it. Parsing serialize_scenario(s) reproduces s
/// as the base of a plain document, and serialize ∘ parse is a fixed
/// point (pinned in tests/test_scenario_file.cpp). The run-log recorder
/// (DESIGN.md §14) embeds scenarios through this.
std::string serialize_scenario(const Scenario& scenario);

/// Fleet documents serialize with the workers key first and every host
/// as a fully expanded [host "name"] section (no inherited base keys —
/// overlay ordering cannot change what a section means). Plain
/// documents serialize exactly like serialize_scenario.
std::string serialize_fleet_scenario(const FleetScenario& fleet);

}  // namespace stayaway::harness
