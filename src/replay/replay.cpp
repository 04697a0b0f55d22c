#include "replay/replay.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/check.hpp"

namespace stayaway::replay {

harness::FleetSpec to_fleet_spec(const harness::FleetScenario& fleet) {
  harness::FleetSpec spec;
  spec.workers = fleet.workers;
  if (fleet.hosts.empty()) {
    spec.hosts.push_back({"host0", fleet.base.spec});
  } else {
    spec.hosts.reserve(fleet.hosts.size());
    for (const auto& [name, scenario] : fleet.hosts) {
      spec.hosts.push_back({name, scenario.spec});
    }
  }
  spec.cluster = fleet.cluster;
  return spec;
}

harness::FleetScenario canonical_fleet(const harness::FleetScenario& doc,
                                       std::size_t hosts_override) {
  harness::FleetScenario expanded = doc;
  if (hosts_override >= 1) {
    SA_REQUIRE(doc.hosts.empty(),
               "host replication and explicit [host] sections are exclusive");
    expanded.fleet_syntax = true;
    expanded.hosts.clear();
    for (std::size_t i = 0; i < hosts_override; ++i) {
      harness::Scenario host = doc.base;
      host.spec.seed = harness::fleet_host_seed(doc.base.spec.seed, i);
      expanded.hosts.emplace_back("host" + std::to_string(i),
                                  std::move(host));
    }
  }
  // Serialize → reparse so the returned scenario equals what replaying
  // the embedded text will materialize. This is where a per-host diurnal
  // trace is regenerated from the host's own seed — the canonical form,
  // not the base trace the pre-expansion document carried.
  std::istringstream in(harness::serialize_fleet_scenario(expanded));
  return harness::parse_fleet_scenario(in);
}

namespace {

std::vector<std::string> host_names(const harness::FleetSpec& spec) {
  std::vector<std::string> names;
  names.reserve(spec.hosts.size());
  for (const harness::FleetHostSpec& host : spec.hosts) {
    names.push_back(host.name);
  }
  return names;
}

/// Diffs one recorded line stream against its replay: any byte
/// difference (order, count, content) fails the report, and the first
/// few land in its mismatches under `stream`. Returns the number of
/// lines present on both sides.
std::size_t diff_lines(const std::string& stream,
                       const std::vector<std::string>& recorded,
                       const std::vector<std::string>& replayed,
                       ReplayReport& report) {
  constexpr std::size_t kMaxMismatches = 5;
  const std::size_t both = std::min(recorded.size(), replayed.size());
  for (std::size_t p = 0; p < std::max(recorded.size(), replayed.size());
       ++p) {
    if (p < both && recorded[p] == replayed[p]) continue;
    report.ok = false;
    if (report.mismatches.size() < kMaxMismatches) {
      report.mismatches.push_back(
          {stream, p, p < recorded.size() ? recorded[p] : "",
           p < replayed.size() ? replayed[p] : ""});
    }
  }
  return both;
}

}  // namespace

Recording::Recording(const harness::FleetScenario& fleet,
                     harness::FleetSpec& spec)
    : scenario_text_(harness::serialize_fleet_scenario(fleet)),
      recorder_(host_names(spec)) {
  spec.recorder = &recorder_;
}

RunLog Recording::log(const harness::FleetResult& result) const {
  RunLog log;
  log.scenario_text = scenario_text_;
  log.hosts = recorder_.streams();
  if (result.cluster) log.cluster_events = result.cluster->events;
  return log;
}

RecordedRun record_run(const harness::FleetScenario& fleet) {
  harness::FleetSpec spec = to_fleet_spec(fleet);
  Recording recording(fleet, spec);
  RecordedRun run;
  run.result = harness::run_fleet(spec);
  run.log = recording.log(run.result);
  return run;
}

ReplayReport replay_run_log(const RunLog& log) {
  ReplayReport report;
  RunLog fresh_log;
  try {
    std::istringstream in(log.scenario_text);
    harness::FleetScenario fleet = harness::parse_fleet_scenario(in);
    fresh_log = record_run(fleet).log;
  } catch (const std::exception& e) {
    report.error = e.what();
    return report;
  }
  const std::vector<HostStream>& fresh = fresh_log.hosts;

  if (fresh.size() != log.hosts.size()) {
    report.error = "host count diverged: recorded " +
                   std::to_string(log.hosts.size()) + ", replayed " +
                   std::to_string(fresh.size());
    return report;
  }
  report.ok = true;
  for (std::size_t h = 0; h < log.hosts.size(); ++h) {
    const HostStream& recorded = log.hosts[h];
    const HostStream& replayed = fresh[h];
    if (recorded.name != replayed.name) {
      report.ok = false;
      report.error = "host order diverged: recorded '" + recorded.name +
                     "', replayed '" + replayed.name + "'";
      return report;
    }
    report.periods_checked += diff_lines(recorded.name, recorded.records,
                                         replayed.records, report);
  }
  // The coordinator decision log diffs like a host stream.
  diff_lines("<cluster>", log.cluster_events, fresh_log.cluster_events,
             report);
  return report;
}

}  // namespace stayaway::replay
