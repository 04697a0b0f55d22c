// stayaway_sim — run a co-location scenario from a description file.
//
//   stayaway_sim [flags] scenario.conf   (`-` reads the scenario from stdin)
//   stayaway_sim --example               (print a template scenario)
//   stayaway_sim --replay FILE           (re-execute a saved run-log and
//                                         byte-diff every PeriodRecord;
//                                         exits 1 on any divergence)
//
// One path runs every scenario: the flags override the parsed document,
// replay::canonical_fleet canonicalizes it exactly as a replayer will
// (DESIGN.md §14), one harness::run_fleet call runs it and one report
// prints it, section by section: faults/recovery, cluster, checkpoints,
// recording, observability, the summary table, then compare/series/
// template. A plain document is the single-host run (a fleet of one
// named host0): a `running:` header and one row labelled with its
// policy. A fleet ([host "name"] sections or --hosts) prints a
// `running fleet:` header and labels its lines and rows with host names.
// `compare` (unobserved no-prevention + isolated references),
// `series_csv` and templates need a plain run without --record or the
// recovery flags, which --record rejects as well.
//
// Flags (DESIGN.md section in brackets):
//   --events-out FILE    JSONL event stream [§10]
//   --metrics-out FILE   JSON metrics summary [§10]
//   --faults FILE        fault plan replacing a plain scenario's `fault =`
//                        lines (format: src/sim/faults.hpp) [§12]
//   --hosts N            replicate a plain scenario across N hosts with
//                        decorrelated per-host seeds [§13]
//   --workers N          fleet workers (overrides the `workers` key) [§13]
//   --ingest-rate HZ     ring ingestion at HZ on every host [§15]
//   --record FILE        save the versioned run-log (canonical scenario +
//                        per-host PeriodRecord streams) [§14]
//   --supervise          supervise every host (hosts whose plan injects
//                        crash faults always are) [§17]
//   --checkpoint-every N supervisor checkpoint cadence in periods [§17]
//   --checkpoint-dir D   write D/<host>.ckpt, plus D/coordinator.ckpt on
//                        coordinated runs [§17]
//   --restore D          warm-start each host from D/<host>.ckpt where it
//                        exists (and the coordinator likewise) [§17]
//   --cluster on|off     require or strip the [cluster] section [§18]
//   --migrate on|off     override the [cluster] `migrate` knob [§18]
//
// The scenario format is documented in src/harness/scenario_file.hpp.
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "core/template_store.hpp"
#include "harness/fleet.hpp"
#include "harness/report.hpp"
#include "harness/scenario_file.hpp"
#include "obs/events.hpp"
#include "obs/observer.hpp"
#include "replay/replay.hpp"
#include "replay/run_log.hpp"
#include "sim/faults.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace {

constexpr const char* kExample = R"(# stayaway_sim scenario
sensitive    = vlc-stream        # vlc-stream | webservice-cpu|mem|mix | vlc-transcode
batch        = twitter-analysis  # cpubomb | membomb | soplex | twitter-analysis
                                 # | vlc-transcode | batch-1 | batch-2 | none
policy       = stay-away         # stay-away | no-prevention | reactive | static-threshold
duration_s   = 300
batch_start_s = 15
workload     = diurnal           # constant | diurnal
compare      = true              # also run no-prevention + isolated references
# template_in  = previous.template.csv
# template_out = learned.template.csv
# series_csv   = run_series.csv
#
# Multi-host fleet: the keys above become the base every host inherits;
# [host "name"] sections overlay it (scalars override, vm/fault append).
# workers = 4
# [host "web-a"]
# batch = twitter-analysis
# [host "web-b"]
# batch = cpubomb
# seed  = 7
)";

constexpr const char* kUsage =
    "usage: stayaway_sim [--events-out FILE] [--metrics-out FILE]\n"
    "                    [--faults FILE] [--hosts N] [--workers N]\n"
    "                    [--ingest-rate HZ] [--record FILE]\n"
    "                    [--supervise] [--checkpoint-every N]\n"
    "                    [--checkpoint-dir DIR] [--restore DIR]\n"
    "                    [--cluster on|off] [--migrate on|off]\n"
    "                    <scenario-file | ->\n"
    "       stayaway_sim --example\n"
    "       stayaway_sim --replay FILE\n";

struct Options {
  std::string scenario;
  std::optional<std::string> events_out;
  std::optional<std::string> metrics_out;
  std::optional<std::string> faults;
  std::optional<std::string> record;
  std::optional<std::string> replay;
  std::size_t hosts = 0;    // 0 = no replication requested
  std::size_t workers = 0;  // 0 = take the scenario's `workers` key
  std::optional<double> ingest_rate;
  bool supervise = false;
  std::size_t checkpoint_every = 0;
  std::optional<std::string> checkpoint_dir;
  std::optional<std::string> restore_dir;
  std::optional<bool> cluster_on;  // --cluster on|off
  std::optional<bool> migrate_on;  // --migrate on|off

  bool recovery_requested() const {
    return supervise || checkpoint_every != 0 ||
           checkpoint_dir.has_value() || restore_dir.has_value();
  }
};

std::string checkpoint_path(const std::string& dir, const std::string& host) {
  return dir + "/" + host + ".ckpt";
}

/// A checkpoint file's bytes; nullopt when it cannot be opened.
std::optional<std::string> read_blob(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::ostringstream blob;
  blob << in.rdbuf();
  return blob.str();
}

void write_blob(const std::string& path, const std::string& blob) {
  std::ofstream out(path, std::ios::binary);
  SA_REQUIRE(out.good(), "cannot write checkpoint: " + path);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  out.flush();
  SA_REQUIRE(out.good(), "failed writing checkpoint: " + path);
}

const char* plural(std::size_t n) { return n == 1 ? "" : "s"; }

/// Rejects the single-host-only scenario features outside a plain run,
/// naming the offending section.
void require_fleet_compatible(const stayaway::harness::Scenario& scenario,
                              const std::string& where) {
  SA_REQUIRE(!scenario.compare,
             where + ": `compare` is unsupported in fleet mode");
  SA_REQUIRE(!scenario.template_in.has_value() &&
                 !scenario.template_out.has_value(),
             where + ": templates are unsupported in fleet mode");
  SA_REQUIRE(!scenario.series_csv.has_value(),
             where + ": `series_csv` is unsupported in fleet mode");
}

/// Applies the command-line overrides to the parsed document.
void apply_overrides(stayaway::harness::FleetScenario& doc,
                     const Options& opts) {
  using namespace stayaway;
  if (opts.ingest_rate.has_value()) {
    auto to_ring = [&opts](harness::Scenario& s) {
      s.spec.stayaway.ingest.source = monitor::IngestSource::Ring;
      s.spec.stayaway.ingest.rate_hz = *opts.ingest_rate;
    };
    to_ring(doc.base);
    for (auto& host : doc.hosts) to_ring(host.second);
  }
  SA_REQUIRE(opts.cluster_on != true || doc.cluster.has_value(),
             "--cluster on needs a [cluster] section in the scenario");
  if (opts.cluster_on == false) doc.cluster.reset();
  if (opts.migrate_on.has_value()) {
    SA_REQUIRE(doc.cluster.has_value(),
               "--migrate needs an active [cluster] section");
    doc.cluster->config.migrate = *opts.migrate_on;
  }
  if (opts.workers != 0) doc.workers = opts.workers;
  if (opts.faults.has_value()) {
    SA_REQUIRE(doc.hosts.empty() && opts.hosts == 0,
               "--faults applies to single-host runs; use per-host "
               "`fault =` lines in the scenario");
    std::ifstream fin(*opts.faults);
    SA_REQUIRE(fin.good(), "cannot open fault plan: " + *opts.faults);
    const sim::FaultPlan& plan = doc.base.spec.faults.emplace(
        sim::parse_fault_plan(fin));
    std::cout << "fault plan loaded: " << *opts.faults << " ("
              << plan.faults.size() << " faults, seed " << plan.seed
              << ")\n";
  }
}

/// The document every invocation runs, canonicalized like a replayer
/// will materialize it (DESIGN.md §14): --hosts replicas get their own
/// seeds and diurnal traces. `compare`, templates and series CSV belong
/// to a plain, unrecorded, unsupervised run, the one --workers misses.
stayaway::harness::FleetScenario fleet_document(
    const stayaway::harness::FleetScenario& doc, const Options& opts) {
  SA_REQUIRE(!opts.record.has_value() || !opts.recovery_requested(),
             "--record supervises hosts with crash faults automatically; "
             "drop --supervise/--checkpoint-*/--restore");
  SA_REQUIRE(opts.hosts == 0 || doc.hosts.empty(),
             "--hosts replicates a plain scenario; this file already "
             "defines [host] sections");
  if (doc.hosts.empty() && opts.hosts == 0 && !opts.record.has_value() &&
      !opts.recovery_requested()) {
    SA_REQUIRE(opts.workers == 0,
               "--workers needs a fleet (--hosts N or [host] sections)");
  } else {
    require_fleet_compatible(doc.base, "base scenario");
    for (const auto& [name, scenario] : doc.hosts) {
      require_fleet_compatible(scenario, "[host \"" + name + "\"]");
    }
  }
  return stayaway::replay::canonical_fleet(doc, opts.hosts);
}

/// The `compare` references, series CSV and template export of a plain
/// run (`scenario` is its canonical base, `spec` the host it ran).
void report_single_host(const stayaway::harness::Scenario& scenario,
                        const stayaway::harness::ExperimentSpec& spec,
                        const stayaway::harness::ExperimentResult& result) {
  using namespace stayaway;
  using namespace stayaway::harness;

  if (scenario.compare) {
    ExperimentSpec np = spec;
    np.policy = PolicyKind::NoPrevention;
    np.seed_template.reset();
    ExperimentResult no_prev = run_experiment(np);
    ExperimentResult isolated = run_isolated(spec);
    print_summary_row(std::cout, "no-prevention", no_prev);
    print_summary_row(std::cout, "isolated", isolated);

    double gain = series_mean(gained_utilization(result, isolated));
    double max_gain = series_mean(gained_utilization(no_prev, isolated));
    std::cout << "\n"
              << render_qos_figure("normalized QoS (1.0 = threshold)", result,
                                   no_prev)
              << "\ngained utilization: " << format_double(gain * 100.0, 1)
              << "% of a possible " << format_double(max_gain * 100.0, 1)
              << "%\n";
  }

  if (scenario.series_csv.has_value()) {
    std::ofstream csv(*scenario.series_csv);
    SA_REQUIRE(csv.good(), "cannot write: " + *scenario.series_csv);
    std::vector<double> violated(result.violated.begin(),
                                 result.violated.end());
    std::vector<double> running(result.batch_running.begin(),
                                result.batch_running.end());
    print_series_csv(csv, {"time", "qos", "violated", "utilization",
                           "batch_running"},
                     {&result.time, &result.qos, &violated,
                      &result.utilization, &running});
    std::cout << "series written: " << *scenario.series_csv << "\n";
  }

  if (scenario.template_out.has_value()) {
    SA_REQUIRE(result.exported_template.has_value(),
               "template_out requires policy = stay-away");
    std::ofstream tout(*scenario.template_out);
    SA_REQUIRE(tout.good(), "cannot write: " + *scenario.template_out);
    result.exported_template->save(tout);
    std::cout << "template written: " << *scenario.template_out << " ("
              << result.exported_template->entries.size() << " states, "
              << result.exported_template->violation_count()
              << " violations)\n";
  }
}

/// The run header: `running:` for a plain document, `running fleet:`
/// plus one line per host for a fleet.
void print_running(const stayaway::harness::FleetSpec& fleet, bool plain) {
  using stayaway::harness::ExperimentSpec;
  auto describe = [](const ExperimentSpec& spec) {
    std::cout << to_string(spec.sensitive) << " + " << to_string(spec.batch)
              << " under " << to_string(spec.policy) << ", "
              << spec.duration_s << " s";
  };
  if (plain) {
    std::cout << "running: ";
    describe(fleet.hosts.front().experiment);
    std::cout << "\n\n";
    return;
  }
  std::cout << "running fleet: " << fleet.hosts.size() << " host"
            << plural(fleet.hosts.size()) << ", " << fleet.workers
            << " worker" << plural(fleet.workers);
  if (fleet.cluster.has_value()) {
    std::cout << ", coordinated (migrate "
              << (fleet.cluster->config.migrate ? "on" : "off") << ", "
              << fleet.cluster->mobile.size() << " mobile, "
              << fleet.cluster->admissions.size() << " incoming)";
  }
  std::cout << "\n";
  for (const auto& host : fleet.hosts) {
    std::cout << "  " << host.name << ": ";
    describe(host.experiment);
    std::cout << " (seed " << host.experiment.seed << ")\n";
  }
  std::cout << "\n";
}

/// The one scenario path: overrides, canonical document, FleetSpec, one
/// run_fleet call, one report. A plain document reports as the
/// single-host run (`running:` header, policy-labelled row); a fleet
/// labels everything with host names.
int run(std::istream& in, const Options& opts) {
  using namespace stayaway;
  using namespace stayaway::harness;

  FleetScenario doc = parse_fleet_scenario(in);
  apply_overrides(doc, opts);
  const FleetScenario canonical = fleet_document(doc, opts);
  const bool plain = canonical.hosts.empty();

  FleetSpec fleet = replay::to_fleet_spec(canonical);
  fleet.supervise = opts.supervise;
  fleet.checkpoint_every = opts.checkpoint_every;
  fleet.export_checkpoints = opts.checkpoint_dir.has_value();
  if (canonical.base.template_in.has_value()) {
    const std::string& path = *canonical.base.template_in;
    std::ifstream tin(path);
    SA_REQUIRE(tin.good(), "cannot open template: " + path);
    const core::StateTemplate& loaded =
        fleet.hosts.front().experiment.seed_template.emplace(
            core::StateTemplate::load(tin));
    std::cout << "template loaded: " << path << " (" << loaded.entries.size()
              << " states)\n";
  }
  if (opts.restore_dir.has_value()) {
    for (const FleetHostSpec& host : fleet.hosts) {
      std::string path = checkpoint_path(*opts.restore_dir, host.name);
      std::optional<std::string> blob = read_blob(path);
      if (!blob.has_value()) continue;  // no checkpoint: this host starts cold
      fleet.restore[host.name] = std::move(*blob);
      std::cout << "restoring " << host.name << " from " << path << "\n";
    }
    if (fleet.cluster.has_value()) {
      std::string path = *opts.restore_dir + "/coordinator.ckpt";
      if (std::optional<std::string> blob = read_blob(path)) {
        fleet.cluster->restore = std::move(*blob);
        std::cout << "restoring coordinator from " << path << "\n";
      }
    }
  }

  // Observability attaches to the primary run only; the compare/isolated
  // reference runs stay unobserved so their series are not interleaved
  // into the event stream.
  std::ofstream events_file;
  std::optional<obs::JsonlSink> sink;
  std::optional<obs::Observer> observer;
  if (opts.events_out.has_value() || opts.metrics_out.has_value()) {
    observer.emplace();
    if (opts.events_out.has_value()) {
      events_file.open(*opts.events_out);
      SA_REQUIRE(events_file.good(), "cannot write: " + *opts.events_out);
      sink.emplace(events_file);
      observer->set_sink(&*sink);
    }
    fleet.observer = &*observer;
  }
  std::optional<replay::Recording> recording;
  if (opts.record.has_value()) recording.emplace(canonical, fleet);

  print_running(fleet, plain);
  const FleetResult result = run_fleet(fleet);

  // A plain run closes each report section with a blank line; a fleet
  // prints its sections as one block.
  auto end_section = [plain](bool printed) {
    if (plain && printed) std::cout << "\n";
  };

  bool printed = false;
  for (std::size_t i = 0; i < result.hosts.size(); ++i) {
    const FleetHostResult& host = result.hosts[i];
    const ExperimentSpec& spec = fleet.hosts[i].experiment;
    const std::string tag = plain ? "" : "[" + host.name + "]";
    if (host.recovery.any_failures()) {
      printed = true;
      std::cout << "recovery" << tag << ": " << host.recovery.crashes
                << " crashes, " << host.recovery.stage_throws
                << " stage throws, " << host.recovery.stalls << " stalls ("
                << host.recovery.watchdog_trips << " watchdog trips), "
                << host.recovery.recoveries << " recoveries ("
                << host.recovery.cold_starts << " cold starts), "
                << host.recovery.gap_periods_replayed
                << " gap periods replayed, " << host.recovery.divergences
                << " divergences\n";
    }
    if (spec.faults.has_value() && !spec.faults->empty()) {
      printed = true;
      std::cout << "faults" << tag << ": " << host.result.readings_quarantined
                << " readings quarantined, " << host.result.degraded_periods
                << " degraded + " << host.result.failsafe_periods
                << " failsafe periods, " << host.result.actuation_retries
                << " actuation retries (" << host.result.actuation_abandoned
                << " abandoned)\n";
    }
  }
  end_section(printed);

  if (result.cluster.has_value()) {
    const ClusterReport& cluster = *result.cluster;
    std::cout << "cluster: " << cluster.migrations << " migration"
              << plural(cluster.migrations) << ", " << cluster.admitted
              << " admitted, " << cluster.rejected << " rejected, "
              << cluster.queued << " still queued\n";
    for (const std::string& event : cluster.events) {
      std::cout << "  " << event << "\n";
    }
    end_section(true);
  }

  if (opts.checkpoint_dir.has_value()) {
    std::error_code ec;
    std::filesystem::create_directories(*opts.checkpoint_dir, ec);
    SA_REQUIRE(!ec, "cannot create checkpoint dir: " + *opts.checkpoint_dir);
    for (const FleetHostResult& host : result.hosts) {
      write_blob(checkpoint_path(*opts.checkpoint_dir, host.name),
                 host.final_checkpoint);
    }
    std::cout << "checkpoints written: " << *opts.checkpoint_dir << " ("
              << result.hosts.size() << " of " << result.hosts.size()
              << " hosts)\n";
    if (result.cluster.has_value() &&
        !result.cluster->final_coordinator.empty()) {
      std::string path = *opts.checkpoint_dir + "/coordinator.ckpt";
      write_blob(path, result.cluster->final_coordinator);
      std::cout << "coordinator checkpoint written: " << path << "\n";
    }
    end_section(true);
  }

  if (recording.has_value()) {
    replay::RunLog log = recording->log(result);
    replay::save_run_log(log, *opts.record);
    std::size_t periods = 0;
    for (const auto& host : log.hosts) periods += host.records.size();
    std::cout << "recorded: " << *opts.record << " (" << log.hosts.size()
              << " host" << plural(log.hosts.size()) << ", " << periods
              << " periods";
    if (!log.cluster_events.empty()) {
      std::cout << ", " << log.cluster_events.size() << " cluster events";
    }
    std::cout << ")\n";
    end_section(true);
  }

  if (observer.has_value()) {
    observer->flush();
    if (sink.has_value()) {
      std::cout << "events written: " << *opts.events_out << " ("
                << sink->emitted() << " events)\n";
    }
    if (opts.metrics_out.has_value()) {
      std::ofstream mout(*opts.metrics_out);
      SA_REQUIRE(mout.good(), "cannot write: " + *opts.metrics_out);
      observer->metrics().write_json(mout);
      std::cout << "metrics written: " << *opts.metrics_out << "\n";
    }
    end_section(true);
  }
  if (!plain) std::cout << "\n";
  if (observer.has_value()) {
    print_metrics_summary(std::cout, observer->metrics());
    std::cout << "\n";
  }

  print_summary_header(std::cout);
  for (const FleetHostResult& host : result.hosts) {
    print_summary_row(std::cout,
                      plain ? to_string(fleet.hosts.front().experiment.policy)
                            : host.name,
                      host.result);
  }
  if (plain) {
    report_single_host(canonical.base, fleet.hosts.front().experiment,
                       result.hosts.front().result);
  }
  return 0;
}

int run_replay_mode(const Options& opts) {
  using namespace stayaway;

  replay::RunLog log = replay::load_run_log(*opts.replay);
  replay::ReplayReport report = replay::replay_run_log(log);
  if (!report.error.empty()) {
    std::cerr << "replay error: " << report.error << "\n";
    return 1;
  }
  if (report.ok) {
    std::cout << "replay ok: " << *opts.replay << " ("
              << report.periods_checked << " periods byte-identical across "
              << log.hosts.size() << " host" << plural(log.hosts.size())
              << ")\n";
    return 0;
  }
  std::cerr << "replay DIVERGED: " << *opts.replay << " ("
            << report.mismatches.size() << " mismatch"
            << (report.mismatches.size() == 1 ? "" : "es") << " shown, "
            << report.periods_checked << " periods checked)\n";
  for (const replay::ReplayMismatch& m : report.mismatches) {
    std::cerr << "  [" << m.host << " period " << m.period << "]\n"
              << "    recorded: "
              << (m.recorded.empty() ? "<missing>" : m.recorded) << "\n"
              << "    replayed: "
              << (m.replayed.empty() ? "<missing>" : m.replayed) << "\n";
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  const std::map<std::string, std::optional<std::string>*> path_flags = {
      {"--events-out", &opts.events_out},
      {"--metrics-out", &opts.metrics_out},
      {"--faults", &opts.faults},
      {"--record", &opts.record},
      {"--replay", &opts.replay},
      {"--checkpoint-dir", &opts.checkpoint_dir},
      {"--restore", &opts.restore_dir}};
  const std::map<std::string, std::size_t*> count_flags = {
      {"--hosts", &opts.hosts},
      {"--workers", &opts.workers},
      {"--checkpoint-every", &opts.checkpoint_every}};
  const std::map<std::string, std::optional<bool>*> switch_flags = {
      {"--cluster", &opts.cluster_on}, {"--migrate", &opts.migrate_on}};
  auto usage_error = [](const std::string& message) {
    std::cerr << "error: " << message << "\n" << kUsage;
    return 2;
  };
  bool have_scenario = false;
  bool other_than_replay = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--example") {
      std::cout << kExample;
      return 0;
    }
    if (arg == "--supervise") {
      opts.supervise = true;
      other_than_replay = true;
      continue;
    }
    const bool is_switch = switch_flags.count(arg) != 0;
    if (path_flags.count(arg) != 0 || count_flags.count(arg) != 0 ||
        is_switch || arg == "--ingest-rate") {
      if (i + 1 >= argc) {
        return usage_error(arg +
                           (is_switch ? " needs on|off" : " needs an argument"));
      }
      std::string value = argv[++i];
      other_than_replay = other_than_replay || arg != "--replay";
      if (auto path = path_flags.find(arg); path != path_flags.end()) {
        *path->second = value;
      } else if (auto count = count_flags.find(arg);
                 count != count_flags.end()) {
        char* end = nullptr;
        long n = std::strtol(value.c_str(), &end, 10);
        if (*end != '\0' || n < 1) {
          return usage_error(arg + " needs a positive integer");
        }
        *count->second = static_cast<std::size_t>(n);
      } else if (is_switch) {
        if (value != "on" && value != "off") {
          return usage_error(arg + " needs on|off, got '" + value + "'");
        }
        *switch_flags.at(arg) = value == "on";
      } else {
        char* end = nullptr;
        double hz = std::strtod(value.c_str(), &end);
        if (*end != '\0' || !(hz > 0.0) || !std::isfinite(hz)) {
          return usage_error("--ingest-rate needs a positive rate in Hz");
        }
        opts.ingest_rate = hz;
      }
      continue;
    }
    if (!arg.empty() && arg[0] == '-' && arg != "-") {
      return usage_error("unknown flag " + arg);
    }
    if (have_scenario) return usage_error("more than one scenario argument");
    opts.scenario = arg;
    have_scenario = true;
  }
  if (opts.replay.has_value() && (have_scenario || other_than_replay)) {
    return usage_error("--replay takes no scenario and no other flags");
  }
  if (!opts.replay.has_value() && !have_scenario) {
    std::cerr << kUsage;
    return 2;
  }
  try {
    if (opts.replay.has_value()) return run_replay_mode(opts);
    if (opts.scenario == "-") return run(std::cin, opts);
    std::ifstream file(opts.scenario);
    if (!file.good()) {
      std::cerr << "error: cannot open " << opts.scenario << "\n";
      return 2;
    }
    return run(file, opts);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
