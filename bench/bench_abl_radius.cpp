// Ablation (§3.2.2): Rayleigh-scaled violation-range radius versus fixed
// radii. The paper's choice R = d * exp(-d^2 / (2 c^2)) adapts the
// exclusion zone to how close the nearest safe knowledge is; a fixed
// radius is either too timid (misses violations it has not explicitly
// captured, §3.2.1's motivating problem) or too aggressive (swallows safe
// territory and starves the batch).
//
// Protocol: chronological replay of a passive run. At each period the
// current state is scored against the violation geometry as it was known
// *before* that period (labels accumulate over the replay, positions are
// taken from the final map). This measures exactly what the range is for:
// flagging unseen-but-nearby violations before they are captured.
#include "bench_common.hpp"

#include "stats/rayleigh.hpp"

namespace {

using namespace stayaway;
using namespace stayaway::bench;

struct RuleScore {
  OfflineTally tally;
  std::size_t flagged = 0;
};

/// Is `p` inside the rule's exclusion zone given currently-known labels?
bool flagged_by(const core::StateSpace& known, const mds::Point2& p,
                double fixed_radius /* < 0: Rayleigh */) {
  if (fixed_radius < 0.0) return known.in_violation_region(p);
  for (std::size_t i = 0; i < known.size(); ++i) {
    if (known.label(i) != core::StateLabel::Violation) continue;
    if (mds::distance(known.position(i), p) <= fixed_radius) return true;
  }
  return false;
}

RuleScore replay(const OfflineData& data, double fixed_radius) {
  // Known-so-far geometry: all states placed (final map positions), all
  // labels initially Safe; a state becomes a violation-state only after
  // the replay has witnessed a violation on it.
  core::StateSpace known;
  for (std::size_t i = 0; i < data.space.size(); ++i) {
    known.add_state(core::StateLabel::Safe);
  }
  known.sync_positions(data.space.positions());

  RuleScore out;
  for (const auto& rec : data.records) {
    bool flag = flagged_by(known, rec.state, fixed_radius);
    if (flag) ++out.flagged;
    out.tally.score(flag, rec.violation_observed);
    if (rec.violation_observed) known.force_violation(rec.representative);
  }
  return out;
}

}  // namespace

void run_scenario(const std::string& title, harness::ExperimentSpec spec) {
  OfflineData data = passive_run(std::move(spec));
  double scale = data.space.scale();
  std::size_t violations = 0;
  for (const auto& rec : data.records) {
    violations += rec.violation_observed ? 1u : 0u;
  }
  std::cout << "--- " << title << " ---\n";
  std::cout << "map scale c = " << format_double(scale, 3) << ", "
            << violations << " violating periods of " << data.records.size()
            << ", " << data.space.size() << " states\n";
  std::cout << pad_right("radius rule", 22) << pad_left("recall", 9)
            << pad_left("fpr", 8) << pad_left("flagged%", 10) << "\n";

  struct Rule {
    std::string name;
    double fixed = -1.0;  // < 0 means Rayleigh
  };
  std::vector<Rule> rules{{"rayleigh (paper)", -1.0},
                          {"fixed 0.02c", 0.02 * scale},
                          {"fixed 0.1c", 0.1 * scale},
                          {"fixed 0.3c", 0.3 * scale},
                          {"fixed 0.6c", 0.6 * scale},
                          {"fixed 1.0c", 1.0 * scale}};

  for (const auto& rule : rules) {
    RuleScore s = replay(data, rule.fixed);
    std::cout << pad_right(rule.name, 22)
              << pad_left(format_double(s.tally.recall() * 100.0, 1) + "%", 9)
              << pad_left(
                     format_double(s.tally.false_positive_rate() * 100.0, 1) +
                         "%",
                     8)
              << pad_left(format_double(static_cast<double>(s.flagged) /
                                            static_cast<double>(
                                                data.records.size()) *
                                            100.0,
                                        1) +
                              "%",
                          10)
              << "\n";
  }
  std::cout << "\n";
}

int main() {
  std::cout << "=== Ablation: Rayleigh-scaled vs fixed violation-range radius "
               "(chronological replay) ===\n\n";

  auto dense = figure_spec(harness::SensitiveKind::VlcStream,
                           harness::BatchKind::TwitterAnalysis, 360.0, 1800);
  dense.workload = harness::compressed_diurnal(dense.duration_s, 2.0, 98);
  run_scenario("dense map: VLC + Twitter-Analysis", dense);

  auto sparse = figure_spec(harness::SensitiveKind::WebserviceMem,
                            harness::BatchKind::MemBomb, 360.0, 1801);
  sparse.workload = harness::compressed_diurnal(sparse.duration_s, 2.0, 98);
  sparse.stayaway.dedup_epsilon = 0.12;  // coarse map: sparse safe knowledge
  run_scenario("sparse map: Webservice(mem) + MemoryBomb", sparse);

  std::cout << "Reading: no single fixed radius wins in both scenarios — the\n"
               "right size depends on how densely the safe space is known.\n"
               "The Rayleigh rule tracks the knee of the recall/fpr trade-off\n"
               "in each map without a tuning knob, which is why the paper\n"
               "scales the radius by the distance to the nearest safe state.\n";
  return 0;
}
