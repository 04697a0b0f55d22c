// Ablation (§3.2.3): per-execution-mode trajectory models versus one
// global model. The paper: "modelling all the different execution modes
// using a single model fails to capture the inherent patterns and
// sequence specific to each execution mode."
//
// Protocol: a full lifecycle (idle -> sensitive-only -> co-located ->
// batch-only, as in Figure 5) observed passively; models trained on the
// even transitions, evaluated on the odd ones (so every mode appears on
// both sides) with three metrics: one-step position error, negative
// log-likelihood of the realised (step, angle) pairs, and violation
// forecast accuracy (where the lifecycle produces any).
#include <cmath>
#include <memory>

#include "apps/cpubomb.hpp"
#include "apps/soplex.hpp"
#include "apps/twitter_analysis.hpp"
#include "apps/vlc_stream.hpp"
#include "bench_common.hpp"
#include "core/trajectory.hpp"

namespace {

using namespace stayaway;
using namespace stayaway::bench;

struct Lifecycle {
  std::string name;
  std::vector<core::PeriodRecord> records;
  core::StateSpace space;
};

/// Runs a four-mode lifecycle passively: sensitive arrives at 5 s and
/// finishes at 105 s; the batch app arrives at 30 s and keeps running.
template <typename BatchApp>
Lifecycle run_lifecycle(const std::string& name,
                        std::unique_ptr<BatchApp> batch) {
  sim::SimHost host(harness::paper_host(), 0.1);
  apps::VlcStreamSpec vlc_spec;
  vlc_spec.duration_s = 100.0;
  auto workload = harness::compressed_diurnal(240.0, 1.5, 14);
  auto vlc = std::make_unique<apps::VlcStream>(vlc_spec, workload);
  const sim::QosProbe* probe = vlc.get();
  host.add_vm("vlc", sim::VmKind::Sensitive, std::move(vlc), 5.0);
  host.add_vm("batch", sim::VmKind::Batch, std::move(batch), 30.0);

  core::StayAwayConfig cfg;
  cfg.actions_enabled = false;
  core::HostPipeline pipeline(host, *probe, cfg);
  for (int p = 0; p < 240; ++p) {
    host.run(10);
    pipeline.on_period();
  }

  Lifecycle out;
  out.name = name;
  out.records = pipeline.records();
  // Copy the final labelled geometry.
  const core::StateSpace& space = pipeline.stay_away_mapper()->space();
  for (std::size_t i = 0; i < space.size(); ++i) {
    out.space.add_state(space.label(i));
  }
  out.space.sync_positions(space.positions());
  return out;
}

struct EvalResult {
  double mean_position_error = 0.0;
  /// Mean negative log-likelihood of the observed (step, angle) pairs
  /// under the model's histograms — the direct measure of how well each
  /// variant captures a mode's movement distribution.
  double mean_nll = 0.0;
  OfflineTally tally;
};

double transition_nll(const core::TrajectoryModel& model, double step,
                      double angle) {
  const auto& sh = model.step_histogram();
  const auto& ah = model.angle_histogram();
  double ps = std::max(sh.density(sh.bin_index(step)) * sh.bin_width(), 1e-6);
  double pa = std::max(ah.density(ah.bin_index(angle)) * ah.bin_width(), 1e-6);
  return -(std::log(ps) + std::log(pa));
}

EvalResult evaluate(const Lifecycle& life, bool per_mode, std::uint64_t seed) {
  const double max_step = 2.0 * life.space.scale() + 0.5;
  core::ModeTrajectories mode_models(max_step, 24);
  core::TrajectoryModel global_model(max_step, 24);

  // Interleaved split (train on even transitions, test on odd) so that
  // every execution mode is represented on both sides of the split.
  for (std::size_t i = 1; i < life.records.size(); ++i) {
    if (i % 2 != 0) continue;
    const auto& prev = life.records[i - 1];
    const auto& cur = life.records[i];
    if (per_mode) {
      if (prev.mode == cur.mode) {
        mode_models.model(cur.mode).observe(prev.state, cur.state);
      }
    } else {
      global_model.observe(prev.state, cur.state);
    }
  }

  EvalResult out;
  Rng rng(seed);
  std::size_t scored = 0;
  core::TrajectoryModel::Samplers samplers;
  std::vector<mds::Point2> futures;
  for (std::size_t i = 1; i + 1 < life.records.size(); i += 2) {
    const auto& cur = life.records[i];
    const core::TrajectoryModel& model =
        per_mode ? mode_models.model(cur.mode) : global_model;
    if (model.observations() < 6) continue;
    model.sample_future(cur.state, 5, rng, samplers, futures);
    mds::Point2 mean{};
    std::size_t hits = 0;
    for (const auto& f : futures) {
      mean.x += f.x / static_cast<double>(futures.size());
      mean.y += f.y / static_cast<double>(futures.size());
      if (life.space.in_violation_region(f)) ++hits;
    }
    out.mean_position_error +=
        mds::distance(mean, life.records[i + 1].state);
    out.mean_nll += transition_nll(
        model, mds::distance(cur.state, life.records[i + 1].state),
        mds::step_angle(cur.state, life.records[i + 1].state));
    ++scored;
    out.tally.score(hits * 2 > futures.size(),
                    life.records[i + 1].violation_observed);
  }
  if (scored > 0) {
    out.mean_position_error /= static_cast<double>(scored);
    out.mean_nll /= static_cast<double>(scored);
  }
  return out;
}

}  // namespace

int main() {
  std::cout << "=== Ablation: per-mode trajectory models vs one global model "
               "===\n\n";
  std::cout << "Lifecycle: idle -> VLC only -> co-located -> batch only\n\n";
  std::cout << pad_right("lifecycle", 22) << pad_left("variant", 10)
            << pad_left("step-err", 10) << pad_left("step-err/c", 12)
            << pad_left("nll", 8) << pad_left("forecast-acc", 14) << "\n";

  std::vector<Lifecycle> lifecycles;
  lifecycles.push_back(
      run_lifecycle("vlc+soplex", std::make_unique<apps::Soplex>([] {
        apps::SoplexSpec s;
        s.total_work_s = 1e9;
        return s;
      }())));
  lifecycles.push_back(run_lifecycle(
      "vlc+twitter", std::make_unique<apps::TwitterAnalysis>()));
  lifecycles.push_back(
      run_lifecycle("vlc+cpubomb", std::make_unique<apps::CpuBomb>()));

  double sum_per = 0.0;
  double sum_glob = 0.0;
  double nll_per = 0.0;
  double nll_glob = 0.0;
  for (const auto& life : lifecycles) {
    double c = life.space.scale();
    for (bool per_mode : {true, false}) {
      EvalResult r = evaluate(life, per_mode, 7);
      (per_mode ? sum_per : sum_glob) += r.mean_position_error / c;
      (per_mode ? nll_per : nll_glob) += r.mean_nll;
      std::cout << pad_right(life.name, 22)
                << pad_left(per_mode ? "per-mode" : "global", 10)
                << pad_left(format_double(r.mean_position_error, 4), 10)
                << pad_left(format_double(r.mean_position_error / c, 3), 12)
                << pad_left(format_double(r.mean_nll, 2), 8)
                << pad_left(
                       format_double(r.tally.accuracy() * 100.0, 1) + "%", 14)
                << "\n";
    }
  }
  double n = static_cast<double>(lifecycles.size());
  std::cout << "\nmean one-step error (fraction of map scale): per-mode "
            << format_double(sum_per / n, 3) << " vs global "
            << format_double(sum_glob / n, 3)
            << "\nmean movement NLL: per-mode " << format_double(nll_per / n, 3)
            << " vs global " << format_double(nll_glob / n, 3)
            << "\n(paper: a single model pools phases with different step\n"
               "lengths/orientations and blurs every mode's movement model —\n"
               "the pooled distribution fits every mode worse)\n";
  return 0;
}
