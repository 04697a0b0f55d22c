// Ablation (§3.1): 2-D histogram-sampling forecasts versus a VAR(1)
// forecaster in the full metric space. The paper argues that reliable
// parameter estimation in high dimensions needs sample counts that grow
// exponentially, which is why it reduces to 2-D first.
//
// Protocol: passive run; train both forecasters on the first 60% of the
// record stream; forecast violations over the rest. The VAR forecaster
// predicts the next *high-dimensional* vector and checks whether its
// nearest representative is a violation state; the histogram forecaster
// is the paper's 2-D sampler.
#include <cmath>

#include "bench_common.hpp"

#include "core/trajectory.hpp"
#include "linalg/matrix.hpp"
#include "stats/var1.hpp"

namespace {

using namespace stayaway;
using namespace stayaway::bench;

OfflineTally evaluate_var(const OfflineData& data) {
  std::size_t split = data.records.size() * 3 / 5;
  std::vector<std::vector<double>> train;
  for (std::size_t i = 0; i < split; ++i) {
    train.push_back(data.rep_vectors[data.records[i].representative]);
  }
  OfflineTally tally;
  stats::Var1Model model = stats::Var1Model::fit(train, 1e-4);
  for (std::size_t i = split; i + 1 < data.records.size(); ++i) {
    const auto& cur_vec = data.rep_vectors[data.records[i].representative];
    std::vector<double> next = model.predict(cur_vec);
    // Nearest representative decides the predicted label.
    std::size_t nearest = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < data.rep_vectors.size(); ++r) {
      double d = linalg::euclidean_distance(data.rep_vectors[r], next);
      if (d < best) {
        best = d;
        nearest = r;
      }
    }
    bool predicted =
        data.space.label(nearest) == core::StateLabel::Violation;
    tally.score(predicted, data.records[i + 1].violation_observed);
  }
  return tally;
}

OfflineTally evaluate_histogram(const OfflineData& data, std::uint64_t seed) {
  const std::size_t dim = data.rep_vectors.front().size();
  core::ModeTrajectories models(std::sqrt(static_cast<double>(dim)), 24);
  std::size_t split = data.records.size() * 3 / 5;
  for (std::size_t i = 1; i < split; ++i) {
    if (data.records[i - 1].mode == data.records[i].mode) {
      models.model(data.records[i].mode)
          .observe(data.records[i - 1].state, data.records[i].state);
    }
  }
  OfflineTally tally;
  Rng rng(seed);
  core::TrajectoryModel::Samplers samplers;
  std::vector<mds::Point2> futures;
  for (std::size_t i = split; i + 1 < data.records.size(); ++i) {
    const auto& cur = data.records[i];
    const auto& model = models.model(cur.mode);
    if (model.observations() < 6) continue;
    model.sample_future(cur.state, 5, rng, samplers, futures);
    std::size_t hits = 0;
    for (const auto& f : futures) {
      if (data.space.in_violation_region(f)) ++hits;
    }
    tally.score(hits * 2 > futures.size(),
                data.records[i + 1].violation_observed);
  }
  return tally;
}

}  // namespace

int main() {
  std::cout << "=== Ablation: 2-D histogram sampler vs VAR(1) in metric space "
               "===\n\n";
  std::cout << pad_right("co-location", 34) << pad_left("forecaster", 12)
            << pad_left("accuracy", 10) << pad_left("recall", 9)
            << pad_left("fpr", 8) << "\n";

  const std::vector<std::pair<harness::SensitiveKind, harness::BatchKind>>
      colocations{
          {harness::SensitiveKind::VlcStream, harness::BatchKind::CpuBomb},
          {harness::SensitiveKind::VlcStream,
           harness::BatchKind::TwitterAnalysis},
          {harness::SensitiveKind::WebserviceMem, harness::BatchKind::MemBomb},
      };

  for (const auto& [sensitive, batch] : colocations) {
    auto spec = figure_spec(sensitive, batch, /*duration_s=*/360.0, 1700);
    spec.workload = harness::compressed_diurnal(spec.duration_s, 2.0, 97);
    OfflineData data = passive_run(spec);
    std::string label =
        std::string(to_string(sensitive)) + "+" + to_string(batch);

    OfflineTally hist = evaluate_histogram(data, 13);
    OfflineTally var = evaluate_var(data);
    for (const auto& [name, t] :
         {std::pair<const char*, OfflineTally>{"histogram", hist},
          std::pair<const char*, OfflineTally>{"var(1)", var}}) {
      std::cout << pad_right(label, 34) << pad_left(name, 12)
                << pad_left(format_double(t.accuracy() * 100.0, 1) + "%", 10)
                << pad_left(format_double(t.recall() * 100.0, 1) + "%", 9)
                << pad_left(
                       format_double(t.false_positive_rate() * 100.0, 1) + "%",
                       8)
                << "\n";
    }
  }
  std::cout << "\nExpected: the 2-D histogram sampler matches or beats VAR,\n"
               "which must estimate (m^2 + m) parameters from the same few\n"
               "samples (§3.1's argument for the 2-D reduction).\n";
  return 0;
}
