// Ablation (§2.2): MDS versus PCA as the 2-D representation. The paper
// chooses MDS because it preserves relative distances, where a projection
// "gives superposition in the direction of projection" — states that are
// far apart in metric space can land on top of each other under PCA.
//
// Compared on identical passive runs: passive prediction accuracy, map
// stress (distance distortion), and violation/safe separation margin.
#include <cmath>

#include "bench_common.hpp"

namespace {

using namespace stayaway;
using namespace stayaway::bench;

/// Smallest map distance between any violation state and any safe state,
/// normalized by the map scale — the margin the violation-range geometry
/// has to work with.
double separation_margin(const core::StateSpace& space) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t v = 0; v < space.size(); ++v) {
    if (space.label(v) != core::StateLabel::Violation) continue;
    auto d = space.nearest_safe_distance(space.position(v));
    if (d.has_value()) best = std::min(best, *d);
  }
  if (!std::isfinite(best)) return 0.0;
  return best / space.scale();
}

}  // namespace

int main() {
  std::cout << "=== Ablation: MDS (SMACOF) vs PCA embedding ===\n\n";
  std::cout << pad_right("co-location", 34) << pad_left("embed", 8)
            << pad_left("accuracy", 10) << pad_left("stress", 9)
            << pad_left("margin", 9) << "\n";

  const std::vector<std::pair<harness::SensitiveKind, harness::BatchKind>>
      colocations{
          {harness::SensitiveKind::VlcStream, harness::BatchKind::CpuBomb},
          {harness::SensitiveKind::WebserviceMem, harness::BatchKind::MemBomb},
          {harness::SensitiveKind::VlcStream,
           harness::BatchKind::TwitterAnalysis},
      };

  for (const auto& [sensitive, batch] : colocations) {
    std::string label =
        std::string(to_string(sensitive)) + "+" + to_string(batch);
    for (auto method : {core::EmbedMethod::SmacofWarm, core::EmbedMethod::Pca}) {
      auto spec = figure_spec(sensitive, batch, /*duration_s=*/300.0, 1600);
      spec.workload = harness::compressed_diurnal(spec.duration_s, 1.5, 96);
      spec.stayaway.actions_enabled = false;
      spec.stayaway.embed_method = method;
      harness::ExperimentResult run = harness::run_experiment(spec);

      // Rebuild the final labelled geometry for the margin metric.
      OfflineData data;
      data.records = run.stayaway_records;
      const auto& templ = *run.exported_template;
      for (const auto& e : templ.entries) data.space.add_state(e.label);
      data.space.sync_positions(run.final_map);

      std::cout << pad_right(label, 34)
                << pad_left(method == core::EmbedMethod::Pca ? "pca" : "mds", 8)
                << pad_left(
                       format_double(run.tally.accuracy() * 100.0, 1) + "%", 10)
                << pad_left(format_double(run.final_stress, 3), 9)
                << pad_left(format_double(separation_margin(data.space), 3), 9)
                << "\n";
    }
  }
  std::cout << "\nExpected: MDS keeps stress lower (distances preserved) and\n"
               "at least matches PCA's accuracy; PCA superposition can fold\n"
               "violation states onto safe neighbourhoods (smaller margin).\n";
  return 0;
}
