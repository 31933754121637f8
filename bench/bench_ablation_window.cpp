// Ablation: the 14-day sliding training window and daily retraining.
// The paper retrains every 24 h over the last 14 days so the model "can
// comprehend the patterns related to emerging IoT malware". This bench
// simulates malware drift — a new IoT variant with different headers and
// target ports takes over the ecosystem — and contrasts a frozen model
// with one retrained on the drifted window.
#include "bench_common.h"
#include "ml/features.h"
#include "ml/forest.h"
#include "ml/metrics.h"
#include "ml/selection.h"

namespace {

using namespace exiot;
using namespace exiot::benchx;

/// Generates labeled flow features for hosts driven by a behaviour roster.
ml::Dataset flows_for(const inet::BehaviorRoster& roster, int per_iot_family,
                      int per_generic_family, std::uint64_t seed) {
  ml::Dataset data;
  Rng rng(seed);
  auto emit = [&](const inet::ScanBehavior& behavior, int count) {
    for (int i = 0; i < count; ++i) {
      const Ipv4 src(static_cast<std::uint32_t>(rng.next_u64()));
      inet::PacketSynthesizer synth(behavior, src, aperture(),
                                    rng.next_u64());
      std::vector<net::Packet> pkts;
      TimeMicros ts = 0;
      const double rate = std::min(
          rng.pareto(behavior.rate_scale, behavior.rate_shape),
          behavior.rate_cap);
      for (int k = 0; k < 200; ++k) {
        ts += static_cast<TimeMicros>(rng.exponential(rate) *
                                      kMicrosPerSecond);
        synth.make_probe_into(ts, pkts.emplace_back());
      }
      data.add(ml::flow_features(pkts), behavior.iot ? 1 : 0);
    }
  };
  for (const auto& behavior : roster.iot_families) {
    emit(behavior, per_iot_family);
  }
  for (const auto& behavior : roster.generic_families) {
    emit(behavior, per_generic_family);
  }
  return data;
}

/// The drifted ecosystem: a new Mirai descendant ("dark_nexus"-style) with
/// a different stack fingerprint and port dial displaces the old families.
inet::BehaviorRoster drifted_roster() {
  auto roster = inet::BehaviorRoster::standard();
  inet::ScanBehavior variant = roster.iot_families[0];  // Start from mirai.
  variant.family = "emergent_variant";
  variant.tool_label = "unknown";
  variant.seq = inet::SeqStrategy::kRandom;  // Drops the seq==dst signature.
  variant.stack.windows = {512, 768};        // New raw-socket window dial.
  variant.stack.ttl_base = 128;              // Mimics Windows TTL.
  variant.ports = {{9530, 0.4}, {5500, 0.3}, {60001, 0.3}};
  roster.iot_families.push_back(variant);
  // The newcomer takes over most IoT scanning.
  roster.iot_weights = {0.08, 0.05, 0.02, 0.03, 0.02, 0.02, 0.08, 0.70};
  return roster;
}

double recall_of(const ml::RandomForest& model, const ml::Normalizer& norm,
                 const ml::Dataset& raw_test) {
  std::vector<double> scores;
  scores.reserve(raw_test.size());
  for (const auto& row : raw_test.rows) {
    scores.push_back(model.predict_score(norm.transform(row)));
  }
  return ml::confusion_at(raw_test.labels, scores).recall();
}

}  // namespace

int main() {
  heading("Ablation: 14-day sliding window vs frozen model under malware "
          "drift");

  const int per_family = static_cast<int>(env_double("EXIOT_FLOWS", 60));
  auto old_world = inet::BehaviorRoster::standard();
  auto new_world = drifted_roster();

  ml::Dataset old_train = flows_for(old_world, per_family, per_family, 31);
  ml::Dataset new_train = flows_for(new_world, per_family, per_family, 37);
  ml::Dataset new_test = flows_for(new_world, per_family / 2,
                                   per_family / 2, 41);

  ml::ForestParams params;
  params.balanced_bootstrap = true;

  // Frozen: trained before the drift, applied after.
  ml::Normalizer old_norm = ml::Normalizer::fit(old_train.rows);
  ml::Dataset old_scaled = old_train;
  old_norm.transform_in_place(old_scaled.rows);
  auto frozen = ml::RandomForest::train(old_scaled, params, 43);

  // Updated: the sliding window now contains the drifted ecosystem.
  ml::Normalizer new_norm = ml::Normalizer::fit(new_train.rows);
  ml::Dataset new_scaled = new_train;
  new_norm.transform_in_place(new_scaled.rows);
  auto updated = ml::RandomForest::train(new_scaled, params, 47);

  const double frozen_recall = recall_of(frozen, old_norm, new_test);
  const double updated_recall = recall_of(updated, new_norm, new_test);

  std::printf("\n  drift: 70%% of IoT scanning shifts to a new variant with "
              "a changed stack fingerprint and ports 9530/5500/60001\n\n");
  row("frozen model IoT recall (post-drift)",
      fmt("%.1f%%", 100 * frozen_recall), "-");
  row("retrained model IoT recall", fmt("%.1f%%", 100 * updated_recall),
      "-");
  row("recall recovered by daily retraining",
      fmt("%+.1f points", 100 * (updated_recall - frozen_recall)),
      "motivates the 14-day window / 24 h retrain");
  return 0;
}
