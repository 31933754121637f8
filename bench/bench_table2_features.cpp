// Table II — the fields extracted from incoming packets and the resulting
// 24 x 5 = 120-dimensional flow feature vector of the Annotate module.
// Verifies the layout and reports per-field summaries over a real sampled
// flow, plus which fields the production forest actually splits on.
#include "bench_common.h"
#include "ml/features.h"
#include "ml/forest.h"

int main() {
  using namespace exiot;
  using namespace exiot::benchx;

  heading("Table II: extracted packet fields -> 120-dim flow features");
  std::printf("  %d fields x %d quantiles (min, Q1, median, Q3, max) = %d "
              "features (paper: 24 x 5 = 120)\n\n",
              ml::kNumFields, ml::kNumQuantiles, ml::kNumFeatures);

  // A genuine Mirai flow sample from the synthesizer.
  auto roster = inet::BehaviorRoster::standard();
  inet::PacketSynthesizer synth(roster.iot_families[0], Ipv4(1, 2, 3, 4),
                                aperture(), 7);
  std::vector<net::Packet> sample;
  Rng rng(9);
  TimeMicros ts = 0;
  for (int i = 0; i < 200; ++i) {
    ts += static_cast<TimeMicros>(rng.exponential(0.5) * kMicrosPerSecond);
    synth.make_probe_into(ts, sample.emplace_back());
  }
  auto features = ml::flow_features(sample);

  std::printf("  %-18s %12s %12s %12s %12s %12s\n", "field", "min", "Q1",
              "median", "Q3", "max");
  for (int f = 0; f < ml::kNumFields; ++f) {
    std::printf("  %-18s", ml::field_names()[f].c_str());
    for (int q = 0; q < ml::kNumQuantiles; ++q) {
      std::printf(" %12.2f", features[f * ml::kNumQuantiles + q]);
    }
    std::printf("\n");
  }

  // Which fields carry signal: split counts of a forest trained on a small
  // synthetic IoT / non-IoT feature set.
  Sim sim = make_sim(env_double("EXIOT_SCALE", 0.15), 1);
  ml::Dataset data;
  for (const auto& host : sim.population.hosts()) {
    const inet::ScanBehavior* behavior = sim.population.behavior_of(host);
    if (behavior == nullptr) continue;
    inet::PacketSynthesizer hsynth(*behavior, host.addr, aperture(),
                                   host.seed);
    std::vector<net::Packet> pkts;
    TimeMicros t = 0;
    for (int i = 0; i < 200; ++i) {
      t += static_cast<TimeMicros>(
          rng.exponential(host.sessions[0].rate) * kMicrosPerSecond);
      hsynth.make_probe_into(t, pkts.emplace_back());
    }
    data.add(ml::flow_features(pkts), behavior->iot ? 1 : 0);
  }
  ml::Normalizer norm = ml::Normalizer::fit(data.rows);
  norm.transform_in_place(data.rows);
  ml::ForestParams params;
  params.num_trees = 40;
  auto forest = ml::RandomForest::train(data, params, 11);
  auto counts = forest.split_feature_counts(ml::kNumFeatures);

  std::vector<std::pair<int, int>> ranked;
  for (int i = 0; i < ml::kNumFeatures; ++i) ranked.push_back({counts[i], i});
  std::sort(ranked.rbegin(), ranked.rend());
  static const char* kQuantileNames[] = {"min", "Q1", "median", "Q3", "max"};
  std::printf("\n  most-split features in a forest trained on %zu flows:\n",
              data.size());
  for (int i = 0; i < 8; ++i) {
    const int feature = ranked[i].second;
    std::printf("    %-18s[%s]  %d splits\n",
                ml::field_names()[feature / ml::kNumQuantiles].c_str(),
                kQuantileNames[feature % ml::kNumQuantiles],
                ranked[i].first);
  }
  return 0;
}
