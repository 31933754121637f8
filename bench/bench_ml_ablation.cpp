// §III model choice — the paper's preliminary comparison of Random Forest
// vs SVM vs Gaussian Naive Bayes over the flow features ("results based on
// ROC-AUC and F1 score motivated us to leverage the Random Forest model").
// Trains all three on identical banner-style labeled flow features and
// reports both metrics.
#include "bench_common.h"
#include "ml/features.h"
#include "ml/forest.h"
#include "ml/gnb.h"
#include "ml/metrics.h"
#include "ml/selection.h"
#include "ml/svm.h"

int main() {
  using namespace exiot;
  using namespace exiot::benchx;

  const double scale = env_double("EXIOT_SCALE", 0.3);
  heading("Model ablation: Random Forest vs SVM vs Gaussian NB (§III; "
          "scale " + fmt("%.2f", scale) + ")");

  // Labeled flow features straight from the synthesizer (the Update
  // Classifier's input distribution).
  Sim sim = make_sim(scale, 1);
  ml::Dataset data;
  Rng rng(17);
  for (const auto& host : sim.population.hosts()) {
    const inet::ScanBehavior* behavior = sim.population.behavior_of(host);
    if (behavior == nullptr) continue;
    inet::PacketSynthesizer synth(*behavior, host.addr, aperture(),
                                  host.seed);
    std::vector<net::Packet> pkts;
    TimeMicros ts = 0;
    for (int i = 0; i < 200; ++i) {
      ts += static_cast<TimeMicros>(
          rng.exponential(host.sessions[0].rate) * kMicrosPerSecond);
      synth.make_probe_into(ts, pkts.emplace_back());
    }
    data.add(ml::flow_features(pkts), behavior->iot ? 1 : 0);
  }

  ml::Normalizer norm = ml::Normalizer::fit(data.rows);
  norm.transform_in_place(data.rows);
  auto split = ml::stratified_split(data.labels, 0.2, 3);
  ml::Dataset train = ml::subset(data, split.train);
  ml::Dataset test = ml::subset(data, split.test);
  std::printf("\n  %zu labeled flows (train %zu / test %zu, the paper's "
              "20/80 split)\n\n",
              data.size(), train.size(), test.size());

  auto report = [&](const char* name, const ml::Classifier& model) {
    auto scores = model.predict_scores(test.rows);
    const double auc = ml::roc_auc(test.labels, scores);
    const auto confusion = ml::confusion_at(test.labels, scores);
    std::printf("  %-22s ROC-AUC=%.4f  F1=%.4f  (P=%.3f R=%.3f)\n", name,
                auc, confusion.f1(), confusion.precision(),
                confusion.recall());
    return auc;
  };

  ml::ForestParams forest_params;
  forest_params.balanced_bootstrap = true;
  auto forest = ml::RandomForest::train(train, forest_params, 5);
  auto svm = ml::LinearSvm::train(train, ml::SvmParams{}, 6);
  auto gnb = ml::GaussianNb::train(train);

  const double rf_auc = report("Random Forest", forest);
  const double svm_auc = report("Linear SVM (Pegasos)", svm);
  const double gnb_auc = report("Gaussian Naive Bayes", gnb);

  std::printf("\n");
  row("winner", rf_auc >= svm_auc && rf_auc >= gnb_auc
                    ? "Random Forest"
                    : "NOT Random Forest (investigate)",
      "Random Forest (basis for the deployment)");
  return 0;
}
