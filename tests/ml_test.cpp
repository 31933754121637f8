// Tests for the ml module: Table II feature extraction, normalization,
// metrics, and the three classifiers with model selection.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ml/features.h"
#include "ml/forest.h"
#include "ml/gnb.h"
#include "ml/metrics.h"
#include "ml/selection.h"
#include "ml/svm.h"

namespace exiot::ml {
namespace {

// ------------------------------------------------------------ Features ----

net::Packet syn_at(TimeMicros ts, std::uint16_t port = 23) {
  net::Packet p = net::make_syn(ts, Ipv4(1, 2, 3, 4), Ipv4(44, 0, 0, 1),
                                40000, port);
  p.ttl = 55;
  return p;
}

TEST(FeaturesTest, DimensionsMatchPaper) {
  EXPECT_EQ(kNumFields, 24);
  EXPECT_EQ(kNumFeatures, 120);
  EXPECT_EQ(field_names().size(), 24u);
  auto fv = flow_features({syn_at(0), syn_at(1000)});
  EXPECT_EQ(fv.size(), 120u);
}

TEST(FeaturesTest, InterArrivalComputed) {
  // Packets 2 s apart: inter-arrival column (field 5) has min 0 (first
  // packet) and max 2.0 s.
  auto fv = flow_features({syn_at(0), syn_at(seconds(2)),
                           syn_at(seconds(4))});
  const int base = 5 * kNumQuantiles;
  EXPECT_DOUBLE_EQ(fv[base + 0], 0.0);  // min (first packet's IAT).
  EXPECT_DOUBLE_EQ(fv[base + 4], 2.0);  // max.
}

TEST(FeaturesTest, QuantilesAreOrdered) {
  Rng rng(3);
  std::vector<net::Packet> pkts;
  for (int i = 0; i < 200; ++i) {
    auto p = syn_at(i * 10000,
                    static_cast<std::uint16_t>(rng.uniform_int(1, 65535)));
    p.window = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    pkts.push_back(p);
  }
  auto fv = flow_features(pkts);
  for (int f = 0; f < kNumFields; ++f) {
    for (int q = 1; q < kNumQuantiles; ++q) {
      EXPECT_LE(fv[f * kNumQuantiles + q - 1], fv[f * kNumQuantiles + q])
          << field_names()[f] << " q" << q;
    }
  }
}

TEST(FeaturesTest, MiraiSeqSignatureCollapsesToZero) {
  std::vector<net::Packet> pkts;
  for (int i = 0; i < 10; ++i) {
    auto p = syn_at(i * 1000);
    p.seq = p.dst.value();  // Mirai signature.
    pkts.push_back(p);
  }
  auto fv = flow_features(pkts);
  const int seq_base = 12 * kNumQuantiles;
  EXPECT_DOUBLE_EQ(fv[seq_base + 4], 0.0);  // Max of seq field is 0.
}

TEST(FeaturesTest, OptionPresenceIsBinary) {
  auto with_ts = syn_at(0);
  with_ts.opts.timestamp = true;
  auto fv = flow_features({with_ts});
  const int ts_base = 20 * kNumQuantiles;
  EXPECT_DOUBLE_EQ(fv[ts_base], 1.0);
  auto fv2 = flow_features({syn_at(0)});
  EXPECT_DOUBLE_EQ(fv2[ts_base], 0.0);
}

TEST(NormalizerTest, MapsTrainingRangeToUnitInterval) {
  std::vector<FeatureVector> rows = {{0.0, 10.0}, {5.0, 20.0},
                                     {10.0, 30.0}};
  auto norm = Normalizer::fit(rows);
  auto t = norm.transform({10.0, 30.0});
  // Max maps to 1 - mean; mean of scaled col 0 is 0.5.
  EXPECT_NEAR(t[0], 1.0 - 0.5, 1e-12);
  auto lo = norm.transform({0.0, 10.0});
  EXPECT_NEAR(lo[0], -0.5, 1e-12);
}

TEST(NormalizerTest, ConstantFeatureMapsToZero) {
  std::vector<FeatureVector> rows = {{7.0, 1.0}, {7.0, 2.0}};
  auto norm = Normalizer::fit(rows);
  EXPECT_DOUBLE_EQ(norm.transform({7.0, 1.5})[0], 0.0);
  EXPECT_DOUBLE_EQ(norm.transform({100.0, 1.5})[0], 0.0);
}

TEST(NormalizerTest, TransformedTrainingSetIsZeroMean) {
  Rng rng(5);
  std::vector<FeatureVector> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back({rng.uniform(-3, 9), rng.normal(100, 20)});
  }
  auto norm = Normalizer::fit(rows);
  double sum0 = 0, sum1 = 0;
  for (const auto& r : rows) {
    auto t = norm.transform(r);
    sum0 += t[0];
    sum1 += t[1];
  }
  EXPECT_NEAR(sum0 / 100, 0.0, 1e-9);
  EXPECT_NEAR(sum1 / 100, 0.0, 1e-9);
}

// ------------------------------------------------------------- Metrics ----

TEST(MetricsTest, ConfusionCounts) {
  Confusion c = confusion_at({1, 1, 0, 0, 1}, {0.9, 0.2, 0.8, 0.1, 0.6});
  EXPECT_EQ(c.tp, 2);
  EXPECT_EQ(c.fn, 1);
  EXPECT_EQ(c.fp, 1);
  EXPECT_EQ(c.tn, 1);
  EXPECT_NEAR(c.precision(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(c.recall(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(c.f1(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(c.accuracy(), 3.0 / 5.0, 1e-12);
}

TEST(MetricsTest, EmptyConfusionIsZero) {
  Confusion c;
  EXPECT_DOUBLE_EQ(c.precision(), 0.0);
  EXPECT_DOUBLE_EQ(c.recall(), 0.0);
  EXPECT_DOUBLE_EQ(c.f1(), 0.0);
}

TEST(MetricsTest, PerfectRankingHasAucOne) {
  EXPECT_DOUBLE_EQ(roc_auc({0, 0, 1, 1}, {0.1, 0.2, 0.8, 0.9}), 1.0);
}

TEST(MetricsTest, InvertedRankingHasAucZero) {
  EXPECT_DOUBLE_EQ(roc_auc({1, 1, 0, 0}, {0.1, 0.2, 0.8, 0.9}), 0.0);
}

TEST(MetricsTest, TiesGiveHalfCredit) {
  EXPECT_DOUBLE_EQ(roc_auc({0, 1}, {0.5, 0.5}), 0.5);
}

TEST(MetricsTest, SingleClassReturnsHalf) {
  EXPECT_DOUBLE_EQ(roc_auc({1, 1}, {0.3, 0.6}), 0.5);
}

TEST(MetricsTest, AucMatchesHandComputedExample) {
  // Labels/scores with one inversion among 2x2 pairs: AUC = 3/4.
  EXPECT_DOUBLE_EQ(roc_auc({0, 1, 0, 1}, {0.1, 0.4, 0.5, 0.8}), 0.75);
}

// ---------------------------------------------------------- Classifiers ----

/// Two-Gaussian synthetic problem with controllable overlap.
Dataset gaussian_problem(int n, double separation, std::uint64_t seed,
                         int width = 6) {
  Rng rng(seed);
  Dataset data;
  for (int i = 0; i < n; ++i) {
    const int label = rng.bernoulli(0.5) ? 1 : 0;
    FeatureVector row(width);
    for (auto& x : row) {
      x = rng.normal(label == 1 ? separation : 0.0, 1.0);
    }
    data.add(std::move(row), label);
  }
  return data;
}

template <typename Model>
double eval_auc(const Model& model, const Dataset& test) {
  return roc_auc(test.labels, model.predict_scores(test.rows));
}

TEST(DecisionTreeTest, FitsSeparableData) {
  auto train = gaussian_problem(400, 3.0, 1);
  auto test = gaussian_problem(200, 3.0, 2);
  Rng rng(3);
  TreeParams params;
  params.max_features = 6;
  auto tree = DecisionTree::train(train, params, rng);
  EXPECT_GT(eval_auc(tree, test), 0.95);
  EXPECT_GT(tree.node_count(), 1);
}

TEST(DecisionTreeTest, PureDataYieldsSingleLeaf) {
  Dataset data;
  for (int i = 0; i < 50; ++i) data.add({double(i)}, 1);
  Rng rng(1);
  auto tree = DecisionTree::train(data, TreeParams{}, rng);
  EXPECT_EQ(tree.node_count(), 1);
  EXPECT_DOUBLE_EQ(tree.predict_score({25.0}), 1.0);
}

TEST(DecisionTreeTest, RespectsDepthLimit) {
  auto train = gaussian_problem(500, 0.5, 4);
  Rng rng(5);
  TreeParams params;
  params.max_depth = 3;
  auto tree = DecisionTree::train(train, params, rng);
  EXPECT_LE(tree.depth(), 3);
}

TEST(RandomForestTest, BeatsSingleTreeOnNoisyData) {
  auto train = gaussian_problem(600, 1.0, 6);
  auto test = gaussian_problem(400, 1.0, 7);
  Rng rng(8);
  TreeParams tp;
  tp.max_features = 2;
  auto tree = DecisionTree::train(train, tp, rng);
  ForestParams fp;
  fp.num_trees = 60;
  fp.tree = tp;
  auto forest = RandomForest::train(train, fp, 9);
  EXPECT_GT(eval_auc(forest, test), eval_auc(tree, test));
  EXPECT_GT(eval_auc(forest, test), 0.85);
}

TEST(RandomForestTest, DeterministicForSeed) {
  auto train = gaussian_problem(200, 1.0, 10);
  ForestParams fp;
  fp.num_trees = 10;
  auto a = RandomForest::train(train, fp, 11);
  auto b = RandomForest::train(train, fp, 11);
  FeatureVector probe{0.5, 0.5, 0.5, 0.5, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(a.predict_score(probe), b.predict_score(probe));
}

TEST(RandomForestTest, ParallelTrainingIsBitIdentical) {
  // Every tree's RNG is split off the forest seed before training starts,
  // so the trained model must be bit-identical for any thread count.
  auto train = gaussian_problem(300, 1.0, 21);
  ForestParams serial;
  serial.num_trees = 16;
  serial.train_threads = 1;
  ForestParams parallel = serial;
  parallel.train_threads = 4;
  const auto a = RandomForest::train(train, serial, 22);
  const auto b = RandomForest::train(train, parallel, 22);
  ASSERT_EQ(a.trees().size(), b.trees().size());
  for (std::size_t t = 0; t < a.trees().size(); ++t) {
    const auto& ta = a.trees()[t];
    const auto& tb = b.trees()[t];
    EXPECT_EQ(ta.depth(), tb.depth()) << "tree " << t;
    ASSERT_EQ(ta.nodes().size(), tb.nodes().size()) << "tree " << t;
    for (std::size_t n = 0; n < ta.nodes().size(); ++n) {
      const auto& na = ta.nodes()[n];
      const auto& nb = tb.nodes()[n];
      EXPECT_EQ(na.feature, nb.feature) << "tree " << t << " node " << n;
      EXPECT_EQ(na.left, nb.left) << "tree " << t << " node " << n;
      EXPECT_EQ(na.right, nb.right) << "tree " << t << " node " << n;
      EXPECT_EQ(na.threshold, nb.threshold)
          << "tree " << t << " node " << n;
      EXPECT_EQ(na.score, nb.score) << "tree " << t << " node " << n;
    }
  }
}

TEST(RandomForestTest, SplitFeatureCountsCoverInformativeFeatures) {
  // Only feature 2 is informative; it must dominate the split counts.
  Rng rng(12);
  Dataset data;
  for (int i = 0; i < 500; ++i) {
    const int label = rng.bernoulli(0.5) ? 1 : 0;
    FeatureVector row(5);
    for (auto& x : row) x = rng.normal(0, 1);
    row[2] = rng.normal(label * 4.0, 1.0);
    data.add(std::move(row), label);
  }
  ForestParams fp;
  fp.num_trees = 30;
  auto forest = RandomForest::train(data, fp, 13);
  auto counts = forest.split_feature_counts(5);
  for (int f = 0; f < 5; ++f) {
    if (f != 2) {
      EXPECT_GT(counts[2], counts[f]) << f;
    }
  }
}

TEST(LinearSvmTest, LearnsLinearBoundary) {
  auto train = gaussian_problem(600, 2.0, 14);
  auto test = gaussian_problem(300, 2.0, 15);
  auto svm = LinearSvm::train(train, SvmParams{}, 16);
  EXPECT_GT(eval_auc(svm, test), 0.95);
}

TEST(LinearSvmTest, ScoreIsMonotoneInMargin) {
  auto train = gaussian_problem(200, 2.0, 17);
  auto svm = LinearSvm::train(train, SvmParams{}, 18);
  FeatureVector lo(6, -2.0), hi(6, 4.0);
  EXPECT_LT(svm.margin(lo), svm.margin(hi));
  EXPECT_LT(svm.predict_score(lo), svm.predict_score(hi));
}

TEST(GaussianNbTest, LearnsGaussianProblem) {
  auto train = gaussian_problem(600, 2.0, 19);
  auto test = gaussian_problem(300, 2.0, 20);
  auto gnb = GaussianNb::train(train);
  EXPECT_GT(eval_auc(gnb, test), 0.95);
}

TEST(GaussianNbTest, HandlesConstantFeature) {
  Rng rng(21);
  Dataset data;
  for (int i = 0; i < 100; ++i) {
    const int label = i % 2;
    data.add({1.0, rng.normal(label * 3.0, 1.0)}, label);
  }
  auto gnb = GaussianNb::train(data);
  const double score = gnb.predict_score({1.0, 3.0});
  EXPECT_TRUE(std::isfinite(score));
  EXPECT_GT(score, 0.5);
}

// ------------------------------------------------------------ Selection ----

TEST(SelectionTest, StratifiedSplitPreservesRatio) {
  std::vector<int> labels;
  for (int i = 0; i < 1000; ++i) labels.push_back(i < 200 ? 1 : 0);
  auto split = stratified_split(labels, 0.2, 1);
  EXPECT_EQ(split.train.size() + split.test.size(), labels.size());
  int train_pos = 0;
  for (auto i : split.train) train_pos += labels[i];
  EXPECT_NEAR(train_pos / double(split.train.size()), 0.2, 0.02);
  // The paper's 20/80 split: train is the smaller side.
  EXPECT_NEAR(split.train.size() / double(labels.size()), 0.2, 0.02);
}

TEST(SelectionTest, SelectsModelWithGoodAuc) {
  auto data = gaussian_problem(800, 1.5, 22);
  SelectionConfig config;
  config.search_iterations = 4;
  auto selected = select_random_forest(data, config, hours(24));
  EXPECT_GT(selected.test_auc, 0.85);
  EXPECT_EQ(selected.trained_at, hours(24));
  EXPECT_GT(selected.test_confusion.tp, 0);
}

}  // namespace
}  // namespace exiot::ml
