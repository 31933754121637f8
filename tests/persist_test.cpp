// Tests for model persistence: JSON round trips of normalizer and forest.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/metrics.h"
#include "ml/persist.h"

namespace exiot::ml {
namespace {

Dataset gaussian_problem(int n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  for (int i = 0; i < n; ++i) {
    const int label = rng.bernoulli(0.5) ? 1 : 0;
    FeatureVector row(6);
    for (auto& x : row) x = rng.normal(label * 2.0, 1.0);
    data.add(std::move(row), label);
  }
  return data;
}

TEST(PersistTest, NormalizerRoundTrip) {
  auto data = gaussian_problem(100, 1);
  Normalizer original = Normalizer::fit(data.rows);
  auto loaded = normalizer_from_json(normalizer_to_json(original));
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  for (const auto& row : data.rows) {
    EXPECT_EQ(loaded.value().transform(row), original.transform(row));
  }
}

TEST(PersistTest, ForestRoundTripPredictsIdentically) {
  auto data = gaussian_problem(300, 2);
  ForestParams params;
  params.num_trees = 25;
  RandomForest original = RandomForest::train(data, params, 3);
  auto loaded = forest_from_json(forest_to_json(original));
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  auto probe = gaussian_problem(100, 4);
  for (const auto& row : probe.rows) {
    EXPECT_DOUBLE_EQ(loaded.value().predict_score(row),
                     original.predict_score(row));
  }
  EXPECT_EQ(loaded.value().trees().size(), original.trees().size());
}

TEST(PersistTest, ModelBundleCarriesMetadata) {
  auto data = gaussian_problem(200, 5);
  PersistedModel model;
  model.normalizer = Normalizer::fit(data.rows);
  model.forest = RandomForest::train(data, {}, 6);
  model.trained_at = 3 * kMicrosPerDay + hours(4);
  model.test_auc = 0.97;
  model.training_examples = 200;
  auto loaded = model_from_json(model_to_json(model));
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded.value().trained_at, model.trained_at);
  EXPECT_DOUBLE_EQ(loaded.value().test_auc, 0.97);
  EXPECT_EQ(loaded.value().training_examples, 200u);
}

TEST(PersistTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(model_from_json(json::Value()).ok());
  json::Value wrong_format;
  wrong_format["format"] = "something-else";
  EXPECT_FALSE(model_from_json(wrong_format).ok());
  // A forest with an out-of-range child index must be rejected.
  json::Value bad;
  bad["format"] = "exiot-model-v1";
  bad["normalizer"] = normalizer_to_json(Normalizer::fit({{1.0}, {2.0}}));
  json::Value tree;
  tree["depth"] = 1;
  tree["feature"] = json::Array{json::Value(0)};
  tree["threshold"] = json::Array{json::Value(0.5)};
  tree["left"] = json::Array{json::Value(99)};  // Out of range.
  tree["right"] = json::Array{json::Value(0)};
  tree["score"] = json::Array{json::Value(0.5)};
  json::Value forest;
  forest["trees"] = json::Array{tree};
  bad["forest"] = forest;
  EXPECT_FALSE(model_from_json(bad).ok());
}

}  // namespace
}  // namespace exiot::ml
