// Model selection, mirroring the paper's Update Classifier module: split
// the labeled window into train (20%) / test (80%), search random-forest
// hyper-parameters, and keep the model maximizing ROC-AUC. Every selected
// model is stamped with its (virtual) training time so results are
// reproducible, as the paper stores daily models in a directory.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "ml/dataset.h"
#include "ml/forest.h"
#include "ml/metrics.h"

namespace exiot::ml {

/// Index split of a dataset.
struct Split {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

/// Stratified random split preserving the class ratio in both halves.
/// `train_fraction` defaults to the paper's (unusual, but stated) 20%.
Split stratified_split(const std::vector<int>& labels, double train_fraction,
                       std::uint64_t seed);

/// Materializes dataset subsets by index.
Dataset subset(const Dataset& data, const std::vector<std::size_t>& indices);

struct SelectionConfig {
  double train_fraction = 0.2;
  int search_iterations = 12;  // The paper runs 1000; scale to taste.
  /// Train with balanced per-class bootstraps (see ForestParams).
  bool balanced_bootstrap = false;
  std::uint64_t seed = 1;
};

/// Outcome of one selection run.
struct SelectedModel {
  RandomForest model;
  ForestParams params;
  double test_auc = 0.0;
  Confusion test_confusion;
  TimeMicros trained_at = 0;
};

/// Searches ForestParams (trees, depth, leaf sizes, feature counts) and
/// returns the ROC-AUC-best model on the held-out test split.
SelectedModel select_random_forest(const Dataset& data,
                                   const SelectionConfig& config,
                                   TimeMicros trained_at);

}  // namespace exiot::ml
