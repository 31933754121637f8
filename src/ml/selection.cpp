#include "ml/selection.h"

#include <algorithm>

#include "common/rng.h"

namespace exiot::ml {

Split stratified_split(const std::vector<int>& labels, double train_fraction,
                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> pos, neg;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    (labels[i] == 1 ? pos : neg).push_back(i);
  }
  rng.shuffle(pos);
  rng.shuffle(neg);
  Split split;
  auto take = [&](std::vector<std::size_t>& from) {
    const auto n_train = static_cast<std::size_t>(
        train_fraction * static_cast<double>(from.size()));
    for (std::size_t i = 0; i < from.size(); ++i) {
      (i < n_train ? split.train : split.test).push_back(from[i]);
    }
  };
  take(pos);
  take(neg);
  return split;
}

Dataset subset(const Dataset& data, const std::vector<std::size_t>& indices) {
  Dataset out;
  out.rows.reserve(indices.size());
  out.labels.reserve(indices.size());
  for (std::size_t i : indices) {
    out.add(data.rows[i], data.labels[i]);
  }
  return out;
}

SelectedModel select_random_forest(const Dataset& data,
                                   const SelectionConfig& config,
                                   TimeMicros trained_at) {
  Rng rng(config.seed);
  Split split = stratified_split(data.labels, config.train_fraction,
                                 rng.next_u64());
  Dataset train = subset(data, split.train);
  Dataset test = subset(data, split.test);

  std::vector<double> test_scores;
  SelectedModel best;
  best.trained_at = trained_at;
  best.test_auc = -1.0;

  for (int iter = 0; iter < config.search_iterations; ++iter) {
    ForestParams params;
    params.num_trees = static_cast<int>(rng.uniform_int(40, 160));
    params.tree.max_depth = static_cast<int>(rng.uniform_int(6, 18));
    params.tree.min_samples_leaf = static_cast<int>(rng.uniform_int(1, 4));
    params.tree.min_samples_split =
        2 * params.tree.min_samples_leaf +
        static_cast<int>(rng.uniform_int(0, 4));
    params.tree.max_features =
        rng.bernoulli(0.5) ? -1 : static_cast<int>(rng.uniform_int(8, 40));
    params.subsample = rng.uniform(0.6, 1.0);
    params.balanced_bootstrap = config.balanced_bootstrap;

    RandomForest model = RandomForest::train(train, params, rng.next_u64());
    std::vector<double> scores = model.predict_scores(test.rows);
    const double auc = roc_auc(test.labels, scores);
    if (auc > best.test_auc) {
      best.model = std::move(model);
      best.params = params;
      best.test_auc = auc;
      best.test_confusion = confusion_at(test.labels, scores);
    }
  }
  return best;
}

}  // namespace exiot::ml
