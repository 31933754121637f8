// Model persistence: the paper stores every daily trained model, stamped
// with its training time, "to make the results easily reproducible". This
// serializes a selected random forest (trees, split nodes,
// hyper-parameters) together with its normalizer to JSON; durability
// snapshots carry every deployed model in this form
// (UpdateClassifier::snapshot_state).
#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "json/json.h"
#include "ml/features.h"
#include "ml/forest.h"
#include "ml/selection.h"

namespace exiot::ml {

/// JSON round trip for the normalizer.
json::Value normalizer_to_json(const Normalizer& normalizer);
Result<Normalizer> normalizer_from_json(const json::Value& doc);

/// JSON round trip for a forest (all trees with their node arrays).
json::Value forest_to_json(const RandomForest& forest);
Result<RandomForest> forest_from_json(const json::Value& doc);

/// A persisted model bundle: forest + normalizer + metadata.
struct PersistedModel {
  RandomForest forest;
  Normalizer normalizer;
  TimeMicros trained_at = 0;
  double test_auc = 0.0;
  std::size_t training_examples = 0;
};

json::Value model_to_json(const PersistedModel& model);
Result<PersistedModel> model_from_json(const json::Value& doc);

}  // namespace exiot::ml
