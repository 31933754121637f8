// Model persistence: the paper stores every daily trained model, stamped
// with its training time, in a directory "to make the results easily
// reproducible". This serializes a selected random forest (trees, split
// nodes, hyper-parameters) together with its normalizer to JSON, and
// manages the timestamped model directory.
#pragma once

#include <filesystem>
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

/// The model directory: one "model-<trained_at_us>.json" file per daily
/// model, exactly the reproducibility mechanism the paper describes.
class ModelDirectory {
 public:
  explicit ModelDirectory(std::filesystem::path dir);

  /// Persists a model; returns the file path written.
  Result<std::filesystem::path> save(const PersistedModel& model) const;

  /// Loads one model file.
  Result<PersistedModel> load(const std::filesystem::path& file) const;

  /// Lists persisted model files, ascending by training time.
  std::vector<std::filesystem::path> list() const;

  /// Loads the newest model trained at or before `t` (the model that was
  /// in production at that time), if any.
  Result<PersistedModel> load_at(TimeMicros t) const;

 private:
  std::filesystem::path dir_;
};

}  // namespace exiot::ml
