#include "ml/persist.h"

namespace exiot::ml {
namespace {

json::Array doubles_to_json(const std::vector<double>& values) {
  json::Array out;
  out.reserve(values.size());
  for (double v : values) out.emplace_back(v);
  return out;
}

Result<std::vector<double>> doubles_from_json(const json::Value* array) {
  if (array == nullptr || !array->is_array()) {
    return make_error("ml_persist", "expected array of doubles");
  }
  std::vector<double> out;
  out.reserve(array->as_array().size());
  for (const auto& v : array->as_array()) {
    if (!v.is_number()) return make_error("ml_persist", "non-numeric entry");
    out.push_back(v.as_double());
  }
  return out;
}

}  // namespace

json::Value normalizer_to_json(const Normalizer& normalizer) {
  json::Value doc;
  doc["min"] = doubles_to_json(normalizer.min());
  doc["inv_range"] = doubles_to_json(normalizer.inv_range());
  doc["mean"] = doubles_to_json(normalizer.mean());
  return doc;
}

Result<Normalizer> normalizer_from_json(const json::Value& doc) {
  auto min = doubles_from_json(doc.find("min"));
  if (!min.ok()) return min.error();
  auto inv_range = doubles_from_json(doc.find("inv_range"));
  if (!inv_range.ok()) return inv_range.error();
  auto mean = doubles_from_json(doc.find("mean"));
  if (!mean.ok()) return mean.error();
  if (min.value().size() != inv_range.value().size() ||
      min.value().size() != mean.value().size()) {
    return make_error("ml_persist", "normalizer vector width mismatch");
  }
  return Normalizer::from_raw(std::move(min).take(),
                              std::move(inv_range).take(),
                              std::move(mean).take());
}

json::Value forest_to_json(const RandomForest& forest) {
  json::Array trees;
  trees.reserve(forest.trees().size());
  for (const auto& tree : forest.trees()) {
    json::Value tree_doc;
    tree_doc["depth"] = tree.depth();
    // Compact column-wise node encoding keeps model files small.
    json::Array feature, threshold, left, right, score;
    for (const auto& node : tree.nodes()) {
      feature.emplace_back(node.feature);
      threshold.emplace_back(node.threshold);
      left.emplace_back(node.left);
      right.emplace_back(node.right);
      score.emplace_back(node.score);
    }
    tree_doc["feature"] = std::move(feature);
    tree_doc["threshold"] = std::move(threshold);
    tree_doc["left"] = std::move(left);
    tree_doc["right"] = std::move(right);
    tree_doc["score"] = std::move(score);
    trees.push_back(std::move(tree_doc));
  }
  json::Value doc;
  doc["trees"] = std::move(trees);
  return doc;
}

Result<RandomForest> forest_from_json(const json::Value& doc) {
  const json::Value* trees = doc.find("trees");
  if (trees == nullptr || !trees->is_array()) {
    return make_error("ml_persist", "missing trees array");
  }
  std::vector<DecisionTree> rebuilt;
  rebuilt.reserve(trees->as_array().size());
  for (const auto& tree_doc : trees->as_array()) {
    const json::Value* feature = tree_doc.find("feature");
    const json::Value* threshold = tree_doc.find("threshold");
    const json::Value* left = tree_doc.find("left");
    const json::Value* right = tree_doc.find("right");
    const json::Value* score = tree_doc.find("score");
    for (const json::Value* column : {feature, threshold, left, right,
                                      score}) {
      if (column == nullptr || !column->is_array()) {
        return make_error("ml_persist", "malformed tree columns");
      }
    }
    const std::size_t n = feature->as_array().size();
    if (threshold->as_array().size() != n ||
        left->as_array().size() != n || right->as_array().size() != n ||
        score->as_array().size() != n || n == 0) {
      return make_error("ml_persist", "tree column length mismatch");
    }
    std::vector<DecisionTree::Node> nodes(n);
    for (std::size_t i = 0; i < n; ++i) {
      nodes[i].feature = static_cast<int>(feature->as_array()[i].as_int());
      nodes[i].threshold = threshold->as_array()[i].as_double();
      nodes[i].left = static_cast<int>(left->as_array()[i].as_int());
      nodes[i].right = static_cast<int>(right->as_array()[i].as_int());
      nodes[i].score = score->as_array()[i].as_double();
      // Bounds-check child links so a corrupt file cannot walk wild.
      if (nodes[i].feature >= 0 &&
          (nodes[i].left < 0 || nodes[i].right < 0 ||
           nodes[i].left >= static_cast<int>(n) ||
           nodes[i].right >= static_cast<int>(n))) {
        return make_error("ml_persist", "tree child index out of range");
      }
    }
    rebuilt.push_back(DecisionTree::from_nodes(
        std::move(nodes), static_cast<int>(tree_doc.get_int("depth"))));
  }
  return RandomForest::from_trees(std::move(rebuilt));
}

json::Value model_to_json(const PersistedModel& model) {
  json::Value doc;
  doc["format"] = "exiot-model-v1";
  doc["trained_at"] = model.trained_at;
  doc["test_auc"] = model.test_auc;
  doc["training_examples"] =
      static_cast<std::int64_t>(model.training_examples);
  doc["normalizer"] = normalizer_to_json(model.normalizer);
  doc["forest"] = forest_to_json(model.forest);
  return doc;
}

Result<PersistedModel> model_from_json(const json::Value& doc) {
  if (doc.get_string("format") != "exiot-model-v1") {
    return make_error("ml_persist", "unknown model format");
  }
  const json::Value* normalizer_doc = doc.find("normalizer");
  const json::Value* forest_doc = doc.find("forest");
  if (normalizer_doc == nullptr || forest_doc == nullptr) {
    return make_error("ml_persist", "missing normalizer or forest");
  }
  auto normalizer = normalizer_from_json(*normalizer_doc);
  if (!normalizer.ok()) return normalizer.error();
  auto forest = forest_from_json(*forest_doc);
  if (!forest.ok()) return forest.error();
  PersistedModel model;
  model.normalizer = std::move(normalizer).take();
  model.forest = std::move(forest).take();
  model.trained_at = doc.get_int("trained_at");
  model.test_auc = doc.get_double("test_auc");
  model.training_examples =
      static_cast<std::size_t>(doc.get_int("training_examples"));
  return model;
}

}  // namespace exiot::ml
