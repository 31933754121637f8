#include "pipeline/update_classifier.h"

namespace exiot::pipeline {

UpdateClassifier::UpdateClassifier(TrainerConfig config,
                                   obs::MetricsRegistry* metrics)
    : config_(config) {
  obs::MetricsRegistry& reg =
      metrics != nullptr ? *metrics : obs::scratch_registry();
  examples_c_ = &reg.counter("exiot_trainer_labeled_examples_total",
                             "Banner-labeled examples fed to the trainer.");
  trained_c_ = &reg.counter("exiot_trainer_models_trained_total",
                            "Daily retrains that deployed a model.");
  window_g_ = &reg.gauge("exiot_trainer_window_examples",
                         "Examples currently inside the 14-day window.");
  retrain_duration_h_ = &reg.histogram(
      "exiot_trainer_retrain_duration_seconds",
      "Wall-clock cost of one retrain (normalizer fit + forest search).",
      obs::latency_buckets());
}

void UpdateClassifier::add_example(TimeMicros ts, ml::FeatureVector features,
                                   int label) {
  examples_.push_back({ts, std::move(features), label});
  examples_c_->inc();
  window_g_->set(static_cast<double>(examples_.size()));
}

void UpdateClassifier::prune(TimeMicros now) {
  // Publication times are only approximately ordered (batch completion
  // times interleave), so prune by value rather than popping a sorted
  // front.
  const TimeMicros cutoff = now - config_.window;
  std::erase_if(examples_,
                [cutoff](const Example& ex) { return ex.ts < cutoff; });
}

std::optional<std::size_t> UpdateClassifier::maybe_retrain(TimeMicros now) {
  if (!models_.empty() && now - last_train_ < config_.retrain_interval) {
    return std::nullopt;
  }
  return retrain(now);
}

std::optional<std::size_t> UpdateClassifier::retrain(TimeMicros now) {
  prune(now);
  window_g_->set(static_cast<double>(examples_.size()));
  std::size_t pos = 0, neg = 0;
  for (const auto& ex : examples_) {
    (ex.label == 1 ? pos : neg)++;
  }
  if (pos < config_.min_examples_per_class ||
      neg < config_.min_examples_per_class) {
    return std::nullopt;
  }
  obs::ScopedTimer retrain_timer(*retrain_duration_h_);

  std::vector<ml::FeatureVector> raw;
  raw.reserve(examples_.size());
  for (const auto& ex : examples_) raw.push_back(ex.features);
  ml::Normalizer normalizer = ml::Normalizer::fit(raw);

  ml::Dataset data;
  data.rows.reserve(examples_.size());
  for (std::size_t i = 0; i < examples_.size(); ++i) {
    data.add(normalizer.transform(raw[i]), examples_[i].label);
  }

  ml::SelectionConfig selection = config_.selection;
  // Derive the search seed from the training time so daily models differ
  // deterministically.
  selection.seed ^= static_cast<std::uint64_t>(now / kMicrosPerSecond);
  DeployedModel deployed;
  deployed.normalizer = std::move(normalizer);
  deployed.selected = ml::select_random_forest(data, selection, now);
  deployed.trained_at = now;
  deployed.training_examples = examples_.size();
  models_.push_back(std::move(deployed));
  last_train_ = now;
  trained_c_->inc();
  return models_.size() - 1;
}

json::Value UpdateClassifier::snapshot_state() const {
  json::Value out;
  json::Array examples;
  examples.reserve(examples_.size());
  for (const auto& ex : examples_) {
    json::Value doc;
    doc["ts"] = ex.ts;
    json::Array features;
    features.reserve(ex.features.size());
    for (double f : ex.features) features.emplace_back(f);
    doc["features"] = std::move(features);
    doc["label"] = ex.label;
    examples.push_back(std::move(doc));
  }
  out["examples"] = std::move(examples);

  json::Array models;
  models.reserve(models_.size());
  for (const auto& m : models_) {
    ml::PersistedModel persisted;
    persisted.forest = m.selected.model;
    persisted.normalizer = m.normalizer;
    persisted.trained_at = m.trained_at;
    persisted.test_auc = m.selected.test_auc;
    persisted.training_examples = m.training_examples;
    json::Value doc = ml::model_to_json(persisted);
    json::Value params;
    params["num_trees"] = m.selected.params.num_trees;
    params["max_depth"] = m.selected.params.tree.max_depth;
    params["min_samples_split"] = m.selected.params.tree.min_samples_split;
    params["min_samples_leaf"] = m.selected.params.tree.min_samples_leaf;
    params["max_features"] = m.selected.params.tree.max_features;
    params["subsample"] = m.selected.params.subsample;
    params["balanced_bootstrap"] = m.selected.params.balanced_bootstrap;
    doc["params"] = std::move(params);
    json::Value confusion;
    confusion["tp"] = m.selected.test_confusion.tp;
    confusion["fp"] = m.selected.test_confusion.fp;
    confusion["tn"] = m.selected.test_confusion.tn;
    confusion["fn"] = m.selected.test_confusion.fn;
    doc["confusion"] = std::move(confusion);
    models.push_back(std::move(doc));
  }
  out["models"] = std::move(models);
  // The sentinel (TimeMicros::min before any train) is represented by
  // omission: a raw INT64_MIN would fall through the JSON parser's int
  // path into a double and come back off by one.
  if (last_train_ != std::numeric_limits<TimeMicros>::min()) {
    out["last_train"] = last_train_;
  }
  return out;
}

Status UpdateClassifier::restore_state(const json::Value& state) {
  if (!examples_.empty() || !models_.empty()) {
    return make_error("trainer_not_empty",
                      "restore_state requires a fresh UpdateClassifier");
  }
  const json::Value* examples = state.find("examples");
  const json::Value* models = state.find("models");
  if (examples == nullptr || !examples->is_array() || models == nullptr ||
      !models->is_array()) {
    return make_error("trainer_snapshot",
                      "malformed UpdateClassifier snapshot");
  }
  for (const json::Value& doc : examples->as_array()) {
    const json::Value* features = doc.find("features");
    if (features == nullptr || !features->is_array()) {
      return make_error("trainer_snapshot", "example without features");
    }
    Example ex;
    ex.ts = doc.get_int("ts");
    ex.label = static_cast<int>(doc.get_int("label"));
    ex.features.reserve(features->as_array().size());
    for (const json::Value& f : features->as_array()) {
      ex.features.push_back(f.as_double());
    }
    examples_.push_back(std::move(ex));
  }
  for (const json::Value& doc : models->as_array()) {
    auto persisted = ml::model_from_json(doc);
    if (!persisted.ok()) return persisted.error();
    DeployedModel m;
    m.normalizer = std::move(persisted.value().normalizer);
    m.selected.model = std::move(persisted.value().forest);
    m.selected.test_auc = persisted.value().test_auc;
    m.selected.trained_at = persisted.value().trained_at;
    m.trained_at = persisted.value().trained_at;
    m.training_examples = persisted.value().training_examples;
    if (const json::Value* params = doc.find("params")) {
      m.selected.params.num_trees =
          static_cast<int>(params->get_int("num_trees"));
      m.selected.params.tree.max_depth =
          static_cast<int>(params->get_int("max_depth"));
      m.selected.params.tree.min_samples_split =
          static_cast<int>(params->get_int("min_samples_split"));
      m.selected.params.tree.min_samples_leaf =
          static_cast<int>(params->get_int("min_samples_leaf"));
      m.selected.params.tree.max_features =
          static_cast<int>(params->get_int("max_features"));
      m.selected.params.subsample = params->get_double("subsample");
      m.selected.params.balanced_bootstrap =
          params->get_bool("balanced_bootstrap");
    }
    if (const json::Value* confusion = doc.find("confusion")) {
      m.selected.test_confusion.tp =
          static_cast<int>(confusion->get_int("tp"));
      m.selected.test_confusion.fp =
          static_cast<int>(confusion->get_int("fp"));
      m.selected.test_confusion.tn =
          static_cast<int>(confusion->get_int("tn"));
      m.selected.test_confusion.fn =
          static_cast<int>(confusion->get_int("fn"));
    }
    models_.push_back(std::move(m));
  }
  last_train_ = state.find("last_train") != nullptr
                    ? state.get_int("last_train")
                    : std::numeric_limits<TimeMicros>::min();
  window_g_->set(static_cast<double>(examples_.size()));
  return Ok{};
}

const DeployedModel* UpdateClassifier::model_at(TimeMicros t) const {
  const DeployedModel* best = nullptr;
  for (const auto& m : models_) {
    if (m.trained_at <= t &&
        (best == nullptr || m.trained_at > best->trained_at)) {
      best = &m;
    }
  }
  return best;
}

const DeployedModel* UpdateClassifier::latest() const {
  return models_.empty() ? nullptr : &models_.back();
}

}  // namespace exiot::pipeline
