// The Update Classifier module: accumulates banner-labeled flows, keeps a
// 14-day sliding window, and retrains the random forest every 24 hours —
// "the model is always updated based on the latest information and can
// comprehend the patterns related to emerging IoT malware". Each deployed
// model bundles the MinMax normalizer fit on its own training window.
#pragma once

#include <deque>
#include <limits>
#include <optional>
#include <vector>

#include "common/types.h"
#include "ml/features.h"
#include "ml/persist.h"
#include "ml/selection.h"
#include "obs/metrics.h"

namespace exiot::pipeline {

struct TrainerConfig {
  TimeMicros window = 14 * kMicrosPerDay;
  TimeMicros retrain_interval = kMicrosPerDay;
  /// Minimum labeled examples (per class) before the first model trains.
  std::size_t min_examples_per_class = 25;
  ml::SelectionConfig selection = [] {
    ml::SelectionConfig s;
    // Banner-labeled IoT flows are a small minority of the window; train
    // with balanced bootstraps so scores calibrate (see ForestParams).
    s.balanced_bootstrap = true;
    return s;
  }();
};

/// A deployed model: the selected forest plus its normalizer.
struct DeployedModel {
  ml::Normalizer normalizer;
  ml::SelectedModel selected;
  TimeMicros trained_at = 0;
  std::size_t training_examples = 0;

  /// Applies normalizer + forest to raw (unnormalized) flow features.
  double score(const ml::FeatureVector& raw) const {
    return selected.model.predict_score(normalizer.transform(raw));
  }
};

class UpdateClassifier {
 public:
  explicit UpdateClassifier(TrainerConfig config = {},
                            obs::MetricsRegistry* metrics = nullptr);

  /// Adds a banner-labeled example (raw, unnormalized features).
  void add_example(TimeMicros ts, ml::FeatureVector features, int label);

  /// Retrains if the retrain interval elapsed and data suffices. Returns
  /// the new model's registry index, or nullopt when nothing happened.
  std::optional<std::size_t> maybe_retrain(TimeMicros now);

  /// Forces a retrain attempt regardless of the interval.
  std::optional<std::size_t> retrain(TimeMicros now);

  /// The newest model whose training time is <= t (nullptr before first).
  const DeployedModel* model_at(TimeMicros t) const;
  const DeployedModel* latest() const;

  std::size_t window_size() const { return examples_.size(); }
  std::size_t models_trained() const { return models_.size(); }

  /// Full-state serialization for durability snapshots: the example
  /// window, every deployed model (via ml/persist plus selection
  /// metadata), and the last-train clock. Restoring yields a trainer
  /// whose future retrains are bit-identical to the original's.
  json::Value snapshot_state() const;

  /// Rebuilds state from snapshot_state() output. The trainer must be
  /// freshly constructed (no examples, no models); otherwise an error is
  /// returned.
  Status restore_state(const json::Value& state);

 private:
  struct Example {
    TimeMicros ts;
    ml::FeatureVector features;
    int label;
  };
  void prune(TimeMicros now);

  TrainerConfig config_;
  std::deque<Example> examples_;  // Time-ordered.
  std::vector<DeployedModel> models_;
  TimeMicros last_train_ = std::numeric_limits<TimeMicros>::min();
  obs::Counter* examples_c_;
  obs::Counter* trained_c_;
  obs::Gauge* window_g_;
  obs::Histogram* retrain_duration_h_;
};

}  // namespace exiot::pipeline
