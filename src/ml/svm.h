// Linear SVM trained with the Pegasos primal SGD solver — the SVM baseline
// the paper compared against Random Forest before settling on RF.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/dataset.h"
#include "ml/model.h"

namespace exiot::ml {

struct SvmParams {
  double lambda = 1e-4;  // L2 regularization strength.
  int epochs = 20;
};

class LinearSvm : public Classifier {
 public:
  static LinearSvm train(const Dataset& data, const SvmParams& params,
                         std::uint64_t seed);

  /// Margin squashed through a logistic link so scores are comparable with
  /// the probabilistic models (rank order — hence ROC-AUC — is unaffected).
  double predict_score(const FeatureVector& row) const override;

  double margin(const FeatureVector& row) const;

 private:
  std::vector<double> weights_;
  double bias_ = 0.0;
};

}  // namespace exiot::ml
