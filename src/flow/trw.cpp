#include "flow/trw.h"

namespace exiot::flow {

TrwVerdict TrwState::observe(bool success) {
  if (verdict_ != TrwVerdict::kPending) return verdict_;
  if (success) {
    log_ratio_ += std::log(params_.theta1 / params_.theta0);
  } else {
    log_ratio_ += std::log((1.0 - params_.theta1) / (1.0 - params_.theta0));
  }
  if (log_ratio_ >= std::log(params_.upper_threshold())) {
    verdict_ = TrwVerdict::kScanner;
  } else if (log_ratio_ <= std::log(params_.lower_threshold())) {
    verdict_ = TrwVerdict::kBenign;
  }
  return verdict_;
}

int TrwState::failures_to_detect(const TrwParams& params) {
  const double per_failure =
      std::log((1.0 - params.theta1) / (1.0 - params.theta0));
  return static_cast<int>(
      std::ceil(std::log(params.upper_threshold()) / per_failure));
}

}  // namespace exiot::flow
