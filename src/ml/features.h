// Flow feature extraction, exactly as the paper's Annotate module describes:
// 24 fields are extracted per packet (Table II), inter-arrival times are
// computed, and the per-flow feature vector is the {min, Q1, median, Q3,
// max} summary of every field over the flow's sampled packets — a tuple of
// size 24 x 5 = 120. A MinMax normalizer fit on the training set (followed
// by mean subtraction) completes the pre-processing.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "ml/dataset.h"
#include "net/packet.h"

namespace exiot::ml {

/// Number of per-packet fields (Table II).
constexpr int kNumFields = 24;
/// Quantiles per field: min, Q1, median, Q3, max.
constexpr int kNumQuantiles = 5;
/// Final feature-vector width.
constexpr int kNumFeatures = kNumFields * kNumQuantiles;  // 120

/// Human-readable field names, index-aligned with the extraction order.
const std::array<std::string, kNumFields>& field_names();

/// Extracts the 24 Table II fields from one packet. `prev_ts` is the
/// timestamp of the previous packet of the same flow (for the inter-arrival
/// field; pass the packet's own ts for the first packet).
std::array<double, kNumFields> extract_fields(const net::Packet& pkt,
                                              TimeMicros prev_ts);

/// Builds the 120-dimensional flow feature vector from a flow's sampled
/// packets (>= 1 packet required; the paper feeds 200-packet samples).
FeatureVector flow_features(const std::vector<net::Packet>& sample);

/// MinMax + mean-centering normalizer fit on a training set.
class Normalizer {
 public:
  /// Learns per-feature min/max and the training-set mean.
  static Normalizer fit(const std::vector<FeatureVector>& rows);

  /// Maps a feature vector to [0,1] per dimension then subtracts the
  /// (normalized) training mean. Constant features map to 0.
  FeatureVector transform(const FeatureVector& row) const;

  void transform_in_place(std::vector<FeatureVector>& rows) const;

  /// Persistence accessors / reconstruction (see ml/persist.h).
  const std::vector<double>& min() const { return min_; }
  const std::vector<double>& inv_range() const { return inv_range_; }
  const std::vector<double>& mean() const { return mean_; }
  static Normalizer from_raw(std::vector<double> min,
                             std::vector<double> inv_range,
                             std::vector<double> mean);

 private:
  std::vector<double> min_;
  std::vector<double> inv_range_;  // 0 for constant features.
  std::vector<double> mean_;       // Mean of the normalized training rows.
};

}  // namespace exiot::ml
