// Threshold Random Walk scan detection (Jung, Paxson, Berger, Balakrishnan,
// IEEE S&P 2004): sequential hypothesis testing over the outcomes of a
// remote host's first-contact connection attempts. The paper's detector is
// TRW-based ([45], [54], [55]) with operational thresholds layered on top
// (see flow/detector.h); this class implements the underlying test, which
// the ablation bench contrasts with the operational heuristics.
#pragma once

#include <cmath>
#include <cstdint>

namespace exiot::flow {

/// TRW outcome for a source under observation.
enum class TrwVerdict {
  kPending,  // Keep watching.
  kScanner,  // H1 accepted: the source is a scanner.
  kBenign,   // H0 accepted: the source looks like a legitimate client.
};

/// Sequential-test parameters. theta0/theta1 are the probabilities that a
/// first-contact attempt *succeeds* for a benign host vs a scanner; alpha
/// and beta bound false-positive and detection probabilities.
struct TrwParams {
  double theta0 = 0.8;   // P(success | benign)
  double theta1 = 0.2;   // P(success | scanner)
  double alpha = 1e-5;   // Max false-positive probability.
  double beta = 0.99;    // Min detection probability.

  double upper_threshold() const { return beta / alpha; }
  double lower_threshold() const { return (1.0 - beta) / (1.0 - alpha); }
};

/// Per-source sequential likelihood-ratio state. On a network telescope
/// every observed first contact is a failure (nothing answers), so the
/// likelihood ratio climbs by (1-theta1)/(1-theta0) per distinct target —
/// TRW degenerates to a deterministic packet count, which is exactly why
/// the paper can run a count-based operational detector (trw_equivalent
/// packet threshold) at 1M pps.
class TrwState {
 public:
  explicit TrwState(const TrwParams& params = {}) : params_(params) {}

  /// Feeds one first-contact observation; returns the current verdict.
  TrwVerdict observe(bool success);

  TrwVerdict verdict() const { return verdict_; }
  double log_likelihood_ratio() const { return log_ratio_; }

  /// The number of consecutive failures needed to cross the scanner
  /// threshold from a fresh state (closed form; used to relate TRW to the
  /// operational packet threshold).
  static int failures_to_detect(const TrwParams& params);

 private:
  TrwParams params_;
  double log_ratio_ = 0.0;
  TrwVerdict verdict_ = TrwVerdict::kPending;
};

}  // namespace exiot::flow
