// The Scan Module of Figure 2: batches newly identified scanners (100k
// records or 60 minutes), runs the ZMap/ZGrab probes, fingerprints the
// returned banners against the rule database to produce vendor / type /
// model / firmware and the IoT / non-IoT training label, and dumps
// promising unknown banners to the rule-authoring log.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "fingerprint/rules.h"
#include "obs/metrics.h"
#include "probe/batcher.h"
#include "probe/prober.h"

namespace exiot::pipeline {

/// What the scan module learned about one probed scanner.
struct ProbeOutcome {
  Ipv4 src;
  bool banner_returned = false;
  std::vector<probe::GrabbedBanner> banners;
  std::optional<fingerprint::DeviceMatch> device;  // First matching banner.
  /// Training label derived from banners: 1 = IoT, 0 = non-IoT, -1 = none
  /// (no banner, or nothing matched).
  int training_label = -1;
  TimeMicros completed_at = 0;
};

class ScanModule {
 public:
  ScanModule(const probe::ActiveProber& prober,
             fingerprint::RuleDb rules,
             probe::BatcherConfig batcher_config = {},
             obs::MetricsRegistry* metrics = nullptr);

  /// Enqueues a newly detected scanner at processing time `now`. Returns
  /// the outcomes of any batch this submission flushed.
  std::vector<ProbeOutcome> submit(Ipv4 src, TimeMicros now);

  /// Time-based flush (call at each processing tick).
  std::vector<ProbeOutcome> tick(TimeMicros now);

  /// Drains the pending batch unconditionally (end of run).
  std::vector<ProbeOutcome> flush(TimeMicros now);


 private:
  std::vector<ProbeOutcome> probe_all(const std::vector<Ipv4>& batch,
                                      TimeMicros batch_opened, TimeMicros now);
  /// Counter child of exiot_probe_outcomes_total for one outcome class.
  obs::Counter* outcome_counter(const char* cls);

  const probe::ActiveProber& prober_;
  fingerprint::RuleDb rules_;
  probe::ScanBatcher batcher_;
  fingerprint::UnknownBannerLog unknown_log_;
  obs::Counter* batches_c_;
  obs::Counter* probed_c_;
  obs::Histogram* batch_fill_h_;
  obs::Histogram* flush_latency_h_;
  obs::Counter* outcome_iot_c_;
  obs::Counter* outcome_noniot_c_;
  obs::Counter* outcome_unmatched_c_;
  obs::Counter* outcome_silent_c_;
};

}  // namespace exiot::pipeline
