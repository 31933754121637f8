#include "pipeline/scan_module.h"

namespace exiot::pipeline {

ScanModule::ScanModule(const probe::ActiveProber& prober,
                       fingerprint::RuleDb rules,
                       probe::BatcherConfig batcher_config,
                       obs::MetricsRegistry* metrics)
    : prober_(prober), rules_(std::move(rules)), batcher_(batcher_config) {
  obs::MetricsRegistry& reg =
      metrics != nullptr ? *metrics : obs::scratch_registry();
  rules_.instrument(reg);
  unknown_log_.instrument(reg);
  batches_c_ = &reg.counter("exiot_scan_module_batches_total",
                            "Scanner batches flushed to the prober.");
  probed_c_ = &reg.counter("exiot_scan_module_probed_total",
                           "Scanner addresses probed (ZMap/ZGrab).");
  batch_fill_h_ = &reg.histogram(
      "exiot_scan_module_batch_fill",
      "Records per flushed batch (100k-record / 60-min policy).",
      obs::size_buckets());
  flush_latency_h_ = &reg.histogram(
      "exiot_scan_module_flush_latency_seconds",
      "Virtual wait from a batch's oldest record to its flush.",
      obs::virtual_latency_buckets());
  auto outcome = [&](const char* cls) {
    return &reg.counter("exiot_probe_outcomes_total",
                        "Probe outcomes by banner/fingerprint class.",
                        {{"class", cls}});
  };
  outcome_iot_c_ = outcome("banner_iot");
  outcome_noniot_c_ = outcome("banner_noniot");
  outcome_unmatched_c_ = outcome("banner_unmatched");
  outcome_silent_c_ = outcome("no_banner");
}

std::vector<ProbeOutcome> ScanModule::probe_all(
    const std::vector<Ipv4>& batch, TimeMicros batch_opened, TimeMicros now) {
  std::vector<ProbeOutcome> outcomes;
  if (batch.empty()) return outcomes;
  batches_c_->inc();
  batch_fill_h_->observe(static_cast<double>(batch.size()));
  obs::VirtualTimer(*flush_latency_h_, batch_opened).stop(now);
  auto results = prober_.probe_batch(batch, now);
  probed_c_->inc(results.size());
  outcomes.reserve(results.size());
  for (auto& result : results) {
    ProbeOutcome outcome;
    outcome.src = result.addr;
    outcome.banner_returned = result.responded;
    outcome.completed_at = result.completed_at;
    outcome.banners = std::move(result.banners);
    for (const auto& banner : outcome.banners) {
      auto match = rules_.match(banner.text);
      if (match.has_value()) {
        if (!outcome.device.has_value() ||
            (outcome.device->vendor.empty() && !match->vendor.empty())) {
          outcome.device = match;
        }
        // Any IoT-labeled banner marks the host IoT; a host is non-IoT
        // only when every matching banner says so.
        if (match->label == fingerprint::BannerLabel::kIot) {
          outcome.training_label = 1;
        } else if (outcome.training_label == -1) {
          outcome.training_label = 0;
        }
      } else {
        (void)unknown_log_.offer(banner.text);
      }
    }
    if (outcome.training_label == 1) {
      outcome_iot_c_->inc();
    } else if (outcome.training_label == 0) {
      outcome_noniot_c_->inc();
    } else if (outcome.banner_returned) {
      outcome_unmatched_c_->inc();
    } else {
      outcome_silent_c_->inc();
    }
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

std::vector<ProbeOutcome> ScanModule::submit(Ipv4 src, TimeMicros now) {
  // If the batch was empty before this add, the submission itself opens
  // (and possibly instantly flushes) the batch.
  const TimeMicros opened_before = batcher_.oldest_pending();
  const TimeMicros opened = opened_before == 0 ? now : opened_before;
  return probe_all(batcher_.add(src, now), opened, now);
}

std::vector<ProbeOutcome> ScanModule::tick(TimeMicros now) {
  const TimeMicros opened = batcher_.oldest_pending();
  return probe_all(batcher_.tick(now), opened, now);
}

std::vector<ProbeOutcome> ScanModule::flush(TimeMicros now) {
  const TimeMicros opened = batcher_.oldest_pending();
  return probe_all(batcher_.flush(), opened, now);
}

}  // namespace exiot::pipeline
