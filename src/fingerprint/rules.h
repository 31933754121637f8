// Banner fingerprinting: an ordered regex rule database in the spirit of
// Recog/Ztag that maps application banners to {vendor, device type, model,
// firmware} and an IoT / non-IoT label. Returned banners drive the labels
// the Update Classifier trains on; banners that match nothing but look like
// device text (the paper's generic "[a-z]+[-]?[a-z!]*[0-9]+..." rule) are
// dumped to an unknown-banner log for later rule authoring.
//
// Matching cost: the scan module sweeps every banner across ~40 rules, and
// a linear std::regex_search pass per rule is the dominant per-banner cost
// on the annotate path. `from_rules` therefore compiles a prefilter: for
// each rule it extracts a case-folded literal anchor — a substring every
// possible match must contain — and `match` folds the banner once, runs a
// cheap substring check per anchored rule, and only invokes the regex
// engine on the shortlisted rules. Rules whose pattern yields no safe
// anchor (top-level alternation, purely class-based patterns) always go to
// the regex engine, so prefiltered matching is exactly equivalent to the
// plain linear scan (asserted rule-by-rule in fingerprint_test).
#pragma once

#include <cstddef>
#include <optional>
#include <regex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace exiot::fingerprint {

/// Label classes a banner match can produce.
enum class BannerLabel {
  kIot,     // An IoT device banner (camera, router, DVR, ...).
  kNonIot,  // A general-purpose server / desktop service banner.
};

struct DeviceMatch {
  BannerLabel label = BannerLabel::kIot;
  std::string vendor;
  std::string device_type;
  std::string model;     // "" if the rule cannot extract one.
  std::string firmware;  // "" if the rule cannot extract one.
  std::string rule_name;
};

/// One fingerprint rule. `pattern` is matched case-insensitively as a
/// partial match (std::regex_search); capture group 1 (if present) is the
/// model, group 2 the firmware.
struct Rule {
  std::string name;
  std::string pattern;
  BannerLabel label;
  std::string vendor;
  std::string device_type;
  int model_group = 0;     // 0 = none.
  int firmware_group = 0;  // 0 = none.
};

/// Extracts the prefilter anchor of a pattern: the longest literal
/// substring (lowercased) that every regex match must contain, or "" when
/// no literal is provably required (the rule then always runs the regex).
/// Exposed for tests and rule-authoring tooling.
std::string extract_literal_anchor(const std::string& pattern);

class RuleDb {
 public:
  /// The built-in rule set: covers every vendor the device catalog ships
  /// plus non-IoT server fingerprints (OpenSSH, Apache, nginx, IIS, ...).
  static RuleDb standard();

  /// Builds from an explicit rule list (rule-authoring workflows, tests).
  /// Compiles each rule's regex and extracts its prefilter anchor.
  static RuleDb from_rules(std::vector<Rule> rules);

  /// First matching rule wins (rules are ordered most-specific-first).
  /// Prefiltered: the banner is case-folded once and rules whose literal
  /// anchor is absent are skipped without touching the regex engine.
  /// Thread-safe: const lookup over compiled state; concurrent annotate
  /// workers may call it on a shared db.
  std::optional<DeviceMatch> match(const std::string& banner) const;

  /// Reference implementation without the prefilter (equivalence tests,
  /// ablation benches). Same result as `match` for every banner.
  std::optional<DeviceMatch> match_linear(const std::string& banner) const;

  /// Registers the prefilter hit/skip counters in `registry`. Optional;
  /// without it the counters land in the scratch registry.
  void instrument(obs::MetricsRegistry& registry);

  std::size_t size() const { return rules_.size(); }
  /// Rules that carry a prefilter anchor (the rest always run the regex).
  std::size_t anchored_rules() const;
  /// The anchor of rule `i` ("" when the rule has none).
  const std::string& anchor(std::size_t i) const { return rules_[i].anchor; }

 private:
  struct Compiled {
    Rule rule;
    std::regex regex;
    std::string anchor;  // Lowercased required literal; "" = none.
  };

  std::optional<DeviceMatch> match_impl(const std::string& banner,
                                        bool use_prefilter) const;

  std::vector<Compiled> rules_;
  obs::Counter* prefilter_skipped_c_ = nullptr;  // Rules skipped by anchor.
  obs::Counter* prefilter_regex_c_ = nullptr;    // Regex runs performed.
};

/// The paper's generic device-text heuristic: does an unmatched banner
/// contain a token shaped like a product identifier (letters + digits with
/// optional dashes), making it worth logging for manual rule creation?
/// Thread-safe: the compiled regex is a function-local static (magic-static
/// init) shared read-only across threads.
bool looks_like_device_text(const std::string& banner);

/// Accumulates unmatched-but-promising banners (the paper dumps them to a
/// log file for inspection). Bounded: a long-running feed sees an endless
/// trickle of near-miss banners, so the log keeps at most `capacity`
/// entries and counts the overflow instead of growing without limit.
class UnknownBannerLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 10000;

  explicit UnknownBannerLog(std::size_t capacity = kDefaultCapacity);

  /// Registers the dropped-banner counter in `registry`. Optional;
  /// without it the counter lands in the scratch registry.
  void instrument(obs::MetricsRegistry& registry);

  /// Records the banner if it passes the device-text heuristic and the log
  /// has room. Returns whether it was kept.
  bool offer(const std::string& banner);

  const std::vector<std::string>& entries() const { return entries_; }
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::vector<std::string> entries_;
  obs::Counter* dropped_c_;
};

}  // namespace exiot::fingerprint
