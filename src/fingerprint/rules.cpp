#include "fingerprint/rules.h"

#include <algorithm>
#include <cctype>

namespace exiot::fingerprint {

namespace {

char fold(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

void fold_into(const std::string& in, std::string& out) {
  out.resize(in.size());
  std::transform(in.begin(), in.end(), out.begin(),
                 [](char c) { return fold(c); });
}

}  // namespace

std::string extract_literal_anchor(const std::string& pattern) {
  // Conservative single-pass scan: collect top-level literal runs, break a
  // run at anything that is not a guaranteed single character (classes,
  // groups, escapes like \S, anchors, '.'), and give up entirely on a
  // top-level alternation. Quantifiers: '?' / '*' / '{' make the preceding
  // char optional (drop it and break); '+' keeps the char but still breaks
  // the run ("ab+c" matches "abbc", which does not contain "abc"). Group
  // contents are skipped wholesale — ignoring a required literal only
  // weakens the prefilter, never makes it wrong.
  const std::size_t n = pattern.size();
  std::vector<std::string> runs;
  std::string cur;
  bool last_literal = false;
  const auto flush = [&] {
    if (!cur.empty()) runs.push_back(cur);
    cur.clear();
    last_literal = false;
  };
  const auto drop_optional = [&] {
    if (last_literal && !cur.empty()) cur.pop_back();
    flush();
  };
  const auto skip_class = [&](std::size_t j) {
    ++j;                                    // past '['
    if (j < n && pattern[j] == '^') ++j;
    if (j < n && pattern[j] == ']') ++j;    // leading ']' is literal
    while (j < n && pattern[j] != ']') {
      if (pattern[j] == '\\' && j + 1 < n) ++j;
      ++j;
    }
    return j < n ? j + 1 : j;
  };
  std::size_t i = 0;
  while (i < n) {
    const char c = pattern[i];
    switch (c) {
      case '|':
        return "";  // Top-level alternation: no literal is guaranteed.
      case '(': {
        int depth = 0;
        std::size_t j = i;
        while (j < n) {
          const char g = pattern[j];
          if (g == '\\' && j + 1 < n) {
            j += 2;
          } else if (g == '[') {
            j = skip_class(j);
          } else {
            if (g == '(') ++depth;
            if (g == ')' && --depth == 0) {
              ++j;
              break;
            }
            ++j;
          }
        }
        i = j;
        flush();
        break;
      }
      case '[':
        i = skip_class(i);
        flush();
        break;
      case '\\': {
        if (i + 1 >= n) {
          ++i;
          break;
        }
        const char e = pattern[i + 1];
        if (std::isalnum(static_cast<unsigned char>(e))) {
          flush();  // \S \d \w \s \b \r \n ...: not one fixed literal.
        } else {
          cur.push_back(fold(e));  // \. \( \) \\ ...: escaped literal.
          last_literal = true;
        }
        i += 2;
        break;
      }
      case '?':
      case '*':
        drop_optional();
        ++i;
        if (i < n && pattern[i] == '?') ++i;  // Lazy modifier.
        break;
      case '+':
        flush();  // Char required but repeatable: keep it, end the run.
        ++i;
        if (i < n && pattern[i] == '?') ++i;
        break;
      case '{':
        drop_optional();  // Treat {m,n} like '?': min count may be 0.
        while (i < n && pattern[i] != '}') ++i;
        if (i < n) ++i;
        if (i < n && pattern[i] == '?') ++i;
        break;
      case '.':
      case '^':
      case '$':
        flush();
        ++i;
        break;
      default:
        cur.push_back(fold(c));
        last_literal = true;
        ++i;
        break;
    }
  }
  flush();
  std::string best;
  for (const auto& run : runs) {
    if (run.size() > best.size()) best = run;
  }
  // One-char anchors shortlist nearly everything; not worth the scan.
  return best.size() >= 2 ? best : std::string{};
}

RuleDb RuleDb::from_rules(std::vector<Rule> rules) {
  RuleDb db;
  db.rules_.reserve(rules.size());
  for (auto& rule : rules) {
    std::regex re(rule.pattern,
                  std::regex::ECMAScript | std::regex::icase);
    std::string anchor = extract_literal_anchor(rule.pattern);
    db.rules_.push_back({std::move(rule), std::move(re), std::move(anchor)});
  }
  db.instrument(obs::scratch_registry());
  return db;
}

void RuleDb::instrument(obs::MetricsRegistry& registry) {
  prefilter_skipped_c_ = &registry.counter(
      "exiot_fingerprint_prefilter_skipped_total",
      "Rules skipped by the literal-anchor prefilter without running regex");
  prefilter_regex_c_ = &registry.counter(
      "exiot_fingerprint_prefilter_regex_total",
      "Regex searches executed after passing the prefilter");
}

std::size_t RuleDb::anchored_rules() const {
  return static_cast<std::size_t>(
      std::count_if(rules_.begin(), rules_.end(),
                    [](const Compiled& c) { return !c.anchor.empty(); }));
}

std::optional<DeviceMatch> RuleDb::match(const std::string& banner) const {
  return match_impl(banner, /*use_prefilter=*/true);
}

std::optional<DeviceMatch> RuleDb::match_linear(
    const std::string& banner) const {
  return match_impl(banner, /*use_prefilter=*/false);
}

std::optional<DeviceMatch> RuleDb::match_impl(const std::string& banner,
                                              bool use_prefilter) const {
  // The banner is folded lazily, once, the first time an anchored rule
  // needs it; the fold is skipped entirely for anchor-free databases.
  std::string folded;
  bool have_folded = false;
  std::smatch m;  // Hoisted: one match object reused across the rule sweep.
  std::uint64_t skipped = 0;
  std::uint64_t searched = 0;
  std::optional<DeviceMatch> out;
  for (const auto& compiled : rules_) {
    if (use_prefilter && !compiled.anchor.empty()) {
      if (!have_folded) {
        fold_into(banner, folded);
        have_folded = true;
      }
      if (folded.find(compiled.anchor) == std::string::npos) {
        ++skipped;
        continue;
      }
    }
    if (use_prefilter) ++searched;
    if (!std::regex_search(banner, m, compiled.regex)) continue;
    DeviceMatch match;
    match.label = compiled.rule.label;
    match.vendor = compiled.rule.vendor;
    match.device_type = compiled.rule.device_type;
    match.rule_name = compiled.rule.name;
    const auto group = [&](int g) -> std::string {
      if (g <= 0 || g >= static_cast<int>(m.size()) ||
          !m[static_cast<std::size_t>(g)].matched) {
        return "";
      }
      return m[static_cast<std::size_t>(g)].str();
    };
    match.model = group(compiled.rule.model_group);
    match.firmware = group(compiled.rule.firmware_group);
    out = std::move(match);
    break;
  }
  if (use_prefilter) {
    if (skipped != 0) prefilter_skipped_c_->inc(skipped);
    if (searched != 0) prefilter_regex_c_->inc(searched);
  }
  return out;
}

RuleDb RuleDb::standard() {
  // Ordered most-specific-first; IoT device rules before generic servers.
  std::vector<Rule> rules = {
      // --- IoT devices -----------------------------------------------
      {"mikrotik-routeros", R"(RouterOS v([0-9.]+))", BannerLabel::kIot,
       "MikroTik", "Router", 0, 1},
      {"mikrotik-ftp", R"(MikroTik FTP server \(MikroTik ([0-9.]+)\))",
       BannerLabel::kIot, "MikroTik", "Router", 0, 1},
      {"mikrotik-ssh", R"(SSH-2\.0-ROSSSH)", BannerLabel::kIot, "MikroTik",
       "Router", 0, 0},
      {"aposonic-dvr", R"(Aposonic (A-S[0-9A-Z]+))", BannerLabel::kIot,
       "Aposonic", "DVR", 1, 0},
      {"aposonic-generic", R"(Aposonic)", BannerLabel::kIot, "Aposonic",
       "DVR", 0, 0},
      {"foscam-model", R"(Foscam (FI[0-9A-Za-z]+))", BannerLabel::kIot,
       "Foscam", "IP Camera", 1, 0},
      {"foscam-ftp", R"(Foscam FTP (\S+) firmware ([0-9.]+))",
       BannerLabel::kIot, "Foscam", "IP Camera", 1, 2},
      {"netwave-camera", R"(Netwave IP Camera)", BannerLabel::kIot, "Foscam",
       "IP Camera", 0, 0},
      {"zte-f660", R"(ZTE corp)", BannerLabel::kIot, "ZTE", "Router", 0, 0},
      {"zte-model", R"((ZX[A-Z0-9]+ [A-Z0-9]+))", BannerLabel::kIot, "ZTE",
       "Router", 1, 0},
      {"zte-cwmp", R"(Server: ZTE CPE)", BannerLabel::kIot, "ZTE", "Router",
       0, 0},
      {"hikvision-realm", R"(Hikvision(DS-[0-9A-Z]+)?)", BannerLabel::kIot,
       "Hikvision", "IP Camera", 1, 0},
      {"hikvision-appwebs", R"(Server: App-webs/)", BannerLabel::kIot,
       "Hikvision", "IP Camera", 0, 0},
      {"tplink-router", R"(TP-?LINK[^\r\n\"]*?([A-Z]{2}[0-9]{3,4}[A-Z]*))",
       BannerLabel::kIot, "TP-Link", "Router", 1, 0},
      {"dahua", R"(Dahua)", BannerLabel::kIot, "Dahua", "IP Camera", 0, 0},
      {"dlink-dir", R"(DIR-([0-9]+)\s+Ver\s+([0-9.]+))", BannerLabel::kIot,
       "D-Link", "Router", 1, 2},
      {"dlink-generic", R"(DIR-[0-9]+)", BannerLabel::kIot, "D-Link",
       "Router", 0, 0},
      {"axis-camera", R"(AXIS (\S+)[^\r\n]*Network Camera ([0-9.]+)?)",
       BannerLabel::kIot, "AXIS", "IP Camera", 1, 2},
      {"axis-realm", R"(AXIS_[0-9A-F]+)", BannerLabel::kIot, "AXIS",
       "IP Camera", 0, 0},
      {"netgear", R"(NETGEAR ([A-Z][0-9]+[A-Za-z]*))", BannerLabel::kIot,
       "Netgear", "Router", 1, 0},
      {"xiongmai-uchttpd", R"(uc-httpd)", BannerLabel::kIot, "Xiongmai",
       "DVR", 0, 0},
      {"ubiquiti", R"(ubnt)", BannerLabel::kIot, "Ubiquiti", "Access Point",
       0, 0},
      {"huawei-hg", R"((HG[0-9]+[A-Za-z]*))", BannerLabel::kIot, "Huawei",
       "Router", 1, 0},
      {"android-adb", R"(CNXN)", BannerLabel::kIot, "Android",
       "Set-top Box", 0, 0},
      {"synology", R"(Synology DiskStation (\S+))", BannerLabel::kIot,
       "Synology", "NAS", 1, 0},
      // Industrial control systems (Table I probes MODBUS/BACnet/Fox/DNP3).
      {"schneider-modicon", R"(Schneider Electric[^\r\n]*?(Modicon \S+)\s+v?([0-9.]+)?)",
       BannerLabel::kIot, "Schneider Electric", "PLC", 1, 2},
      {"schneider-web", R"(Server: Schneider-WEB|Modicon (M[0-9]+))",
       BannerLabel::kIot, "Schneider Electric", "PLC", 1, 0},
      {"siemens-s7", R"(SIMATIC,?\s+(S7-[0-9]+))", BannerLabel::kIot,
       "Siemens", "PLC", 1, 0},
      {"tridium-fox", R"(fox hello[^\r\n]*Niagara ([0-9.]+)?)",
       BannerLabel::kIot, "Tridium", "Building Controller", 0, 1},
      {"tridium-jace", R"(hostName=s:(JACE-[0-9]+))", BannerLabel::kIot,
       "Tridium", "Building Controller", 1, 0},
      {"bacnet-honeywell", R"(BACnet device Honeywell (\S+) v([0-9.]+))",
       BannerLabel::kIot, "Honeywell", "Building Controller", 1, 2},
      {"bacnet-generic", R"(BACnet device)", BannerLabel::kIot, "",
       "Building Controller", 0, 0},
      // Dropbear SSH is the embedded-Linux default; strongly IoT-leaning.
      {"dropbear-ssh", R"(SSH-2\.0-dropbear)", BannerLabel::kIot, "",
       "Embedded Device", 0, 0},

      // --- Non-IoT servers -------------------------------------------
      {"openssh", R"(SSH-2\.0-OpenSSH[_-]([0-9][^ \r\n]*)?)",
       BannerLabel::kNonIot, "OpenBSD", "Server", 0, 1},
      {"apache", R"(Server: Apache(?:/([0-9.]+))?)", BannerLabel::kNonIot,
       "Apache", "Server", 0, 1},
      {"nginx", R"(Server: nginx(?:/([0-9.]+))?)", BannerLabel::kNonIot,
       "nginx", "Server", 0, 1},
      {"iis", R"(Server: Microsoft-IIS/([0-9.]+))", BannerLabel::kNonIot,
       "Microsoft", "Server", 0, 1},
      {"windows-smb", R"(SMB [0-9.]+ Windows)", BannerLabel::kNonIot,
       "Microsoft", "Server", 0, 0},
      {"windows-rdp", R"(Remote Desktop Protocol)", BannerLabel::kNonIot,
       "Microsoft", "Desktop", 0, 0},
      {"postfix", R"(ESMTP Postfix)", BannerLabel::kNonIot, "Postfix",
       "Mail Server", 0, 0},
  };
  return from_rules(std::move(rules));
}

bool looks_like_device_text(const std::string& banner) {
  // The paper's generic rule: "[a-z]+[-]?[a-z!]*[0-9]+[-]?[-]?[a-z0-9]" —
  // a letter run, optional dash, more letters, digits, then a trailing
  // alphanumeric: the shape of product identifiers like "hg8245h" or
  // "tl-wr841n". The compiled regex is a magic static: initialized once
  // under the C++11 thread-safe-statics guarantee, then shared read-only
  // by any number of threads (std::regex_search on a const regex is
  // thread-safe).
  static const std::regex re(R"([a-z]+[-]?[a-z!]*[0-9]+[-]?[-]?[a-z0-9])",
                             std::regex::ECMAScript | std::regex::icase);
  return std::regex_search(banner, re);
}

UnknownBannerLog::UnknownBannerLog(std::size_t capacity)
    : capacity_(capacity),
      dropped_c_(&obs::scratch_registry().counter(
          "exiot_fingerprint_unknown_banners_dropped_total")) {}

void UnknownBannerLog::instrument(obs::MetricsRegistry& registry) {
  dropped_c_ = &registry.counter(
      "exiot_fingerprint_unknown_banners_dropped_total",
      "Promising unmatched banners discarded because the log was full");
}

bool UnknownBannerLog::offer(const std::string& banner) {
  if (!looks_like_device_text(banner)) return false;
  if (entries_.size() >= capacity_) {
    dropped_c_->inc();
    return false;
  }
  entries_.push_back(banner);
  return true;
}

}  // namespace exiot::fingerprint
