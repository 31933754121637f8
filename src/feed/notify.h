// Email notification, §IV of the paper: (1) users subscribe alarms for
// their IP blocks and get notified the instant a compromised device is
// published inside one; (2) the feed proactively notifies the hosting
// organization using the abuse address from its WHOIS record. The SMTP
// transport is a pluggable sink (simulated in this reproduction).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "feed/record.h"

namespace exiot::feed {

struct EmailMessage {
  std::string to;
  std::string subject;
  std::string body;
  TimeMicros sent_at = 0;
};

/// Where outgoing mail goes; tests and the reproduction capture in memory.
using EmailSink = std::function<void(const EmailMessage&)>;

class NotificationEngine {
 public:
  explicit NotificationEngine(EmailSink sink);

  /// Mechanism 1: subscribe an alarm for an IP block.
  void subscribe(const std::string& email, Cidr block);

  /// Feeds a freshly published record through both mechanisms: every
  /// subscription whose block holds the source, then the hosting
  /// organization of an IoT record (WHOIS abuse address). Returns the
  /// number of emails generated. Benign records notify nobody.
  int on_record_published(const CtiRecord& record, TimeMicros now);

 private:
  struct Subscription {
    std::string email;
    Cidr block;
  };

  EmailSink sink_;
  std::vector<Subscription> subscriptions_;
};

}  // namespace exiot::feed
