#include "feed/notify.h"

namespace exiot::feed {
namespace {

std::string describe(const CtiRecord& record) {
  std::string body = "Compromised device detected\n";
  body += "Source IP: " + record.src.to_string() + "\n";
  body += "Label: " + record.label +
          " (score " + std::to_string(record.score) + ")\n";
  if (!record.vendor.empty()) {
    body += "Device: " + record.vendor + " " + record.device_type;
    if (!record.model.empty()) body += " " + record.model;
    body += "\n";
  }
  if (!record.tool.empty() && record.tool != "unknown") {
    body += "Scan tool: " + record.tool + "\n";
  }
  body += "First seen: " + format_time(record.scan_start) + "\n";
  body += "Network: AS" + std::to_string(record.asn) + " " + record.isp +
          ", " + record.country + "\n";
  return body;
}

}  // namespace

NotificationEngine::NotificationEngine(EmailSink sink)
    : sink_(std::move(sink)) {}

void NotificationEngine::subscribe(const std::string& email, Cidr block) {
  subscriptions_.push_back({email, block});
}

int NotificationEngine::on_record_published(const CtiRecord& record,
                                            TimeMicros now) {
  if (record.label == kLabelBenign) return 0;
  int sent = 0;
  const std::string body = describe(record);

  for (const auto& sub : subscriptions_) {
    if (!sub.block.contains(record.src)) continue;
    sink_(EmailMessage{sub.email,
                       "[eX-IoT] Alert for monitored block " +
                           sub.block.to_string(),
                       body, now});
    ++sent;
  }

  if (!record.abuse_email.empty() && record.label == kLabelIot) {
    sink_(EmailMessage{record.abuse_email,
                       "[eX-IoT] Compromised IoT device in your network",
                       body, now});
    ++sent;
  }
  return sent;
}

}  // namespace exiot::feed
