// Tests for the feed core: record serialization, the feed manager's
// lifecycle (publish / END_FLOW / lapse), comparison metrics, and the
// notification engine.
#include <gtest/gtest.h>

#include "feed/compare.h"
#include "feed/manager.h"
#include "feed/notify.h"
#include "feed/record.h"

namespace exiot::feed {
namespace {

CtiRecord sample_record(const char* ip = "50.1.2.3") {
  CtiRecord r;
  r.src = *Ipv4::parse(ip);
  r.scan_start = hours(1);
  r.detect_time = hours(1) + minutes(2);
  r.published_at = hours(6);
  r.label = kLabelIot;
  r.score = 0.93;
  r.tool = "Mirai";
  r.vendor = "MikroTik";
  r.device_type = "Router";
  r.model = "RB750Gr3";
  r.firmware = "6.45.9";
  r.open_ports = {22, 80};
  r.banner_returned = true;
  r.country = "China";
  r.country_code = "CN";
  r.continent = "Asia";
  r.latitude = 34.5;
  r.longitude = 104.2;
  r.asn = 4134;
  r.isp = "China Telecom";
  r.organization = "China Telecom Broadband Pool 7";
  r.sector = "Residential";
  r.rdns = "host-7.pool.example-isp.net";
  r.abuse_email = "abuse@china-telecom.example.net";
  r.scan_rate = 1.5;
  r.address_repetition = 1.02;
  r.targeted_ports = {{23, 120}, {2323, 40}};
  return r;
}

TEST(CtiRecordTest, JsonRoundTrip) {
  CtiRecord original = sample_record();
  CtiRecord round = CtiRecord::from_json(original.to_json());
  EXPECT_EQ(round.src, original.src);
  EXPECT_EQ(round.scan_start, original.scan_start);
  EXPECT_EQ(round.label, original.label);
  EXPECT_DOUBLE_EQ(round.score, original.score);
  EXPECT_EQ(round.tool, original.tool);
  EXPECT_EQ(round.vendor, original.vendor);
  EXPECT_EQ(round.model, original.model);
  EXPECT_EQ(round.firmware, original.firmware);
  EXPECT_EQ(round.open_ports, original.open_ports);
  EXPECT_EQ(round.country_code, original.country_code);
  EXPECT_EQ(round.asn, original.asn);
  EXPECT_EQ(round.sector, original.sector);
  EXPECT_EQ(round.abuse_email, original.abuse_email);
  EXPECT_EQ(round.targeted_ports, original.targeted_ports);
  EXPECT_EQ(round.active, original.active);
}

TEST(CtiRecordTest, EmptyOptionalFieldsOmitted) {
  CtiRecord r;
  r.src = Ipv4(1, 2, 3, 4);
  json::Value doc = r.to_json();
  EXPECT_EQ(doc.find("vendor"), nullptr);
  EXPECT_EQ(doc.find("open_ports"), nullptr);
  EXPECT_EQ(doc.find("rdns"), nullptr);
}

TEST(FeedManagerTest, PublishAndFetch) {
  FeedManager feed;
  auto id = feed.publish(sample_record(), hours(6));
  auto fetched = feed.get(id);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->src.to_string(), "50.1.2.3");
  EXPECT_EQ(feed.total_records(), 1u);
  EXPECT_EQ(feed.historical_records(), 1u);
  EXPECT_EQ(feed.active_count(), 1u);
}

TEST(FeedManagerTest, MarkEndedClosesViaActiveCache) {
  FeedManager feed;
  auto record = sample_record();
  auto id = feed.publish(record, hours(6));
  EXPECT_TRUE(feed.mark_ended(record.src, hours(9), hours(10)));
  auto fetched = feed.get(id);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_FALSE(fetched->active);
  EXPECT_EQ(fetched->scan_end, hours(9));
  EXPECT_EQ(feed.active_count(), 0u);
  // Second END_FLOW finds no active entry.
  EXPECT_FALSE(feed.mark_ended(record.src, hours(9), hours(10)));
}

TEST(FeedManagerTest, MarkEndedUnknownSourceFails) {
  FeedManager feed;
  EXPECT_FALSE(feed.mark_ended(Ipv4(9, 9, 9, 9), 0, 0));
}

TEST(FeedManagerTest, RepublishSupersedesActiveEntry) {
  FeedManager feed;
  auto record = sample_record();
  (void)feed.publish(record, hours(6));
  record.scan_start = hours(30);
  auto second = feed.publish(record, hours(31));
  // END_FLOW now closes the second record.
  EXPECT_TRUE(feed.mark_ended(record.src, hours(33), hours(34)));
  EXPECT_FALSE(feed.get(second)->active);
  EXPECT_EQ(feed.records_for(record.src).size(), 2u);
}

TEST(FeedManagerTest, PublishedBetweenFiltersByTime) {
  FeedManager feed;
  for (int day = 0; day < 3; ++day) {
    auto record = sample_record(
        ("50.1.2." + std::to_string(day + 1)).c_str());
    record.published_at = day * kMicrosPerDay + hours(1);
    (void)feed.publish(record, record.published_at);
  }
  auto day1 = feed.published_between(kMicrosPerDay, 2 * kMicrosPerDay);
  ASSERT_EQ(day1.size(), 1u);
  EXPECT_EQ(day1[0].src.to_string(), "50.1.2.2");
}

TEST(FeedManagerTest, SourcesBetweenDeduplicatesAndFiltersLabel) {
  FeedManager feed;
  auto a = sample_record("50.1.1.1");
  a.published_at = hours(1);
  (void)feed.publish(a, a.published_at);
  a.published_at = hours(2);  // Same source again.
  (void)feed.publish(a, a.published_at);
  auto b = sample_record("50.1.1.2");
  b.label = kLabelNonIot;
  b.published_at = hours(3);
  (void)feed.publish(b, b.published_at);

  EXPECT_EQ(feed.sources_between(0, kMicrosPerDay).size(), 2u);
  EXPECT_EQ(feed.sources_between(0, kMicrosPerDay, kLabelIot).size(), 1u);
  EXPECT_EQ(feed.sources_between(0, kMicrosPerDay, kLabelNonIot).size(), 1u);
}

TEST(FeedManagerTest, HistoricalLapsesAfterTwoWeeks) {
  FeedManager feed;
  (void)feed.publish(sample_record(), hours(1));
  EXPECT_EQ(feed.expire(10 * kMicrosPerDay), 0u);
  EXPECT_EQ(feed.expire(15 * kMicrosPerDay), 1u);
  EXPECT_EQ(feed.historical_records(), 0u);
  // The latest store never lapses.
  EXPECT_EQ(feed.total_records(), 1u);
}

// -------------------------------------------------------------- Compare ----

IndicatorSet set_of(std::initializer_list<std::uint32_t> values) {
  return IndicatorSet(values);
}

TEST(CompareTest, DifferentialContribution) {
  EXPECT_DOUBLE_EQ(
      differential_contribution(set_of({1, 2, 3, 4}), set_of({3, 4})), 0.5);
  EXPECT_DOUBLE_EQ(
      differential_contribution(set_of({1, 2}), set_of({3, 4})), 1.0);
  EXPECT_DOUBLE_EQ(
      differential_contribution(set_of({1, 2}), set_of({1, 2})), 0.0);
  EXPECT_DOUBLE_EQ(differential_contribution(set_of({}), set_of({1})), 0.0);
}

TEST(CompareTest, NormalizedIntersectionComplements) {
  auto a = set_of({1, 2, 3, 4, 5});
  auto b = set_of({4, 5, 6});
  EXPECT_DOUBLE_EQ(differential_contribution(a, b) +
                       normalized_intersection(a, b),
                   1.0);
  EXPECT_DOUBLE_EQ(normalized_intersection(a, b), 0.4);
}

TEST(CompareTest, ExclusiveContribution) {
  auto a = set_of({1, 2, 3, 4, 5});
  std::vector<IndicatorSet> others = {set_of({1}), set_of({2, 9})};
  EXPECT_DOUBLE_EQ(exclusive_contribution(a, others), 0.6);
  EXPECT_EQ(intersection_with_union(a, others), 2u);
  EXPECT_DOUBLE_EQ(exclusive_contribution(a, {}), 1.0);
}

TEST(CompareTest, ToIndicatorSetDeduplicates) {
  auto set = to_indicator_set(
      {Ipv4(1, 1, 1, 1), Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2)});
  EXPECT_EQ(set.size(), 2u);
}

// --------------------------------------------------------------- Notify ----

class NotifyTest : public ::testing::Test {
 protected:
  NotifyTest()
      : engine_([this](const EmailMessage& m) { sent_.push_back(m); }) {}
  std::vector<EmailMessage> sent_;
  NotificationEngine engine_;
};

// The hosting organization of an IoT record is always notified too: it
// gets the last email of each publication.

TEST_F(NotifyTest, AlarmFiresForSubscribedBlock) {
  engine_.subscribe("soc@example.org", *Cidr::parse("50.1.0.0/16"));
  EXPECT_EQ(engine_.on_record_published(sample_record(), hours(6)), 2);
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_EQ(sent_[0].to, "soc@example.org");
  EXPECT_EQ(sent_[1].to, "abuse@china-telecom.example.net");
  EXPECT_NE(sent_[0].body.find("50.1.2.3"), std::string::npos);
  EXPECT_NE(sent_[0].body.find("MikroTik"), std::string::npos);
}

TEST_F(NotifyTest, NoAlarmOutsideBlock) {
  engine_.subscribe("soc@example.org", *Cidr::parse("60.0.0.0/8"));
  EXPECT_EQ(engine_.on_record_published(sample_record(), hours(6)), 1);
  ASSERT_EQ(sent_.size(), 1u);
  EXPECT_EQ(sent_[0].to, "abuse@china-telecom.example.net");
}

TEST_F(NotifyTest, HostingOrgNotifiedViaWhoisAbuse) {
  EXPECT_EQ(engine_.on_record_published(sample_record(), hours(6)), 1);
  ASSERT_EQ(sent_.size(), 1u);
  EXPECT_EQ(sent_[0].to, "abuse@china-telecom.example.net");
}

TEST_F(NotifyTest, NonIotNotSentToHostingOrg) {
  auto record = sample_record();
  record.label = kLabelNonIot;
  EXPECT_EQ(engine_.on_record_published(record, hours(6)), 0);
}

TEST_F(NotifyTest, BenignNeverNotifies) {
  engine_.subscribe("soc@example.org", *Cidr::parse("50.0.0.0/8"));
  auto record = sample_record();
  record.label = kLabelBenign;
  EXPECT_EQ(engine_.on_record_published(record, hours(6)), 0);
}

TEST_F(NotifyTest, MultipleSubscriptionsAllFire) {
  engine_.subscribe("a@example.org", *Cidr::parse("50.0.0.0/8"));
  engine_.subscribe("b@example.org", *Cidr::parse("50.1.2.0/24"));
  engine_.subscribe("c@example.org", *Cidr::parse("50.1.2.3"));
  EXPECT_EQ(engine_.on_record_published(sample_record(), hours(6)), 4);
}

}  // namespace
}  // namespace exiot::feed
