// Tests for the storage tier: ObjectIDs, the document store (indexes,
// updates, retention), and the KV store.
#include <gtest/gtest.h>

#include "store/docstore.h"
#include "store/kvstore.h"
#include "store/objectid.h"

namespace exiot::store {
namespace {

// ------------------------------------------------------------ ObjectId ----

TEST(ObjectIdTest, HexRoundTrip) {
  ObjectId id = ObjectId::make(hours(5), 12345);
  auto parsed = ObjectId::parse(id.to_hex());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, id);
  EXPECT_EQ(id.to_hex().size(), 24u);
}

TEST(ObjectIdTest, OrderedByCreationTime) {
  ObjectId early = ObjectId::make(seconds(10), 99);
  ObjectId late = ObjectId::make(seconds(11), 1);
  EXPECT_LT(early, late);
}

TEST(ObjectIdTest, CreatedAtSecondGranularity) {
  ObjectId id = ObjectId::make(seconds(123) + 456, 0);
  EXPECT_EQ(id.created_at(), seconds(123));
}

TEST(ObjectIdTest, ParseRejectsMalformed) {
  EXPECT_FALSE(ObjectId::parse("short").has_value());
  EXPECT_FALSE(ObjectId::parse(std::string(24, 'z')).has_value());
  EXPECT_FALSE(ObjectId::parse(std::string(25, 'a')).has_value());
}

// ------------------------------------------------------------ DocStore ----

json::Value record(const std::string& ip, const std::string& label) {
  json::Value doc;
  doc["src_ip"] = ip;
  doc["label"] = label;
  return doc;
}

TEST(DocStoreTest, InsertStampsIdAndTimestamp) {
  DocumentStore store;
  ObjectId id = store.insert(record("1.2.3.4", "IoT"), seconds(42));
  const json::Value* doc = store.get(id);
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->get_string("_id"), id.to_hex());
  EXPECT_EQ(doc->get_int("updated_at"), seconds(42));
  EXPECT_EQ(store.size(), 1u);
}

TEST(DocStoreTest, IndexLookupFindsBySourceIp) {
  DocumentStore store;
  store.ensure_index("src_ip");
  ObjectId a = store.insert(record("1.1.1.1", "IoT"), 0);
  (void)store.insert(record("2.2.2.2", "non-IoT"), 0);
  ObjectId c = store.insert(record("1.1.1.1", "IoT"), 0);

  auto hits = store.find_by("src_ip", "1.1.1.1");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], a);
  EXPECT_EQ(hits[1], c);
  EXPECT_TRUE(store.find_by("src_ip", "9.9.9.9").empty());
  EXPECT_TRUE(store.find_by("unindexed", "x").empty());
}

TEST(DocStoreTest, UpdateRefreshesTimestampAndIndex) {
  DocumentStore store;
  store.ensure_index("label");
  ObjectId id = store.insert(record("1.1.1.1", "IoT"), seconds(1));
  ASSERT_TRUE(store.update(id, seconds(5), [](json::Value& doc) {
    doc["label"] = "ended";
  }));
  EXPECT_EQ(store.get(id)->get_int("updated_at"), seconds(5));
  EXPECT_TRUE(store.find_by("label", "IoT").empty());
  EXPECT_EQ(store.find_by("label", "ended").size(), 1u);
}

TEST(DocStoreTest, UpdateCannotChangeId) {
  DocumentStore store;
  ObjectId id = store.insert(record("1.1.1.1", "IoT"), 0);
  (void)store.update(id, 1, [](json::Value& doc) { doc["_id"] = "forged"; });
  EXPECT_EQ(store.get(id)->get_string("_id"), id.to_hex());
}

TEST(DocStoreTest, UpdateMissingReturnsFalse) {
  DocumentStore store;
  EXPECT_FALSE(store.update(ObjectId::make(0, 7), 0, [](json::Value&) {}));
}

TEST(DocStoreTest, RemoveCleansIndex) {
  DocumentStore store(kMicrosPerDay);
  store.ensure_index("src_ip");
  ObjectId id = store.insert(record("1.1.1.1", "IoT"), 0);
  EXPECT_EQ(store.expire(2 * kMicrosPerDay), 1u);
  EXPECT_EQ(store.expire(2 * kMicrosPerDay), 0u);
  EXPECT_EQ(store.get(id), nullptr);
  EXPECT_TRUE(store.find_by("src_ip", "1.1.1.1").empty());
}

TEST(DocStoreTest, FindByReturnsIdOrderAfterUpdateChurn) {
  // update() reindexes by remove+append, which churns the bucket's
  // internal order; find_by must still hand ids back in id (insertion)
  // order, the order a full scan yields.
  DocumentStore store;
  store.ensure_index("label");
  ObjectId a = store.insert(record("1.1.1.1", "IoT"), 0);
  ObjectId b = store.insert(record("2.2.2.2", "IoT"), 0);
  ObjectId c = store.insert(record("3.3.3.3", "IoT"), 0);
  // Bounce a and b through another bucket and back; the raw bucket would
  // now read {c, a, b}.
  for (ObjectId id : {a, b}) {
    ASSERT_TRUE(store.update(
        id, 1, [](json::Value& doc) { doc["label"] = "parked"; }));
    ASSERT_TRUE(store.update(
        id, 2, [](json::Value& doc) { doc["label"] = "IoT"; }));
  }
  auto hits = store.find_by("label", "IoT");
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0], a);
  EXPECT_EQ(hits[1], b);
  EXPECT_EQ(hits[2], c);
  auto scanned = store.find_if([](const json::Value& doc) {
    return doc.get_string("label") == "IoT";
  });
  EXPECT_EQ(hits, scanned);
}

TEST(DocStoreTest, FindByExcludesRemovedAmongLiveEntries) {
  DocumentStore store(kMicrosPerDay);
  store.ensure_index("src_ip");
  ObjectId a = store.insert(record("1.1.1.1", "IoT"), 0);
  ObjectId b = store.insert(record("1.1.1.1", "IoT"), 0);
  ObjectId c = store.insert(record("1.1.1.1", "IoT"), 0);
  // Refresh a and c, so only b lapses.
  for (ObjectId id : {a, c}) {
    ASSERT_TRUE(store.update(id, kMicrosPerDay, [](json::Value&) {}));
  }
  EXPECT_EQ(store.expire(kMicrosPerDay + 1), 1u);
  EXPECT_EQ(store.get(b), nullptr);
  auto hits = store.find_by("src_ip", "1.1.1.1");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], a);
  EXPECT_EQ(hits[1], c);
  for (const ObjectId& id : hits) EXPECT_NE(store.get(id), nullptr);
}

json::Value published(const std::string& ip, std::int64_t published_at) {
  json::Value doc = record(ip, "IoT");
  doc["published_at"] = published_at;
  return doc;
}

TEST(DocStoreTest, FindRangeReturnsHalfOpenWindow) {
  DocumentStore store;
  store.ensure_ordered_index("published_at");
  ObjectId a = store.insert(published("1.1.1.1", 100), 0);
  ObjectId b = store.insert(published("2.2.2.2", 200), 0);
  (void)store.insert(published("3.3.3.3", 300), 0);

  auto hits = store.find_range("published_at", 100, 300);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], a);
  EXPECT_EQ(hits[1], b);
  EXPECT_TRUE(store.find_range("published_at", 301, 1000).empty());
  EXPECT_TRUE(store.find_range("published_at", 200, 200).empty());
}

TEST(DocStoreTest, FindRangeReturnsInsertionOrder) {
  // Publication times arrive only approximately ordered; the index must
  // still hand back ids in the order a full scan would (id order), so
  // queries routed through it stay byte-identical.
  DocumentStore store;
  store.ensure_ordered_index("published_at");
  ObjectId first = store.insert(published("1.1.1.1", 300), seconds(1));
  ObjectId second = store.insert(published("2.2.2.2", 100), seconds(2));
  ObjectId third = store.insert(published("3.3.3.3", 200), seconds(3));

  auto hits = store.find_range("published_at", 0, 1000);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0], first);
  EXPECT_EQ(hits[1], second);
  EXPECT_EQ(hits[2], third);
}

TEST(DocStoreTest, FindRangeMatchesFullScanFilter) {
  DocumentStore store;
  store.ensure_ordered_index("published_at");
  for (int i = 0; i < 50; ++i) {
    // Interleaved times: 0, 70, 140, ... modulo 11 buckets.
    store.insert(published("10.0.0." + std::to_string(i), (i * 7) % 11 * 10),
                 seconds(i));
  }
  auto indexed = store.find_range("published_at", 30, 80);
  auto scanned = store.find_if([](const json::Value& doc) {
    const std::int64_t p = doc.get_int("published_at");
    return p >= 30 && p < 80;
  });
  EXPECT_EQ(indexed, scanned);
}

TEST(DocStoreTest, FindRangePagePagesTheWindowInValueIdOrder) {
  DocumentStore store;
  store.ensure_ordered_index("published_at");
  for (int i = 0; i < 30; ++i) {
    // Interleaved times with duplicates, so pages split inside buckets.
    store.insert(published("10.0.0." + std::to_string(i), (i * 7) % 11 * 10),
                 seconds(i));
  }
  DocumentStore::PageCursor whole_cursor;
  const auto whole =
      store.find_range_page("published_at", 0, 1000, 1000, whole_cursor);
  ASSERT_EQ(whole.size(), 30u);

  // Concatenated bounded pages reproduce the one-shot walk exactly.
  DocumentStore::PageCursor cursor;
  std::vector<ObjectId> paged;
  while (true) {
    const auto page = store.find_range_page("published_at", 0, 1000, 7,
                                            cursor);
    if (page.empty()) break;
    EXPECT_LE(page.size(), 7u);
    paged.insert(paged.end(), page.begin(), page.end());
  }
  EXPECT_EQ(paged, whole);

  // Pages promise (value, id) order — the deterministic export order.
  for (std::size_t i = 1; i < whole.size(); ++i) {
    const std::int64_t prev =
        store.get(whole[i - 1])->get_int("published_at");
    const std::int64_t next = store.get(whole[i])->get_int("published_at");
    EXPECT_TRUE(prev < next || (prev == next && whole[i - 1] < whole[i]));
  }

  // The window stays half-open and a zero limit yields nothing.
  DocumentStore::PageCursor window_cursor;
  for (const auto& id :
       store.find_range_page("published_at", 30, 80, 1000, window_cursor)) {
    const std::int64_t p = store.get(id)->get_int("published_at");
    EXPECT_GE(p, 30);
    EXPECT_LT(p, 80);
  }
  DocumentStore::PageCursor zero_cursor;
  EXPECT_TRUE(
      store.find_range_page("published_at", 0, 1000, 0, zero_cursor).empty());
}

TEST(DocStoreTest, FindRangePageResumesAcrossInterleavedInserts) {
  DocumentStore store;
  store.ensure_ordered_index("published_at");
  for (int i = 0; i < 6; ++i) {
    store.insert(published("10.0.0." + std::to_string(i), i * 10),
                 seconds(i));
  }
  DocumentStore::PageCursor cursor;
  const auto first = store.find_range_page("published_at", 0, 1000, 2,
                                           cursor);
  ASSERT_EQ(first.size(), 2u);  // Values 0 and 10 emitted.

  // Inserts land while the walk is parked (a slow export reader): one
  // behind the cursor (never emitted — the page order already passed it)
  // and one ahead (picked up by a later page). No duplicates either way.
  store.insert(published("10.0.1.1", 5), seconds(10));
  const ObjectId ahead =
      store.insert(published("10.0.1.2", 35), seconds(11));

  std::vector<ObjectId> rest;
  while (true) {
    const auto page = store.find_range_page("published_at", 0, 1000, 2,
                                            cursor);
    if (page.empty()) break;
    rest.insert(rest.end(), page.begin(), page.end());
  }
  ASSERT_EQ(rest.size(), 5u);  // The four remaining originals + `ahead`.
  EXPECT_EQ(store.get(rest[0])->get_int("published_at"), 20);
  EXPECT_EQ(rest[2], ahead);  // 20, 30, then the new 35.
  for (const auto& id : first) {
    EXPECT_TRUE(std::find(rest.begin(), rest.end(), id) == rest.end());
  }
}

TEST(DocStoreTest, OrderedIndexFollowsUpdateRemoveAndExpire) {
  DocumentStore store(14 * kMicrosPerDay);
  store.ensure_ordered_index("published_at");
  ObjectId a = store.insert(published("1.1.1.1", 100), 0);
  ObjectId b = store.insert(published("2.2.2.2", 500), 10 * kMicrosPerDay);

  ASSERT_TRUE(store.update(a, 0, [](json::Value& doc) {
    doc["published_at"] = static_cast<std::int64_t>(900);
  }));
  EXPECT_TRUE(store.find_range("published_at", 100, 101).empty());
  auto moved = store.find_range("published_at", 900, 901);
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0], a);

  // a lapses first (updated at 0), then b (updated at day 10).
  EXPECT_EQ(store.expire(20 * kMicrosPerDay), 1u);
  EXPECT_TRUE(store.find_range("published_at", 900, 901).empty());
  EXPECT_EQ(store.find_range("published_at", 0, 1000),
            std::vector<ObjectId>{b});

  EXPECT_EQ(store.expire(25 * kMicrosPerDay), 1u);
  EXPECT_TRUE(store.find_range("published_at", 0, 1000).empty());
}

TEST(DocStoreTest, FindRangeWithoutIndexIsEmpty) {
  DocumentStore store;
  (void)store.insert(published("1.1.1.1", 100), 0);
  EXPECT_TRUE(store.find_range("published_at", 0, 1000).empty());
}

TEST(DocStoreTest, FindIfScansAll) {
  DocumentStore store;
  for (int i = 0; i < 10; ++i) {
    store.insert(record("10.0.0." + std::to_string(i),
                        i % 2 ? "IoT" : "non-IoT"),
                 0);
  }
  auto iot = store.find_if([](const json::Value& doc) {
    return doc.get_string("label") == "IoT";
  });
  EXPECT_EQ(iot.size(), 5u);
}

TEST(DocStoreTest, TwoWeekLapseExpiresOldDocuments) {
  // The paper's historical DB keeps a lapsing two-week window.
  DocumentStore store(14 * kMicrosPerDay);
  store.ensure_index("src_ip");
  (void)store.insert(record("1.1.1.1", "IoT"), 0);
  ObjectId fresh = store.insert(record("2.2.2.2", "IoT"), 10 * kMicrosPerDay);
  EXPECT_EQ(store.expire(15 * kMicrosPerDay), 1u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_NE(store.get(fresh), nullptr);
  EXPECT_TRUE(store.find_by("src_ip", "1.1.1.1").empty());
}

TEST(DocStoreTest, UpdatedDocumentsSurviveExpiry) {
  DocumentStore store(14 * kMicrosPerDay);
  ObjectId id = store.insert(record("1.1.1.1", "IoT"), 0);
  (void)store.update(id, 10 * kMicrosPerDay, [](json::Value&) {});
  EXPECT_EQ(store.expire(15 * kMicrosPerDay), 0u);
  EXPECT_NE(store.get(id), nullptr);
}

TEST(DocStoreTest, NoRetentionNeverExpires) {
  DocumentStore store;
  (void)store.insert(record("1.1.1.1", "IoT"), 0);
  EXPECT_EQ(store.expire(1000 * kMicrosPerDay), 0u);
}

TEST(DocStoreTest, ForEachIteratesInInsertionOrder) {
  DocumentStore store;
  store.insert(record("a", "1"), seconds(1));
  store.insert(record("b", "2"), seconds(2));
  std::vector<std::string> seen;
  store.for_each([&](const ObjectId&, const json::Value& doc) {
    seen.push_back(doc.get_string("src_ip"));
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));
}

// ------------------------------------------------------------- KvStore ----

TEST(KvStoreTest, SetGetDel) {
  KvStore kv;
  kv.set("active:1.2.3.4", "oid123");
  EXPECT_EQ(kv.get("active:1.2.3.4"), "oid123");
  EXPECT_TRUE(kv.exists("active:1.2.3.4"));
  EXPECT_TRUE(kv.del("active:1.2.3.4"));
  EXPECT_FALSE(kv.del("active:1.2.3.4"));
  EXPECT_FALSE(kv.get("active:1.2.3.4").has_value());
}

TEST(KvStoreTest, OverwriteReplaces) {
  KvStore kv;
  kv.set("k", "v1");
  kv.set("k", "v2");
  EXPECT_EQ(kv.get("k"), "v2");
  EXPECT_EQ(kv.size(), 1u);
}

// ----------------------------------------------------- Snapshot state ----

TEST(KvStoreTest, SnapshotRestoreRoundTrip) {
  KvStore kv;
  kv.set("active:1.2.3.4", "oid123");
  kv.set("counter", "7");

  KvStore restored;
  ASSERT_TRUE(restored.restore_state(kv.snapshot_state()).ok());
  EXPECT_EQ(restored.snapshot_state().dump(), kv.snapshot_state().dump());
  EXPECT_EQ(restored.get("active:1.2.3.4"), "oid123");
  EXPECT_EQ(restored.get("counter"), "7");
  EXPECT_EQ(restored.size(), 2u);
}

TEST(KvStoreTest, RestoresSnapshotsWithAnEmptyHashTier) {
  // Snapshots written while the store also had a hash tier carry a
  // "hashes" object, always empty in practice: still restorable. A
  // non-empty one would be state the store cannot hold, so it is an
  // error, and the target store stays untouched.
  auto old_format = json::parse(
      R"({"strings": {"active:1.2.3.4": "oid123"}, "hashes": {}})");
  ASSERT_TRUE(old_format.ok());
  KvStore restored;
  ASSERT_TRUE(restored.restore_state(old_format.value()).ok());
  EXPECT_EQ(restored.get("active:1.2.3.4"), "oid123");
  EXPECT_EQ(restored.snapshot_state().find("hashes"), nullptr);

  auto with_hash = json::parse(
      R"({"strings": {"k": "v"}, "hashes": {"device:1": {"vendor": "x"}}})");
  ASSERT_TRUE(with_hash.ok());
  KvStore target;
  const Status rejected = target.restore_state(with_hash.value());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, "kv_snapshot");
  EXPECT_EQ(target.size(), 0u);
}

TEST(KvStoreTest, RestoreRejectsNonEmptyStore) {
  KvStore kv;
  kv.set("k", "v");
  KvStore target;
  target.set("existing", "x");
  EXPECT_FALSE(target.restore_state(kv.snapshot_state()).ok());
}

TEST(DocStoreTest, SnapshotRestoreRoundTrip) {
  DocumentStore store(kMicrosPerDay);
  store.ensure_index("src_ip");
  store.ensure_ordered_index("published_at");
  ObjectId a = store.insert(published("1.1.1.1", 100), seconds(3));
  (void)store.insert(published("2.2.2.2", 200), seconds(1));
  (void)store.insert(published("1.1.1.1", 300), seconds(3));
  ASSERT_EQ(store.expire(kMicrosPerDay + seconds(2)), 1u);  // The 2.2.2.2.

  DocumentStore restored;
  restored.ensure_index("src_ip");
  restored.ensure_ordered_index("published_at");
  ASSERT_TRUE(restored.restore_state(store.snapshot_state()).ok());
  EXPECT_EQ(restored.size(), 2u);
  EXPECT_EQ(restored.find_by("src_ip", "1.1.1.1"),
            store.find_by("src_ip", "1.1.1.1"));
  EXPECT_EQ(restored.find_range("published_at", 0, 1000),
            store.find_range("published_at", 0, 1000));
  EXPECT_EQ(restored.get(a)->dump(), store.get(a)->dump());
  // ObjectId sequence continues where the original left off, so ids
  // assigned after recovery match the uninterrupted run.
  EXPECT_EQ(restored.insert(record("9.9.9.9", "IoT"), seconds(9)),
            store.insert(record("9.9.9.9", "IoT"), seconds(9)));
}

TEST(DocStoreTest, RestoreRejectsNonEmptyStore) {
  DocumentStore store;
  (void)store.insert(record("1.1.1.1", "IoT"), 0);
  DocumentStore target;
  (void)target.insert(record("2.2.2.2", "IoT"), 0);
  EXPECT_FALSE(target.restore_state(store.snapshot_state()).ok());
}

}  // namespace
}  // namespace exiot::store
