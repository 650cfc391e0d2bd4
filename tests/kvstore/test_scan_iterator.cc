/**
 * @file
 * Scan-cursor tests for the LSM engine and the sharded merge over
 * it: results against a std::map oracle at every batch boundary of
 * the active-memtable copy, with seals, flushes and compactions
 * landing between pulls, plus the paging contract under a
 * concurrent writer. Also built under -fsanitize=thread (ctest entry
 * sharded.tsan_scan_iterator).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rand.hh"
#include "kvstore/lsm_store.hh"
#include "kvstore/sharded_store.hh"
#include "obs/metrics.hh"
#include "test_util.hh"

namespace ethkv::kv
{
namespace
{

using testutil::makeKey;
using testutil::makeValue;
using testutil::ScratchDir;

using Oracle = std::map<Bytes, Bytes>;
using Entries = std::vector<std::pair<Bytes, Bytes>>;

//! Limits around the 32-entry active batch (LSMStore::scan_batch).
const size_t kLimits[] = {1, 31, 32, 33, 100, 129};

/**
 * Small memtables and levels, so seals, flushes and compactions land
 * inside scans, yet few enough that the fsyncs each one costs stay
 * cheap.
 */
LSMOptions
tinyOptions(const std::string &dir)
{
    LSMOptions opts;
    opts.dir = dir;
    opts.memtable_bytes = 32 << 10;
    opts.l0_compaction_trigger = 2;
    opts.level_base_bytes = 128 << 10;
    opts.target_file_bytes = 32 << 10;
    return opts;
}

/** Four LSM shards behind the router. */
struct ShardedLsm
{
    explicit ShardedLsm(const std::string &dir)
    {
        std::vector<std::unique_ptr<KVStore>> shards;
        for (int i = 0; i < 4; ++i) {
            std::string sdir = dir + "/shard-" + std::to_string(i);
            std::filesystem::create_directories(sdir);
            auto s = LSMStore::open(tinyOptions(sdir));
            EXPECT_TRUE(s.ok());
            lsm.push_back(s.value().get());
            shards.push_back(s.take());
        }
        ShardedOptions sopts;
        sopts.metrics = &metrics;
        store = std::make_unique<ShardedKVStore>(std::move(shards),
                                                 sopts);
    }

    obs::MetricsRegistry metrics;
    std::vector<LSMStore *> lsm;
    std::unique_ptr<ShardedKVStore> store;
};

/** Keys in the scanned class: "c/" + makeKey. */
Bytes
classKey(uint64_t i)
{
    return "c/" + makeKey(i);
}

/** Keys outside it, written only to force seals between pulls. */
Bytes
fillerKey(uint64_t i)
{
    return "z/" + makeKey(i);
}

/** The first @p limit oracle entries in [start, end). */
Entries
oracleRange(const Oracle &oracle, const Bytes &start,
            const Bytes &end, size_t limit)
{
    Entries out;
    for (auto it = oracle.lower_bound(start);
         it != oracle.end() && out.size() < limit; ++it) {
        if (!end.empty() && it->first >= end)
            break;
        out.emplace_back(it->first, it->second);
    }
    return out;
}

/**
 * One SCAN of at most @p limit entries. After every delivered entry
 * the callback may call @p between (which must not touch the range).
 */
template <typename Between>
Entries
scanLimit(KVStore &store, const Bytes &start, const Bytes &end,
          size_t limit, Between &&between)
{
    Entries out;
    EXPECT_TRUE(store
                    .scan(start, end,
                          [&](BytesView k, BytesView v) {
                              out.emplace_back(Bytes(k), Bytes(v));
                              between();
                              return out.size() < limit;
                          })
                    .isOk());
    return out;
}

/** Fill the class with puts and deletes, mirrored into @p oracle. */
void
populate(KVStore &store, Oracle &oracle, uint64_t n, uint64_t seed)
{
    Rng rng(seed);
    for (uint64_t i = 0; i < n; ++i) {
        uint64_t k = rng.nextBounded(n);
        if (rng.nextBounded(8) == 0) {
            ASSERT_TRUE(store.del(classKey(k)).isOk());
            oracle.erase(classKey(k));
        } else {
            Bytes v = makeValue(i, 8 + rng.nextBounded(40));
            ASSERT_TRUE(store.put(classKey(k), v).isOk());
            oracle[classKey(k)] = v;
        }
    }
}

/**
 * Rewrite the next @p count keys at or after @p start, in the store
 * and in @p oracle, so the active memtable holds more than one batch
 * of the range a scan is about to read, with values that differ from
 * every older copy. Every fifth key is deleted and replaced by a new
 * key just after it, so tombstones and inserts land there too while
 * the range keeps its size.
 *
 * @return The first key left as it was.
 */
Bytes
refresh(KVStore &store, Oracle &oracle, const Bytes &start,
        size_t count)
{
    auto it = oracle.lower_bound(start);
    for (size_t i = 0; i < count && it != oracle.end(); ++i, ++it) {
        Bytes value = it->second + "'";
        if (i % 5 == 4) {
            Bytes moved = it->first + "+";
            EXPECT_TRUE(store.del(it->first).isOk());
            EXPECT_TRUE(store.put(moved, value).isOk());
            it = oracle.emplace_hint(oracle.erase(it), moved, value);
            continue;
        }
        EXPECT_TRUE(store.put(it->first, value).isOk());
        it->second = value;
    }
    // Past every class key when the oracle ran out.
    return it == oracle.end() ? Bytes("\xff") : it->first;
}

/**
 * Quiescent oracle check: SCANs of every limit, from many starts,
 * each over an active memtable holding more than a batch of the
 * range. Each runs once as is and once with filler writes from
 * inside the callback, so the active memtable seals (and tables
 * flush and compact) between pulls.
 */
void
checkAgainstOracle(KVStore &store, Oracle &oracle, uint64_t n)
{
    const size_t fresh = 3 * LSMStore::scan_batch;
    uint64_t filler = 0;
    auto churn = [&] {
        for (int j = 0; j < 4; ++j) {
            ASSERT_TRUE(store
                            .put(fillerKey(filler++),
                                 Bytes(48, 'f'))
                            .isOk());
        }
    };
    auto still = [] {};
    Rng rng(7);
    for (size_t limit : kLimits) {
        for (int round = 0; round < 6; ++round) {
            Bytes start = round == 0 ? Bytes("c/")
                                     : classKey(rng.nextBounded(n));
            Bytes end = round % 2 == 0 ? Bytes("c0")
                                       : classKey(rng.nextBounded(n));
            if (end < start && end != "c0")
                std::swap(start, end);
            refresh(store, oracle, start, fresh);
            EXPECT_EQ(scanLimit(store, start, end, limit, still),
                      oracleRange(oracle, start, end, limit))
                << "limit " << limit << " round " << round;
            refresh(store, oracle, start, fresh);
            EXPECT_EQ(scanLimit(store, start, end, limit, churn),
                      oracleRange(oracle, start, end, limit))
                << "limit " << limit << " round " << round
                << " with seals between pulls";
        }
    }
    // A paged walk over a quarter of the class at each limit,
    // churning all the way; the range ahead of the cursor is
    // rewritten whenever the walk reaches the end of the last rewrite.
    const Bytes walk_end = classKey(n / 4);
    for (size_t limit : kLimits) {
        Bytes cursor("c/");
        Bytes fresh_end = cursor;
        for (;;) {
            if (cursor >= fresh_end)
                fresh_end = refresh(store, oracle, cursor, fresh);
            Entries page =
                scanLimit(store, cursor, walk_end, limit, churn);
            EXPECT_EQ(page, oracleRange(oracle, cursor, walk_end, limit))
                << "paged at " << limit;
            if (page.size() < limit)
                break;
            cursor = page.back().first;
            cursor.push_back('\0');
        }
    }
}

TEST(ScanIteratorTest, LsmScansMatchOracleAcrossBatchBoundaries)
{
    ScratchDir dir("scan_iter");
    auto store = LSMStore::open(tinyOptions(dir.path()));
    ASSERT_TRUE(store.ok());
    Oracle oracle;
    const uint64_t n = 1500;
    populate(*store.value(), oracle, n, 11);
    checkAgainstOracle(*store.value(), oracle, n);
    EXPECT_TRUE(store.value()->checkInvariants().isOk());
}

TEST(ScanIteratorTest, ShardedLsmScansMatchOracleAcrossBatchBoundaries)
{
    ScratchDir dir("scan_iter_sharded");
    ShardedLsm s(dir.path());
    Oracle oracle;
    const uint64_t n = 3000;
    populate(*s.store, oracle, n, 12);
    checkAgainstOracle(*s.store, oracle, n);
    for (LSMStore *shard : s.lsm) {
        EXPECT_TRUE(shard->checkInvariants().isOk());
        EXPECT_GT(shard->levelFileCounts()[0] +
                      shard->levelFileCounts()[1],
                  0u);
    }
}

// Writes between two batch copies of the active memtable: a key
// ahead of the cursor shows its newest value whether the memtable
// was sealed in between (the cursor re-snapshots) or not (the next
// batch is copied from the same memtable), and nothing of the
// sealed memtable vanishes.
TEST(ScanIteratorTest, WritesBetweenBatchesAreSeenAndNothingHides)
{
    ScratchDir dir("scan_iter_seal");
    LSMOptions opts = tinyOptions(dir.path());
    opts.memtable_bytes = 1 << 20; // seal only when told to
    auto store = LSMStore::open(opts);
    ASSERT_TRUE(store.ok());
    LSMStore &lsm = *store.value();
    const uint64_t batch = LSMStore::scan_batch;
    const uint64_t n = 3 * batch + 5;
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_TRUE(lsm.put(classKey(i), makeValue(i)).isOk());

    Entries got;
    auto it = lsm.newIterator("c/", "c0");
    for (it->seek("c/"); it->valid(); it->next()) {
        got.emplace_back(it->entry().key, it->entry().value);
        if (got.size() == batch) {
            // Last entry of the first batch: the next batch comes
            // from the same memtable. A key behind the cursor is
            // not observed.
            ASSERT_TRUE(lsm.put(classKey(batch + 2), "same").isOk());
            ASSERT_TRUE(lsm.put(classKey(3) + "x", "behind").isOk());
        } else if (got.size() == 2 * batch) {
            // Seal and flush everything before the next pull.
            ASSERT_TRUE(
                lsm.put(classKey(2 * batch + 2), "sealed").isOk());
            ASSERT_TRUE(lsm.flush().isOk());
        }
    }
    EXPECT_TRUE(it->status().isOk());
    ASSERT_EQ(got.size(), n);
    for (uint64_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i].first, classKey(i));
        Bytes want = i == batch + 2       ? Bytes("same")
                     : i == 2 * batch + 2 ? Bytes("sealed")
                                          : makeValue(i);
        EXPECT_EQ(got[i].second, want) << i;
    }
}

/**
 * Under a concurrent writer, the paging contract: every page is
 * sorted and inside [start, end), no key repeats across the walk,
 * and every key live for the whole walk comes back.
 */
TEST(ScanIteratorTest, ConcurrentWriterKeepsPagingContract)
{
    ScratchDir dir("scan_iter_concurrent");
    ShardedLsm s(dir.path());
    KVStore &store = *s.store;
    // Even keys are stable; odd keys churn under the writer.
    const uint64_t n = 2400;
    for (uint64_t i = 0; i < n; i += 2)
        ASSERT_TRUE(store.put(classKey(i), makeValue(i)).isOk());

    std::atomic<bool> stop{false};
    std::thread writer([&] {
        Rng rng(99);
        uint64_t round = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            uint64_t k = 2 * rng.nextBounded(n / 2) + 1;
            Status st = rng.nextBounded(3) == 0
                            ? store.del(classKey(k))
                            : store.put(classKey(k),
                                        makeValue(k + round));
            EXPECT_TRUE(st.isOk());
            // Keys outside the range keep the memtables sealing.
            EXPECT_TRUE(store.put(fillerKey(round % 5000),
                                  Bytes(64, 'f'))
                            .isOk());
            ++round;
        }
    });

    const Bytes start = classKey(0);
    const Bytes end = classKey(n);
    for (size_t limit : kLimits) {
        std::set<Bytes> seen;
        Bytes cursor = start;
        Bytes prev;
        for (;;) {
            size_t got = 0;
            ASSERT_TRUE(
                store
                    .scan(cursor, end,
                          [&](BytesView k, BytesView) {
                              EXPECT_GE(k, BytesView(start));
                              EXPECT_LT(k, BytesView(end));
                              EXPECT_TRUE(prev.empty() ||
                                          BytesView(prev) < k)
                                  << "out of order";
                              EXPECT_TRUE(
                                  seen.insert(Bytes(k)).second)
                                  << "repeated key";
                              prev.assign(k);
                              return ++got < limit;
                          })
                    .isOk());
            if (got < limit)
                break;
            cursor = prev;
            cursor.push_back('\0');
        }
        for (uint64_t i = 0; i < n; i += 2) {
            EXPECT_TRUE(seen.count(classKey(i)))
                << "stable key " << i << " missing at limit "
                << limit;
        }
    }
    stop.store(true);
    writer.join();
}

} // namespace
} // namespace ethkv::kv
