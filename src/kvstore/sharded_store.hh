/**
 * @file
 * ShardedKVStore: hash-partition the keyspace across N inner
 * stores so writers, flushes, and compactions on different shards
 * never contend (DESIGN.md §15).
 *
 * The paper's workload analysis shows Ethereum state traffic is
 * write-heavy, class-skewed, and highly parallelizable within a
 * block, yet a single LSM serializes every writer through one
 * store mutex and one maintenance thread. This decorator is the
 * scale-out seam: each shard is a complete engine — for the LSM
 * that means its own WAL, manifest, memtable, backpressure state,
 * and MaintenanceThread — and the router above them is lock-free
 * on the data path. ethkvd builds it with --shards N.
 *
 * Partitioning is by key hash (xxhash64 of the full key, modulo
 * the shard count), so every class spreads across all shards and
 * the per-class skew the paper measures (Fig 3) cannot pin one
 * shard. Because shards hold disjoint key sets:
 *
 *  - point ops (put/get/del/contains) route to exactly one shard
 *    and touch exactly one shard's locks;
 *  - BATCH splits into per-shard sub-batches, preserving relative
 *    order within each shard (order across shards is irrelevant —
 *    hash-disjoint keys cannot alias). The ack is all-or-nothing:
 *    any sub-batch failure fails the whole apply and nothing is
 *    acknowledged. As with the single-store contract, an unacked
 *    failed batch may leave a partially-applied prefix behind —
 *    crash recovery is per-shard-atomic, not cross-shard-atomic —
 *    which is why the cache tier invalidates batch keys even on a
 *    failed apply (see CacheTier::apply);
 *  - SCAN is one MergingIterator over every shard's newIterator()
 *    cursor: the globally-smallest key is delivered next, so the
 *    merged stream is exactly the ascending order a single store
 *    would produce, and each shard is advanced only as far as the
 *    merge consumes it. Early termination by the callback (the
 *    server's byte budget / entry limit) simply drops the cursors,
 *    and the resume-from-last-key paging contract holds unchanged.
 *
 * Consistency: like any newIterator() cursor, the merged scan is
 * not a point-in-time snapshot — concurrent writes may or may not
 * be observed — which matches the wire contract (paged scans
 * resume from the last delivered key).
 *
 * The shard count is part of the on-disk layout: reopening a
 * directory with a different count would silently misroute every
 * key, so persistent deployments stamp a SHARDS marker file and
 * checkShardMarker() refuses a mismatched reopen.
 */

#ifndef ETHKV_KVSTORE_SHARDED_STORE_HH
#define ETHKV_KVSTORE_SHARDED_STORE_HH

#include <memory>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/lock_ranks.hh"
#include "common/mutex.hh"
#include "kvstore/kvstore.hh"
#include "kvstore/locked_store.hh"
#include "obs/metrics.hh"

namespace ethkv::kv
{

/** Construction knobs for a ShardedKVStore. */
struct ShardedOptions
{
    //! Wrap every shard in its own LockedKVStore. For engines with
    //! no internal synchronization (mem, hash, btree, log) this
    //! turns the one global big lock into N independent ones;
    //! internally-locked engines (lsm, hybrid) are served bare.
    bool lock_shards = false;
    //! Destination for kv.sharded.* instruments; the process
    //! global registry when null.
    obs::MetricsRegistry *metrics = nullptr;
};

/**
 * Hash-partitioning router over N complete KVStore engines. The
 * router itself is lock-free on every data-path op; its one mutex
 * only serializes whole-store maintenance (flush).
 */
class ShardedKVStore final : public KVStore
{
  public:
    /**
     * Take ownership of @p shards (one complete engine each).
     * Shard index order is the routing order and must match across
     * reopens of the same directories.
     */
    ShardedKVStore(std::vector<std::unique_ptr<KVStore>> shards,
                   ShardedOptions options = {});
    ~ShardedKVStore() override;

    ShardedKVStore(const ShardedKVStore &) = delete;
    ShardedKVStore &operator=(const ShardedKVStore &) = delete;

    /** The routing function: which of @p shard_count shards owns
     *  @p key. Exposed so tests and tools can predict placement. */
    static uint32_t shardOf(BytesView key, uint32_t shard_count);

    /**
     * Stamp or verify the shard-count marker file `<dir>/SHARDS`.
     * First open writes it; a reopen whose count disagrees returns
     * InvalidArgument instead of silently misrouting every key.
     */
    static Status checkShardMarker(Env *env, const std::string &dir,
                                   uint32_t shard_count);

    Status put(BytesView key, BytesView value) override;
    Status get(BytesView key, Bytes &value) override;
    Status del(BytesView key) override;
    Status scan(BytesView start, BytesView end,
                const ScanCallback &cb) override;
    std::unique_ptr<InternalIterator>
    newIterator(BytesView start, BytesView end) override;
    Status apply(const WriteBatch &batch) override;
    bool contains(BytesView key) override;
    Status flush() override;
    const IOStats &stats() const override;
    std::string name() const override;
    uint64_t liveKeyCount() override;

    uint32_t shardCount() const
    {
        return static_cast<uint32_t>(serve_.size());
    }

    /** Direct shard access for tests and diagnostics (bypasses
     *  routing; respects the per-shard lock wrapper). */
    KVStore &shard(uint32_t index) { return *serve_[index]; }

  private:
    KVStore &route(BytesView key);

    std::vector<std::unique_ptr<KVStore>> owned_;
    //! One LockedKVStore per shard when options.lock_shards.
    std::vector<std::unique_ptr<LockedKVStore>> locked_;
    std::vector<KVStore *> serve_; //!< What ops actually hit.

    //! Serializes whole-store maintenance (flush barriers) so two
    //! concurrent flush() callers do not interleave per-shard
    //! barriers; never held on the data path. Ranks below every
    //! engine lock it acquires (common/lock_ranks.hh).
    mutable Mutex mutex_{lock_ranks::kShardedStore};

    obs::Counter *cross_shard_batches_;
    obs::Counter *scan_merges_;
    std::vector<obs::Counter *> shard_ops_;
};

} // namespace ethkv::kv

#endif // ETHKV_KVSTORE_SHARDED_STORE_HH
