/**
 * @file
 * LockedKVStore: a decorator making any KVStore safe for concurrent
 * callers with one big lock.
 *
 * The single-threaded engines (MemStore, HashStore, BTreeStore,
 * AppendLogStore, LSMStore, LazyIndexStore) are written without
 * internal synchronization so the paper's single-threaded replay
 * benchmarks measure engine cost, not lock traffic. ethkvd serves
 * them from many worker threads, so it wraps them in this decorator.
 * HybridKVStore and CachingKVStore lock internally (per-route
 * shards / one cache lock) and are served bare.
 *
 * Coarse by design: correctness first, contention measured by the
 * server's per-op latency histograms. scan() and newIterator()
 * copy a bounded chunk of entries under the lock
 * (ChunkedScanIterator), then run the user callback with the lock
 * released and resume past the last delivered key — so a slow
 * consumer cannot stall every other connection, and callbacks may
 * safely call back into the store (the server's scan handler sits on
 * this path). The price is that a scan is no longer a point-in-time
 * snapshot across chunk boundaries: concurrent writes between chunks
 * may or may not be observed, which matches the wire contract
 * (paged scans resume from the last key anyway).
 */

#ifndef ETHKV_KVSTORE_LOCKED_STORE_HH
#define ETHKV_KVSTORE_LOCKED_STORE_HH

#include <memory>
#include <string>

#include "common/lock_ranks.hh"
#include "common/mutex.hh"
#include "kvstore/kvstore.hh"

namespace ethkv::kv
{

class LockedKVStore final : public KVStore
{
  public:
    /** Wrap `inner`; the caller keeps ownership and lifetime. */
    explicit LockedKVStore(KVStore &inner) : inner_(inner) {}

    Status
    put(BytesView key, BytesView value) override EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return inner_.put(key, value);
    }

    Status
    get(BytesView key, Bytes &value) override EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return inner_.get(key, value);
    }

    Status
    del(BytesView key) override EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return inner_.del(key);
    }

    Status
    scan(BytesView start, BytesView end,
         const ScanCallback &cb) override EXCLUDES(mutex_)
    {
        return scanIterator(*newIterator(start, end), start, cb);
    }

    /**
     * Chunked: each pull copies up to kScanChunk entries out of the
     * inner scan under the lock and hands them out unlocked. Keeps
     * lock hold time O(chunk) instead of O(range) and makes
     * reentrant callers safe. NotSupported (and any other failure)
     * passes through as the cursor's status, so callers see the
     * engine's own verdict.
     */
    std::unique_ptr<InternalIterator>
    newIterator(BytesView start, BytesView end) override
    {
        static constexpr size_t kScanChunk = 256;
        return std::make_unique<ChunkedScanIterator>(
            [this](BytesView s, BytesView e,
                   const ScanCallback &cb) {
                MutexLock lock(mutex_);
                return inner_.scan(s, e, cb);
            },
            start, end, kScanChunk);
    }

    Status
    apply(const WriteBatch &batch) override EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return inner_.apply(batch);
    }

    bool
    contains(BytesView key) override EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return inner_.contains(key);
    }

    Status
    flush() override EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return inner_.flush();
    }

    const IOStats &
    stats() const override EXCLUDES(mutex_)
    {
        // Copy under the lock into thread-local storage so each
        // caller sees a consistent struct and concurrent stats()
        // calls never race on a shared copy.
        thread_local IOStats copy;
        MutexLock lock(mutex_);
        copy = inner_.stats();
        return copy;
    }

    std::string name() const override { return inner_.name(); }

    uint64_t
    liveKeyCount() override EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return inner_.liveKeyCount();
    }

  private:
    KVStore &inner_;
    mutable Mutex mutex_{lock_ranks::kLockedStore};
};

} // namespace ethkv::kv

#endif // ETHKV_KVSTORE_LOCKED_STORE_HH
