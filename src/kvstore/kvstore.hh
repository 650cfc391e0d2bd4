/**
 * @file
 * Abstract key-value store interface.
 *
 * This is the seam the paper instruments: Geth issues every read,
 * write, delete, and scan through its KV store interface, and the
 * traces are captured exactly there (paper, Section III-A). All
 * engines — the Pebble-like LSM store, the hash store, the append-log
 * store, the B+-tree store, and the hybrid router — implement this
 * interface, and the TracingKVStore shim wraps any of them.
 */

#ifndef ETHKV_KVSTORE_KVSTORE_HH
#define ETHKV_KVSTORE_KVSTORE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "common/status.hh"
#include "kvstore/internal_iterator.hh"
#include "kvstore/write_batch.hh"

namespace ethkv::kv
{

/**
 * I/O and maintenance counters exposed by every engine.
 *
 * The Section-V ablations compare engines on these: an LSM pays
 * compaction bytes and tombstone overhead; a log store pays GC bytes;
 * a hash store pays neither but cannot scan.
 */
struct IOStats
{
    uint64_t user_reads = 0;        //!< get() calls served.
    uint64_t user_writes = 0;       //!< put() calls (incl. batch).
    uint64_t user_deletes = 0;      //!< del() calls (incl. batch).
    uint64_t user_scans = 0;        //!< scan() calls.
    //! Logical payload accepted from the user: key+value bytes per
    //! put, key bytes per delete. The denominator of write
    //! amplification.
    uint64_t logical_bytes_written = 0;
    uint64_t bytes_written = 0;     //!< All bytes persisted.
    uint64_t bytes_read = 0;        //!< All bytes fetched.
    uint64_t flush_bytes = 0;       //!< Memtable flush volume.
    uint64_t compaction_bytes = 0;  //!< Rewritten during compaction.
    uint64_t gc_bytes = 0;          //!< Rewritten during log GC.
    uint64_t tombstones_written = 0;
    uint64_t tombstones_dropped = 0;
    uint64_t compactions = 0;
    uint64_t gc_runs = 0;

    /** Bytes persisted per logical byte accepted from the user. */
    double
    writeAmplification() const
    {
        if (logical_bytes_written == 0)
            return 0.0;
        return static_cast<double>(bytes_written) /
               static_cast<double>(logical_bytes_written);
    }

    void
    merge(const IOStats &o)
    {
        user_reads += o.user_reads;
        user_writes += o.user_writes;
        user_deletes += o.user_deletes;
        user_scans += o.user_scans;
        logical_bytes_written += o.logical_bytes_written;
        bytes_written += o.bytes_written;
        bytes_read += o.bytes_read;
        flush_bytes += o.flush_bytes;
        compaction_bytes += o.compaction_bytes;
        gc_bytes += o.gc_bytes;
        tombstones_written += o.tombstones_written;
        tombstones_dropped += o.tombstones_dropped;
        compactions += o.compactions;
        gc_runs += o.gc_runs;
    }
};

/**
 * Callback invoked per entry during a scan.
 *
 * @return false to stop the scan early.
 */
using ScanCallback =
    std::function<bool(BytesView key, BytesView value)>;

/**
 * The KV store contract shared by all engines.
 *
 * Keys and values are arbitrary byte strings. Scans visit keys with
 * prefix-range semantics: all keys k with start <= k < end, in
 * ascending order. Engines without ordered indexes return
 * NotSupported from scan (Finding 4 motivates exactly this split).
 */
class KVStore
{
  public:
    virtual ~KVStore() = default;

    /** Insert or overwrite a key. */
    virtual Status put(BytesView key, BytesView value) = 0;

    /**
     * Look up a key.
     *
     * @param value Receives the stored value on success.
     * @return NotFound if absent or deleted.
     */
    virtual Status get(BytesView key, Bytes &value) = 0;

    /** Delete a key; deleting an absent key is Ok. */
    virtual Status del(BytesView key) = 0;

    /**
     * Visit all live keys in [start, end) in ascending order.
     *
     * An empty end means "to the end of the keyspace".
     */
    virtual Status scan(BytesView start, BytesView end,
                        const ScanCallback &cb) = 0;

    /**
     * Open a pull-based cursor over the live keys in [start, end).
     *
     * The cursor yields Put entries only, in ascending key order;
     * seek() it (to start or later) before reading. Like a paged
     * scan it is not a point-in-time snapshot: writes made while it
     * is open may or may not be observed, but keys come out sorted,
     * each at most once, and every key live for the cursor's whole
     * life is returned. It holds no store lock between calls, so
     * its owner may call back into the store. Engine failures
     * (NotSupported included) end it with status().
     *
     * The default is a ChunkedScanIterator over scan(); engines
     * with a native cursor override it.
     */
    virtual std::unique_ptr<InternalIterator>
    newIterator(BytesView start, BytesView end);

    /** Apply a batch atomically (all-or-nothing on recovery). */
    virtual Status apply(const WriteBatch &batch);

    /** Whether the key is currently live. */
    virtual bool contains(BytesView key);

    /** Persist buffered state (memtables, indexes) to storage. */
    virtual Status flush() = 0;

    /** Accumulated I/O counters. */
    virtual const IOStats &stats() const = 0;

    /** Engine name for reports ("lsm", "hash", "log", ...). */
    virtual std::string name() const = 0;

    /** Number of live keys (may be O(n) for some engines). */
    virtual uint64_t liveKeyCount() = 0;
};

/**
 * Cursor built on a callback scan: copies up to `chunk` entries per
 * call to the scan function, hands them out, and resumes strictly
 * past the last key copied once they run out. The copy bounds how
 * long the scan function (and any lock it takes) runs per pull.
 */
class ChunkedScanIterator final : public InternalIterator
{
  public:
    using ScanFn = std::function<Status(BytesView start,
                                        BytesView end,
                                        const ScanCallback &cb)>;

    ChunkedScanIterator(ScanFn scan, BytesView start, BytesView end,
                        size_t chunk);

    void seek(BytesView target) override;
    bool valid() const override { return pos_ < count_; }
    void next() override;
    const InternalEntry &entry() const override;
    Status status() const override { return status_; }

  private:
    void fill();

    ScanFn scan_;
    Bytes start_;
    Bytes end_;
    size_t chunk_;
    Bytes cursor_; //!< Where the next fill starts.
    //! Reused across fills; only the first count_ are current.
    std::vector<InternalEntry> entries_;
    size_t count_ = 0;
    size_t pos_ = 0;
    Status status_ = Status::ok();
};

/**
 * Drive a cursor into a scan callback: seek to @p start and deliver
 * entries until the callback stops or the cursor ends.
 *
 * @return The cursor's status (Ok when the callback stopped it).
 */
Status scanIterator(InternalIterator &it, BytesView start,
                    const ScanCallback &cb);

} // namespace ethkv::kv

#endif // ETHKV_KVSTORE_KVSTORE_HH
