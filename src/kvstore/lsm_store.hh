/**
 * @file
 * Leveled LSM-tree KV store, modeled on Pebble/LevelDB.
 *
 * This is the engine Geth uses underneath (Pebble), rebuilt in C++:
 * writes land in a WAL and a skiplist memtable; full memtables are
 * sealed as immutable memtables and flushed to L0 SSTables by a
 * background maintenance thread, which then runs score-driven
 * compactions (L0 file count, per-level byte budgets). Deletes write
 * tombstones that survive until they reach the bottommost level —
 * exactly the overhead the paper's Finding 5 attributes to LSM
 * stores under Ethereum's delete-heavy classes.
 *
 * Concurrency model: one internal mutex serializes foreground
 * mutations and version swaps; flush/compaction I/O runs on the
 * MaintenanceThread without the lock held. Point reads take the
 * lock only long enough to probe the active memtable and snapshot a
 * shared_ptr to the current immutable-memtable set and table
 * Version, then search lock-free. Scans run on a cursor
 * (newIterator()) that copies the active memtable in bounded
 * batches and iterates everything else in place (DESIGN.md §16).
 * Writers that outrun maintenance hit RocksDB-style
 * backpressure: a 1 ms slowdown once L0 reaches l0_slowdown_files,
 * and a hard stall (condition-variable wait, surfaced via the
 * kv.stall_micros counter) at max_immutable_memtables sealed
 * memtables or l0_stop_files L0 files.
 */

#ifndef ETHKV_KVSTORE_LSM_STORE_HH
#define ETHKV_KVSTORE_LSM_STORE_HH

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/lock_ranks.hh"
#include "common/mutex.hh"
#include "kvstore/kvstore.hh"
#include "kvstore/lsm_maintenance.hh"
#include "kvstore/memtable.hh"
#include "kvstore/sstable.hh"
#include "kvstore/wal.hh"

namespace ethkv::obs
{
class TraceEventLog;
}

namespace ethkv::kv
{

/** Tuning knobs for an LSMStore. */
struct LSMOptions
{
    std::string dir;                    //!< Data directory.
    uint64_t memtable_bytes = 1 << 20;  //!< Seal threshold.
    int l0_compaction_trigger = 4;      //!< L0 file-count trigger.
    uint64_t level_base_bytes = 8u << 20; //!< L1 size budget.
    double level_multiplier = 10.0;     //!< Per-level budget growth.
    uint64_t target_file_bytes = 2u << 20; //!< Output split size.
    bool sync_wal = false;              //!< fdatasync per batch.
    Env *env = nullptr;                 //!< nullptr = defaultEnv().

    //! Sealed-but-unflushed memtables a writer may queue before it
    //! hard-stalls waiting for the background flush to drain.
    int max_immutable_memtables = 2;
    //! L0 file count that slows writers by ~1 ms per batch;
    //! 0 = 2 * l0_compaction_trigger.
    int l0_slowdown_files = 0;
    //! L0 file count that hard-stalls writers; 0 = 3 *
    //! l0_compaction_trigger.
    int l0_stop_files = 0;
    //! Span sink for background flush/compaction work (shows the
    //! maintenance thread as its own track in merged request
    //! timelines); tracing off when null. Not owned; must outlive
    //! the store.
    obs::TraceEventLog *trace_log = nullptr;
};

/**
 * The LSM engine. Thread-safe: any number of concurrent readers and
 * writers, plus one background maintenance thread owned by the
 * store. ethkvd serves it bare, without a LockedKVStore wrapper.
 */
class LSMStore : public KVStore
{
  public:
    /** Open (or create) a store in options.dir, replaying the WAL. */
    static Result<std::unique_ptr<LSMStore>> open(
        const LSMOptions &options);

    ~LSMStore() override;

    Status put(BytesView key, BytesView value) override;
    Status get(BytesView key, Bytes &value) override;
    Status del(BytesView key) override;
    Status scan(BytesView start, BytesView end,
                const ScanCallback &cb) override;
    /** Native cursor; each seek() counts as one user scan. */
    std::unique_ptr<InternalIterator>
    newIterator(BytesView start, BytesView end) override;
    Status apply(const WriteBatch &batch) override;

    /**
     * Barrier: seal the active memtable and wait until background
     * maintenance is fully quiescent (no immutable memtables, no
     * compaction running or pending), then sync the WAL. After a
     * successful flush() every prior write is in an SSTable.
     */
    Status flush() override;

    const IOStats &stats() const override;
    std::string name() const override { return "lsm"; }
    uint64_t liveKeyCount() override;

    /** Force-compact everything down to the last populated level. */
    Status compactAll();

    /**
     * Verify the store's structural invariants.
     *
     * Checks the level shape (per-table key-range sanity, L1+
     * sorted and non-overlapping, file numbers unique and below
     * next_file_no_) and that the on-disk MANIFEST agrees with the
     * in-memory table set and sealed-WAL queue. Debug builds
     * additionally DCHECK these along the write path; tests call
     * this directly after mutations and corruption injections.
     *
     * @return Ok, or Corruption naming the first violated
     *         invariant.
     */
    Status checkInvariants() const;

    /**
     * True once a persistent write-path I/O failure — foreground or
     * background — has switched the store to read-only service.
     * Reads keep working; every mutating call returns
     * Status::ioDegraded.
     */
    bool isDegraded() const;

    /** Why the store degraded; empty while healthy. */
    std::string degradedReason() const;

    /** WAL bytes salvaged to quarantine/ during recovery. */
    uint64_t quarantinedBytes() const;

    /** Number of SSTables per level (diagnostics and tests). */
    std::vector<size_t> levelFileCounts() const;

    /** Total SSTable bytes on disk. */
    uint64_t tableBytes() const;

    /** Whether a compaction is mid-flight (tests only; racy). */
    bool compactionInProgressForTest() const;

    static constexpr int max_levels = 7;

    //! Most active-memtable entries a cursor copies per hold of the
    //! store mutex.
    static constexpr size_t scan_batch = 32;

  private:
    class ActiveBatchIterator;
    class LevelIterator;
    class ScanIterator;

    /**
     * One open SSTable. Shared between Version snapshots; when a
     * compaction retires the table it marks the handle obsolete and
     * the last snapshot to drop it deletes the file.
     */
    struct TableHandle
    {
        TableHandle(uint64_t no,
                    std::unique_ptr<SSTableReader> rdr, Env *e)
            : file_no(no), reader(std::move(rdr)), env(e)
        {}
        ~TableHandle();

        TableHandle(const TableHandle &) = delete;
        TableHandle &operator=(const TableHandle &) = delete;

        uint64_t file_no;
        std::unique_ptr<SSTableReader> reader;
        Env *env;
        std::atomic<bool> obsolete{false};
    };

    using TableVec = std::vector<std::shared_ptr<TableHandle>>;

    /**
     * Immutable snapshot of the table set. Readers grab the current
     * Version under the mutex and then iterate it lock-free;
     * installs build a new Version and swap the shared_ptr.
     */
    struct Version
    {
        std::vector<TableVec> levels;
    };

    /** A sealed memtable queued for background flush, together with
     *  the number of the WAL segment holding its records. */
    struct ImmutableMemtable
    {
        std::shared_ptr<const MemTable> mem;
        uint64_t wal_no;
    };

    /**
     * RAII owner of in_compaction_: construct with the store mutex
     * held to claim the flag, and the destructor re-acquires the
     * lock if needed and clears it, so no early return or exception
     * between pick and install can leave compaction disabled
     * forever.
     */
    class CompactionScope
    {
      public:
        CompactionScope(LSMStore &store,
                        std::unique_lock<std::mutex> &lock);
        ~CompactionScope();

      private:
        LSMStore &store_;
        std::unique_lock<std::mutex> &lock_;
    };

    explicit LSMStore(LSMOptions options);

    Status recover();

    //! One unit of background work; true = call again.
    bool backgroundStep();
    Status backgroundFlush(std::unique_lock<std::mutex> &lock);
    Status backgroundCompact(std::unique_lock<std::mutex> &lock);

    /** Seal the active memtable: rotate the WAL to imm-<n>.wal,
     *  queue the memtable for background flush, and wake the
     *  maintenance thread. Degrades the store itself on failure. */
    Status sealMemtableLocked();

    /** Block while the write path is over its backpressure limits,
     *  charging the wait to kv.stall_micros. */
    void maybeStallLocked(std::unique_lock<std::mutex> &lock);

    bool compactionNeededLocked() const;

    /**
     * Pick one compaction under the lock: inputs (newest source
     * first) and the destination level. Returns false when no level
     * is over budget.
     */
    bool pickCompactionLocked(TableVec &inputs, int &target_level);

    /**
     * Merge `inputs` into new tables at target_level. Called with
     * the lock held; releases it for the merge I/O and re-acquires
     * it to install the result. Used by both the background thread
     * and compactAll (which blocks background work first).
     */
    Status runCompaction(std::unique_lock<std::mutex> &lock,
                         const TableVec &inputs, int target_level);

    /** Write one frozen memtable out as an L0 table (no locking;
     *  caller owns installation). */
    Status writeTableFromMem(const MemTable &mem, uint64_t file_no,
                             uint64_t &file_bytes);

    /** Swap in a Version with `handle` prepended to L0. */
    void installL0Locked(std::shared_ptr<TableHandle> handle);

    uint64_t levelBytesLocked(int level) const;
    uint64_t levelLimit(int level) const;
    std::string tablePath(uint64_t file_no) const;
    std::string walPath() const;
    std::string immWalPath(uint64_t wal_no) const;
    std::string manifestPath() const;
    Status persistManifestLocked();
    Status ioDegradedStatusLocked() const;

    /** Flip to read-only degraded mode (idempotent). */
    void degradeLocked(const Status &cause);

    /**
     * Route a foreground write-path failure: I/O errors flip the
     * store into read-only degraded mode (once) and are returned
     * unchanged so the caller still sees the root cause.
     */
    Status degradeOnIOErrorLocked(Status s);

    /** Record a background flush/compaction failure: bumps
     *  kv.bg_errors and degrades so the foreground path surfaces
     *  sticky IODegraded instead of silently losing maintenance. */
    void recordBgErrorLocked(const Status &cause);

    /** True if no table below `level` may contain keys in range. */
    bool bottommostForRangeLocked(int level, BytesView smallest,
                                  BytesView largest) const;

    void updateQueueGaugeLocked() const;

    LSMOptions options_;
    Env *env_ = nullptr;
    int l0_slowdown_files_ = 0; //!< Resolved from options.
    int l0_stop_files_ = 0;     //!< Resolved from options.

    /**
     * One mutex guards all mutable state below; background I/O and
     * read iteration run outside it against shared_ptr snapshots.
     * Plain std::unique_lock on mutex_.native() (not MutexLock)
     * because the stall/barrier paths need condition_variable
     * waits.
     */
    mutable Mutex mutex_{lock_ranks::kLSMStore};
    //! Signaled on every background install, degradation, and
    //! shutdown; stalled writers and flush() barriers wait on it.
    mutable std::condition_variable cv_;

    bool degraded_ = false;
    std::string degraded_reason_;
    uint64_t quarantined_bytes_ = 0;
    std::unique_ptr<MemTable> memtable_;
    //! Bumped whenever memtable_ is sealed and replaced, so a scan
    //! cursor can tell that its snapshot of the sealed memtables is
    //! stale.
    uint64_t memtable_gen_ = 0;
    std::unique_ptr<WriteAheadLog> wal_;
    uint64_t active_wal_no_ = 0; //!< 0 = none sealed yet.
    std::deque<ImmutableMemtable> imm_; //!< Oldest first.

    //! Bytes read via readers already retired from the version;
    //! declared before version_ so handle destructors can credit it.
    std::atomic<uint64_t> retired_reader_bytes_{0};
    std::shared_ptr<const Version> version_;

    uint64_t next_file_no_ = 1;
    uint64_t seq_ = 0;
    mutable IOStats stats_;
    bool in_compaction_ = false;
    bool shutting_down_ = false;

    //! Declared last: destroyed first, but the destructor stops it
    //! explicitly before any other teardown anyway.
    std::unique_ptr<MaintenanceThread> maintenance_;
};

} // namespace ethkv::kv

#endif // ETHKV_KVSTORE_LSM_STORE_HH
