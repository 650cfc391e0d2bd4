#include "kvstore/lsm_store.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include <set>

#include "common/dcheck.hh"
#include "common/logging.hh"
#include "kvstore/internal_iterator.hh"
#include "obs/scoped_timer.hh"
#include "obs/trace_event.hh"

namespace ethkv::kv
{

namespace
{

/**
 * Track identity for maintenance-thread spans: the server process
 * is pid 1 (workers take tids 1..N), so the maintenance thread gets
 * a tid far above any worker and shows up as its own lane.
 */
constexpr uint32_t kMaintenanceTracePid = 1;
constexpr uint32_t kMaintenanceTraceTid = 1000;

/** Decoded MANIFEST contents (plain text, one directive a line). */
struct ManifestImage
{
    uint64_t next_file = 0;
    uint64_t seq = 0;
    //! (level, file_no) pairs in file order.
    std::vector<std::pair<uint64_t, uint64_t>> files;
    //! Sealed WAL segments (imm-<n>.wal) not yet flushed to L0.
    std::vector<uint64_t> wals;
};

void
parseManifest(BytesView data, ManifestImage &out)
{
    size_t pos = 0;
    while (pos < data.size()) {
        size_t eol = data.find('\n', pos);
        size_t len =
            eol == BytesView::npos ? data.size() - pos : eol - pos;
        std::string line(data.substr(pos, len));
        pos = eol == BytesView::npos ? data.size() : eol + 1;
        uint64_t a, b;
        if (std::sscanf(line.c_str(), "next_file %" SCNu64, &a) ==
            1) {
            out.next_file = a;
        } else if (std::sscanf(line.c_str(), "seq %" SCNu64, &a) ==
                   1) {
            out.seq = a;
        } else if (std::sscanf(line.c_str(),
                               "file %" SCNu64 " %" SCNu64, &a,
                               &b) == 2) {
            out.files.emplace_back(a, b);
        } else if (std::sscanf(line.c_str(), "wal %" SCNu64, &a) ==
                   1) {
            out.wals.push_back(a);
        }
    }
}

} // namespace

LSMStore::TableHandle::~TableHandle()
{
    if (obsolete.load(std::memory_order_acquire)) {
        ETHKV_IGNORE_STATUS(
            env->removeFile(reader->path()),
            "the manifest no longer references this input table; "
            "leaking it costs disk, not correctness");
    }
}

LSMStore::CompactionScope::CompactionScope(
    LSMStore &store, std::unique_lock<std::mutex> &lock)
    : store_(store), lock_(lock)
{
    ETHKV_DCHECK(lock_.owns_lock());
    ETHKV_DCHECK(!store_.in_compaction_);
    store_.in_compaction_ = true;
}

LSMStore::CompactionScope::~CompactionScope()
{
    // Any early return or exception between pick and install lands
    // here; re-acquire the lock if the error path left it released
    // so the flag can never stay stuck and disable compaction.
    if (!lock_.owns_lock())
        lock_.lock();
    store_.in_compaction_ = false;
    store_.updateQueueGaugeLocked();
    store_.cv_.notify_all();
}

LSMStore::LSMStore(LSMOptions options)
    : options_(std::move(options)),
      env_(options_.env ? options_.env : Env::defaultEnv()),
      memtable_(std::make_unique<MemTable>()),
      version_(std::make_shared<Version>())
{
    l0_slowdown_files_ = options_.l0_slowdown_files > 0
                             ? options_.l0_slowdown_files
                             : 2 * options_.l0_compaction_trigger;
    l0_stop_files_ = options_.l0_stop_files > 0
                         ? options_.l0_stop_files
                         : 3 * options_.l0_compaction_trigger;
    if (options_.max_immutable_memtables < 1)
        options_.max_immutable_memtables = 1;
}

LSMStore::~LSMStore()
{
    {
        std::unique_lock<std::mutex> lock(mutex_.native());
        shutting_down_ = true;
    }
    cv_.notify_all();
    if (maintenance_)
        maintenance_->stop();
    // Unflushed immutable memtables stay behind as imm-<n>.wal
    // segments listed in the MANIFEST; recovery flushes them.
    // Best effort: make buffered writes durable on clean shutdown.
    if (wal_) {
        ETHKV_IGNORE_STATUS(wal_->sync(),
                            "best-effort durability in dtor; a "
                            "failed sync is re-covered by WAL "
                            "replay on reopen");
    }
}

std::string
LSMStore::tablePath(uint64_t file_no) const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "/%06" PRIu64 ".sst", file_no);
    return options_.dir + buf;
}

std::string
LSMStore::walPath() const
{
    return options_.dir + "/wal.log";
}

std::string
LSMStore::immWalPath(uint64_t wal_no) const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "/imm-%06" PRIu64 ".wal",
                  wal_no);
    return options_.dir + buf;
}

std::string
LSMStore::manifestPath() const
{
    return options_.dir + "/MANIFEST";
}

Result<std::unique_ptr<LSMStore>>
LSMStore::open(const LSMOptions &options)
{
    if (options.dir.empty())
        return Status::invalidArgument("lsm: empty directory");
    Env *env = options.env ? options.env : Env::defaultEnv();
    Status dir_s = env->createDirs(options.dir);
    if (!dir_s.isOk())
        return dir_s;

    auto store =
        std::unique_ptr<LSMStore>(new LSMStore(options));
    Status s = store->recover();
    if (!s.isOk())
        return s;
    return store;
}

void
LSMStore::degradeLocked(const Status &cause)
{
    if (degraded_)
        return;
    degraded_ = true;
    degraded_reason_ = cause.toString();
    obs::MetricsRegistry::global()
        .counter("kv.degraded_transitions")
        .inc();
    // Unblock stalled writers and flush() barriers: there will be
    // no more background progress for them to wait on.
    cv_.notify_all();
}

Status
LSMStore::degradeOnIOErrorLocked(Status s)
{
    if (s.code() != StatusCode::IOError || degraded_)
        return s;
    degradeLocked(s);
    return s;
}

void
LSMStore::recordBgErrorLocked(const Status &cause)
{
    static obs::Counter &bg_errors =
        obs::MetricsRegistry::global().counter("kv.bg_errors");
    bg_errors.inc();
    // A failed background flush means the immutable queue can never
    // drain (its WAL segment is already sealed), so any background
    // failure — not just IOError — must go sticky: the foreground
    // path surfaces IODegraded instead of stalling forever.
    degradeLocked(cause);
}

Status
LSMStore::ioDegradedStatusLocked() const
{
    return Status::ioDegraded("lsm: read-only after I/O failure: " +
                              degraded_reason_);
}

Status
LSMStore::recover()
{
    // Recovery is single-threaded: the maintenance thread starts
    // only at the end, so "Locked" helpers are safe to call bare.
    std::vector<TableVec> levels(max_levels);
    ManifestImage img;
    if (env_->fileExists(manifestPath())) {
        Bytes data;
        Status ms = env_->readFileToString(manifestPath(), data);
        if (!ms.isOk())
            return ms;
        img.next_file = next_file_no_;
        img.seq = seq_;
        parseManifest(data, img);
        next_file_no_ = img.next_file;
        seq_ = img.seq;
        for (auto [level, file_no] : img.files) {
            if (level >= max_levels) {
                return Status::corruption(
                    "lsm: manifest level out of range");
            }
            auto reader =
                SSTableReader::open(tablePath(file_no), env_);
            if (!reader.ok())
                return reader.status();
            levels[level].push_back(std::make_shared<TableHandle>(
                file_no, reader.take(), env_));
        }
    }

    // L0 is searched newest-first; deeper levels are ordered by key.
    std::sort(levels[0].begin(), levels[0].end(),
              [](const auto &x, const auto &y) {
                  return x->file_no > y->file_no;
              });
    for (int level = 1; level < max_levels; ++level) {
        std::sort(levels[level].begin(), levels[level].end(),
                  [](const auto &x, const auto &y) {
                      return x->reader->props().smallest_key <
                             y->reader->props().smallest_key;
                  });
    }

    // Sealed WAL segments are memtables that were queued for
    // background flush when the process died. Flush each inline to
    // an L0 table (LevelDB-style), oldest first so newer segments
    // get higher file numbers and sort first in L0.
    std::vector<uint64_t> recovered_wals = img.wals;
    std::sort(recovered_wals.begin(), recovered_wals.end());
    std::vector<std::string> flushed_wal_paths;
    for (uint64_t wal_no : recovered_wals) {
        std::string path = immWalPath(wal_no);
        if (!env_->fileExists(path)) {
            // Crash window between the manifest listing the segment
            // and the wal.log rename: the records are still in
            // wal.log and get replayed below.
            continue;
        }
        MemTable mem;
        uint64_t valid_bytes = 0;
        Status s = WriteAheadLog::replay(
            path,
            [&](const WriteBatch &batch, uint64_t first_seq) {
                uint64_t seq = first_seq;
                for (const BatchEntry &e : batch.entries()) {
                    mem.add(e.key, e.value, seq,
                            e.op == BatchOp::Put
                                ? EntryType::Put
                                : EntryType::Tombstone);
                    ++seq;
                }
                if (seq > seq_)
                    seq_ = seq;
            },
            env_, &valid_bytes);
        if (!s.isOk())
            return s;
        uint64_t salvaged = 0;
        s = env_->quarantineTail(path, valid_bytes,
                                 options_.dir + "/quarantine",
                                 &salvaged);
        if (!s.isOk())
            return s;
        if (salvaged > 0) {
            quarantined_bytes_ += salvaged;
            obs::MetricsRegistry::global()
                .counter("kv.quarantined_bytes")
                .inc(salvaged);
        }
        if (!mem.empty()) {
            uint64_t file_no = next_file_no_++;
            uint64_t file_bytes = 0;
            s = writeTableFromMem(mem, file_no, file_bytes);
            if (!s.isOk())
                return s;
            stats_.flush_bytes += file_bytes;
            stats_.bytes_written += file_bytes;
            auto reader =
                SSTableReader::open(tablePath(file_no), env_);
            if (!reader.ok())
                return reader.status();
            levels[0].insert(levels[0].begin(),
                             std::make_shared<TableHandle>(
                                 file_no, reader.take(), env_));
        }
        flushed_wal_paths.push_back(path);
    }

    auto ver = std::make_shared<Version>();
    ver->levels = std::move(levels);
    version_ = std::move(ver);

    if (!img.wals.empty()) {
        // Commit the recovered tables and drop the wal directives
        // before deleting the segments they replaced.
        Status s = persistManifestLocked();
        if (!s.isOk())
            return s;
        for (const std::string &path : flushed_wal_paths) {
            ETHKV_IGNORE_STATUS(
                env_->removeFile(path),
                "the manifest no longer references this sealed "
                "WAL; leaking it costs disk, not correctness");
        }
    }

    // Replay the active WAL into a fresh memtable; quarantine any
    // torn tail before appending to the log again (appending past a
    // torn record would leave the new records unreachable to
    // replay).
    uint64_t valid_bytes = 0;
    Status s = WriteAheadLog::replay(
        walPath(),
        [this](const WriteBatch &batch, uint64_t first_seq) {
            uint64_t seq = first_seq;
            for (const BatchEntry &e : batch.entries()) {
                memtable_->add(e.key, e.value, seq,
                               e.op == BatchOp::Put
                                   ? EntryType::Put
                                   : EntryType::Tombstone);
                ++seq;
            }
            if (seq > seq_)
                seq_ = seq;
        },
        env_, &valid_bytes);
    if (!s.isOk())
        return s;
    if (env_->fileExists(walPath())) {
        uint64_t salvaged = 0;
        s = env_->quarantineTail(walPath(), valid_bytes,
                                 options_.dir + "/quarantine",
                                 &salvaged);
        if (!s.isOk())
            return s;
        if (salvaged > 0) {
            quarantined_bytes_ += salvaged;
            obs::MetricsRegistry::global()
                .counter("kv.quarantined_bytes")
                .inc(salvaged);
        }
    }

    auto wal = WriteAheadLog::open(walPath(), env_);
    if (!wal.ok())
        return wal.status();
    wal_ = wal.take();
    // The log may have just been created; fdatasync on the file
    // alone never persists its directory entry.
    s = env_->syncDir(options_.dir);
    if (!s.isOk())
        return s;

    maintenance_ = std::make_unique<MaintenanceThread>(
        [this] { return backgroundStep(); });
    maintenance_->start();
    return Status::ok();
}

Status
LSMStore::persistManifestLocked()
{
    std::string body = "ethkv-manifest v1\n";
    body += "next_file " + std::to_string(next_file_no_) + "\n";
    body += "seq " + std::to_string(seq_) + "\n";
    for (int level = 0; level < max_levels; ++level) {
        for (const auto &t : version_->levels[level]) {
            body += "file " + std::to_string(level) + " " +
                    std::to_string(t->file_no) + "\n";
        }
    }
    // Sealed-but-unflushed WAL segments, oldest first. A `wal n`
    // directive is written BEFORE wal.log is renamed to
    // imm-<n>.wal, so a crash in between leaves a directive whose
    // file is missing — recovery skips it and finds the records
    // still in wal.log.
    for (const ImmutableMemtable &imm : imm_)
        body += "wal " + std::to_string(imm.wal_no) + "\n";

    // Commit protocol: sync the temp file, rename it over MANIFEST,
    // then fsync the directory. Skipping either sync re-creates the
    // seed's bug where a crash could surface an empty or stale
    // manifest whose rename never reached disk.
    std::string tmp = manifestPath() + ".tmp";
    Status s = env_->writeStringToFile(tmp, body, /*sync=*/true);
    if (!s.isOk())
        return s;
    s = env_->renameFile(tmp, manifestPath());
    if (!s.isOk())
        return s;
    // This also persists the directory entries of any SSTables
    // created since the last commit (same directory).
    return env_->syncDir(options_.dir);
}

Status
LSMStore::put(BytesView key, BytesView value)
{
    WriteBatch batch;
    batch.put(key, value);
    return apply(batch);
}

Status
LSMStore::del(BytesView key)
{
    WriteBatch batch;
    batch.del(key);
    return apply(batch);
}

void
LSMStore::maybeStallLocked(std::unique_lock<std::mutex> &lock)
{
    static obs::Counter &stall_micros =
        obs::MetricsRegistry::global().counter("kv.stall_micros");

    auto over_hard_limit = [this] {
        return imm_.size() >= static_cast<size_t>(
                                  options_.max_immutable_memtables) ||
               version_->levels[0].size() >=
                   static_cast<size_t>(l0_stop_files_);
    };

    using Clock = std::chrono::steady_clock;
    if (over_hard_limit()) {
        auto begin = Clock::now();
        cv_.wait(lock, [&] {
            return degraded_ || shutting_down_ || !over_hard_limit();
        });
        auto waited =
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - begin)
                .count();
        stall_micros.inc(static_cast<uint64_t>(waited));
        return;
    }
    if (version_->levels[0].size() >=
        static_cast<size_t>(l0_slowdown_files_)) {
        // Soft backpressure: cede ~1 ms so maintenance can catch up
        // before L0 reaches the hard stop. Implemented as a timed
        // wait so a background install releases the writer early.
        auto begin = Clock::now();
        cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
            return degraded_ || shutting_down_ ||
                   version_->levels[0].size() <
                       static_cast<size_t>(l0_slowdown_files_);
        });
        auto waited =
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - begin)
                .count();
        stall_micros.inc(static_cast<uint64_t>(waited));
    }
}

Status
LSMStore::apply(const WriteBatch &batch)
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    if (degraded_)
        return ioDegradedStatusLocked();
    if (batch.empty())
        return Status::ok();
    maybeStallLocked(lock);
    if (degraded_)
        return ioDegradedStatusLocked();

    uint64_t first_seq = seq_ + 1;
    Status s = wal_->append(batch, first_seq);
    if (!s.isOk())
        return degradeOnIOErrorLocked(std::move(s));
    if (options_.sync_wal) {
        s = wal_->sync();
        if (!s.isOk())
            return degradeOnIOErrorLocked(std::move(s));
    }
    for (const BatchEntry &e : batch.entries()) {
        ++seq_;
        if (e.op == BatchOp::Put) {
            ++stats_.user_writes;
            stats_.logical_bytes_written +=
                e.key.size() + e.value.size();
            memtable_->add(e.key, e.value, seq_, EntryType::Put);
        } else {
            ++stats_.user_deletes;
            ++stats_.tombstones_written;
            stats_.logical_bytes_written += e.key.size();
            memtable_->add(e.key, Bytes(), seq_,
                           EntryType::Tombstone);
        }
        stats_.bytes_written += e.key.size() + e.value.size();
    }
    if (memtable_->approximateBytes() >= options_.memtable_bytes)
        return sealMemtableLocked();
    return Status::ok();
}

Status
LSMStore::sealMemtableLocked()
{
    if (memtable_->empty())
        return Status::ok();

    uint64_t wal_no = next_file_no_++;
    // Close the active log so the rename below moves a quiesced
    // file; a failure anywhere past this point leaves wal_ null,
    // which is safe because the store degrades (no more writes).
    wal_.reset();
    imm_.push_back({std::shared_ptr<const MemTable>(
                        memtable_.release()),
                    wal_no});
    memtable_ = std::make_unique<MemTable>();
    ++memtable_gen_;

    Status s = persistManifestLocked();
    if (!s.isOk()) {
        degradeLocked(s);
        return s;
    }
    s = env_->renameFile(walPath(), immWalPath(wal_no));
    if (!s.isOk()) {
        degradeLocked(s);
        return s;
    }
    s = env_->syncDir(options_.dir);
    if (!s.isOk()) {
        degradeLocked(s);
        return s;
    }
    auto wal = WriteAheadLog::open(walPath(), env_);
    if (!wal.ok()) {
        degradeLocked(wal.status());
        return wal.status();
    }
    wal_ = wal.take();

    updateQueueGaugeLocked();
    maintenance_->signal();
    return Status::ok();
}

bool
LSMStore::backgroundStep()
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    if (shutting_down_ || degraded_)
        return false;
    if (!imm_.empty()) {
        Status s = backgroundFlush(lock);
        if (!s.isOk()) {
            recordBgErrorLocked(s);
            return false;
        }
        return true;
    }
    // compactAll runs inline compactions with in_compaction_ held
    // across its own unlock windows; never double-claim.
    if (!in_compaction_ && compactionNeededLocked()) {
        Status s = backgroundCompact(lock);
        if (!s.isOk()) {
            recordBgErrorLocked(s);
            return false;
        }
        return true;
    }
    return false;
}

Status
LSMStore::writeTableFromMem(const MemTable &mem, uint64_t file_no,
                            uint64_t &file_bytes)
{
    auto writer = SSTableWriter::create(tablePath(file_no),
                                        mem.entryCount(), env_);
    if (!writer.ok())
        return writer.status();
    Status add_status = Status::ok();
    mem.forEach(BytesView(), BytesView(),
                [&](const InternalEntry &e) {
                    add_status = writer.value()->add(e);
                    return add_status.isOk();
                });
    if (!add_status.isOk())
        return add_status;
    Status s = writer.value()->finish();
    if (!s.isOk())
        return s;
    file_bytes = writer.value()->fileBytes();
    return Status::ok();
}

void
LSMStore::installL0Locked(std::shared_ptr<TableHandle> handle)
{
    auto next = std::make_shared<Version>(*version_);
    next->levels[0].insert(next->levels[0].begin(),
                           std::move(handle));
    version_ = std::move(next);
}

Status
LSMStore::backgroundFlush(std::unique_lock<std::mutex> &lock)
{
    static obs::LatencyHistogram &flush_ns =
        obs::MetricsRegistry::global().histogram("kv.lsm.flush_ns");
    obs::ScopedTimer timer(flush_ns);
    obs::ScopedSpan span(options_.trace_log, "maint.flush",
                         "maintenance");
    span.setTrack(kMaintenanceTracePid, kMaintenanceTraceTid);

    ImmutableMemtable imm = imm_.front();
    uint64_t file_no = next_file_no_++;
    lock.unlock();

    // Table build runs without the lock: the sealed memtable is
    // frozen, and file numbers were claimed above.
    uint64_t file_bytes = 0;
    Status s = writeTableFromMem(*imm.mem, file_no, file_bytes);
    std::shared_ptr<TableHandle> handle;
    if (s.isOk()) {
        auto reader = SSTableReader::open(tablePath(file_no), env_);
        if (!reader.ok())
            s = reader.status();
        else
            handle = std::make_shared<TableHandle>(
                file_no, reader.take(), env_);
    }

    span.setArg("bytes", file_bytes);
    lock.lock();
    if (!s.isOk())
        return s;
    stats_.flush_bytes += file_bytes;
    stats_.bytes_written += file_bytes;
    installL0Locked(std::move(handle));
    ETHKV_DCHECK_EQ(version_->levels[0].front()->file_no, file_no);
    ETHKV_DCHECK(!imm_.empty());
    imm_.pop_front();
    s = persistManifestLocked();
    if (!s.isOk())
        return s;
    updateQueueGaugeLocked();
    cv_.notify_all();

    lock.unlock();
    ETHKV_IGNORE_STATUS(
        env_->removeFile(immWalPath(imm.wal_no)),
        "the manifest no longer references this sealed WAL; "
        "leaking it costs disk, not correctness");
    lock.lock();
    return Status::ok();
}

bool
LSMStore::compactionNeededLocked() const
{
    if (version_->levels[0].size() >=
        static_cast<size_t>(options_.l0_compaction_trigger)) {
        return true;
    }
    for (int level = 1; level < max_levels - 1; ++level) {
        if (!version_->levels[level].empty() &&
            levelBytesLocked(level) > levelLimit(level)) {
            return true;
        }
    }
    return false;
}

bool
LSMStore::pickCompactionLocked(TableVec &inputs, int &target_level)
{
    const auto &levels = version_->levels;
    if (levels[0].size() >=
        static_cast<size_t>(options_.l0_compaction_trigger)) {
        // All of L0 (kept newest-first) plus everything it overlaps
        // at L1.
        Bytes smallest, largest;
        bool first = true;
        for (const auto &t : levels[0]) {
            const SSTableProps &p = t->reader->props();
            if (first || p.smallest_key < smallest)
                smallest = p.smallest_key;
            if (first || p.largest_key > largest)
                largest = p.largest_key;
            first = false;
            inputs.push_back(t);
        }
        for (const auto &t : levels[1]) {
            const SSTableProps &p = t->reader->props();
            if (BytesView(p.largest_key) < BytesView(smallest) ||
                BytesView(p.smallest_key) > BytesView(largest)) {
                continue;
            }
            inputs.push_back(t);
        }
        target_level = 1;
        return true;
    }
    for (int level = 1; level < max_levels - 1; ++level) {
        if (levels[level].empty() ||
            levelBytesLocked(level) <= levelLimit(level)) {
            continue;
        }
        // Pick the file with the smallest key (simple deterministic
        // rotation) plus everything it overlaps one level down.
        inputs.push_back(levels[level][0]);
        const SSTableProps &p = levels[level][0]->reader->props();
        for (const auto &t : levels[level + 1]) {
            const SSTableProps &q = t->reader->props();
            if (BytesView(q.largest_key) <
                    BytesView(p.smallest_key) ||
                BytesView(q.smallest_key) >
                    BytesView(p.largest_key)) {
                continue;
            }
            inputs.push_back(t);
        }
        target_level = level + 1;
        return true;
    }
    return false;
}

Status
LSMStore::backgroundCompact(std::unique_lock<std::mutex> &lock)
{
    TableVec inputs;
    int target_level = 0;
    if (!pickCompactionLocked(inputs, target_level))
        return Status::ok();
    CompactionScope scope(*this, lock);
    return runCompaction(lock, inputs, target_level);
}

Status
LSMStore::runCompaction(std::unique_lock<std::mutex> &lock,
                        const TableVec &inputs, int target_level)
{
    ETHKV_DCHECK(lock.owns_lock());
    ETHKV_DCHECK(in_compaction_);
    if (inputs.empty())
        return Status::ok();

    static obs::LatencyHistogram &compaction_ns =
        obs::MetricsRegistry::global().histogram(
            "kv.lsm.compaction_ns");
    obs::ScopedTimer timer(compaction_ns);
    obs::ScopedSpan span(options_.trace_log, "maint.compact",
                         "maintenance");
    span.setTrack(kMaintenanceTracePid, kMaintenanceTraceTid);

    ++stats_.compactions;

    Bytes smallest, largest;
    uint64_t input_entries = 0;
    bool first = true;
    for (const auto &t : inputs) {
        const SSTableProps &p = t->reader->props();
        if (first || p.smallest_key < smallest)
            smallest = p.smallest_key;
        if (first || p.largest_key > largest)
            largest = p.largest_key;
        first = false;
        input_entries += p.entry_count;
    }
    bool drop_tombstones =
        bottommostForRangeLocked(target_level, smallest, largest);

    // The merge itself runs without the lock. The input tables are
    // pinned by the shared_ptrs in `inputs`; concurrent flushes may
    // prepend new L0 tables meanwhile, which is fine because the
    // install below removes inputs by file number, not position.
    lock.unlock();

    std::vector<std::unique_ptr<InternalIterator>> sources;
    for (const auto &t : inputs)
        sources.push_back(t->reader->newIterator());
    MergingIterator merged(std::move(sources));
    merged.seek(BytesView());

    std::unique_ptr<SSTableWriter> writer;
    uint64_t new_bytes = 0;
    uint64_t dropped_tombstones = 0;
    std::vector<uint64_t> output_nos;

    auto close_writer = [&]() -> Status {
        if (!writer)
            return Status::ok();
        Status cs = writer->finish();
        if (!cs.isOk())
            return cs;
        new_bytes += writer->fileBytes();
        writer.reset();
        return Status::ok();
    };

    Status s = Status::ok();
    while (merged.valid()) {
        const InternalEntry &e = merged.entry();
        if (e.type == EntryType::Tombstone && drop_tombstones) {
            ++dropped_tombstones;
            merged.next();
            continue;
        }
        if (!writer) {
            uint64_t file_no;
            {
                std::lock_guard<std::mutex> no_lock(
                    mutex_.native());
                file_no = next_file_no_++;
            }
            output_nos.push_back(file_no);
            auto w = SSTableWriter::create(tablePath(file_no),
                                           input_entries, env_);
            if (!w.ok()) {
                s = w.status();
                break;
            }
            writer = w.take();
        }
        s = writer->add(e);
        if (!s.isOk())
            break;
        if (writer->props().data_bytes >
            options_.target_file_bytes) {
            s = close_writer();
            if (!s.isOk())
                break;
        }
        merged.next();
    }
    if (s.isOk())
        s = close_writer();

    // Open the outputs before touching the version, so a failure
    // here leaves the table set exactly as it was.
    std::vector<std::shared_ptr<TableHandle>> new_handles;
    if (s.isOk()) {
        for (uint64_t file_no : output_nos) {
            auto reader =
                SSTableReader::open(tablePath(file_no), env_);
            if (!reader.ok()) {
                s = reader.status();
                break;
            }
            new_handles.push_back(std::make_shared<TableHandle>(
                file_no, reader.take(), env_));
        }
    }

    lock.lock();
    if (!s.isOk())
        return s;

    span.setArg("bytes", new_bytes);
    stats_.compaction_bytes += new_bytes;
    stats_.bytes_written += new_bytes;
    stats_.tombstones_dropped += dropped_tombstones;

    // Install: rebuild the version without the inputs and with the
    // outputs merged into the target level's sorted run.
    std::set<uint64_t> input_nos;
    for (const auto &t : inputs)
        input_nos.insert(t->file_no);
    auto next = std::make_shared<Version>();
    next->levels.resize(max_levels);
    for (int level = 0; level < max_levels; ++level) {
        for (const auto &t : version_->levels[level]) {
            if (!input_nos.count(t->file_no))
                next->levels[level].push_back(t);
        }
    }
    for (auto &h : new_handles)
        next->levels[target_level].push_back(std::move(h));
    std::sort(next->levels[target_level].begin(),
              next->levels[target_level].end(),
              [](const auto &x, const auto &y) {
                  return x->reader->props().smallest_key <
                         y->reader->props().smallest_key;
              });
#if ETHKV_DCHECK_ENABLED
    // The freshly installed run must be non-overlapping.
    for (size_t i = 1; i < next->levels[target_level].size(); ++i) {
        ETHKV_DCHECK(
            next->levels[target_level][i - 1]->reader->props()
                .largest_key <
            next->levels[target_level][i]->reader->props()
                .smallest_key);
    }
#endif
    version_ = std::move(next);

    s = persistManifestLocked();
    if (!s.isOk())
        return s;

    // Only after the manifest stops referencing the inputs may they
    // be deleted; the last Version snapshot holding a handle does
    // the actual unlink when it drops it.
    for (const auto &t : inputs) {
        retired_reader_bytes_.fetch_add(
            t->reader->bytesRead(), std::memory_order_relaxed);
        t->obsolete.store(true, std::memory_order_release);
    }

    updateQueueGaugeLocked();
    cv_.notify_all();
    return Status::ok();
}

Status
LSMStore::get(BytesView key, Bytes &value)
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    ++stats_.user_reads;

    InternalEntry entry;
    if (memtable_->get(key, entry)) {
        if (entry.type == EntryType::Tombstone)
            return Status::notFound();
        value = entry.value;
        return Status::ok();
    }

    // Snapshot the frozen state, then search without the lock.
    std::vector<std::shared_ptr<const MemTable>> imms;
    imms.reserve(imm_.size());
    for (auto it = imm_.rbegin(); it != imm_.rend(); ++it)
        imms.push_back(it->mem); // Newest first.
    std::shared_ptr<const Version> ver = version_;
    lock.unlock();

    for (const auto &mem : imms) {
        if (mem->get(key, entry)) {
            if (entry.type == EntryType::Tombstone)
                return Status::notFound();
            value = entry.value;
            return Status::ok();
        }
    }

    // L0: newest first; files may overlap.
    for (const auto &t : ver->levels[0]) {
        Status s = t->reader->get(key, entry);
        if (s.isOk()) {
            if (entry.type == EntryType::Tombstone)
                return Status::notFound();
            value = entry.value;
            return Status::ok();
        }
        if (!s.isNotFound())
            return s;
    }

    // Deeper levels: at most one candidate file per level.
    for (int level = 1; level < max_levels; ++level) {
        const auto &files = ver->levels[level];
        if (files.empty())
            continue;
        // Last file whose smallest key <= key.
        size_t lo = 0, hi = files.size();
        while (lo < hi) {
            size_t mid = (lo + hi) / 2;
            if (BytesView(
                    files[mid]->reader->props().smallest_key) <=
                key) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if (lo == 0)
            continue;
        const auto &t = files[lo - 1];
        if (key > BytesView(t->reader->props().largest_key))
            continue;
        Status s = t->reader->get(key, entry);
        if (s.isOk()) {
            if (entry.type == EntryType::Tombstone)
                return Status::notFound();
            value = entry.value;
            return Status::ok();
        }
        if (!s.isNotFound())
            return s;
    }
    return Status::notFound();
}

// ---------------------------------------------------------------
// Scan cursor
// ---------------------------------------------------------------

/**
 * Cursor over the active memtable, which keeps changing under
 * writers. It holds at most scan_batch copied entries and copies the
 * next batch, under the store mutex, when the merge moves past the
 * last one; a memtable cursor parked on the last copied node makes
 * that copy resume without a fresh skiplist search. If the memtable
 * was sealed in between, that copy would miss whatever the sealed
 * memtable holds past the batch, so the cursor goes invalid and
 * flags itself stale instead; ScanIterator then re-snapshots every
 * source at resumeKey().
 */
class LSMStore::ActiveBatchIterator final : public InternalIterator
{
  public:
    ActiveBatchIterator(LSMStore &store, BytesView end)
        : store_(store), end_(end)
    {}

    /** Copy the first batch at or after @p from; mutex held. */
    void
    loadLocked(BytesView from)
    {
        gen_ = store_.memtable_gen_;
        mem_ = store_.memtable_->newIterator();
        mem_->seek(from);
        copyLocked();
    }

    void
    seek(BytesView target) override
    {
        pos_ = 0;
        while (pos_ < count_ && BytesView(batch_[pos_].key) < target)
            ++pos_;
    }

    bool valid() const override { return pos_ < count_; }

    void
    next() override
    {
        if (!valid())
            panic("ActiveBatchIterator::next on invalid iterator");
        if (++pos_ < count_ || count_ < scan_batch)
            return;
        // A full batch may have stopped short of the range's end.
        std::lock_guard<std::mutex> lock(store_.mutex_.native());
        if (store_.memtable_gen_ != gen_) {
            // mem_ may point into a freed memtable; never touch it.
            resume_.assign(batch_[count_ - 1].key);
            resume_.push_back('\0');
            stale_ = true;
            count_ = 0;
            return;
        }
        // Nodes are never unlinked while the memtable is active, so
        // the parked node's successor is read fresh here.
        mem_->next();
        copyLocked();
    }

    const InternalEntry &
    entry() const override
    {
        if (!valid())
            panic("ActiveBatchIterator::entry on invalid iterator");
        return batch_[pos_];
    }

    bool stale() const { return stale_; }

    /** The smallest key not yet covered by a copied batch. */
    BytesView resumeKey() const { return resume_; }

  private:
    /** Copy from mem_'s position; a full batch leaves mem_ parked on
     *  the last node copied. */
    void
    copyLocked()
    {
        count_ = 0;
        pos_ = 0;
        for (; mem_->valid(); mem_->next()) {
            const InternalEntry &e = mem_->entry();
            if (!end_.empty() && BytesView(e.key) >= end_)
                break;
            if (count_ == batch_.size())
                batch_.push_back(e);
            else
                batch_[count_] = e; // reuses the buffers
            if (++count_ == scan_batch)
                break;
        }
    }

    LSMStore &store_;
    BytesView end_; //!< Owned by the ScanIterator.
    uint64_t gen_ = 0;
    std::unique_ptr<InternalIterator> mem_; //!< Used under the mutex.
    std::vector<InternalEntry> batch_; //!< First count_ are current.
    size_t count_ = 0;
    size_t pos_ = 0;
    Bytes resume_;
    bool stale_ = false;
};

/**
 * Cursor over one sorted, non-overlapping level (L1+). It opens a
 * table only when the merge reaches it, and never opens one that
 * starts at or past the range's end.
 */
class LSMStore::LevelIterator final : public InternalIterator
{
  public:
    LevelIterator(const TableVec &files, BytesView end)
        : files_(files), end_(end)
    {}

    void
    seek(BytesView target) override
    {
        // First table whose largest key >= target.
        idx_ = static_cast<size_t>(
            std::partition_point(
                files_.begin(), files_.end(),
                [target](const std::shared_ptr<TableHandle> &t) {
                    return BytesView(t->reader->props().largest_key) <
                           target;
                }) -
            files_.begin());
        open(target);
    }

    bool valid() const override { return table_ && table_->valid(); }

    void
    next() override
    {
        if (!valid())
            panic("LevelIterator::next on invalid iterator");
        table_->next();
        if (!table_->valid()) {
            ++idx_;
            open(BytesView());
        }
    }

    const InternalEntry &
    entry() const override
    {
        if (!valid())
            panic("LevelIterator::entry on invalid iterator");
        return table_->entry();
    }

  private:
    /** Position at the first entry >= target in table idx_ or a
     *  later one inside the range. */
    void
    open(BytesView target)
    {
        for (; idx_ < files_.size(); ++idx_) {
            const SSTableProps &p = files_[idx_]->reader->props();
            if (!end_.empty() && BytesView(p.smallest_key) >= end_)
                break;
            table_ = files_[idx_]->reader->newIterator();
            table_->seek(target);
            if (table_->valid())
                return;
        }
        table_.reset();
    }

    const TableVec &files_; //!< Pinned by the ScanIterator's Version.
    BytesView end_;         //!< Owned by the ScanIterator.
    size_t idx_ = 0;
    std::unique_ptr<InternalIterator> table_;
};

/**
 * The store's native cursor: one MergingIterator over the active
 * batch, the sealed memtables, every L0 table that overlaps the
 * range, and one LevelIterator per deeper level that does. Sealed
 * memtables and tables are frozen, so they are read in place from a
 * snapshot taken with the first batch; tombstones and keys at or
 * past the end are hidden.
 */
class LSMStore::ScanIterator final : public InternalIterator
{
  public:
    ScanIterator(LSMStore &store, BytesView start, BytesView end,
                 bool count_scans)
        : store_(store), start_(start), end_(end),
          count_scans_(count_scans)
    {}

    void
    seek(BytesView target) override
    {
        snapshot(target < BytesView(start_) ? BytesView(start_)
                                            : target,
                 count_scans_);
        settle();
    }

    bool valid() const override { return valid_; }

    void
    next() override
    {
        if (!valid_)
            panic("LSMStore::ScanIterator::next on invalid iterator");
        merged_->next();
        settle();
    }

    const InternalEntry &
    entry() const override
    {
        if (!valid_)
            panic("LSMStore::ScanIterator::entry on invalid iterator");
        return merged_->entry();
    }

  private:
    /** Rebuild every source from the store's current state and
     *  position them at @p from. */
    void
    snapshot(BytesView from, bool count_scan)
    {
        merged_.reset(); // Drop the old sources before their owners.
        auto active = std::make_unique<ActiveBatchIterator>(
            store_, BytesView(end_));
        {
            std::lock_guard<std::mutex> lock(
                store_.mutex_.native());
            if (count_scan)
                ++store_.stats_.user_scans;
            active->loadLocked(from);
            imms_.clear();
            for (auto it = store_.imm_.rbegin();
                 it != store_.imm_.rend(); ++it)
                imms_.push_back(it->mem); // Newest first.
            version_ = store_.version_;
        }
        active_ = active.get();

        std::vector<std::unique_ptr<InternalIterator>> sources;
        sources.push_back(std::move(active));
        for (const auto &mem : imms_)
            sources.push_back(mem->newIterator());
        auto overlaps = [&](BytesView smallest, BytesView largest) {
            return largest >= from &&
                   (end_.empty() || smallest < BytesView(end_));
        };
        for (const auto &t : version_->levels[0]) {
            const SSTableProps &p = t->reader->props();
            if (overlaps(p.smallest_key, p.largest_key))
                sources.push_back(t->reader->newIterator());
        }
        for (int level = 1; level < max_levels; ++level) {
            const TableVec &files = version_->levels[level];
            if (!files.empty() &&
                overlaps(files.front()->reader->props().smallest_key,
                         files.back()->reader->props().largest_key)) {
                sources.push_back(
                    std::make_unique<LevelIterator>(files, end_));
            }
        }
        merged_ = std::make_unique<MergingIterator>(std::move(sources));
        merged_->seek(from);
    }

    /** Move to the first visible entry at or after the merge's
     *  position, re-snapshotting if the active batch went stale. */
    void
    settle()
    {
        for (;;) {
            if (active_->stale()) {
                // Everything up to the stale batch's last key was
                // delivered from a consistent view; continue past it
                // from a fresh one.
                Bytes from(active_->resumeKey());
                snapshot(from, false);
                continue;
            }
            if (!merged_->valid())
                break;
            const InternalEntry &e = merged_->entry();
            if (!end_.empty() && BytesView(e.key) >= BytesView(end_))
                break;
            if (e.type == EntryType::Put) {
                valid_ = true;
                return;
            }
            merged_->next();
        }
        valid_ = false;
    }

    LSMStore &store_;
    Bytes start_;
    Bytes end_;
    bool count_scans_;
    //! Keep the snapshot's memtables and tables alive.
    std::vector<std::shared_ptr<const MemTable>> imms_;
    std::shared_ptr<const Version> version_;
    ActiveBatchIterator *active_ = nullptr; //!< Owned by merged_.
    std::unique_ptr<MergingIterator> merged_;
    bool valid_ = false;
};

std::unique_ptr<InternalIterator>
LSMStore::newIterator(BytesView start, BytesView end)
{
    return std::make_unique<ScanIterator>(*this, start, end,
                                          /*count_scans=*/true);
}

Status
LSMStore::scan(BytesView start, BytesView end, const ScanCallback &cb)
{
    ScanIterator it(*this, start, end, /*count_scans=*/true);
    return scanIterator(it, start, cb);
}

Status
LSMStore::flush()
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    if (degraded_)
        return ioDegradedStatusLocked();
    Status s = sealMemtableLocked();
    if (!s.isOk())
        return s;
    maintenance_->signal();
    // Barrier: wait for full quiescence so callers (and tests) see
    // every write in an SSTable and the level shape settled.
    cv_.wait(lock, [this] {
        return degraded_ || shutting_down_ ||
               (imm_.empty() && !in_compaction_ &&
                !compactionNeededLocked());
    });
    if (degraded_)
        return ioDegradedStatusLocked();
    if (wal_) {
        s = wal_->sync();
        if (!s.isOk())
            return degradeOnIOErrorLocked(std::move(s));
    }
    return Status::ok();
}

uint64_t
LSMStore::levelBytesLocked(int level) const
{
    uint64_t total = 0;
    for (const auto &t : version_->levels[level])
        total += t->reader->fileBytes();
    return total;
}

uint64_t
LSMStore::levelLimit(int level) const
{
    double limit = static_cast<double>(options_.level_base_bytes);
    for (int i = 1; i < level; ++i)
        limit *= options_.level_multiplier;
    return static_cast<uint64_t>(limit);
}

bool
LSMStore::bottommostForRangeLocked(int level, BytesView smallest,
                                   BytesView largest) const
{
    for (int deeper = level + 1; deeper < max_levels; ++deeper) {
        for (const auto &t : version_->levels[deeper]) {
            const SSTableProps &p = t->reader->props();
            if (BytesView(p.largest_key) < smallest)
                continue;
            if (BytesView(p.smallest_key) > largest)
                continue;
            return false;
        }
    }
    return true;
}

Status
LSMStore::compactAll()
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    if (degraded_)
        return ioDegradedStatusLocked();
    Status s = sealMemtableLocked();
    if (!s.isOk())
        return s;
    maintenance_->signal();
    // Drain the flush queue and any in-flight background
    // compaction, then run the full compaction inline while
    // in_compaction_ keeps the background thread out.
    cv_.wait(lock, [this] {
        return degraded_ || (imm_.empty() && !in_compaction_);
    });
    if (degraded_)
        return ioDegradedStatusLocked();

    CompactionScope scope(*this, lock);
    if (!version_->levels[0].empty()) {
        TableVec inputs;
        Bytes smallest, largest;
        bool first = true;
        for (const auto &t : version_->levels[0]) {
            const SSTableProps &p = t->reader->props();
            if (first || p.smallest_key < smallest)
                smallest = p.smallest_key;
            if (first || p.largest_key > largest)
                largest = p.largest_key;
            first = false;
            inputs.push_back(t);
        }
        for (const auto &t : version_->levels[1]) {
            const SSTableProps &p = t->reader->props();
            if (BytesView(p.largest_key) < BytesView(smallest) ||
                BytesView(p.smallest_key) > BytesView(largest)) {
                continue;
            }
            inputs.push_back(t);
        }
        s = runCompaction(lock, inputs, 1);
        if (!s.isOk())
            return degradeOnIOErrorLocked(std::move(s));
    }
    for (int level = 1; level < max_levels - 1; ++level) {
        while (!version_->levels[level].empty()) {
            TableVec inputs;
            inputs.push_back(version_->levels[level][0]);
            const SSTableProps &p =
                version_->levels[level][0]->reader->props();
            for (const auto &t : version_->levels[level + 1]) {
                const SSTableProps &q = t->reader->props();
                if (BytesView(q.largest_key) <
                        BytesView(p.smallest_key) ||
                    BytesView(q.smallest_key) >
                        BytesView(p.largest_key)) {
                    continue;
                }
                inputs.push_back(t);
            }
            s = runCompaction(lock, inputs, level + 1);
            if (!s.isOk())
                return degradeOnIOErrorLocked(std::move(s));
        }
        // Stop once everything is in one level.
        bool deeper_empty = true;
        for (int d = level + 1; d < max_levels; ++d)
            deeper_empty =
                deeper_empty && version_->levels[d].empty();
        if (deeper_empty)
            break;
    }
    return Status::ok();
}

Status
LSMStore::checkInvariants() const
{
    auto corrupt = [](const std::string &what) {
        return Status::corruption("lsm invariant: " + what);
    };

    std::unique_lock<std::mutex> lock(mutex_.native());
    std::shared_ptr<const Version> ver = version_;

    if (ver->levels.size() != static_cast<size_t>(max_levels))
        return corrupt("level vector has wrong arity");

    // Per-table sanity + global file-number uniqueness.
    std::set<uint64_t> file_nos;
    for (int level = 0; level < max_levels; ++level) {
        for (const auto &t : ver->levels[level]) {
            const SSTableProps &p = t->reader->props();
            if (p.smallest_key > p.largest_key) {
                return corrupt("table " +
                               std::to_string(t->file_no) +
                               " has smallest_key > largest_key");
            }
            if (t->file_no >= next_file_no_) {
                return corrupt("table " +
                               std::to_string(t->file_no) +
                               " not below next_file_no");
            }
            if (!file_nos.insert(t->file_no).second) {
                return corrupt("duplicate file number " +
                               std::to_string(t->file_no));
            }
        }
    }

    // L0 may overlap but is searched newest-first; deeper levels
    // are a single sorted, non-overlapping run each.
    for (size_t i = 1; i < ver->levels[0].size(); ++i) {
        if (ver->levels[0][i - 1]->file_no <=
            ver->levels[0][i]->file_no)
            return corrupt("L0 not ordered newest-first");
    }
    for (int level = 1; level < max_levels; ++level) {
        const auto &files = ver->levels[level];
        for (size_t i = 1; i < files.size(); ++i) {
            const SSTableProps &prev =
                files[i - 1]->reader->props();
            const SSTableProps &cur = files[i]->reader->props();
            if (prev.smallest_key > cur.smallest_key) {
                return corrupt("L" + std::to_string(level) +
                               " not sorted by smallest key");
            }
            if (prev.largest_key >= cur.smallest_key) {
                return corrupt("L" + std::to_string(level) +
                               " has overlapping key ranges");
            }
        }
    }

    // Sealed WAL segments queue oldest-first with unique numbers.
    for (size_t i = 1; i < imm_.size(); ++i) {
        if (imm_[i - 1].wal_no >= imm_[i].wal_no)
            return corrupt("immutable queue not oldest-first");
    }

    // The on-disk MANIFEST must describe exactly the in-memory
    // table set and sealed-WAL queue (it is rewritten on every
    // seal/flush/compaction). A degraded store is exempt: the
    // failed commit that degraded it may legitimately have left the
    // manifest behind memory.
    if (degraded_)
        return Status::ok();
    std::set<std::pair<uint64_t, uint64_t>> manifest_files;
    std::set<uint64_t> manifest_wals;
    uint64_t manifest_next = 0, manifest_seq = 0;
    const bool have_manifest = env_->fileExists(manifestPath());
    if (have_manifest) {
        Bytes data;
        Status ms = env_->readFileToString(manifestPath(), data);
        if (!ms.isOk())
            return ms;
        ManifestImage img;
        parseManifest(data, img);
        manifest_next = img.next_file;
        manifest_seq = img.seq;
        for (auto [level, file_no] : img.files)
            manifest_files.insert({level, file_no});
        manifest_wals.insert(img.wals.begin(), img.wals.end());
    }
    std::set<std::pair<uint64_t, uint64_t>> live_files;
    for (int level = 0; level < max_levels; ++level)
        for (const auto &t : ver->levels[level])
            live_files.insert(
                {static_cast<uint64_t>(level), t->file_no});
    std::set<uint64_t> live_wals;
    for (const ImmutableMemtable &imm : imm_)
        live_wals.insert(imm.wal_no);
    if (!have_manifest && !live_files.empty())
        return corrupt("tables open but MANIFEST missing");
    if (have_manifest) {
        if (manifest_files != live_files)
            return corrupt(
                "MANIFEST table set disagrees with memory");
        if (manifest_wals != live_wals)
            return corrupt(
                "MANIFEST sealed-WAL set disagrees with memory");
        if (manifest_next > next_file_no_)
            return corrupt("MANIFEST next_file ahead of memory");
        // Writes since the last flush live in the WAL, so the
        // manifest may lag seq_ but never lead it.
        if (manifest_seq > seq_)
            return corrupt("MANIFEST seq ahead of memory");
    }
    return Status::ok();
}

const IOStats &
LSMStore::stats() const
{
    // Same pattern as LockedKVStore::stats(): each caller thread
    // gets its own stable snapshot.
    static thread_local IOStats snapshot;
    std::unique_lock<std::mutex> lock(mutex_.native());
    uint64_t read_bytes =
        retired_reader_bytes_.load(std::memory_order_relaxed);
    for (const auto &level : version_->levels)
        for (const auto &t : level)
            read_bytes += t->reader->bytesRead();
    stats_.bytes_read = read_bytes;
    snapshot = stats_;
    return snapshot;
}

uint64_t
LSMStore::liveKeyCount()
{
    // Bypass the user-scan counter so diagnostics don't perturb
    // user_scans.
    ScanIterator it(*this, BytesView(), BytesView(),
                    /*count_scans=*/false);
    uint64_t count = 0;
    for (it.seek(BytesView()); it.valid(); it.next())
        ++count;
    return count;
}

bool
LSMStore::isDegraded() const
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    return degraded_;
}

std::string
LSMStore::degradedReason() const
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    return degraded_reason_;
}

uint64_t
LSMStore::quarantinedBytes() const
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    return quarantined_bytes_;
}

bool
LSMStore::compactionInProgressForTest() const
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    return in_compaction_;
}

void
LSMStore::updateQueueGaugeLocked() const
{
    static obs::Gauge &depth =
        obs::MetricsRegistry::global().gauge(
            "kv.compaction_queue_depth");
    depth.set(static_cast<int64_t>(imm_.size()) +
              (in_compaction_ ? 1 : 0));
}

std::vector<size_t>
LSMStore::levelFileCounts() const
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    std::vector<size_t> counts;
    counts.reserve(version_->levels.size());
    for (const auto &level : version_->levels)
        counts.push_back(level.size());
    return counts;
}

uint64_t
LSMStore::tableBytes() const
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    uint64_t total = 0;
    for (const auto &level : version_->levels)
        for (const auto &t : level)
            total += t->reader->fileBytes();
    return total;
}

} // namespace ethkv::kv
