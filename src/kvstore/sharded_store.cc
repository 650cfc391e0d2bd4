#include "kvstore/sharded_store.hh"

#include <utility>

#include "common/dcheck.hh"
#include "common/xxhash.hh"

namespace ethkv::kv
{

namespace
{

//! Seed for the routing hash. Distinct from the cache tier's and
//! the bloom filters' seeds so shard placement never correlates
//! with cache shard placement or filter bits.
constexpr uint64_t kShardHashSeed = 0x5ca1ab1e0ddba11ull;

} // namespace

ShardedKVStore::ShardedKVStore(
    std::vector<std::unique_ptr<KVStore>> shards,
    ShardedOptions options)
    : owned_(std::move(shards))
{
    ETHKV_DCHECK(!owned_.empty());
    serve_.reserve(owned_.size());
    if (options.lock_shards) {
        locked_.reserve(owned_.size());
        for (auto &shard : owned_) {
            locked_.push_back(
                std::make_unique<LockedKVStore>(*shard));
            serve_.push_back(locked_.back().get());
        }
    } else {
        for (auto &shard : owned_)
            serve_.push_back(shard.get());
    }

    obs::MetricsRegistry &reg =
        options.metrics ? *options.metrics
                        : obs::MetricsRegistry::global();
    cross_shard_batches_ =
        &reg.counter("kv.sharded.cross_shard_batches");
    scan_merges_ = &reg.counter("kv.sharded.scan_merges");
    reg.gauge("kv.sharded.shards")
        .set(static_cast<int64_t>(serve_.size()));
    shard_ops_.reserve(serve_.size());
    for (size_t i = 0; i < serve_.size(); ++i) {
        shard_ops_.push_back(&reg.counter(
            "kv.sharded.shard" + std::to_string(i) + ".ops"));
    }
}

ShardedKVStore::~ShardedKVStore() = default;

uint32_t
ShardedKVStore::shardOf(BytesView key, uint32_t shard_count)
{
    if (shard_count <= 1)
        return 0;
    return static_cast<uint32_t>(
        xxhash64(key, kShardHashSeed) % shard_count);
}

Status
ShardedKVStore::checkShardMarker(Env *env, const std::string &dir,
                                 uint32_t shard_count)
{
    if (env == nullptr)
        env = Env::defaultEnv();
    std::string path = dir + "/SHARDS";
    std::string expected = std::to_string(shard_count) + "\n";
    if (!env->fileExists(path))
        return env->writeStringToFile(path, expected,
                                      /*sync=*/true);
    Bytes found;
    Status s = env->readFileToString(path, found);
    if (!s.isOk())
        return s;
    if (found != expected) {
        // Trim for the message; the file is "<n>\n".
        std::string on_disk(found);
        while (!on_disk.empty() &&
               (on_disk.back() == '\n' || on_disk.back() == '\r'))
            on_disk.pop_back();
        return Status::invalidArgument(
            "shard count mismatch: " + dir + " was created with " +
            on_disk + " shards, reopened with " +
            std::to_string(shard_count) +
            " — reopening would misroute keys");
    }
    return Status::ok();
}

KVStore &
ShardedKVStore::route(BytesView key)
{
    uint32_t idx = shardOf(key, shardCount());
    shard_ops_[idx]->inc();
    return *serve_[idx];
}

Status
ShardedKVStore::put(BytesView key, BytesView value)
{
    return route(key).put(key, value);
}

Status
ShardedKVStore::get(BytesView key, Bytes &value)
{
    return route(key).get(key, value);
}

Status
ShardedKVStore::del(BytesView key)
{
    return route(key).del(key);
}

bool
ShardedKVStore::contains(BytesView key)
{
    return route(key).contains(key);
}

Status
ShardedKVStore::apply(const WriteBatch &batch)
{
    if (serve_.size() == 1)
        return serve_[0]->apply(batch);
    // Split into per-shard sub-batches. Relative order within a
    // shard is preserved; order across shards does not matter
    // because hash-disjoint shards can never hold the same key.
    std::vector<WriteBatch> sub(serve_.size());
    for (const BatchEntry &e : batch.entries()) {
        uint32_t idx = shardOf(e.key, shardCount());
        if (e.op == BatchOp::Put)
            sub[idx].put(e.key, e.value);
        else
            sub[idx].del(e.key);
    }
    size_t touched = 0;
    for (const WriteBatch &b : sub)
        touched += b.empty() ? 0 : 1;
    if (touched > 1)
        cross_shard_batches_->inc();
    // All-or-nothing ack: the first failing sub-batch fails the
    // whole apply and nothing is acknowledged. Sub-batches already
    // applied stay applied (per-shard atomicity, not cross-shard);
    // callers that cache must invalidate even on failure — see the
    // header contract and CacheTier::apply.
    for (size_t i = 0; i < sub.size(); ++i) {
        if (sub[i].empty())
            continue;
        shard_ops_[i]->inc();
        Status s = serve_[i]->apply(sub[i]);
        if (!s.isOk())
            return s;
    }
    return Status::ok();
}

Status
ShardedKVStore::scan(BytesView start, BytesView end,
                     const ScanCallback &cb)
{
    if (serve_.size() == 1)
        return serve_[0]->scan(start, end, cb);
    scan_merges_->inc();
    return scanIterator(*newIterator(start, end), start, cb);
}

std::unique_ptr<InternalIterator>
ShardedKVStore::newIterator(BytesView start, BytesView end)
{
    if (serve_.size() == 1)
        return serve_[0]->newIterator(start, end);
    // Shards hold disjoint keys, so the merge never sees duplicates
    // and its source order does not matter. Each shard cursor is
    // pulled only as far as the merge consumes it and holds no lock
    // between pulls, so callers may reenter the store.
    std::vector<std::unique_ptr<InternalIterator>> sources;
    sources.reserve(serve_.size());
    for (KVStore *shard : serve_)
        sources.push_back(shard->newIterator(start, end));
    return std::make_unique<MergingIterator>(std::move(sources));
}

Status
ShardedKVStore::flush()
{
    // Serialize whole-store barriers; flush every shard even after
    // a failure so healthy shards still reach durability, and
    // report the first error.
    MutexLock lock(mutex_);
    Status first = Status::ok();
    for (KVStore *shard : serve_) {
        Status s = shard->flush();
        if (!s.isOk() && first.isOk())
            first = s;
    }
    return first;
}

const IOStats &
ShardedKVStore::stats() const
{
    // Merge shard counters into thread-local storage so each
    // caller sees a consistent struct without racing on a shared
    // copy (the LockedKVStore idiom).
    thread_local IOStats merged;
    merged = IOStats{};
    for (const KVStore *shard : serve_)
        merged.merge(shard->stats());
    return merged;
}

std::string
ShardedKVStore::name() const
{
    return "sharded(" + serve_[0]->name() + " x" +
           std::to_string(serve_.size()) + ")";
}

uint64_t
ShardedKVStore::liveKeyCount()
{
    uint64_t total = 0;
    for (KVStore *shard : serve_)
        total += shard->liveKeyCount();
    return total;
}

} // namespace ethkv::kv
