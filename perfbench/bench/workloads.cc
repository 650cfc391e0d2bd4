#include "workloads.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>

#include "bench_common.hh"
#include "common/rand.hh"
#include "kvstore/mem_store.hh"
#include "server/client.hh"
#include "util.hh"
#include "workload/sim.hh"

namespace perfbench
{

using ethkv::Bytes;
using ethkv::BytesView;
using ethkv::Status;
using ethkv::client::KVClass;
using ethkv::trace::OpType;
namespace srv = ethkv::server;

namespace
{

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Append `n` filler bytes derived from `seed`. */
void
fill(Bytes &out, size_t from, uint64_t seed)
{
    uint64_t h = seed;
    for (size_t i = from; i < out.size(); i += 8) {
        h = mix64(h);
        size_t n = std::min<size_t>(8, out.size() - i);
        std::memcpy(&out[i], &h, n);
    }
}

/** The prefix every key of a class starts with, as
 *  ethkv::bench::synthesizeKey writes it; nullptr for singletons. */
const char *
prefixOf(KVClass cls)
{
    switch (cls) {
    case KVClass::BlockHeader: return "h";
    case KVClass::BlockBody: return "b";
    case KVClass::BlockReceipts: return "r";
    case KVClass::HeaderNumber: return "H";
    case KVClass::TxLookup: return "l";
    case KVClass::BloomBits: return "B";
    case KVClass::Code: return "c";
    case KVClass::SnapshotAccount: return "a";
    case KVClass::SnapshotStorage: return "o";
    case KVClass::TrieNodeAccount: return "A";
    case KVClass::TrieNodeStorage: return "O";
    case KVClass::SkeletonHeader: return "S";
    case KVClass::StateID: return "L";
    case KVClass::BloomBitsIndex: return "iB";
    case KVClass::EthereumConfig: return "ethereum-config-";
    case KVClass::EthereumGenesis: return "ethereum-genesis-";
    default: return nullptr;
    }
}

/** The key range a SCAN starting at `key` covers. */
Bytes
scanEndFor(KVClass cls, BytesView key)
{
    if (prefixOf(cls) != nullptr)
        return classRangeEnd(cls);
    Bytes end(key);
    end.push_back('\0');
    return end;
}

/** Shared SCAN reply checks; `valid` judges one entry. */
template <typename Valid>
Verdict
checkScan(const srv::Frame &reply, BytesView start, BytesView end,
          uint64_t limit, const Valid &valid)
{
    if (reply.type != static_cast<uint8_t>(srv::WireStatus::Ok))
        return Verdict::Wrong;
    thread_local std::vector<srv::ScanEntry> entries;
    bool truncated = false;
    entries.clear();
    if (!srv::decodeScanResponse(reply.payload, entries, truncated)
             .isOk() ||
        entries.size() > limit)
        return Verdict::Wrong;
    for (size_t i = 0; i < entries.size(); ++i) {
        const srv::ScanEntry &e = entries[i];
        if (BytesView(e.key) < start || BytesView(e.key) >= end)
            return Verdict::Wrong;
        if (i > 0 && !(entries[i - 1].key < e.key))
            return Verdict::Wrong;
        if (!valid(e.key, e.value))
            return Verdict::Wrong;
    }
    return Verdict::Ok;
}

uint16_t
keySizeOf(KVClass cls)
{
    if (cls == KVClass::SnapshotStorage)
        return 65;
    if (cls == KVClass::BlockBody)
        return 41;
    return 33;
}

} // namespace

KVClass
classOfKeyId(uint64_t key_id)
{
    static const KVClass classes[] = {
        KVClass::TrieNodeAccount, KVClass::TrieNodeStorage,
        KVClass::SnapshotAccount, KVClass::SnapshotStorage,
        KVClass::Code,            KVClass::BlockBody,
        KVClass::HeaderNumber,    KVClass::StateID,
    };
    return classes[key_id % (sizeof(classes) / sizeof(classes[0]))];
}

Bytes
classRangeEnd(KVClass cls)
{
    Bytes end = prefixOf(cls);
    end.back() = static_cast<char>(end.back() + 1);
    return end;
}

void
makeValue(uint64_t id, uint8_t gen, uint32_t size, Bytes &out)
{
    out.assign(size, '\0');
    uint8_t head[9];
    std::memcpy(head, &id, 8);
    head[8] = gen;
    std::memcpy(out.data(), head, std::min<size_t>(9, size));
    fill(out, std::min<size_t>(9, size), id * 131 + gen);
}

void
replayValue(uint64_t index, uint32_t size, Bytes &out)
{
    out.assign(size, '\0');
    fill(out, 0, index ^ 0x5eedULL);
}

uint64_t
corrFollowerOf(uint64_t key_id, uint32_t j)
{
    constexpr uint64_t kGroup = 8;
    uint64_t base = key_id - (key_id % kGroup);
    return base + ((key_id - base + 1 + j) % kGroup);
}

// -- Synthetic ---------------------------------------------------

SyntheticWorkload::SyntheticWorkload(const SyntheticSpec &spec)
    : spec_(spec),
      last_gen_(std::make_unique<std::atomic<uint8_t>[]>(spec.keys))
{
    keys_.reserve(spec.keys);
    class_of_.reserve(spec.keys);
    std::vector<KVClass> classes;
    for (uint32_t i = 0; i < spec.keys; ++i) {
        KVClass cls = classOfKeyId(i);
        keys_.push_back(ethkv::bench::synthesizeKey(
            static_cast<uint16_t>(cls), i, keySizeOf(cls)));
        auto it = std::find(classes.begin(), classes.end(), cls);
        if (it == classes.end()) {
            classes.push_back(cls);
            range_end_.push_back(classRangeEnd(cls));
            it = classes.end() - 1;
        }
        class_of_.push_back(
            static_cast<uint8_t>(it - classes.begin()));
    }
    resetGenerations();
}

void
SyntheticWorkload::resetGenerations()
{
    for (uint32_t i = 0; i < spec_.keys; ++i)
        last_gen_[i].store(0, std::memory_order_relaxed);
    max_gen_.store(0);
}

srv::Opcode
SyntheticWorkload::encode(const Op &op, Bytes &payload)
{
    const Bytes &key = keys_[op.key];
    switch (op.kind) {
    case OpKind::Get:
        srv::encodeGet(payload, key);
        return srv::Opcode::Get;
    case OpKind::Put: {
        thread_local Bytes value;
        makeValue(op.key, op.gen, spec_.value_bytes, value);
        srv::encodePut(payload, key, value);
        return srv::Opcode::Put;
    }
    case OpKind::Del:
        srv::encodeDelete(payload, key);
        return srv::Opcode::Delete;
    case OpKind::Scan:
        srv::encodeScan(payload, key, range_end_[class_of_[op.key]],
                        spec_.scan_limit);
        return srv::Opcode::Scan;
    }
    return srv::Opcode::Get;
}

bool
SyntheticWorkload::validEntry(BytesView key, BytesView value,
                              uint64_t expect_id, bool check_id) const
{
    if (value.size() != spec_.value_bytes || value.size() < 9)
        return false;
    uint64_t id = 0;
    std::memcpy(&id, value.data(), 8);
    auto gen = static_cast<uint8_t>(value[8]);
    if (id >= keys_.size() || gen > max_gen_.load() ||
        (check_id && id != expect_id) || keys_[id] != key)
        return false;
    thread_local Bytes expect;
    makeValue(id, gen, spec_.value_bytes, expect);
    return value == BytesView(expect);
}

Verdict
SyntheticWorkload::check(const Op &op, const srv::Frame &reply)
{
    const auto ok = static_cast<uint8_t>(srv::WireStatus::Ok);
    switch (op.kind) {
    case OpKind::Get:
        return reply.type == ok &&
                       validEntry(keys_[op.key], reply.payload,
                                  op.key, true)
                   ? Verdict::Ok
                   : Verdict::Wrong;
    case OpKind::Put:
    case OpKind::Del:
        return reply.type == ok ? Verdict::Ok : Verdict::Wrong;
    case OpKind::Scan:
        return checkScan(reply, keys_[op.key],
                         range_end_[class_of_[op.key]],
                         spec_.scan_limit,
                         [this](BytesView k, BytesView v) {
                             return validEntry(k, v, 0, false);
                         });
    }
    return Verdict::Wrong;
}

/** Zipf-distributed mixed ops, plus correlated follower GETs. */
class SyntheticStream final : public OpStream
{
  public:
    SyntheticStream(SyntheticWorkload &wl, uint64_t seed, uint8_t gen,
                    uint64_t limit)
        : wl_(wl), rng_(seed), zipf_(wl.spec_.keys, wl.spec_.zipf),
          gen_(gen), left_(limit > 0 ? limit : UINT64_MAX)
    {}

    bool
    next(Op &op) override
    {
        const SyntheticSpec &spec = wl_.spec_;
        if (left_ == 0)
            return false;
        --left_;
        op = Op{};
        if (follow_left_ > 0) {
            op.kind = OpKind::Get;
            op.key = static_cast<uint32_t>(corrFollowerOf(
                leader_, spec.follow - follow_left_));
            --follow_left_;
            return true;
        }
        double u = rng_.nextDouble();
        op.key = static_cast<uint32_t>(zipf_.sample(rng_));
        if (u < spec.get) {
            op.kind = OpKind::Get;
            leader_ = op.key;
            follow_left_ = spec.follow;
        } else if (u < spec.get + spec.scan) {
            op.kind = OpKind::Scan;
        } else {
            op.kind = OpKind::Put;
            op.gen = gen_;
            wl_.last_gen_[op.key].store(gen_,
                                        std::memory_order_relaxed);
        }
        return true;
    }

  private:
    SyntheticWorkload &wl_;
    ethkv::Rng rng_;
    ethkv::ZipfGenerator zipf_;
    uint8_t gen_;
    uint64_t left_; //!< Ops still to hand out.
    uint64_t leader_ = 0;
    uint32_t follow_left_ = 0;
};

namespace
{

/** PUT generation 0 of keys part, part + parts, ... */
class PreloadStream final : public OpStream
{
  public:
    PreloadStream(uint32_t keys, uint32_t part, uint32_t parts)
        : next_(part), step_(parts), keys_(keys)
    {}

    bool
    next(Op &op) override
    {
        if (next_ >= keys_)
            return false;
        op = Op{};
        op.kind = OpKind::Put;
        op.key = next_;
        next_ += step_;
        return true;
    }

  private:
    uint32_t next_, step_, keys_;
};

} // namespace

std::unique_ptr<OpStream>
SyntheticWorkload::stream(uint64_t seed, uint8_t gen, uint64_t limit)
{
    return std::make_unique<SyntheticStream>(*this, seed, gen, limit);
}

std::unique_ptr<OpStream>
SyntheticWorkload::preload(uint32_t part, uint32_t parts)
{
    return std::make_unique<PreloadStream>(spec_.keys, part, parts);
}

uint64_t
SyntheticWorkload::verifySample(srv::Client &client, uint64_t seed,
                                uint32_t n) const
{
    std::vector<uint32_t> written;
    for (uint32_t i = 0; i < spec_.keys; ++i)
        if (last_gen_[i].load(std::memory_order_relaxed) > 0)
            written.push_back(i);
    ethkv::Rng rng(seed);
    uint64_t bad = 0;
    Bytes got, expect;
    for (uint32_t i = 0; i < n; ++i) {
        uint32_t k = written.empty()
                         ? static_cast<uint32_t>(
                               rng.nextBounded(spec_.keys))
                         : written[rng.nextBounded(written.size())];
        makeValue(k, last_gen_[k].load(std::memory_order_relaxed),
                  spec_.value_bytes, expect);
        if (!client.get(keys_[k], got).isOk() || got != expect)
            ++bad;
    }
    return bad;
}

bool
SyntheticWorkload::writeCorrTable(const std::string &path,
                                  uint32_t followers) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::string line;
    for (uint32_t id = 0; id < spec_.keys; ++id) {
        line = ethkv::toHex(keys_[id]);
        for (uint32_t j = 0; j < followers; ++j) {
            uint64_t fid = corrFollowerOf(id, j);
            if (fid >= spec_.keys)
                continue;
            line += ' ';
            line += ethkv::toHex(keys_[fid]);
        }
        line += '\n';
        std::fputs(line.c_str(), f);
    }
    return std::fclose(f) == 0;
}

uint64_t
SyntheticWorkload::liveBytes() const
{
    uint64_t n = 0;
    for (const Bytes &k : keys_)
        n += k.size() + spec_.value_bytes;
    return n;
}

// -- Capture -----------------------------------------------------

namespace
{

/** MemStore that sums the time spent in its calls. */
class ClockedMemStore final : public ethkv::kv::KVStore
{
  public:
    explicit ClockedMemStore(std::shared_ptr<int64_t> ns)
        : ns_(std::move(ns))
    {}

    Status
    put(BytesView k, BytesView v) override
    {
        return timed([&] { return mem_.put(k, v); });
    }
    Status
    get(BytesView k, Bytes &v) override
    {
        return timed([&] { return mem_.get(k, v); });
    }
    Status
    del(BytesView k) override
    {
        return timed([&] { return mem_.del(k); });
    }
    Status
    scan(BytesView s, BytesView e,
         const ethkv::kv::ScanCallback &cb) override
    {
        return timed([&] { return mem_.scan(s, e, cb); });
    }
    Status
    apply(const ethkv::kv::WriteBatch &b) override
    {
        return timed([&] { return mem_.apply(b); });
    }
    bool
    contains(BytesView k) override
    {
        int64_t t0 = nowNs();
        bool live = mem_.contains(k);
        *ns_ += nowNs() - t0;
        return live;
    }
    Status flush() override { return mem_.flush(); }
    const ethkv::kv::IOStats &stats() const override
    {
        return mem_.stats();
    }
    std::string name() const override { return mem_.name(); }
    uint64_t liveKeyCount() override { return mem_.liveKeyCount(); }

  private:
    template <typename F>
    Status
    timed(const F &f)
    {
        int64_t t0 = nowNs();
        Status s = f();
        *ns_ += nowNs() - t0;
        return s;
    }

    ethkv::kv::MemStore mem_;
    std::shared_ptr<int64_t> ns_;
};

} // namespace

Capture
captureTrace(uint64_t blocks, uint64_t seed,
             const std::string &freezer_dir)
{
    ethkv::wl::SimConfig config =
        ethkv::wl::cacheTraceConfig(blocks, seed);
    // The pre-existing world and the node's cache budgets shrink
    // together by kWorldScale, keeping the cache's share of the
    // state (and so its miss pressure) while seeding fits a run.
    constexpr uint64_t kWorldScale = 5;
    ethkv::wl::WorkloadConfig &w = config.workload;
    w.initial_accounts /= kWorldScale;
    w.initial_contracts /= kWorldScale;
    w.seeded_tx_lookups /= kWorldScale;
    w.seeded_header_numbers /= kWorldScale;
    w.seeded_bloom_bits /= kWorldScale;
    config.node.cache.total_bytes /= kWorldScale;
    config.node.cache.write_back_bytes /= kWorldScale;
    config.node.freezer_dir = freezer_dir;
    auto engine_ns = std::make_shared<int64_t>(0);
    config.make_engine = [engine_ns] {
        return std::make_unique<ClockedMemStore>(engine_ns);
    };
    Capture out;
    int64_t t0 = nowNs();
    ethkv::wl::SimResult result = ethkv::wl::runSimulation(config);
    out.capture_s = static_cast<double>(nowNs() - t0) / 1e9;
    out.engine_s = static_cast<double>(*engine_ns) / 1e9;
    out.blocks = result.blocks_processed;
    out.trace = std::move(result.trace);
    return out;
}

// -- Replay ------------------------------------------------------

ReplayWorkload::ReplayWorkload(const ethkv::trace::TraceBuffer &trace)
{
    std::unordered_map<uint64_t, uint32_t> by_id;
    recs_.reserve(trace.size());
    for (const ethkv::trace::TraceRecord &r : trace.records()) {
        auto it = by_id.find(r.key_id);
        if (it == by_id.end()) {
            Bytes key = ethkv::bench::synthesizeKey(
                r.class_id, r.key_id, r.key_size);
            // Short synthesized keys can collide; a collision is
            // one key to the server, so it is one key here too.
            auto [slot, fresh] = index_.try_emplace(
                key, static_cast<uint32_t>(keys_.size()));
            if (fresh) {
                keys_.push_back(key);
                class_of_.push_back(ethkv::client::classifyId(key));
                // The store held what the first read found.
                initial_.push_back(r.op == OpType::Read &&
                                           r.value_size > 0
                                       ? static_cast<int32_t>(
                                             r.value_size)
                                       : -1);
            }
            it = by_id.emplace(r.key_id, slot->second).first;
        }
        recs_.push_back(Rec{it->second, r.value_size, r.op, r.class_id});
    }
    state_ = initial_;
}

uint16_t
ReplayWorkload::routeOf(uint32_t key, uint32_t conns) const
{
    return static_cast<uint16_t>(
        std::hash<BytesView>{}(keys_[key]) % conns);
}

srv::Opcode
ReplayWorkload::encode(const Op &op, Bytes &payload)
{
    const Bytes &key = keys_[op.key];
    switch (op.kind) {
    case OpKind::Get:
        srv::encodeGet(payload, key);
        return srv::Opcode::Get;
    case OpKind::Put: {
        thread_local Bytes value;
        replayValue(op.key, op.value_size, value);
        srv::encodePut(payload, key, value);
        return srv::Opcode::Put;
    }
    case OpKind::Del:
        srv::encodeDelete(payload, key);
        return srv::Opcode::Delete;
    case OpKind::Scan:
        srv::encodeScan(
            payload, key,
            scanEndFor(static_cast<KVClass>(class_of_[op.key]), key),
            100);
        return srv::Opcode::Scan;
    }
    return srv::Opcode::Get;
}

Verdict
ReplayWorkload::check(const Op &op, const srv::Frame &reply)
{
    const auto ok = static_cast<uint8_t>(srv::WireStatus::Ok);
    const auto not_found =
        static_cast<uint8_t>(srv::WireStatus::NotFound);
    switch (op.kind) {
    case OpKind::Get: {
        if (reply.type == not_found)
            return op.expect < 0 ? Verdict::NotFound : Verdict::Wrong;
        if (reply.type != ok || op.expect < 0 ||
            reply.payload.size() != static_cast<size_t>(op.expect))
            return Verdict::Wrong;
        thread_local Bytes expect;
        replayValue(op.key, static_cast<uint32_t>(op.expect), expect);
        return reply.payload == expect ? Verdict::Ok : Verdict::Wrong;
    }
    case OpKind::Put:
    case OpKind::Del:
        return reply.type == ok ? Verdict::Ok : Verdict::Wrong;
    case OpKind::Scan: {
        const Bytes &start = keys_[op.key];
        Bytes end = scanEndFor(
            static_cast<KVClass>(class_of_[op.key]), start);
        return checkScan(reply, start, end, 100,
                         [this](BytesView k, BytesView v) {
                             auto it = index_.find(Bytes(k));
                             if (it == index_.end())
                                 return false;
                             thread_local Bytes expect;
                             replayValue(
                                 it->second,
                                 static_cast<uint32_t>(v.size()),
                                 expect);
                             return v == BytesView(expect);
                         });
    }
    }
    return Verdict::Wrong;
}

/** The trace in order; updates the model as it sends. */
class ReplayStream final : public OpStream
{
  public:
    ReplayStream(ReplayWorkload &wl, uint32_t conns)
        : wl_(wl), conns_(conns)
    {}

    bool
    next(Op &op) override
    {
        if (pos_ >= wl_.recs_.size())
            return false;
        const ReplayWorkload::Rec &r = wl_.recs_[pos_++];
        op = Op{};
        op.key = r.key;
        op.route = wl_.routeOf(r.key, conns_);
        int32_t &state = wl_.state_[r.key];
        switch (r.op) {
        case OpType::Read:
            op.kind = OpKind::Get;
            op.expect = state;
            break;
        case OpType::Write:
        case OpType::Update:
            op.kind = OpKind::Put;
            op.value_size = r.size;
            state = static_cast<int32_t>(r.size);
            break;
        case OpType::Delete:
            op.kind = OpKind::Del;
            state = -1;
            break;
        case OpType::Scan:
            op.kind = OpKind::Scan;
            break;
        }
        ++wl_.sent_[wl_.class_of_[r.key]][static_cast<int>(r.op)];
        return true;
    }

  private:
    ReplayWorkload &wl_;
    uint32_t conns_;
    size_t pos_ = 0;
};

namespace
{

/** Writes that move the model from state to target, key by key. */
class RestoreStream final : public OpStream
{
  public:
    RestoreStream(std::vector<int32_t> &state,
                  const std::vector<int32_t> &target,
                  std::function<uint16_t(uint32_t)> route)
        : state_(state), target_(target), route_(std::move(route))
    {}

    bool
    next(Op &op) override
    {
        while (pos_ < target_.size() &&
               state_[pos_] == target_[pos_])
            ++pos_;
        if (pos_ >= target_.size())
            return false;
        auto k = static_cast<uint32_t>(pos_);
        op = Op{};
        op.key = k;
        op.route = route_(k);
        if (target_[k] >= 0) {
            op.kind = OpKind::Put;
            op.value_size = static_cast<uint32_t>(target_[k]);
        } else {
            op.kind = OpKind::Del;
        }
        state_[k] = target_[k];
        return true;
    }

  private:
    std::vector<int32_t> &state_;
    const std::vector<int32_t> &target_;
    std::function<uint16_t(uint32_t)> route_;
    size_t pos_ = 0;
};

} // namespace

std::unique_ptr<OpStream>
ReplayWorkload::stream(uint32_t conns)
{
    return std::make_unique<ReplayStream>(*this, conns);
}

void
ReplayWorkload::restart()
{
    state_.assign(initial_.size(), -1);
}

std::unique_ptr<OpStream>
ReplayWorkload::reset(uint32_t conns)
{
    return std::make_unique<RestoreStream>(
        state_, initial_,
        [this, conns](uint32_t k) { return routeOf(k, conns); });
}

uint64_t
ReplayWorkload::verifySample(srv::Client &client, uint64_t seed,
                             uint32_t n) const
{
    ethkv::Rng rng(seed);
    uint64_t bad = 0;
    Bytes got, expect;
    for (uint32_t i = 0; i < n && !keys_.empty(); ++i) {
        auto k = static_cast<uint32_t>(rng.nextBounded(keys_.size()));
        Status s = client.get(keys_[k], got);
        if (state_[k] < 0) {
            bad += s.isNotFound() ? 0 : 1;
            continue;
        }
        replayValue(k, static_cast<uint32_t>(state_[k]), expect);
        bad += s.isOk() && got == expect ? 0 : 1;
    }
    return bad;
}

ReplayWorkload::Counts
ReplayWorkload::traceCounts() const
{
    // Counted by the recorded class: a synthesized key that
    // classifies differently shows up as a mismatch with sent().
    Counts c{};
    for (const Rec &r : recs_)
        if (r.cls < ethkv::client::num_kv_classes)
            ++c[r.cls][static_cast<int>(r.op)];
    return c;
}

double
ReplayWorkload::captureReadMissShare() const
{
    uint64_t reads = 0, misses = 0;
    for (const Rec &r : recs_) {
        if (r.op != OpType::Read)
            continue;
        ++reads;
        misses += r.size == 0 ? 1 : 0;
    }
    return reads == 0 ? 0.0
                      : static_cast<double>(misses) /
                            static_cast<double>(reads);
}

uint64_t
ReplayWorkload::liveBytes() const
{
    uint64_t n = 0;
    for (size_t k = 0; k < keys_.size(); ++k)
        if (state_[k] >= 0)
            n += keys_[k].size() + static_cast<uint64_t>(state_[k]);
    return n;
}

void
printTable2(const ReplayWorkload::Counts &counts)
{
    uint64_t total = 0;
    for (const auto &row : counts)
        for (uint64_t n : row)
            total += n;
    std::printf("table2 %-20s %15s %15s %15s %15s %15s %15s"
                "  (trace%% / paper%%)\n",
                "class", "ops", "write", "update", "read", "scan",
                "delete");
    for (int c = 0; c < ethkv::client::num_kv_classes; ++c) {
        uint64_t n = 0;
        for (uint64_t v : counts[c])
            n += v;
        if (n == 0)
            continue;
        const char *name =
            ethkv::client::kvClassName(static_cast<KVClass>(c));
        const ethkv::bench::PaperClassRef *paper =
            ethkv::bench::paperRef(ethkv::bench::paperTable2(), name);
        auto pct = [](uint64_t a, uint64_t b) {
            return b == 0 ? 0.0
                          : 100.0 * static_cast<double>(a) /
                                static_cast<double>(b);
        };
        auto col = [&](double mine, double theirs) {
            char buf[32];
            if (paper)
                std::snprintf(buf, sizeof(buf), "%6.2f/%-8.3g", mine,
                              theirs);
            else
                std::snprintf(buf, sizeof(buf), "%6.2f/%-8s", mine,
                              "-");
            return std::string(buf);
        };
        auto at = [&](OpType op) {
            return counts[c][static_cast<int>(op)];
        };
        std::printf(
            "table2 %-20s %15s %15s %15s %15s %15s %15s\n", name,
            col(pct(n, total), paper ? paper->ops_share : 0).c_str(),
            col(pct(at(OpType::Write), n), paper ? paper->writes : 0)
                .c_str(),
            col(pct(at(OpType::Update), n),
                paper ? paper->updates : 0)
                .c_str(),
            col(pct(at(OpType::Read), n), paper ? paper->reads : 0)
                .c_str(),
            col(pct(at(OpType::Scan), n), paper ? paper->scans : 0)
                .c_str(),
            col(pct(at(OpType::Delete), n),
                paper ? paper->deletes : 0)
                .c_str());
    }
}

} // namespace perfbench
