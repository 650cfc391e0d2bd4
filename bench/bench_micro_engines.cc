/**
 * @file
 * google-benchmark microbenchmarks over every KV engine: put, get,
 * delete, and (for ordered engines) scan throughput. Grounds the
 * ablation results in per-operation costs.
 *
 * The obs/ variants run the same loops through InstrumentedKVStore,
 * so `BM_Get/mem` vs `BM_Get/obs_mem` is a direct measurement of
 * the telemetry decorator's overhead. `lsm_x4` is four LSM shards
 * behind ShardedKVStore, and BM_FullScan walks a whole memtable-
 * resident keyspace on one shard vs four, so the merge's cost per
 * key shows directly.
 *
 * Every case runs kRepetitions times and reports only aggregates
 * (mean, median, stddev, cv, and iqr: the spread between the 25th
 * and 75th percentile of the per-repetition times), because single
 * runs of the fast cases moved by more than half between runs.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <vector>

#include "common/rand.hh"
#include "core/hybrid_store.hh"
#include "core/lazy_index_store.hh"
#include "kvstore/btree_store.hh"
#include "kvstore/hash_store.hh"
#include "kvstore/log_store.hh"
#include "kvstore/lsm_store.hh"
#include "kvstore/mem_store.hh"
#include "kvstore/instrumented_store.hh"
#include "kvstore/sharded_store.hh"
#include "obs/metrics.hh"

using namespace ethkv;

namespace
{

constexpr uint64_t dataset = 20000;
constexpr int kRepetitions = 5;

Bytes
benchKey(uint64_t i)
{
    // TrieNodeStorage-shaped keys: 'O' + 32B + short path.
    Bytes key = "O";
    Rng rng(i * 2654435761u + 7);
    key += rng.nextBytes(36);
    return key;
}

Bytes
benchValue(uint64_t i)
{
    Rng rng(i + 99);
    return rng.nextBytes(24 + i % 64);
}

/** Decorator + owned inner engine in one allocation-friendly box. */
class OwnedObsStore : public kv::InstrumentedKVStore
{
  public:
    explicit OwnedObsStore(std::unique_ptr<kv::KVStore> inner)
        : kv::InstrumentedKVStore(*inner,
                                   obs::MetricsRegistry::global()),
          inner_owned_(std::move(inner))
    {}

  private:
    std::unique_ptr<kv::KVStore> inner_owned_;
};

std::unique_ptr<kv::KVStore> makeEngine(const std::string &name);

std::unique_ptr<kv::KVStore>
makeLsm(uint64_t memtable_bytes)
{
    static int counter = 0;
    kv::LSMOptions options;
    options.dir = (std::filesystem::temp_directory_path() /
                   ("ethkv_micro_lsm_" + std::to_string(counter++)))
                      .string();
    options.memtable_bytes = memtable_bytes;
    std::filesystem::remove_all(options.dir);
    auto store = kv::LSMStore::open(options);
    store.status().expectOk("micro lsm open");
    return store.take();
}

/** @p shards LSM engines behind the hash router, as ethkvd
 *  --shards builds them. */
std::unique_ptr<kv::KVStore>
makeShardedLsm(int shards, uint64_t memtable_bytes)
{
    std::vector<std::unique_ptr<kv::KVStore>> engines;
    for (int i = 0; i < shards; ++i)
        engines.push_back(makeLsm(memtable_bytes));
    return std::make_unique<kv::ShardedKVStore>(std::move(engines));
}

std::unique_ptr<kv::KVStore>
makeEngine(const std::string &name)
{
    // "obs_<engine>": the same engine behind the telemetry
    // decorator, for overhead comparison.
    if (name.rfind("obs_", 0) == 0) {
        auto inner = makeEngine(name.substr(4));
        return inner ? std::make_unique<OwnedObsStore>(
                           std::move(inner))
                     : nullptr;
    }
    if (name == "mem")
        return std::make_unique<kv::MemStore>();
    if (name == "hash")
        return std::make_unique<kv::HashStore>();
    if (name == "btree")
        return std::make_unique<kv::BTreeStore>();
    if (name == "log")
        return std::make_unique<kv::AppendLogStore>();
    if (name == "lazylog")
        return std::make_unique<core::LazyIndexStore>();
    if (name == "hybrid")
        return std::make_unique<core::HybridKVStore>();
    if (name == "lsm")
        return makeLsm(kv::LSMOptions{}.memtable_bytes);
    if (name == "lsm_x4")
        return makeShardedLsm(4, kv::LSMOptions{}.memtable_bytes);
    return nullptr;
}

void
fill(kv::KVStore &store, uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i)
        store.put(benchKey(i), benchValue(i)).expectOk("fill");
}

void
BM_Put(benchmark::State &state, const std::string &engine)
{
    auto store = makeEngine(engine);
    uint64_t i = 0;
    for (auto _ : state) {
        store->put(benchKey(i % dataset), benchValue(i))
            .expectOk("put");
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_Get(benchmark::State &state, const std::string &engine)
{
    auto store = makeEngine(engine);
    fill(*store, dataset);
    Rng rng(5);
    Bytes value;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            store->get(benchKey(rng.nextBounded(dataset)), value));
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_Delete(benchmark::State &state, const std::string &engine)
{
    auto store = makeEngine(engine);
    fill(*store, dataset);
    uint64_t i = 0;
    for (auto _ : state) {
        store->del(benchKey(i % dataset)).expectOk("del");
        // Reinsert so deletes keep finding live keys.
        if (i % dataset == dataset - 1)
            fill(*store, dataset);
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_Scan100(benchmark::State &state, const std::string &engine)
{
    auto store = makeEngine(engine);
    fill(*store, dataset);
    Rng rng(9);
    for (auto _ : state) {
        int visited = 0;
        store
            ->scan(benchKey(rng.nextBounded(dataset)), BytesView(),
                   [&](BytesView, BytesView) {
                       return ++visited < 100;
                   })
            .expectOk("scan");
        benchmark::DoNotOptimize(visited);
    }
    state.SetItemsProcessed(state.iterations() * 100);
}

/**
 * Full-range scan of state.range(0) keys that all sit in the active
 * memtables, on @p shards LSM shards.
 */
void
BM_FullScan(benchmark::State &state, int shards)
{
    auto keys = static_cast<uint64_t>(state.range(0));
    // Large enough that no memtable seals during the fill.
    auto store = shards == 1 ? makeLsm(uint64_t{256} << 20)
                             : makeShardedLsm(shards,
                                              uint64_t{256} << 20);
    fill(*store, keys);
    for (auto _ : state) {
        uint64_t visited = 0;
        store
            ->scan(BytesView(), BytesView(),
                   [&](BytesView, BytesView) {
                       ++visited;
                       return true;
                   })
            .expectOk("scan");
        if (visited != keys)
            state.SkipWithError("full scan lost keys");
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(keys));
}

/** Interquartile range of the per-repetition results. */
double
iqr(const std::vector<double> &v)
{
    std::vector<double> s(v);
    std::sort(s.begin(), s.end());
    auto at = [&s](double q) {
        double pos = q * static_cast<double>(s.size() - 1);
        auto lo = static_cast<size_t>(pos);
        size_t hi = std::min(lo + 1, s.size() - 1);
        return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
    };
    return s.empty() ? 0.0 : at(0.75) - at(0.25);
}

/** Apply()-able: run kRepetitions times, report aggregates only. */
void
repeated(benchmark::internal::Benchmark *b)
{
    b->Repetitions(kRepetitions)
        ->ComputeStatistics("iqr", iqr)
        ->ReportAggregatesOnly(true);
}

} // namespace

// Iteration caps keep each repetition of the suite to ~a minute on
// one core.
#define ETHKV_REGISTER(engine)                                     \
    BENCHMARK_CAPTURE(BM_Put, engine, #engine)                     \
        ->Iterations(30000)                                        \
        ->Apply(repeated);                                         \
    BENCHMARK_CAPTURE(BM_Get, engine, #engine)                     \
        ->Iterations(30000)                                        \
        ->Apply(repeated);                                         \
    BENCHMARK_CAPTURE(BM_Delete, engine, #engine)                  \
        ->Iterations(15000)                                        \
        ->Apply(repeated)

ETHKV_REGISTER(mem);
ETHKV_REGISTER(hash);
ETHKV_REGISTER(btree);
ETHKV_REGISTER(log);
ETHKV_REGISTER(lazylog);
ETHKV_REGISTER(hybrid);
ETHKV_REGISTER(lsm);

// Decorated twins of the fastest engines: the put/get deltas vs
// the rows above bound the instrumentation overhead where it is
// hardest to hide (sub-microsecond in-memory ops).
ETHKV_REGISTER(obs_mem);
ETHKV_REGISTER(obs_hash);
ETHKV_REGISTER(obs_btree);

// Scans only where ordered iteration is supported.
BENCHMARK_CAPTURE(BM_Scan100, mem, "mem")
    ->Iterations(2000)
    ->Apply(repeated);
BENCHMARK_CAPTURE(BM_Scan100, btree, "btree")
    ->Iterations(2000)
    ->Apply(repeated);
BENCHMARK_CAPTURE(BM_Scan100, lsm, "lsm")
    ->Iterations(500)
    ->Apply(repeated);
BENCHMARK_CAPTURE(BM_Scan100, lsm_x4, "lsm_x4")
    ->Iterations(500)
    ->Apply(repeated);

// ROADMAP item 2's scaling probe: 1 vs 4 shards over 20k/40k/80k
// memtable-resident keys; per-key time should not grow with keys.
BENCHMARK_CAPTURE(BM_FullScan, lsm_x1, 1)
    ->Arg(20000)
    ->Arg(40000)
    ->Arg(80000)
    ->Iterations(5)
    ->Unit(benchmark::kMillisecond)
    ->Apply(repeated);
BENCHMARK_CAPTURE(BM_FullScan, lsm_x4, 4)
    ->Arg(20000)
    ->Arg(40000)
    ->Arg(80000)
    ->Iterations(5)
    ->Unit(benchmark::kMillisecond)
    ->Apply(repeated);

int
main(int argc, char **argv)
{
    // Strip --metrics-out before google-benchmark rejects it as an
    // unknown flag; dump the registry (op.obs_* histograms and the
    // engines' maintenance timers) on exit when requested.
    obs::installExitDump(
        obs::consumeMetricsOutFlag(&argc, argv));
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
