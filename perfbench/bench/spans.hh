/**
 * @file
 * Layer-boundary spans for the traced run.
 *
 * The traced run rebuilds ethkvd's stack in-process and slips a
 * pass-through TimedStore between every pair of layers. Each call
 * through a TimedStore records a span (layer, call, start, end,
 * parent). Server workers run a request's stack call synchronously,
 * so the parent is simply the enclosing span on the same thread,
 * kept on a per-thread nesting stack. Spans stay in per-thread
 * memory until the run ends; analyzeSpans() then turns them into
 * self times: a span's duration minus the part its child spans
 * cover.
 *
 * Scan callbacks run the caller's code inside the callee's span, so
 * a TimedStore also measures the time spent in the callback it was
 * handed and records it on the span; that time is owed to the
 * parent, not to the callee.
 */

#ifndef ETHKV_PERFBENCH_SPANS_HH
#define ETHKV_PERFBENCH_SPANS_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kvstore/kvstore.hh"

namespace perfbench
{

/** The layer a TimedStore sits on top of. */
enum class Layer : uint8_t
{
    Instrumented, //!< kv::InstrumentedKVStore (the server's call).
    CacheTier,    //!< cachetier::CacheTier.
    Repl,         //!< The ReplicationHub's replicated store.
    Sharded,      //!< kv::ShardedKVStore.
    Lsm,          //!< One kv::LSMStore shard.
};
constexpr int kLayers = 5;

/** KVStore entry points a span can record. */
enum class Call : uint8_t
{
    Get,
    Put,
    Del,
    Scan,
    Apply,
    Contains,
};
constexpr int kCalls = 6;

constexpr uint32_t kNoParent = UINT32_MAX;

/** One call through one layer boundary. */
struct Span
{
    int64_t start = 0;
    int64_t end = 0;
    int64_t callback_ns = 0; //!< Spent in the caller's scan callback.
    uint32_t parent = kNoParent; //!< Index in the same thread's spans.
    Layer layer = Layer::Instrumented;
    Call call = Call::Get;
    uint16_t shard = 0;
};

/** Spans and exact call counts of one thread. */
struct ThreadSpans
{
    std::vector<Span> spans;
    std::array<std::array<uint64_t, kCalls>, kLayers> calls{};
    std::vector<uint64_t> shard_calls; //!< Lsm calls per shard.
};

/**
 * Process-wide span sink. Root spans are sampled 1 in
 * `sample_every` per thread (a sampled root keeps its whole call
 * tree); call counts are exact.
 */
class SpanRecorder
{
  public:
    SpanRecorder(uint32_t sample_every, size_t max_spans_per_thread);
    ~SpanRecorder();
    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** The recorder TimedStores report to (null = none). */
    static SpanRecorder *active();
    /** Pause or resume recording (calls in flight finish). */
    void setRecording(bool on);

    /** Open a span; returns a token for end(). */
    uint32_t begin(Layer layer, Call call, uint16_t shard);
    void end(uint32_t token, int64_t callback_ns);

    /** Every thread's buffers; call once traffic has stopped. */
    const std::vector<std::unique_ptr<ThreadSpans>> &threads() const
    {
        return threads_;
    }

    /** Write all spans as 40-byte records: u32 thread index,
     *  u32 layer | call << 8 | shard << 16 (enum values above),
     *  u32 parent, u32 zero, then i64 start, end and callback ns. */
    bool writeTo(const std::string &path) const;

    struct Local; //!< Per-thread nesting state.

  private:
    Local &local();

    uint32_t sample_every_;
    size_t max_spans_;
    std::vector<std::unique_ptr<ThreadSpans>> threads_;
};

/** Pass-through KVStore that records one span per call. */
class TimedStore final : public ethkv::kv::KVStore
{
  public:
    TimedStore(ethkv::kv::KVStore &inner, Layer layer,
               uint16_t shard = 0);
    /** Owning form, for engines handed to ShardedKVStore. */
    TimedStore(std::unique_ptr<ethkv::kv::KVStore> owned,
               Layer layer, uint16_t shard);

    ethkv::Status put(ethkv::BytesView key,
                      ethkv::BytesView value) override;
    ethkv::Status get(ethkv::BytesView key,
                      ethkv::Bytes &value) override;
    ethkv::Status del(ethkv::BytesView key) override;
    ethkv::Status scan(ethkv::BytesView start, ethkv::BytesView end,
                       const ethkv::kv::ScanCallback &cb) override;
    ethkv::Status apply(const ethkv::kv::WriteBatch &batch) override;
    bool contains(ethkv::BytesView key) override;
    ethkv::Status flush() override { return inner_.flush(); }
    const ethkv::kv::IOStats &stats() const override
    {
        return inner_.stats();
    }
    std::string name() const override { return inner_.name(); }
    uint64_t liveKeyCount() override { return inner_.liveKeyCount(); }

  private:
    std::unique_ptr<ethkv::kv::KVStore> owned_;
    ethkv::kv::KVStore &inner_;
    Layer layer_;
    uint16_t shard_;
};

/** Self-time totals for one (layer, call). */
struct CallStats
{
    uint64_t spans = 0;
    double self_ns = 0; //!< Sum of self times.
    //! Child spans per layer opened directly under these spans.
    std::array<uint64_t, kLayers> children{};
};

struct SpanAnalysis
{
    std::array<std::array<CallStats, kCalls>, kLayers> by{};
    std::array<std::array<uint64_t, kCalls>, kLayers> calls{};
    std::vector<uint64_t> shard_calls;
    //! Net durations of foreground root spans (the server's call
    //! into the stack), in ns.
    std::vector<int64_t> outer_ns;
    uint64_t background_roots = 0; //!< Roots below the top layer.
    uint64_t negative_self = 0;    //!< Must stay 0.
    uint64_t open_spans = 0;       //!< Never ended; must stay 0.

    /** Mean self ns over the given calls of a layer. */
    double meanSelf(Layer layer, std::initializer_list<Call> calls)
        const;
    /** Sampled spans behind meanSelf(layer, calls). */
    uint64_t spanCount(Layer layer, std::initializer_list<Call> calls)
        const;
};

/** Self times of all spans; outer_ns keeps only foreground roots
 *  that started at or after `outer_since_ns`. */
SpanAnalysis analyzeSpans(
    const std::vector<const ThreadSpans *> &threads,
    int64_t outer_since_ns = 0);

} // namespace perfbench

#endif // ETHKV_PERFBENCH_SPANS_HH
