/**
 * @file
 * The benchmark's workloads: request encoding, reply checking and
 * op streams for the synthetic Zipf mixes (zipf_rw, corr_read) and
 * for the replay of a captured CacheTrace (paper_replay).
 *
 * Every value the benchmark writes is deterministic, so every reply
 * can be checked:
 *  - synthetic values carry their key id and a generation (0 for
 *    the preload, then one per phase) followed by filler derived
 *    from both; a GET must return exactly such a value for its key,
 *    from a generation already written;
 *  - replay values are filler derived from the key, at the size the
 *    trace recorded. The replay keeps a model of which keys are
 *    live at which size, updated in trace order as requests are
 *    sent; all requests for one key go down one connection, so each
 *    GET must match the model exactly, NotFound included.
 * SCAN replies must be sorted, inside [start, end) and within the
 * limit, and every entry must be a valid value for its key.
 */

#ifndef ETHKV_PERFBENCH_WORKLOADS_HH
#define ETHKV_PERFBENCH_WORKLOADS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/schema.hh"
#include "loadgen.hh"
#include "trace/record.hh"

namespace ethkv::server
{
class Client;
}

namespace perfbench
{

/** Synthetic keys: the paper classes key ids cycle through. */
ethkv::client::KVClass classOfKeyId(uint64_t key_id);

/** Exclusive end of the key range holding every key of a class. */
ethkv::Bytes classRangeEnd(ethkv::client::KVClass cls);

/** Synthetic value: id (8 B), generation (1 B), filler. */
void makeValue(uint64_t id, uint8_t gen, uint32_t size,
               ethkv::Bytes &out);

/** Replay value: filler derived from the key index. */
void replayValue(uint64_t index, uint32_t size, ethkv::Bytes &out);

/** Shape of a synthetic Zipf workload. */
struct SyntheticSpec
{
    uint32_t keys = 200000;
    double zipf = 0.99;
    double get = 0.48; //!< Shares of drawn ops; the rest is PUT.
    double scan = 0.02;
    uint32_t follow = 0; //!< Correlated follower GETs per GET.
    uint32_t scan_limit = 100;
    uint32_t value_bytes = 256;
};

/** Followers of a key in its correlation group of 8. */
uint64_t corrFollowerOf(uint64_t key_id, uint32_t j);

class SyntheticWorkload final : public Workload
{
  public:
    explicit SyntheticWorkload(const SyntheticSpec &spec);

    ethkv::server::Opcode encode(const Op &op,
                                 ethkv::Bytes &payload) override;
    Verdict check(const Op &op,
                  const ethkv::server::Frame &reply) override;

    /** Newest generation a reply may carry. */
    void setMaxGen(uint8_t gen) { max_gen_.store(gen); }
    /** Forget which keys later phases wrote (fresh server). */
    void resetGenerations();

    /** Mixed ops from the spec; PUTs write generation gen. The
     *  stream ends after `limit` ops (0: never). */
    std::unique_ptr<OpStream> stream(uint64_t seed, uint8_t gen,
                                     uint64_t limit = 0);
    /** PUT generation 0 of every key in slice part of parts. */
    std::unique_ptr<OpStream> preload(uint32_t part, uint32_t parts);

    /** GET a seeded sample of keys written so far and compare
     *  each against its newest generation; returns mismatches. */
    uint64_t verifySample(ethkv::server::Client &client,
                          uint64_t seed, uint32_t n) const;

    /** Write the static follower table ethkvd --corr-table reads. */
    bool writeCorrTable(const std::string &path,
                        uint32_t followers) const;

    uint64_t liveBytes() const;

  private:
    friend class SyntheticStream;

    bool validEntry(ethkv::BytesView key, ethkv::BytesView value,
                    uint64_t expect_id, bool check_id) const;

    SyntheticSpec spec_;
    std::vector<ethkv::Bytes> keys_;
    std::vector<uint8_t> class_of_; //!< Index into range_end_.
    std::vector<ethkv::Bytes> range_end_;
    std::unique_ptr<std::atomic<uint8_t>[]> last_gen_;
    std::atomic<uint8_t> max_gen_{0};
};

/** A captured CacheTrace and what capturing it cost. */
struct Capture
{
    ethkv::trace::TraceBuffer trace;
    double capture_s = 0;  //!< Wall time of runSimulation.
    double engine_s = 0;   //!< Time inside engine calls.
    uint64_t blocks = 0;
};

/** Run the paper pipeline: generator -> FullNode -> trie ->
 *  TracingKVStore, over a MemStore timed per call. */
Capture captureTrace(uint64_t blocks, uint64_t seed,
                     const std::string &freezer_dir);

class ReplayWorkload final : public Workload
{
  public:
    explicit ReplayWorkload(const ethkv::trace::TraceBuffer &trace);

    ethkv::server::Opcode encode(const Op &op,
                                 ethkv::Bytes &payload) override;
    Verdict check(const Op &op,
                  const ethkv::server::Frame &reply) override;

    /** The trace in order, routed by key over `conns`. */
    std::unique_ptr<OpStream> stream(uint32_t conns);
    /** Writes that bring the server to the preloaded state: every
     *  key whose first record is a hit Read, at the recorded size,
     *  and nothing else. */
    std::unique_ptr<OpStream> reset(uint32_t conns);
    /** Mark the model empty (a fresh server). */
    void restart();

    uint64_t verifySample(ethkv::server::Client &client,
                          uint64_t seed, uint32_t n) const;

    /** Ops sent per (class of the key sent, trace op type). */
    using Counts = std::array<std::array<uint64_t,
                                         ethkv::trace::num_op_types>,
                              ethkv::client::num_kv_classes>;
    const Counts &sent() const { return sent_; }
    /** The same counts taken from the trace records. */
    Counts traceCounts() const;

    uint64_t records() const { return recs_.size(); }
    uint64_t uniqueKeys() const { return keys_.size(); }
    /** Share of trace Reads that missed at capture time. */
    double captureReadMissShare() const;
    uint64_t liveBytes() const;

  private:
    friend class ReplayStream;

    struct Rec
    {
        uint32_t key;
        uint32_t size;
        ethkv::trace::OpType op;
        uint16_t cls; //!< Class recorded in the trace.
    };

    uint16_t routeOf(uint32_t key, uint32_t conns) const;

    std::vector<Rec> recs_;
    std::vector<ethkv::Bytes> keys_;
    std::vector<uint16_t> class_of_; //!< classify() of the key sent.
    std::unordered_map<ethkv::Bytes, uint32_t> index_;
    std::vector<int32_t> initial_; //!< Size, or -1 when absent.
    std::vector<int32_t> state_;   //!< Model as of the last send.
    Counts sent_{};
};

/** Print the trace's per-class shares beside the paper's Table II. */
void printTable2(const ReplayWorkload::Counts &counts);

} // namespace perfbench

#endif // ETHKV_PERFBENCH_WORKLOADS_HH
