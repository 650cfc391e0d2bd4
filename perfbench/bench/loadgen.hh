/**
 * @file
 * Wire load generator: closed-loop and open-loop phases against an
 * ethkvd endpoint, built on the public server/net_socket.hh and
 * server/protocol.hh functions.
 *
 * Each generator thread owns its connections and one epoll loop.
 * The closed loop keeps a fixed window of requests in flight per
 * connection and measures capacity. The open loop sends on a fixed
 * schedule whatever the replies do, and times every request from
 * its intended send time, so a server stall shows up in the
 * latency of every request scheduled behind it. Between sends the
 * open loop sleeps in epoll on a timer set to the next send time;
 * its lateness against that schedule is recorded per request.
 */

#ifndef ETHKV_PERFBENCH_LOADGEN_HH
#define ETHKV_PERFBENCH_LOADGEN_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "common/status.hh"
#include "server/protocol.hh"

namespace perfbench
{

enum class OpKind : uint8_t
{
    Get,
    Put,
    Del,
    Scan,
};
constexpr int kOpKinds = 4;

/** One request, described by workload-owned indices. */
struct Op
{
    OpKind kind = OpKind::Get;
    uint8_t gen = 0;        //!< Synthetic value generation.
    uint16_t route = 0;     //!< Connection, when routing is ordered.
    uint32_t key = 0;       //!< Workload key index.
    uint32_t value_size = 0;
    int32_t expect = 0;     //!< Workload-defined expected reply.
};

enum class Verdict
{
    Ok,
    NotFound,
    Wrong,
};

/** Request encoding and reply checking, shared by all threads. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Encode op's payload; returns its opcode. */
    virtual ethkv::server::Opcode encode(const Op &op,
                                         ethkv::Bytes &payload) = 0;
    /** Judge a reply frame for op. Must be thread-safe. */
    virtual Verdict check(const Op &op,
                          const ethkv::server::Frame &reply) = 0;
};

/** A sequence of ops; one per generator thread. */
class OpStream
{
  public:
    virtual ~OpStream() = default;
    /** Next op; false when the stream is exhausted. */
    virtual bool next(Op &op) = 0;
};

/** What one phase of one or more threads observed. */
struct PhaseStats
{
    //! Open loop: ns from intended send to reply, per op kind.
    std::array<std::vector<uint32_t>, kOpKinds> latency_ns;
    std::vector<uint32_t> late_ns; //!< Open loop: send lateness.
    std::array<uint64_t, kOpKinds> done{};
    std::array<uint64_t, kOpKinds> not_found{};
    uint64_t wrong = 0;  //!< Replies that failed the check.
    uint64_t issued = 0; //!< Requests sent.
    //! Open loop: sends held back because their connection already
    //! had max_inflight requests outstanding, and sends that fell
    //! due while one was held and queued behind it.
    uint64_t capped = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0; //!< Last reply.

    uint64_t completed() const;
    void merge(const PhaseStats &o);
};

struct Endpoint
{
    std::string host = "127.0.0.1";
    uint16_t port = 0;
};

struct PhaseOptions
{
    int connections = 4; //!< Per thread.
    size_t window = 32;  //!< Closed loop: in flight per connection.
    //! Honour Op::route (keeps per-key order for trace replay);
    //! otherwise ops go round-robin.
    bool ordered = false;
    double seconds = 0; //!< 0 = until the stream is exhausted.
    double rate = 0;    //!< Open loop: ops/s offered.
    //! Open loop: outstanding requests per connection. ethkvd
    //! decodes everything a connection has buffered before it
    //! flushes, and drops the connection once its queued replies
    //! pass 8 MiB; an unbounded backlog after a stall would trip
    //! that.
    size_t max_inflight = 128;
    bool record_latency = false;
};

/**
 * Closed loop: one thread per stream, each with its own
 * connections, until `seconds` elapse or the streams run dry; then
 * every in-flight request is drained.
 */
ethkv::Status runClosed(const Endpoint &ep, Workload &wl,
                        const std::vector<OpStream *> &streams,
                        const PhaseOptions &opt, PhaseStats &out);

/** Open loop from one thread at opt.rate. */
ethkv::Status runOpen(const Endpoint &ep, Workload &wl,
                      OpStream &stream, const PhaseOptions &opt,
                      PhaseStats &out);

} // namespace perfbench

#endif // ETHKV_PERFBENCH_LOADGEN_HH
