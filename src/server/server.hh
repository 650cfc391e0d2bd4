/**
 * @file
 * ethkvd's server core: a multi-threaded, epoll-based TCP server
 * over any ethkv::kv::KVStore.
 *
 * Threading model (DESIGN.md §9):
 *
 *  - One acceptor thread owns the listening socket. Accepted
 *    connections are handed to workers round-robin via a small
 *    mutex-guarded queue plus an eventfd wakeup (fd handoff, so
 *    one connection lives on exactly one worker forever — no
 *    cross-worker state, no per-frame locking).
 *  - N worker threads each run a private epoll loop over their
 *    connections. A worker reads bytes, decodes frames
 *    (server/protocol.hh), executes ops against the shared store,
 *    and queues response frames on the connection's write buffer.
 *
 * The store must be safe for concurrent callers: HybridKVStore and
 * CachingKVStore lock internally; anything else is wrapped in
 * kv::LockedKVStore by the caller (ethkvd does this).
 *
 * Backpressure: each connection has a bounded write queue. Above
 * the soft limit the worker stops reading from that connection
 * (requests stop entering, the pipe fills, the client blocks — a
 * closed loop). Above the hard limit — a client that keeps
 * pipelining but never reads — the connection is dropped.
 *
 * Error discipline: engine Statuses map 1:1 onto wire codes, so a
 * store that degraded to read-only after an I/O failure surfaces
 * to every client as IODegraded, not a generic error. Protocol
 * violations (bad magic, oversized length, checksum mismatch) get
 * a best-effort BadFrame response, then the connection closes —
 * framing is unrecoverable on a byte stream.
 *
 * Graceful shutdown: stop() stops accepting, closes connections,
 * joins all threads, then flushes the engine (WAL sync) so an
 * orderly SIGTERM never loses acknowledged writes.
 */

#ifndef ETHKV_SERVER_SERVER_HH
#define ETHKV_SERVER_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.hh"
#include "common/status.hh"
#include "kvstore/kvstore.hh"
#include "obs/metrics.hh"
#include "obs/slow_op_log.hh"
#include "obs/trace_event.hh"
#include "server/protocol.hh"

namespace ethkv::server
{

class ReplicationHub;

/** Server tuning knobs. */
struct ServerOptions
{
    std::string host = "127.0.0.1";
    uint16_t port = 0; //!< 0 = ephemeral (query with port()).
    int workers = 4;
    //! Largest request/response payload accepted on the wire.
    size_t max_frame_bytes = kDefaultMaxFrameBytes;
    //! Stop reading from a connection whose pending responses
    //! exceed this (closed-loop backpressure).
    size_t write_queue_soft_bytes = 1u << 20;
    //! Drop a connection whose pending responses exceed this.
    size_t write_queue_hard_bytes = 8u << 20;
    //! Server-side cap on SCAN results per request.
    uint64_t scan_limit_max = 4096;
    //! Byte cap on one SCAN response payload. The entry-count cap
    //! alone cannot bound the response: 4096 entries of 32 KiB each
    //! overflow max_frame_bytes and the encoder would abort the
    //! connection. 0 = derive from max_frame_bytes minus encoding
    //! headroom. The first entry is always returned even if it
    //! alone exceeds the budget, so progress is guaranteed.
    size_t scan_byte_budget = 0;
    //! Destination for server.* instruments; global when null.
    obs::MetricsRegistry *metrics = nullptr;
    //! Request-pipeline span sink; tracing off when null. For
    //! merged client+server timelines the log should use the
    //! absolute clock (TraceEventLog(true, cap)).
    obs::TraceEventLog *trace_log = nullptr;
    //! When tracing is on, untraced (v1) requests are still traced
    //! at a 1-in-2^shift sample so server-only captures work.
    int trace_sample_shift = 4;
    //! op.server.<stage>_ns histograms record 1-in-2^shift
    //! requests (same budget discipline as InstrumentedKVStore).
    int stage_sample_shift = 4;
    //! Record requests slower than this (decode+exec+encode) in
    //! the slow-op ring; negative = disabled.
    int64_t slow_op_micros = -1;
    //! Ring capacity for the slow-op log.
    size_t slow_op_capacity = 256;
    //! Replication hub (DESIGN.md §13); null = standalone node.
    //! The server consults it for role checks, hands SUBSCRIBE
    //! connections to it, serves PROMOTE through it, and defers
    //! mutation acks when it asks (semi-sync replication). Owned
    //! by the caller; must outlive the server.
    ReplicationHub *repl = nullptr;
    //! Close connections with no inbound traffic for this long
    //! (half-open peers, leaked sockets); 0 = never.
    int conn_idle_timeout_ms = 0;
    //! Pin worker thread i to CPU (i mod hardware cores). With a
    //! sharded engine (--shards, DESIGN.md §15) this keeps each
    //! event-loop thread — and therefore every op it executes
    //! in-thread against the owning shard — on a stable core,
    //! while the per-shard maintenance threads float on the rest.
    bool pin_cores = false;
};

/**
 * The server. Construct over a store, start(), stop().
 *
 * One Server instance may be started and stopped once; tests that
 * need a fresh server construct a fresh instance.
 */
class Server
{
  public:
    Server(kv::KVStore &store, ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, and spawn the acceptor + worker threads. */
    Status start();

    /**
     * Graceful shutdown: stop accepting, close connections, join
     * threads, flush the engine. Idempotent.
     */
    void stop();

    /** The bound port (valid after start()). */
    uint16_t port() const { return port_; }

    /** Name of the engine being served. */
    std::string engineName() const { return store_.name(); }

    /** The slow-op ring; null when slow_op_micros < 0. Valid for
     *  the server's lifetime (SIGUSR1 dumps read through this). */
    const obs::SlowOpLog *slowOpLog() const
    {
        return slow_log_.get();
    }

  private:
    struct Connection;
    struct Worker;

    void acceptorLoop();
    void workerLoop(Worker &worker);
    void handleFrame(Worker &worker, Connection &conn,
                     const Frame &frame, uint64_t decode_start_ns,
                     uint64_t decode_end_ns);
    /** SUBSCRIBE: validate, respond, migrate the fd to the
     *  replication sender. */
    void handleSubscribe(Worker &worker, Connection &conn,
                         const Frame &frame);
    /** Sync-ack completions delivered by the sender thread. */
    void deliverAckCompletions(Worker &worker);
    /** Close connections idle past conn_idle_timeout_ms. */
    void reapIdleConnections(Worker &worker, uint64_t now_ms);
    void execOp(Connection &conn, const Frame &frame,
                uint8_t &wire_status, Bytes &payload);
    Bytes statsJson();
    void closeConnection(Worker &worker, Connection &conn);
    void flushWrites(Worker &worker, Connection &conn);
    void applyBackpressure(Worker &worker, Connection &conn);

    /** 1-in-2^stage_sample_shift decision, one relaxed atomic. */
    bool stageSampleHit();
    /** Sampler for server-initiated traces of untraced frames. */
    bool traceSampleHit();

    kv::KVStore &store_;
    ServerOptions options_;
    obs::MetricsRegistry &metrics_;
    obs::TraceEventLog *trace_log_ = nullptr;
    std::unique_ptr<obs::SlowOpLog> slow_log_;
    uint64_t slow_op_ns_ = 0;
    std::atomic<uint64_t> stage_sample_seq_{0};
    std::atomic<uint64_t> trace_sample_seq_{0};
    uint64_t stage_sample_mask_ = 0;
    uint64_t trace_sample_mask_ = 0;

    int listen_fd_ = -1;
    int accept_wake_fd_ = -1;
    uint16_t port_ = 0;
    std::atomic<bool> running_{false};
    std::atomic<bool> started_{false};
    /** Generation stamp for connections, so a sync-ack completion
     *  can never hit a different connection that reused the fd. */
    std::atomic<uint64_t> next_conn_id_{1};
    std::thread acceptor_;
    std::vector<std::unique_ptr<Worker>> workers_;
    size_t next_worker_ = 0;

    // Cached instruments (lookups lock; increments are lock-free).
    obs::Counter *conns_accepted_;
    obs::Counter *conns_closed_;
    obs::Gauge *conns_active_;
    obs::Counter *bytes_in_;
    obs::Counter *bytes_out_;
    obs::Counter *frames_bad_;
    obs::Counter *frames_received_;
    obs::Counter *backpressure_paused_;
    obs::Counter *backpressure_dropped_;
    obs::Counter *op_count_[13];
    obs::Counter *op_errors_[13];    //!< Non-Ok, non-NotFound.
    obs::Counter *op_not_found_[13];
    obs::LatencyHistogram *op_latency_[13];
    obs::LatencyHistogram *conn_lifetime_ops_;

    // Per-stage attribution (sampled; DESIGN.md §11).
    obs::LatencyHistogram *stage_read_ns_;
    obs::LatencyHistogram *stage_decode_ns_;
    obs::LatencyHistogram *stage_exec_ns_;
    obs::LatencyHistogram *stage_encode_ns_;
    obs::LatencyHistogram *stage_flush_ns_;
    obs::LatencyHistogram *stage_total_ns_;
    obs::Gauge *write_queue_bytes_;   //!< Sum over connections.
    obs::Gauge *responses_inflight_;  //!< Queued, not yet flushed.
    obs::Counter *slow_ops_recorded_;
    obs::Counter *traces_emitted_;
    obs::Counter *conns_idle_closed_;
    obs::Counter *subscribers_adopted_;
    obs::Counter *acks_deferred_;
};

} // namespace ethkv::server

#endif // ETHKV_SERVER_SERVER_HH
