/**
 * @file
 * The served stack, two ways: as an ethkvd child process (the
 * measured runs) and rebuilt in-process with a TimedStore between
 * every pair of layers (the traced run). Both follow ethkvd's
 * order: LSM shards -> ShardedKVStore -> ReplicationHub::wrap ->
 * CacheTier -> InstrumentedKVStore -> server::Server.
 */

#ifndef ETHKV_PERFBENCH_STACK_HH
#define ETHKV_PERFBENCH_STACK_HH

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "cachetier/cache_tier.hh"
#include "cachetier/prefetcher.hh"
#include "common/status.hh"
#include "kvstore/instrumented_store.hh"
#include "kvstore/sharded_store.hh"
#include "server/replication.hh"
#include "server/server.hh"
#include "spans.hh"

namespace perfbench
{

/** What both forms of the stack are configured with. */
struct StackConfig
{
    std::string dir; //!< Data directory (created).
    int shards = 4;
    uint64_t cache_tier_bytes = 0; //!< 0 = no CacheTier.
    int prefetch_k = 4;
    std::string corr_table; //!< Static follower table, if any.

    /** The exact ethkvd flags for this config. */
    std::vector<std::string> ethkvdFlags() const;
};

/** An ethkvd child process serving one StackConfig. */
class ServerProcess
{
  public:
    ServerProcess() = default;
    ~ServerProcess();
    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    /** Spawn and wait until it accepts connections. */
    ethkv::Status start(const std::string &ethkvd,
                        const StackConfig &config,
                        const std::string &run_dir);
    uint16_t port() const { return port_; }
    pid_t pid() const { return pid_; }
    /** Peak resident set (VmHWM) in bytes; 0 if unreadable. */
    uint64_t peakRssBytes() const;
    /** SIGTERM, then wait for a clean exit. */
    ethkv::Status stop();

  private:
    pid_t pid_ = -1;
    uint16_t port_ = 0;
};

/** The stack rebuilt in-process, a TimedStore at each boundary. */
class TracedStack
{
  public:
    TracedStack() = default;
    ~TracedStack();
    TracedStack(const TracedStack &) = delete;
    TracedStack &operator=(const TracedStack &) = delete;

    ethkv::Status start(const StackConfig &config);
    void stop();

    uint16_t port() const { return server_->port(); }
    std::string engineName() const { return server_->engineName(); }
    /** Engine counters summed over the shards. */
    ethkv::kv::IOStats engineStats() const;
    /** Replication log end offset (bytes appended). */
    uint64_t replLogBytes() const { return hub_->endOffset(); }

  private:
    // Declared in ethkvd's order so teardown matches it.
    std::unique_ptr<ethkv::kv::ShardedKVStore> sharded_;
    std::unique_ptr<TimedStore> at_sharded_;
    std::unique_ptr<ethkv::server::ReplicationHub> hub_;
    std::unique_ptr<TimedStore> at_repl_;
    std::unique_ptr<ethkv::cachetier::CacheTier> tier_;
    std::unique_ptr<ethkv::cachetier::CorrelationPrefetcher>
        prefetcher_;
    std::unique_ptr<TimedStore> at_tier_;
    std::unique_ptr<ethkv::kv::InstrumentedKVStore> instrumented_;
    std::unique_ptr<TimedStore> at_instrumented_;
    std::unique_ptr<ethkv::server::Server> server_;
    bool running_ = false;
};

/** Bytes in regular files under dir, recursively. */
uint64_t diskBytes(const std::string &dir);

/** CPU time (user + system, all threads) a process used so far,
 *  to the nanosecond. Time the host steals from the VM is not in
 *  it. */
double cpuSecondsOf(pid_t pid);

/**
 * Wait until a process has been idle for 100 ms: the flushes and
 * compactions a load left behind are done. CPU is polled every
 * 10 ms; `busy_until_ns`, when given, receives the nowNs() of the
 * last poll that saw the process working, which is when its work
 * ended to within one poll.
 */
ethkv::Status waitQuiescent(pid_t pid, int64_t *busy_until_ns = nullptr);

} // namespace perfbench

#endif // ETHKV_PERFBENCH_STACK_HH
