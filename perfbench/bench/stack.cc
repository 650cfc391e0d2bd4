#include "stack.hh"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/env.hh"
#include "kvstore/lsm_store.hh"
#include "obs/metrics.hh"
#include "server/client.hh"
#include "util.hh"

extern char **environ;

namespace perfbench
{

namespace fs = std::filesystem;
using ethkv::Status;

std::vector<std::string>
StackConfig::ethkvdFlags() const
{
    // --workers and --memtable-bytes stay at ethkvd's defaults on
    // purpose: a change to a default shows up in the results.
    std::vector<std::string> f = {"--engine", "lsm",
                                  "--dir",    dir,
                                  "--shards", std::to_string(shards),
                                  "--repl"};
    if (cache_tier_bytes > 0) {
        f.insert(f.end(), {"--cache-tier-bytes",
                           std::to_string(cache_tier_bytes),
                           "--prefetch-k", std::to_string(prefetch_k)});
        if (!corr_table.empty())
            f.insert(f.end(), {"--corr-table", corr_table});
    }
    return f;
}

// -- ethkvd child ------------------------------------------------

ServerProcess::~ServerProcess()
{
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        int status = 0;
        ::waitpid(pid_, &status, 0);
    }
}

Status
ServerProcess::start(const std::string &ethkvd,
                     const StackConfig &config,
                     const std::string &run_dir)
{
    std::string port_file = run_dir + "/port";
    std::string log_file = run_dir + "/ethkvd.log";
    std::vector<std::string> args = {ethkvd, "--port", "0",
                                     "--port-file", port_file};
    for (const std::string &f : config.ethkvdFlags())
        args.push_back(f);
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    // The daemon logs to a file, never to the benchmark's stdout.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDIN_FILENO,
                                     "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                     log_file.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC,
                                     0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                     STDERR_FILENO);
    int rc = posix_spawn(&pid_, ethkvd.c_str(), &actions, nullptr,
                         argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
        pid_ = -1;
        return Status::ioError("spawn " + ethkvd + ": " +
                               std::strerror(rc));
    }

    auto give_up = std::chrono::steady_clock::now() +
                   std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < give_up) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            return Status::ioError("ethkvd exited during start; see " +
                                   log_file);
        }
        std::ifstream in(port_file);
        int port = 0;
        if (in >> port && port > 0) {
            port_ = static_cast<uint16_t>(port);
            auto client = ethkv::server::Client::open("127.0.0.1",
                                                      port_);
            if (client.ok())
                return Status::ok();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return Status::ioError("ethkvd never became ready");
}

uint64_t
ServerProcess::peakRssBytes() const
{
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
    return 0;
}

double
cpuSecondsOf(pid_t pid)
{
    clockid_t clock;
    struct timespec ts;
    if (clock_getcpuclockid(pid, &clock) != 0 ||
        clock_gettime(clock, &ts) != 0)
        return 0;
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

Status
waitQuiescent(pid_t pid, int64_t *busy_until_ns)
{
    // An idle ethkvd uses no CPU at all; the allowance covers timer
    // wakeups.
    constexpr double kIdleCpuPerPoll = 50e-6;
    constexpr int64_t kPollNs = 10'000'000;
    constexpr int64_t kIdleNs = 100'000'000;
    // The traced stack runs in this process: leave out this thread's
    // own polling, which costs ~75 us a poll on a shared VM.
    auto stack_cpu = [pid] {
        double cpu = cpuSecondsOf(pid);
        struct timespec ts;
        if (pid == getpid() &&
            clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
            cpu -= static_cast<double>(ts.tv_sec) +
                   static_cast<double>(ts.tv_nsec) / 1e9;
        return cpu;
    };
    const int64_t give_up = nowNs() + 60'000'000'000;
    int64_t busy_until = nowNs();
    double cpu = stack_cpu();
    while (nowNs() < give_up) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(kPollNs));
        double now_cpu = stack_cpu();
        int64_t now = nowNs();
        if (now_cpu - cpu > kIdleCpuPerPoll)
            busy_until = now;
        cpu = now_cpu;
        if (now - busy_until >= kIdleNs) {
            if (busy_until_ns != nullptr)
                *busy_until_ns = busy_until;
            return Status::ok();
        }
    }
    return Status::ioError("the served stack never went idle");
}

Status
ServerProcess::stop()
{
    if (pid_ <= 0)
        return Status::ok();
    ::kill(pid_, SIGTERM);
    auto give_up = std::chrono::steady_clock::now() +
                   std::chrono::seconds(60);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (std::chrono::steady_clock::now() > give_up) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, &status, 0);
            pid_ = -1;
            return Status::ioError("ethkvd ignored SIGTERM");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return Status::ioError("ethkvd exited uncleanly");
    return Status::ok();
}

// -- In-process traced stack -------------------------------------

TracedStack::~TracedStack() { stop(); }

Status
TracedStack::start(const StackConfig &config)
{
    ethkv::Env *env = ethkv::Env::defaultEnv();
    Status s = env->createDirs(config.dir);
    if (!s.isOk())
        return s;
    auto shard_count = static_cast<uint32_t>(config.shards);
    s = ethkv::kv::ShardedKVStore::checkShardMarker(env, config.dir,
                                                    shard_count);
    if (!s.isOk())
        return s;
    std::vector<std::unique_ptr<ethkv::kv::KVStore>> shards;
    for (uint32_t i = 0; i < shard_count; ++i) {
        ethkv::kv::LSMOptions options;
        options.dir = config.dir + "/shard-" + std::to_string(i);
        s = env->createDirs(options.dir);
        if (!s.isOk())
            return s;
        options.env = env;
        auto store = ethkv::kv::LSMStore::open(options);
        if (!store.ok())
            return store.status();
        shards.push_back(std::make_unique<TimedStore>(
            store.take(), Layer::Lsm, static_cast<uint16_t>(i)));
    }
    sharded_ = std::make_unique<ethkv::kv::ShardedKVStore>(
        std::move(shards), ethkv::kv::ShardedOptions{});
    at_sharded_ = std::make_unique<TimedStore>(*sharded_,
                                               Layer::Sharded);

    ethkv::server::ReplicationOptions ropts;
    ropts.dir = config.dir + "/repl";
    ropts.seed = 1; // ethkvd's default --fault-seed
    auto hub = ethkv::server::ReplicationHub::open(ropts);
    if (!hub.ok())
        return hub.status();
    hub_ = hub.take();
    at_repl_ =
        std::make_unique<TimedStore>(hub_->wrap(*at_sharded_),
                                     Layer::Repl);
    ethkv::kv::KVStore *serve = at_repl_.get();

    if (config.cache_tier_bytes > 0) {
        ethkv::cachetier::CacheTierOptions copts;
        copts.capacity_bytes = config.cache_tier_bytes;
        tier_ = std::make_unique<ethkv::cachetier::CacheTier>(*serve,
                                                             copts);
        if (config.prefetch_k > 0) {
            ethkv::cachetier::PrefetcherOptions popts;
            popts.top_k = static_cast<uint32_t>(config.prefetch_k);
            prefetcher_ = std::make_unique<
                ethkv::cachetier::CorrelationPrefetcher>(*tier_, popts);
            if (!config.corr_table.empty()) {
                s = prefetcher_->loadTable(env, config.corr_table);
                if (!s.isOk())
                    return s;
            }
            tier_->setPrefetcher(prefetcher_.get());
            prefetcher_->start();
        }
        ethkv::cachetier::CacheTier *tier = tier_.get();
        hub_->setInvalidationHook(
            [tier](const std::vector<ethkv::Bytes> &keys) {
                for (const ethkv::Bytes &k : keys)
                    tier->invalidate(k);
            });
        at_tier_ = std::make_unique<TimedStore>(*tier_,
                                                Layer::CacheTier);
        serve = at_tier_.get();
    }

    instrumented_ = std::make_unique<ethkv::kv::InstrumentedKVStore>(
        *serve, ethkv::obs::MetricsRegistry::global(), "engine");
    at_instrumented_ = std::make_unique<TimedStore>(
        *instrumented_, Layer::Instrumented);

    // ethkvd's flag defaults, which differ from ServerOptions'.
    ethkv::server::ServerOptions options;
    options.slow_op_micros = 1000;
    options.repl = hub_.get();
    server_ = std::make_unique<ethkv::server::Server>(
        *at_instrumented_, options);
    s = server_->start();
    if (!s.isOk())
        return s;
    running_ = true;
    return hub_->start();
}

void
TracedStack::stop()
{
    if (!running_)
        return;
    running_ = false;
    server_->stop();
    if (prefetcher_)
        prefetcher_->stop();
}

ethkv::kv::IOStats
TracedStack::engineStats() const
{
    return sharded_->stats();
}

uint64_t
diskBytes(const std::string &dir)
{
    uint64_t n = 0;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         !ec && it != fs::recursive_directory_iterator();
         it.increment(ec)) {
        if (it->is_regular_file(ec))
            n += it->file_size(ec);
    }
    return n;
}

} // namespace perfbench
