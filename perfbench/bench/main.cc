/**
 * @file
 * The ethkv benchmark.
 *
 *   ethkv_perfbench --workload <zipf_rw|corr_read|paper_replay>
 *       --seed <n> --seconds <s> --trace <0|1>
 *       --ethkvd <path> --work-dir <dir> [--spans-out <file>]
 *
 * --trace 0 measures the real ethkvd binary over loopback: three
 * rounds, each a fresh server plus preload until it is idle (the
 * set-up), a closed-loop phase of a fixed number of ops (capacity)
 * and an open-loop phase at a fixed rate (latency from each
 * request's intended send time), then a sampled read-back check, a
 * STATS scrape and a graceful stop; two more set-ups are timed on
 * their own for the set-up median.
 * --trace 1 rebuilds the same stack in-process with a TimedStore at
 * every layer boundary and reports per-layer self times and counts
 * for one round.
 *
 * The last stdout line is one JSON object: correct, attempted,
 * failed and metrics. Any wrong answer makes the run incorrect and
 * the exit code 1. When the open-loop generator fell behind its
 * schedule, its latencies are marked INVALID: they include the
 * generator's own delay. The result line holds no latency.
 */

#include <sys/utsname.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "server/client.hh"
#include "stack.hh"
#include "util.hh"
#include "workloads.hh"

namespace perfbench
{
int runSelfTests();
}

namespace
{

using namespace perfbench;
namespace fs = std::filesystem;
using ethkv::Status;

// -- Workload definitions ----------------------------------------

/**
 * Both rates are constants, never derived at run time, so a slower
 * build faces the same work. The closed loop sends a fixed number
 * of ops, about its closed_rate's worth of its share of --seconds,
 * and reports how fast it got through them. The open-loop rate is
 * 1/6 to 1/14 of closed-loop capacity on a quiet 4-core host and
 * about 0.4 of the lowest seen on a loaded one, so ethkvd does not
 * saturate and hold the generator back.
 */
struct WorkloadDef
{
    const char *name;
    bool replay;
    SyntheticSpec spec;
    uint64_t cache_tier_bytes;
    double closed_rate; //!< ops/s the closed-loop op budget assumes.
    double open_rate;   //!< ops/s offered in the open-loop phase.
};

const WorkloadDef kWorkloads[] = {
    // Live data ~60 MB, >= 15x the 4 x 1 MiB memtables: the LSM
    // get/put/scan paths, flush, compaction, the shard router and
    // replication do the work; no cache tier.
    {"zipf_rw", false, {200000, 0.99, 0.48, 0.02, 0, 100, 256}, 0,
     50000, 10000},
    // ~15 MB working set inside a 64 MiB CacheTier with a static
    // correlation table: the cache, its prefetcher and the server
    // path do the work; writes still invalidate.
    {"corr_read", false, {50000, 0.99, 0.95, 0.0, 3, 100, 256},
     64ull << 20, 350000, 30000},
    // The paper's own traffic: a CacheTrace captured by the
    // reproduction pipeline, replayed in trace order; its closed
    // loop is one pass over the trace.
    {"paper_replay", true, {}, 0, 0, 10000},
};

constexpr int kRounds = 3; //!< Measured rounds per run.
constexpr int kSetUps = 5; //!< Set-ups timed per run (rounds + 2).
constexpr double kClosedShare = 0.4; //!< Of --seconds; rest open.
constexpr size_t kWindow = 32;
constexpr uint32_t kVerifySample = 2000;
//! Paper replay: blocks captured per run (the first quarter, up to
//! 96, warm the node up uncaptured).
constexpr uint64_t kReplayBlocks = 24;
//! Open-loop latencies are valid only if the generator's own sends
//! ran this close to schedule (p99).
constexpr double kMaxLateP99Us = 1000;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string ethkvd;
    std::string work_dir;
    std::string spans_out;
    std::string source_id = "unknown";
};

uint64_t
mixSeed(uint64_t a, uint64_t b)
{
    uint64_t x = a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL);
    x ^= x >> 31;
    x *= 0xbf58476d1ce4e5b9ULL;
    return x ^ (x >> 29);
}

// -- Output ------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    uint64_t count; //!< Samples or events behind the value.
    std::string note;
};

void
printMetric(const Metric &m)
{
    std::printf("metric %-36s %14.4f %-8s n=%-10" PRIu64 " %s\n",
                m.name.c_str(), m.value, m.unit.c_str(), m.count,
                m.note.c_str());
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char num[64];
        std::snprintf(num, sizeof(num), "%.9g", metrics[i].value);
        out += i ? ", " : "";
        out += "\"" + metrics[i].name + "\": {\"value\": " + num +
               ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

// -- STATS scraping ----------------------------------------------

/** The number after `"key":` (first occurrence), or -1. */
double
statNumber(const std::string &doc, const std::string &key)
{
    std::string needle = "\"" + key + "\":";
    size_t at = doc.find(needle);
    if (at == std::string::npos)
        return -1;
    return std::strtod(doc.c_str() + at + needle.size(), nullptr);
}

/** Sample count of a histogram in an ethkv.metrics.v1 document. */
double
histCount(const std::string &doc, const std::string &name)
{
    return statNumber(doc, name + "\": {\"count");
}

std::string
statString(const std::string &doc, const std::string &key)
{
    std::string needle = "\"" + key + "\":\"";
    size_t at = doc.find(needle);
    if (at == std::string::npos)
        return "";
    at += needle.size();
    return doc.substr(at, doc.find('"', at) - at);
}

Status
fetchStats(uint16_t port, std::string &doc)
{
    auto client = ethkv::server::Client::open("127.0.0.1", port);
    if (!client.ok())
        return client.status();
    ethkv::Bytes json;
    Status s = client.value()->stats(json);
    doc = json;
    return s;
}

// -- The benchmark -----------------------------------------------

/** One set-up: ethkvd start, preload, and its maintenance done. */
struct SetUpTime
{
    double wall_s = 0;
    //! ethkvd's CPU time over the set-up. Unlike wall time it leaves
    //! out time the host steals from the VM, which made wall-clock
    //! set-up bimodal (2.7 or 4.7 s on zipf_rw) on a shared 4-vCPU
    //! VM.
    double cpu_s = 0;
};

struct Round
{
    SetUpTime setup;
    PhaseStats closed;
    PhaseStats open;
    uint64_t verify_bad = 0;
    std::string stats;
    uint64_t rss_bytes = 0;
    double disk_per_live = 0;
    double closed_cpu_s = 0; //!< ethkvd CPU time in each phase.
    double open_cpu_s = 0;
};

class Bench
{
  public:
    Bench(const Args &args, const WorkloadDef &def)
        : args_(args), def_(def)
    {
        long n = sysconf(_SC_NPROCESSORS_ONLN);
        conns_ = static_cast<int>(std::clamp<long>(n, 1, 4));
        threads_ = conns_ >= 2 ? 2 : 1;
        rounds_ = args.trace ? 1 : kRounds;
    }

    int run();

  private:
    Status prepare();
    StackConfig stackConfig(const std::string &dir) const;
    Status preload(uint16_t port);
    Status closedPhase(uint16_t port, int round, PhaseStats &out);
    /** Replay: back to the preloaded state between passes. */
    Status resetReplay(uint16_t port);
    Status openPhase(uint16_t port, int round, PhaseStats &out);
    Status verify(uint16_t port, int round, uint64_t &bad);
    /** Start ethkvd and preload it: the set-up setup_s times. */
    Status setUp(ServerProcess &server, const StackConfig &config,
                 const std::string &run_dir, SetUpTime &time);
    /** A set-up timed and torn down, for the setup_s median. */
    Status setUpOnly(int index, SetUpTime &time);
    Status measuredRound(int round, Round &r);
    int runMeasured();
    int runTraced();
    void printFacts(const std::string &mode) const;
    /** Generator lateness and delivered rate; prints and returns
     *  whether the open loop kept to its schedule. */
    bool addOpenLoopMetrics(const PhaseStats &open, double span_s,
                            std::vector<Metric> &out);
    bool checkReplayCounts(int passes) const;

    Args args_;
    const WorkloadDef &def_;
    int conns_ = 4;
    int threads_ = 2;
    int rounds_ = kRounds; //!< Set-ups this run (1 when traced).
    std::unique_ptr<SyntheticWorkload> syn_;
    std::unique_ptr<ReplayWorkload> rep_;
    Capture capture_;
    std::string corr_table_;
};

StackConfig
Bench::stackConfig(const std::string &dir) const
{
    StackConfig c;
    c.dir = dir;
    c.cache_tier_bytes = def_.cache_tier_bytes;
    c.corr_table = corr_table_;
    return c;
}

Status
Bench::prepare()
{
    std::error_code ec;
    fs::create_directories(args_.work_dir, ec);
    if (ec)
        return Status::ioError("work dir: " + ec.message());
    if (!def_.replay) {
        syn_ = std::make_unique<SyntheticWorkload>(def_.spec);
        if (def_.cache_tier_bytes > 0) {
            corr_table_ = args_.work_dir + "/corr_table.txt";
            if (!syn_->writeCorrTable(corr_table_, def_.spec.follow))
                return Status::ioError("cannot write " + corr_table_);
        }
        return Status::ok();
    }
    capture_ = captureTrace(kReplayBlocks, args_.seed,
                            args_.work_dir + "/freezer");
    fs::remove_all(args_.work_dir + "/freezer", ec);
    rep_ = std::make_unique<ReplayWorkload>(capture_.trace);
    std::printf("capture: %" PRIu64 " blocks, %" PRIu64
                " trace ops, %" PRIu64 " keys, %.2f s\n",
                capture_.blocks, rep_->records(), rep_->uniqueKeys(),
                capture_.capture_s);
    printTable2(rep_->traceCounts());
    return Status::ok();
}

Status
Bench::preload(uint16_t port)
{
    Endpoint ep;
    ep.port = port;
    PhaseOptions opt;
    opt.window = kWindow;
    PhaseStats stats;
    if (syn_) {
        syn_->resetGenerations();
        std::vector<std::unique_ptr<OpStream>> owned;
        std::vector<OpStream *> streams;
        for (int t = 0; t < threads_; ++t) {
            owned.push_back(syn_->preload(static_cast<uint32_t>(t),
                                          static_cast<uint32_t>(threads_)));
            streams.push_back(owned.back().get());
        }
        opt.connections = conns_ / threads_;
        Status s = runClosed(ep, *syn_, streams, opt, stats);
        if (s.isOk() && stats.wrong > 0)
            s = Status::corruption("preload writes failed");
        return s;
    }
    // A fresh server holds nothing; restoring the model's initial
    // state writes every preloaded key.
    rep_->restart();
    return resetReplay(port);
}

Status
Bench::closedPhase(uint16_t port, int round, PhaseStats &out)
{
    Endpoint ep;
    ep.port = port;
    PhaseOptions opt;
    opt.window = kWindow;
    if (syn_) {
        syn_->setMaxGen(1);
        // A fixed op budget, not a time: the round's writes, and so
        // its flushes, compactions and disk use, do not depend on
        // how fast the server got through them.
        auto budget = static_cast<uint64_t>(
            def_.closed_rate * args_.seconds * kClosedShare /
            (rounds_ * threads_));
        std::vector<std::unique_ptr<OpStream>> owned;
        std::vector<OpStream *> streams;
        for (int t = 0; t < threads_; ++t) {
            owned.push_back(syn_->stream(
                mixSeed(args_.seed, static_cast<uint64_t>(round * 16 + t)),
                1, budget));
            streams.push_back(owned.back().get());
        }
        opt.connections = conns_ / threads_;
        return runClosed(ep, *syn_, streams, opt, out);
    }
    // One pass over the whole trace, in order.
    auto stream = rep_->stream(static_cast<uint32_t>(conns_));
    opt.connections = conns_;
    opt.ordered = true;
    return runClosed(ep, *rep_, {stream.get()}, opt, out);
}

Status
Bench::resetReplay(uint16_t port)
{
    if (!rep_)
        return Status::ok();
    Endpoint ep;
    ep.port = port;
    PhaseOptions opt;
    opt.window = kWindow;
    opt.connections = conns_;
    opt.ordered = true;
    PhaseStats reset;
    auto restore = rep_->reset(static_cast<uint32_t>(conns_));
    Status s = runClosed(ep, *rep_, {restore.get()}, opt, reset);
    if (s.isOk() && reset.wrong > 0)
        s = Status::corruption("reset writes failed");
    return s;
}

Status
Bench::openPhase(uint16_t port, int round, PhaseStats &out)
{
    Endpoint ep;
    ep.port = port;
    PhaseOptions opt;
    opt.connections = conns_;
    opt.rate = def_.open_rate;
    if (syn_) {
        syn_->setMaxGen(2);
        auto stream = syn_->stream(
            mixSeed(args_.seed, static_cast<uint64_t>(round * 16 + 8)), 2);
        opt.seconds = args_.seconds * (1 - kClosedShare) / rounds_;
        return runOpen(ep, *syn_, *stream, opt, out);
    }
    auto stream = rep_->stream(static_cast<uint32_t>(conns_));
    opt.ordered = true;
    return runOpen(ep, *rep_, *stream, opt, out);
}

Status
Bench::verify(uint16_t port, int round, uint64_t &bad)
{
    auto client = ethkv::server::Client::open("127.0.0.1", port);
    if (!client.ok())
        return client.status();
    uint64_t seed = mixSeed(args_.seed, 1000 + static_cast<uint64_t>(round));
    bad = syn_ ? syn_->verifySample(*client.value(), seed, kVerifySample)
               : rep_->verifySample(*client.value(), seed,
                                    kVerifySample);
    return Status::ok();
}

Status
Bench::setUp(ServerProcess &server, const StackConfig &config,
             const std::string &run_dir, SetUpTime &time)
{
    int64_t t0 = nowNs();
    Status s = server.start(args_.ethkvd, config, run_dir);
    if (s.isOk())
        s = preload(server.port());
    // Ready means the preload's flushes and compactions are done
    // too, so the phases after it do not pay for them. Set-up ends
    // when the server last worked, not when the idle window that
    // confirms it closes.
    int64_t t1 = nowNs();
    if (s.isOk())
        s = waitQuiescent(server.pid(), &t1);
    time.wall_s = static_cast<double>(t1 - t0) / 1e9;
    time.cpu_s = cpuSecondsOf(server.pid());
    return s;
}

Status
Bench::setUpOnly(int index, SetUpTime &time)
{
    std::string dir = args_.work_dir + "/setup" + std::to_string(index);
    std::error_code ec;
    fs::create_directories(dir, ec);
    ServerProcess server;
    Status s = setUp(server, stackConfig(dir + "/data"), dir, time);
    if (s.isOk())
        s = server.stop();
    fs::remove_all(dir, ec);
    return s;
}

Status
Bench::measuredRound(int round, Round &r)
{
    std::string dir = args_.work_dir + "/round" + std::to_string(round);
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    StackConfig config = stackConfig(dir + "/data");
    if (round == 0) {
        std::printf("ethkvd flags:");
        for (const std::string &f : config.ethkvdFlags())
            std::printf(" %s", f.c_str());
        std::printf("\n");
    }

    ServerProcess server;
    Status s = setUp(server, config, dir, r.setup);
    if (!s.isOk())
        return s;

    // Each phase's CPU runs until the server is idle again, so the
    // flushes and compactions its writes caused are its own.
    const char *phase = "closed loop";
    double cpu = cpuSecondsOf(server.pid());
    s = closedPhase(server.port(), round, r.closed);
    if (s.isOk() && (phase = "idle after closed loop"))
        s = waitQuiescent(server.pid());
    r.closed_cpu_s = cpuSecondsOf(server.pid()) - cpu;
    if (s.isOk() && rep_ && (phase = "replay reset")) {
        s = resetReplay(server.port());
        if (s.isOk())
            s = waitQuiescent(server.pid());
    }
    cpu = cpuSecondsOf(server.pid());
    if (s.isOk() && (phase = "open loop"))
        s = openPhase(server.port(), round, r.open);
    if (s.isOk() && (phase = "idle after open loop"))
        s = waitQuiescent(server.pid());
    r.open_cpu_s = cpuSecondsOf(server.pid()) - cpu;
    if (s.isOk() && (phase = "read-back"))
        s = verify(server.port(), round, r.verify_bad);
    if (s.isOk() && (phase = "STATS"))
        s = fetchStats(server.port(), r.stats);
    if (!s.isOk())
        return Status::ioError(std::string(phase) + ": " + s.toString());
    r.rss_bytes = server.peakRssBytes();
    s = server.stop();
    if (!s.isOk())
        return s;
    uint64_t live = syn_ ? syn_->liveBytes() : rep_->liveBytes();
    r.disk_per_live = live == 0 ? 0
                                : static_cast<double>(diskBytes(config.dir)) /
                                      static_cast<double>(live);
    fs::remove_all(dir, ec);
    return Status::ok();
}

void
Bench::printFacts(const std::string &mode) const
{
    struct utsname u;
    std::string kernel = uname(&u) == 0
                             ? std::string(u.sysname) + " " + u.release
                             : "unknown";
    std::printf("host: nproc=%ld kernel=%s compiler=gcc %s"
                " build=%s source=%s\n",
                sysconf(_SC_NPROCESSORS_ONLN), kernel.c_str(),
                __VERSION__, ETHKV_PERFBENCH_BUILD_TYPE,
                args_.source_id.c_str());
    std::printf("run: workload=%s mode=%s seed=%" PRIu64
                " seconds=%g rounds=%d connections=%d"
                " client_threads=%d window=%zu offered_rate=%.0f"
                " ops/s\n",
                def_.name, mode.c_str(), args_.seed, args_.seconds,
                rounds_, conns_, threads_,
                kWindow, def_.open_rate);
}

/** The open loop's own sends kept to their schedule. */
bool
keptSchedule(const PhaseStats &open)
{
    return percentileOf(open.late_ns, 0.99).value / 1e3 <= kMaxLateP99Us;
}

bool
Bench::addOpenLoopMetrics(const PhaseStats &open, double span_s,
                          std::vector<Metric> &out)
{
    Percentile late = percentileOf(open.late_ns, 0.99);
    double achieved =
        span_s <= 0 ? 0
                    : static_cast<double>(open.completed()) / span_s /
                          def_.open_rate;
    // Only the generator's own lateness invalidates a run's
    // latencies; a server that cannot keep up shows as achieved < 1
    // and in its latency.
    bool valid = keptSchedule(open);
    out.push_back({"loadgen.late_p99_us", late.value / 1e3, "us",
                   late.count, ""});
    out.push_back({"loadgen.achieved_over_offered", achieved, "ratio",
                   open.completed(), ""});
    std::printf("loadgen: open loop %s (late p99 %.1f us, achieved"
                " %.3f of %.0f ops/s, %" PRIu64
                " sends held by the in-flight cap or behind it)\n",
                valid ? "valid" : "INVALID: generator fell behind",
                late.value / 1e3, achieved, def_.open_rate, open.capped);
    return valid;
}

bool
Bench::checkReplayCounts(int passes) const
{
    ReplayWorkload::Counts expect = rep_->traceCounts();
    const ReplayWorkload::Counts &sent = rep_->sent();
    for (int c = 0; c < ethkv::client::num_kv_classes; ++c)
        for (int o = 0; o < ethkv::trace::num_op_types; ++o)
            if (sent[c][o] != expect[c][o] * static_cast<uint64_t>(passes)) {
                std::printf("check: class %s op %s sent %" PRIu64
                            " != %d x trace %" PRIu64 "\n",
                            ethkv::client::kvClassName(
                                static_cast<ethkv::client::KVClass>(c)),
                            ethkv::trace::opTypeName(
                                static_cast<ethkv::trace::OpType>(o)),
                            sent[c][o], passes, expect[c][o]);
                return false;
            }
    return true;
}

int
Bench::runMeasured()
{
    printFacts("measured");
    Status s = prepare();
    std::vector<Round> rounds(kRounds);
    for (int i = 0; s.isOk() && i < kRounds; ++i)
        s = measuredRound(i, rounds[i]);
    std::vector<SetUpTime> setups;
    for (const Round &r : rounds)
        setups.push_back(r.setup);
    for (int i = kRounds; s.isOk() && i < kSetUps; ++i) {
        setups.emplace_back();
        s = setUpOnly(i, setups.back());
    }
    if (!s.isOk()) {
        std::fprintf(stderr, "benchmark failed: %s\n",
                     s.toString().c_str());
        return 2;
    }

    PhaseStats closed, open;
    std::vector<double> rss, disk;
    uint64_t failed = 0;
    bool correct = true;
    for (int i = 0; i < kRounds; ++i) {
        const Round &r = rounds[i];
        closed.merge(r.closed);
        open.merge(r.open);
        rss.push_back(static_cast<double>(r.rss_bytes) / (1 << 20));
        disk.push_back(r.disk_per_live);
        failed += r.closed.wrong + r.open.wrong + r.verify_bad;
        std::printf(
            "round %d: setup %.3f s (cpu %.3f s), server cpu/op closed"
            " %.2f open"
            " %.2f us, closed %.0f ops/s, open get p50/p99 %.1f/%.1f"
            " us, put p99 %.1f us, late p99 %.1f us, %" PRIu64
            " sends held\n",
            i, r.setup.wall_s, r.setup.cpu_s,
            r.closed_cpu_s * 1e6 /
                static_cast<double>(r.closed.completed()),
            r.open_cpu_s * 1e6 / static_cast<double>(r.open.completed()),
            static_cast<double>(r.closed.completed()) * 1e9 /
                static_cast<double>(r.closed.end_ns - r.closed.start_ns),
            percentileOf(r.open.latency_ns[0], 0.5).value / 1e3,
            percentileOf(r.open.latency_ns[0], 0.99).value / 1e3,
            percentileOf(r.open.latency_ns[1], 0.99).value / 1e3,
            percentileOf(r.open.late_ns, 0.99).value / 1e3, r.open.capped);
        // Each workload's defining property, per round.
        if (std::strcmp(def_.name, "zipf_rw") == 0) {
            double flushes = histCount(r.stats, "kv.lsm.flush_ns");
            double compactions =
                histCount(r.stats, "kv.lsm.compaction_ns");
            double bytes_read = statNumber(r.stats, "bytes_read");
            std::printf("check: round %d flushes=%.0f compactions=%.0f"
                        " sst_bytes_read=%.0f\n",
                        i, flushes, compactions, bytes_read);
            if (flushes < 4 || compactions < 2 || bytes_read <= 0)
                correct = false;
        } else if (std::strcmp(def_.name, "corr_read") == 0) {
            double hits = statNumber(r.stats, "cachetier.hits");
            double misses = statNumber(r.stats, "cachetier.misses");
            double rate = hits + misses > 0 ? hits / (hits + misses) : 0;
            std::printf("check: round %d cachetier.hit_rate=%.4f\n", i,
                        rate);
            if (rate < 0.9)
                correct = false;
        }
        if (r.verify_bad > 0)
            std::printf("check: round %d read-back mismatches=%" PRIu64
                        "\n",
                        i, r.verify_bad);
    }
    if (rep_) {
        int passes = 2 * kRounds;
        bool counts_ok = checkReplayCounts(passes);
        std::printf("check: replay ops per class and type %s the"
                    " trace x %d\n",
                    counts_ok ? "equal" : "DIFFER from", passes);
        correct = correct && counts_ok;
        double nf = open.done[0] == 0
                        ? 0
                        : static_cast<double>(open.not_found[0]) /
                              static_cast<double>(open.done[0]);
        std::printf("check: GET NotFound share %.4f (capture read miss"
                    " share %.4f)\n",
                    nf, rep_->captureReadMissShare());
    }

    uint64_t attempted = closed.issued + open.issued;
    double closed_s = 0, open_s = 0, closed_cpu = 0, open_cpu = 0;
    for (const Round &r : rounds) {
        closed_s +=
            static_cast<double>(r.closed.end_ns - r.closed.start_ns) / 1e9;
        open_s += static_cast<double>(r.open.end_ns - r.open.start_ns) / 1e9;
        closed_cpu += r.closed_cpu_s;
        open_cpu += r.open_cpu_s;
    }

    std::vector<double> setup_cpu, setup_wall;
    for (const SetUpTime &t : setups) {
        setup_cpu.push_back(t.cpu_s);
        setup_wall.push_back(t.wall_s);
    }
    // The result line: ethkvd's own CPU time (all threads, user +
    // system) per answered request at the fixed offered rate and
    // over each set-up, which leaves out time the host steals from
    // the VM, plus footprint.
    std::vector<Metric> e2e = {
        {"server_cpu_us_per_op",
         open_cpu * 1e6 / static_cast<double>(open.completed()), "us",
         open.completed(), "open loop, fixed rate"},
        {"setup_s", medianOf(setup_cpu), "s", setup_cpu.size(),
         "ethkvd CPU from start to ready, median of set-ups"},
        {"server_rss_mb", medianOf(rss), "MiB", rss.size(),
         "ethkvd VmHWM, median"},
        {"disk_bytes_per_live_byte", medianOf(disk), "B/B", disk.size(),
         "after graceful stop, median"},
    };

    // Printed only: wall-clock throughput and latency follow the
    // host's CPU steal, which swung them 2-3x between consecutive
    // runs on a shared 4-vCPU VM; scans, deletes and the capture
    // exist on some workloads only.
    std::vector<Metric> extra = {
        {"throughput_ops_s",
         static_cast<double>(closed.completed()) / closed_s, "ops/s",
         closed.completed(), "closed loop"},
        {"server_cpu_us_per_op_closed",
         closed_cpu * 1e6 / static_cast<double>(closed.completed()), "us",
         closed.completed(), "closed loop"},
        {"setup_wall_s", medianOf(setup_wall), "s", setup_wall.size(),
         "start to ready, median of set-ups"},
    };
    // Open-loop latency from each request's intended send time,
    // over the raw samples of all rounds. A generator that fell
    // behind (a host that stalls its CPU, say) added that delay to
    // them, so they are marked invalid.
    bool valid = keptSchedule(open);
    for (OpKind kind : {OpKind::Get, OpKind::Put, OpKind::Scan, OpKind::Del}) {
        const std::vector<uint32_t> &v =
            open.latency_ns[static_cast<int>(kind)];
        if (v.empty())
            continue;
        static const char *names[] = {"get", "put", "delete", "scan"};
        for (double p : {0.50, 0.99}) {
            Percentile pct = percentileOf(v, p);
            extra.push_back({std::string(names[static_cast<int>(kind)]) +
                                 (p < 0.9 ? "_p50_us" : "_p99_us"),
                             pct.value / 1e3, "us", pct.count,
                             std::string("open loop") +
                                 (valid ? "" : "; INVALID: generator late") +
                                 (pct.supported()
                                      ? ""
                                      : "; UNSUPPORTED: <10 samples"
                                        " beyond")});
        }
    }
    extra.push_back({"failed_pct",
                     attempted == 0 ? 0
                                    : 100.0 * static_cast<double>(failed) /
                                          static_cast<double>(attempted),
                     "%", attempted, "both phases"});
    if (rep_)
        extra.push_back({"capture_s", capture_.capture_s, "s", 1,
                         "trace capture (seeding + blocks)"});
    addOpenLoopMetrics(open, open_s, extra);

    for (const Metric &m : e2e)
        printMetric(m);
    for (const Metric &m : extra)
        printMetric(m);
    correct = correct && failed == 0;
    if (!valid)
        std::printf("latency INVALID: the generator fell behind; the"
                    " result line holds no latency\n");
    printResult(correct, attempted, failed, e2e);
    return correct ? 0 : 1;
}

int
Bench::runTraced()
{
    printFacts("traced");
    Status s = prepare();
    std::vector<Metric> m;
    bool correct = true;

    // The capture's seeding stage alone, for capture.seed_s.
    double seed_s = 0;
    if (s.isOk() && rep_) {
        Capture seeding = captureTrace(0, args_.seed,
                                       args_.work_dir + "/freezer0");
        seed_s = seeding.capture_s;
        std::error_code ec;
        fs::remove_all(args_.work_dir + "/freezer0", ec);
    }

    // ethkvd's own label for this stack, to compare with ours.
    std::string ethkvd_engine;
    if (s.isOk()) {
        std::string dir = args_.work_dir + "/label";
        std::error_code ec;
        fs::create_directories(dir, ec);
        ServerProcess probe;
        s = probe.start(args_.ethkvd, stackConfig(dir + "/data"), dir);
        std::string doc;
        if (s.isOk())
            s = fetchStats(probe.port(), doc);
        if (s.isOk())
            s = probe.stop();
        ethkvd_engine = statString(doc, "engine");
    }

    TracedStack stack;
    std::string dir = args_.work_dir + "/traced";
    if (s.isOk())
        s = stack.start(stackConfig(dir));
    if (s.isOk())
        s = preload(stack.port());
    // The stack runs in this process, whose other threads are idle
    // between phases.
    if (s.isOk())
        s = waitQuiescent(getpid());
    if (!s.isOk()) {
        std::fprintf(stderr, "benchmark failed: %s\n",
                     s.toString().c_str());
        return 2;
    }
    std::printf("check: engine label in-process '%s' vs ethkvd '%s'\n",
                stack.engineName().c_str(), ethkvd_engine.c_str());
    correct = stack.engineName() == ethkvd_engine;

    ethkv::obs::MetricsRegistry &reg =
        ethkv::obs::MetricsRegistry::global();
    reg.reset();
    ethkv::kv::IOStats io0 = stack.engineStats();
    uint64_t log0 = stack.replLogBytes();
    auto recorder = std::make_unique<SpanRecorder>(8, 4u << 20);

    PhaseStats closed, open;
    s = closedPhase(stack.port(), 0, closed);
    // The replay's reset pass between phases is not traced.
    recorder->setRecording(false);
    if (s.isOk())
        s = resetReplay(stack.port());
    recorder->setRecording(true);
    int64_t open_start = nowNs();
    if (s.isOk())
        s = openPhase(stack.port(), 0, open);
    recorder->setRecording(false);
    uint64_t verify_bad = 0;
    if (s.isOk())
        s = verify(stack.port(), 0, verify_bad);
    ethkv::kv::IOStats io1 = stack.engineStats();
    uint64_t log1 = stack.replLogBytes();
    stack.stop();
    if (!s.isOk()) {
        std::fprintf(stderr, "benchmark failed: %s\n",
                     s.toString().c_str());
        return 2;
    }

    std::vector<const ThreadSpans *> threads;
    for (const auto &t : recorder->threads())
        threads.push_back(t.get());
    SpanAnalysis a = analyzeSpans(threads, open_start);
    if (!args_.spans_out.empty() && !recorder->writeTo(args_.spans_out))
        std::fprintf(stderr, "could not write %s\n",
                     args_.spans_out.c_str());
    std::printf("check: spans negative_self=%" PRIu64
                " unfinished=%" PRIu64 " background_roots=%" PRIu64 "\n",
                a.negative_self, a.open_spans, a.background_roots);
    correct = correct && a.negative_self == 0 && a.open_spans == 0;

    auto ratio = [](double x, double y) { return y == 0 ? 0.0 : x / y; };
    auto calls = [&](Layer l, Call c) {
        return static_cast<double>(
            a.calls[static_cast<int>(l)][static_cast<int>(c)]);
    };
    auto stat = [&](Layer l, Call c) -> const CallStats & {
        return a.by[static_cast<int>(l)][static_cast<int>(c)];
    };
    auto counter = [&](const char *name) {
        return static_cast<double>(reg.counter(name).value());
    };

    bool valid = addOpenLoopMetrics(
        open, static_cast<double>(open.end_ns - open.start_ns) / 1e9, m);

    double closed_s =
        static_cast<double>(closed.end_ns - closed.start_ns) / 1e9;
    m.push_back({"traced.throughput_ops_s",
                 ratio(static_cast<double>(closed.completed()), closed_s),
                 "ops/s", closed.completed(), "closed loop, traced"});

    std::vector<uint32_t> client;
    for (const auto &v : open.latency_ns)
        client.insert(client.end(), v.begin(), v.end());
    Percentile client_p50 = percentileOf(client, 0.5);
    Percentile outer_p50 = percentileOf(a.outer_ns, 0.5);
    m.push_back({"server.self_p50_us",
                 (client_p50.value - outer_p50.value) / 1e3, "us",
                 outer_p50.count,
                 "client p50 minus p50 of the outermost stack call"});
    for (const char *stage : {"read", "decode", "exec", "encode", "flush"}) {
        ethkv::obs::LatencyHistogram &h =
            reg.histogram(std::string("op.server.") + stage + "_ns");
        m.push_back({std::string("server.stage.") + stage + "_p50_ns",
                     static_cast<double>(h.percentile(0.5)), "ns",
                     h.count(), "STATS histogram"});
    }

    auto all = {Call::Get, Call::Put, Call::Del, Call::Scan, Call::Apply,
                Call::Contains};
    m.push_back({"instrumented.self_ns_per_op",
                 a.meanSelf(Layer::Instrumented, all), "ns",
                 a.spanCount(Layer::Instrumented, all), "sampled spans"});

    double hits = counter("cachetier.hits");
    double misses = counter("cachetier.misses");
    const CallStats &tier_get = stat(Layer::CacheTier, Call::Get);
    m.push_back({"cachetier.self_ns_per_get",
                 a.meanSelf(Layer::CacheTier, {Call::Get}), "ns",
                 tier_get.spans, "sampled spans"});
    m.push_back({"cachetier.hit_rate", ratio(hits, hits + misses),
                 "ratio", static_cast<uint64_t>(hits + misses), ""});
    m.push_back({"cachetier.inner_calls_per_get",
                 ratio(static_cast<double>(
                           tier_get.children[static_cast<int>(Layer::Repl)]),
                       static_cast<double>(tier_get.spans)),
                 "calls", tier_get.spans, "sampled spans"});
    for (const char *c : {"evictions", "admission_rejects", "invalidations"})
        m.push_back({std::string("cachetier.") + c,
                     counter((std::string("cachetier.") + c).c_str()),
                     "count", 1, ""});
    double issued = counter("cachetier.prefetch.issued");
    m.push_back({"cachetier.prefetch_issued", issued, "count", 1, ""});
    m.push_back({"cachetier.prefetch_useful_ratio",
                 ratio(counter("cachetier.prefetch.hits"), issued), "ratio",
                 static_cast<uint64_t>(issued), ""});

    double user_bytes = static_cast<double>(io1.logical_bytes_written -
                                            io0.logical_bytes_written);
    auto writes = {Call::Put, Call::Del, Call::Apply};
    m.push_back({"repl.self_ns_per_write", a.meanSelf(Layer::Repl, writes),
                 "ns", a.spanCount(Layer::Repl, writes), "sampled spans"});
    m.push_back({"repl.log_bytes_per_user_byte",
                 ratio(static_cast<double>(log1 - log0), user_bytes), "B/B",
                 static_cast<uint64_t>(user_bytes), ""});

    const CallStats &sh_scan = stat(Layer::Sharded, Call::Scan);
    m.push_back({"sharded.self_ns_per_op", a.meanSelf(Layer::Sharded, all),
                 "ns", a.spanCount(Layer::Sharded, all), "sampled spans"});
    m.push_back({"sharded.scan_self_ns",
                 a.meanSelf(Layer::Sharded, {Call::Scan}), "ns",
                 sh_scan.spans, "sampled spans"});
    m.push_back({"sharded.shard_calls_per_scan",
                 ratio(static_cast<double>(
                           sh_scan.children[static_cast<int>(Layer::Lsm)]),
                       static_cast<double>(sh_scan.spans)),
                 "calls", sh_scan.spans, "sampled spans"});
    double shard_max = 0, shard_sum = 0;
    for (uint64_t n : a.shard_calls) {
        shard_max = std::max(shard_max, static_cast<double>(n));
        shard_sum += static_cast<double>(n);
    }
    m.push_back({"sharded.shard_imbalance",
                 ratio(shard_max * static_cast<double>(a.shard_calls.size()),
                       shard_sum),
                 "max/mean", static_cast<uint64_t>(shard_sum), ""});

    for (auto [call, name] : {std::pair{Call::Get, "lsm.get_ns"},
                              std::pair{Call::Put, "lsm.put_ns"},
                              std::pair{Call::Del, "lsm.del_ns"},
                              std::pair{Call::Scan, "lsm.scan_ns"}})
        m.push_back({name, a.meanSelf(Layer::Lsm, {call}), "ns",
                     stat(Layer::Lsm, call).spans, "sampled spans"});
    double client_gets =
        static_cast<double>(closed.done[0] + open.done[0]);
    m.push_back({"lsm.gets_per_client_get",
                 ratio(calls(Layer::Lsm, Call::Get), client_gets), "calls",
                 static_cast<uint64_t>(client_gets), ""});
    m.push_back({"lsm.bytes_read_per_get",
                 ratio(static_cast<double>(io1.bytes_read - io0.bytes_read),
                       calls(Layer::Lsm, Call::Get)),
                 "B", static_cast<uint64_t>(calls(Layer::Lsm, Call::Get)),
                 ""});
    m.push_back({"lsm.write_amp",
                 ratio(static_cast<double>(io1.bytes_written -
                                           io0.bytes_written),
                       user_bytes),
                 "B/B", static_cast<uint64_t>(user_bytes), ""});
    m.push_back({"lsm.compaction_bytes",
                 static_cast<double>(io1.compaction_bytes -
                                     io0.compaction_bytes),
                 "B", 1, ""});
    m.push_back({"lsm.flushes",
                 static_cast<double>(reg.histogram("kv.lsm.flush_ns").count()),
                 "count", 1, ""});
    m.push_back({"lsm.stall_us", counter("kv.stall_micros"), "us", 1, ""});

    double blocks_s = capture_.capture_s - seed_s;
    m.push_back({"capture.seed_s", seed_s, "s", rep_ ? 1u : 0u, ""});
    m.push_back({"capture.blocks_per_s",
                 ratio(static_cast<double>(capture_.blocks), blocks_s),
                 "1/s", capture_.blocks, ""});
    m.push_back({"capture.engine_share",
                 ratio(capture_.engine_s, capture_.capture_s), "ratio", 1,
                 ""});
    m.push_back({"capture.trace_ops",
                 rep_ ? static_cast<double>(rep_->records()) : 0, "count",
                 1, ""});
    m.push_back({"capture.read_miss_share",
                 rep_ ? rep_->captureReadMissShare() : 0, "ratio", 1, ""});
    m.push_back({"replay.get_notfound_share",
                 rep_ ? ratio(static_cast<double>(open.not_found[0]),
                              static_cast<double>(open.done[0]))
                      : 0,
                 "ratio", open.done[0], "open loop"});

    for (const Metric &x : m)
        printMetric(x);
    uint64_t failed = closed.wrong + open.wrong + verify_bad;
    correct = correct && failed == 0;
    if (!valid)
        std::printf("latency INVALID: the generator fell behind;"
                    " server.self_p50_us includes its delay\n");
    printResult(correct, closed.issued + open.issued, failed, m);
    return correct ? 0 : 1;
}

int
Bench::run()
{
    return args_.trace ? runTraced() : runMeasured();
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: ethkv_perfbench --workload <name> --seed <n>"
                 " --seconds <s> --trace <0|1> --ethkvd <path>"
                 " --work-dir <dir> [--spans-out <file>]"
                 " [--source-id <id>]\n"
                 "       ethkv_perfbench --selftest\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--selftest")
            return runSelfTests();
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        std::string v = argv[++i];
        if (a == "--workload")
            args.workload = v;
        else if (a == "--seed")
            args.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            args.seconds = std::atof(v.c_str());
        else if (a == "--trace")
            args.trace = std::atoi(v.c_str());
        else if (a == "--ethkvd")
            args.ethkvd = v;
        else if (a == "--work-dir")
            args.work_dir = v;
        else if (a == "--spans-out")
            args.spans_out = v;
        else if (a == "--source-id")
            args.source_id = v;
        else {
            usage();
            return 2;
        }
    }
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &d : kWorkloads)
        if (args.workload == d.name)
            def = &d;
    if (def == nullptr || args.ethkvd.empty() || args.work_dir.empty() ||
        args.seconds <= 0) {
        usage();
        return 2;
    }
    // The self-tests are cheap; a broken percentile or self-time
    // calculation must not produce numbers.
    if (runSelfTests() != 0)
        return 2;
    Bench bench(args, *def);
    int rc = bench.run();
    std::error_code ec;
    fs::remove_all(args.work_dir, ec);
    return rc;
}
