/**
 * @file
 * End-to-end server tests: a real ethkv::server::Server on an
 * ephemeral port, driven through the client library over loopback
 * TCP. Covers every opcode, error-frame semantics (NotFound,
 * NotSupported, IODegraded as a distinct wire code), pipelined
 * FIFO completion, multi-connection concurrency, and a hostile
 * peer sending garbage bytes at an intact server.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/fault_env.hh"
#include "kvstore/btree_store.hh"
#include "obs/json.hh"
#include "obs/trace_event.hh"
#include "kvstore/hash_store.hh"
#include "kvstore/locked_store.hh"
#include "kvstore/log_store.hh"
#include "kvstore/sharded_store.hh"
#include "server/client.hh"
#include "server/net_socket.hh"
#include "server/server.hh"
#include "../kvstore/test_util.hh"

namespace ethkv::server
{
namespace
{

using testutil::makeKey;
using testutil::makeValue;
using testutil::ScratchDir;

/**
 * Read from a raw socket until the reader yields one frame.
 * @return false on EOF/error before a frame arrived.
 */
bool
recvRawFrame(int fd, FrameReader &reader, Frame &frame)
{
    for (;;) {
        if (reader.next(frame).isOk())
            return true;
        if (reader.broken())
            return false;
        Bytes buf;
        size_t n = 0;
        Status err;
        net::IoResult r = net::readSome(fd, buf, 4096, n, err);
        if (r == net::IoResult::Eof ||
            r == net::IoResult::Error)
            return false;
        if (n > 0)
            reader.feed(buf);
    }
}

/** A running server over a locked B+-tree, torn down on scope exit. */
class ServerFixture
{
  public:
    explicit ServerFixture(ServerOptions options = {})
        : locked_(store_), server_(locked_, options)
    {
        server_.start().expectOk("test server start");
    }

    ~ServerFixture() { server_.stop(); }

    uint16_t port() const { return server_.port(); }
    kv::BTreeStore &store() { return store_; }

    std::unique_ptr<Client>
    connect()
    {
        auto client = Client::open("127.0.0.1", port());
        EXPECT_TRUE(client.ok()) << client.status().message();
        return client.take();
    }

  private:
    kv::BTreeStore store_;
    kv::LockedKVStore locked_;
    Server server_;
};

TEST(ServerTest, AllFiveOpsRoundTrip)
{
    ServerFixture fx;
    auto client = fx.connect();
    ASSERT_TRUE(client);

    // PUT then GET.
    ASSERT_TRUE(client->put("alpha", "one").isOk());
    Bytes value;
    ASSERT_TRUE(client->get("alpha", value).isOk());
    EXPECT_EQ(value, "one");

    // DELETE; the key is gone.
    ASSERT_TRUE(client->del("alpha").isOk());
    EXPECT_TRUE(client->get("alpha", value).isNotFound());

    // BATCH applies atomically through the wire.
    kv::WriteBatch batch;
    batch.put("b1", "v1");
    batch.put("b2", "v2");
    batch.del("b1");
    ASSERT_TRUE(client->apply(batch).isOk());
    EXPECT_TRUE(client->get("b1", value).isNotFound());
    ASSERT_TRUE(client->get("b2", value).isOk());
    EXPECT_EQ(value, "v2");

    // SCAN over an ordered range.
    for (uint64_t i = 0; i < 20; ++i)
        ASSERT_TRUE(
            client->put(makeKey(i, "s"), makeValue(i)).isOk());
    ScanResult scan;
    ASSERT_TRUE(client
                    ->scan(makeKey(5, "s"), makeKey(15, "s"), 100,
                           scan)
                    .isOk());
    ASSERT_EQ(scan.entries.size(), 10u);
    EXPECT_EQ(scan.entries[0].key, makeKey(5, "s"));
    EXPECT_FALSE(scan.truncated);

    // STATS returns the JSON document.
    Bytes json;
    ASSERT_TRUE(client->stats(json).isOk());
    EXPECT_NE(json.find("ethkv.server.stats.v2"),
              std::string::npos);
    EXPECT_NE(json.find("btree"), std::string::npos);
}

TEST(ServerTest, ScanHonorsServerSideCap)
{
    ServerOptions options;
    options.scan_limit_max = 8;
    ServerFixture fx(options);
    auto client = fx.connect();
    ASSERT_TRUE(client);
    for (uint64_t i = 0; i < 50; ++i)
        ASSERT_TRUE(
            client->put(makeKey(i, "cap"), makeValue(i)).isOk());
    ScanResult scan;
    ASSERT_TRUE(client
                    ->scan(makeKey(0, "cap"), makeKey(49, "cap"),
                           1000, scan)
                    .isOk());
    EXPECT_EQ(scan.entries.size(), 8u);
    EXPECT_TRUE(scan.truncated);
}

TEST(ServerTest, ScanHonorsByteBudget)
{
    // A scan whose entries would blow past the response byte
    // budget must truncate instead of emitting an over-sized
    // frame; the client pages through via the truncated flag.
    ServerOptions options;
    options.scan_byte_budget = 2048;
    ServerFixture fx(options);
    auto client = fx.connect();
    ASSERT_TRUE(client);

    const std::string value(100, 'v');
    for (uint64_t i = 0; i < 100; ++i)
        ASSERT_TRUE(client->put(makeKey(i, "bb"), value).isOk());

    ScanResult scan;
    ASSERT_TRUE(client
                    ->scan(makeKey(0, "bb"), makeKey(100, "bb"),
                           1000, scan)
                    .isOk());
    EXPECT_TRUE(scan.truncated);
    ASSERT_FALSE(scan.entries.empty());
    // ~130 wire bytes per entry against a 2048-byte budget.
    EXPECT_LT(scan.entries.size(), 20u);

    // Page through the remainder: resume each scan just past the
    // last key returned. Every entry arrives exactly once.
    size_t total = scan.entries.size();
    Bytes cursor = scan.entries.back().key;
    while (scan.truncated) {
        Bytes next_start = cursor + '\0';
        ASSERT_TRUE(client
                        ->scan(next_start, makeKey(100, "bb"),
                               1000, scan)
                        .isOk());
        ASSERT_FALSE(scan.entries.empty());
        total += scan.entries.size();
        cursor = scan.entries.back().key;
    }
    EXPECT_EQ(total, 100u);

    // The connection survived the truncated scans.
    Bytes got;
    ASSERT_TRUE(client->get(makeKey(0, "bb"), got).isOk());
    EXPECT_EQ(got, value);
}

TEST(ServerTest, ShardedScanPagesLosslesslyOverTheWire)
{
    // The wire paging contract over a sharded engine (DESIGN.md
    // §15): truncated responses resume through the k-way merge,
    // and the reassembled stream is every key exactly once, in
    // global order, exactly as a single store would page it.
    std::vector<std::unique_ptr<kv::KVStore>> shards;
    for (int i = 0; i < 4; ++i)
        shards.push_back(std::make_unique<kv::BTreeStore>());
    kv::ShardedOptions sopts;
    sopts.lock_shards = true;
    kv::ShardedKVStore store(std::move(shards), sopts);

    ServerOptions options;
    options.scan_byte_budget = 2048;
    Server server(store, options);
    server.start().expectOk("sharded test server start");
    auto client = Client::open("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().message();

    const std::string value(100, 'v');
    const uint64_t n = 200;
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_TRUE(
            client.value()->put(makeKey(i, "sh"), value).isOk());

    std::vector<Bytes> keys;
    ScanResult scan;
    ASSERT_TRUE(client.value()
                    ->scan(makeKey(0, "sh"), makeKey(n, "sh"),
                           1000, scan)
                    .isOk());
    EXPECT_TRUE(scan.truncated); // the budget forces paging
    for (;;) {
        ASSERT_FALSE(scan.entries.empty());
        for (const auto &e : scan.entries)
            keys.push_back(e.key);
        if (!scan.truncated)
            break;
        Bytes next_start = keys.back() + '\0';
        ASSERT_TRUE(client.value()
                        ->scan(next_start, makeKey(n, "sh"),
                               1000, scan)
                        .isOk());
    }
    ASSERT_EQ(keys.size(), n);
    for (uint64_t i = 0; i < n; ++i)
        EXPECT_EQ(keys[i], makeKey(i, "sh"));
    server.stop();
}

TEST(ServerTest, LargeValuesSurviveTheWire)
{
    ServerFixture fx;
    auto client = fx.connect();
    ASSERT_TRUE(client);
    Bytes big(1u << 20, 'q');
    big[12345] = 'Z';
    ASSERT_TRUE(client->put("big", big).isOk());
    Bytes back;
    ASSERT_TRUE(client->get("big", back).isOk());
    EXPECT_EQ(back, big);
}

TEST(ServerTest, ManyConnectionsConcurrently)
{
    ServerFixture fx;
    constexpr int kThreads = 8;
    constexpr uint64_t kOpsEach = 300;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&fx, &failures, t] {
            auto client = fx.connect();
            if (!client) {
                ++failures;
                return;
            }
            std::string salt = "t" + std::to_string(t);
            Bytes value;
            for (uint64_t i = 0; i < kOpsEach; ++i) {
                if (!client->put(makeKey(i, salt), makeValue(i))
                         .isOk() ||
                    !client->get(makeKey(i, salt), value).isOk() ||
                    value != makeValue(i)) {
                    ++failures;
                    return;
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(fx.store().liveKeyCount(), kThreads * kOpsEach);
}

TEST(ServerTest, PipelinedFifoCompletions)
{
    ServerFixture fx;
    std::vector<Opcode> completed;
    std::vector<WireStatus> statuses;
    auto client = PipelinedClient::open(
        "127.0.0.1", fx.port(), 16,
        [&](Opcode op, WireStatus status, uint64_t,
            const Bytes &) {
            completed.push_back(op);
            statuses.push_back(status);
        });
    ASSERT_TRUE(client.ok()) << client.status().message();
    auto &pipe = *client.value();

    for (uint64_t i = 0; i < 100; ++i)
        ASSERT_TRUE(
            pipe.submitPut(makeKey(i, "p"), makeValue(i)).isOk());
    for (uint64_t i = 0; i < 100; ++i)
        ASSERT_TRUE(pipe.submitGet(makeKey(i, "p")).isOk());
    ASSERT_TRUE(pipe.submitGet("no-such-key").isOk());
    ASSERT_TRUE(pipe.drain().isOk());

    ASSERT_EQ(completed.size(), 201u);
    for (size_t i = 0; i < 100; ++i) {
        EXPECT_EQ(completed[i], Opcode::Put);
        EXPECT_EQ(statuses[i], WireStatus::Ok);
    }
    for (size_t i = 100; i < 200; ++i) {
        EXPECT_EQ(completed[i], Opcode::Get);
        EXPECT_EQ(statuses[i], WireStatus::Ok);
    }
    EXPECT_EQ(statuses[200], WireStatus::NotFound);
}

TEST(ServerTest, NotSupportedCrossesTheWire)
{
    // Serve an engine without scan support; the client must see
    // NotSupported, not a dropped connection.
    kv::HashStore hash;
    kv::LockedKVStore locked(hash);
    ServerOptions options;
    Server server(locked, options);
    server.start().expectOk("start");
    auto client = Client::open("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.value()->put("k", "v").isOk());
    ScanResult scan;
    Status s = client.value()->scan("a", "z", 10, scan);
    EXPECT_EQ(s.code(), StatusCode::NotSupported);
    // The session survives the error frame.
    Bytes v;
    ASSERT_TRUE(client.value()->get("k", v).isOk());
    server.stop();
}

TEST(ServerTest, GetMissCountsAsNotFoundNotError)
{
    // A miss is a normal answer: it bumps server.op.get.not_found
    // and leaves server.op.get.errors alone, while a real failure
    // (NotSupported here) still lands in errors.
    kv::HashStore hash;
    kv::LockedKVStore locked(hash);
    ServerOptions options;
    obs::MetricsRegistry metrics;
    options.metrics = &metrics;
    Server server(locked, options);
    server.start().expectOk("start");
    auto client = Client::open("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.value()->put("k", "v").isOk());
    Bytes v;
    ASSERT_TRUE(client.value()->get("k", v).isOk());
    EXPECT_TRUE(client.value()->get("absent", v).isNotFound());
    EXPECT_TRUE(client.value()->get("gone", v).isNotFound());
    ScanResult scan;
    EXPECT_EQ(client.value()->scan("a", "z", 10, scan).code(),
              StatusCode::NotSupported);
    server.stop();

    EXPECT_EQ(metrics.counter("server.op.get").value(), 3u);
    EXPECT_EQ(metrics.counter("server.op.get.not_found").value(), 2u);
    EXPECT_EQ(metrics.counter("server.op.get.errors").value(), 0u);
    EXPECT_EQ(metrics.counter("server.op.scan.errors").value(), 1u);
    EXPECT_EQ(metrics.counter("server.op.scan.not_found").value(),
              0u);
}

TEST(ServerTest, IODegradedSurfacesAsDistinctWireCode)
{
    // A durable engine that degrades mid-session must report
    // IODegraded — not IOError — to every client, while reads
    // keep serving.
    ScratchDir dir("srv_degraded");
    FaultInjectionEnv fault(Env::defaultEnv(), 5);
    kv::LogStoreOptions log_options;
    log_options.dir = dir.path();
    log_options.sync_appends = true;
    log_options.env = &fault;
    auto opened = kv::AppendLogStore::open(log_options);
    ASSERT_TRUE(opened.ok());
    auto store = opened.take();
    kv::LockedKVStore locked(*store);
    Server server(locked, ServerOptions{});
    server.start().expectOk("start");

    auto client = Client::open("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.value()->put("healthy", "yes").isOk());

    fault.setSyncError(true);
    // The triggering write surfaces its own I/O error; the store
    // is degraded from then on.
    Status s = client.value()->put("doomed", "write");
    EXPECT_EQ(s.code(), StatusCode::IOError) << s.toString();
    // Degraded is sticky and crosses the wire as its own code.
    EXPECT_TRUE(
        client.value()->del("healthy").isIODegraded());
    EXPECT_TRUE(
        client.value()->put("doomed", "again").isIODegraded());
    Bytes v;
    ASSERT_TRUE(client.value()->get("healthy", v).isOk());
    EXPECT_EQ(v, "yes");
    fault.setSyncError(false);
    server.stop();
}

TEST(ServerTest, GarbageBytesGetBadFrameThenClose)
{
    // A peer speaking noise instead of the protocol: the server
    // answers with a best-effort BadFrame frame and closes. It
    // must never crash, and other connections are unaffected.
    ServerFixture fx;
    auto probe = fx.connect(); // healthy control connection
    ASSERT_TRUE(probe);

    auto fd = net::connectTcp("127.0.0.1", fx.port());
    ASSERT_TRUE(fd.ok());
    Bytes garbage = "this is definitely not an EK frame........";
    ASSERT_TRUE(net::writeAll(fd.value(), garbage).isOk());

    // Read until EOF; the server's parting shot must be a
    // BadFrame response.
    FrameReader reader;
    Frame frame;
    bool saw_bad_frame =
        recvRawFrame(fd.value(), reader, frame) &&
        frame.type == static_cast<uint8_t>(WireStatus::BadFrame);
    net::closeFd(fd.value());
    EXPECT_TRUE(saw_bad_frame);

    // The server is intact: the control connection still works.
    ASSERT_TRUE(probe->put("still", "alive").isOk());
    Bytes v;
    ASSERT_TRUE(probe->get("still", v).isOk());
    EXPECT_EQ(v, "alive");
}

TEST(ServerTest, TruncatedFrameThenDisconnectIsHarmless)
{
    // Half a header then a hangup — the server must just reap the
    // connection.
    ServerFixture fx;
    for (int round = 0; round < 10; ++round) {
        auto fd = net::connectTcp("127.0.0.1", fx.port());
        ASSERT_TRUE(fd.ok());
        Bytes partial("EK", 2);
        partial.push_back(static_cast<char>(kWireVersion));
        ASSERT_TRUE(net::writeAll(fd.value(), partial).isOk());
        net::closeFd(fd.value());
    }
    auto client = fx.connect();
    ASSERT_TRUE(client);
    ASSERT_TRUE(client->put("after", "storm").isOk());
}

TEST(ServerTest, MalformedPayloadKeepsConnectionAlive)
{
    // An intact frame whose payload does not decode (truncated
    // varint) earns InvalidArgument — payload damage inside a good
    // frame never loses framing, so the session continues.
    ServerFixture fx;
    auto fd = net::connectTcp("127.0.0.1", fx.port());
    ASSERT_TRUE(fd.ok());

    Bytes bogus_payload;
    bogus_payload.push_back('\x7f'); // klen=127, no key bytes
    Bytes wire;
    appendFrame(wire, static_cast<uint8_t>(Opcode::Get), 31,
                bogus_payload);
    ASSERT_TRUE(net::writeAll(fd.value(), wire).isOk());

    FrameReader reader;
    Frame frame;
    ASSERT_TRUE(recvRawFrame(fd.value(), reader, frame));
    EXPECT_EQ(frame.type,
              static_cast<uint8_t>(WireStatus::InvalidArgument));
    EXPECT_EQ(frame.request_id, 31u);

    // Same socket still serves well-formed requests.
    Bytes good_payload;
    encodePut(good_payload, "k-after", "v-after");
    wire.clear();
    appendFrame(wire, static_cast<uint8_t>(Opcode::Put), 32,
                good_payload);
    ASSERT_TRUE(net::writeAll(fd.value(), wire).isOk());
    ASSERT_TRUE(recvRawFrame(fd.value(), reader, frame));
    EXPECT_EQ(frame.type, static_cast<uint8_t>(WireStatus::Ok));
    EXPECT_EQ(frame.request_id, 32u);
    net::closeFd(fd.value());
}

/**
 * Forwarding decorator with a hostile engine name — quotes,
 * backslashes, and control characters that must survive STATS JSON
 * emission byte-correct.
 */
class HostileNameStore : public kv::KVStore
{
  public:
    explicit HostileNameStore(kv::KVStore &inner) : inner_(inner) {}

    Status put(BytesView key, BytesView value) override
    {
        return inner_.put(key, value);
    }
    Status get(BytesView key, Bytes &value) override
    {
        return inner_.get(key, value);
    }
    Status del(BytesView key) override { return inner_.del(key); }
    Status scan(BytesView start, BytesView end,
                const kv::ScanCallback &cb) override
    {
        return inner_.scan(start, end, cb);
    }
    Status flush() override { return inner_.flush(); }
    const kv::IOStats &stats() const override
    {
        return inner_.stats();
    }
    std::string name() const override
    {
        return "ev\"il\\engine\n\tname\x01";
    }
    uint64_t liveKeyCount() override
    {
        return inner_.liveKeyCount();
    }

  private:
    kv::KVStore &inner_;
};

TEST(ServerTest, StatsEscapesHostileEngineName)
{
    // Regression: engine names with quotes/control characters used
    // to be spliced into the STATS document verbatim, producing
    // invalid JSON. The shared obs JSON writer must escape them.
    kv::BTreeStore store;
    HostileNameStore hostile(store);
    kv::LockedKVStore locked(hostile);
    Server server(locked, ServerOptions{});
    server.start().expectOk("start");
    auto client = Client::open("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());

    Bytes json;
    ASSERT_TRUE(client.value()->stats(json).isOk());
    server.stop();

    obs::JsonValue doc;
    ASSERT_TRUE(obs::parseJson(json, doc).isOk())
        << "json: " << json;
    const obs::JsonValue *engine = doc.find("engine");
    ASSERT_NE(engine, nullptr);
    ASSERT_TRUE(engine->isString());
    // The parser round-trips the escapes back to the raw bytes.
    EXPECT_EQ(engine->string, "ev\"il\\engine\n\tname\x01");
    // And the wire bytes hold the escaped forms, never raw ctrls.
    EXPECT_NE(json.find("\\\"il\\\\engine\\n\\tname\\u0001"),
              std::string::npos)
        << json;
}

TEST(ServerTest, SlowLogCapturesOpsOverTheWire)
{
    // slow_op_micros = 0 marks every request slow, so a couple of
    // ops must show up in the SLOWLOG response.
    ServerOptions options;
    options.slow_op_micros = 0;
    options.slow_op_capacity = 16;
    ServerFixture fx(options);
    auto client = fx.connect();
    ASSERT_TRUE(client);
    ASSERT_TRUE(client->put("slow", "op").isOk());
    Bytes value;
    ASSERT_TRUE(client->get("slow", value).isOk());

    Bytes json;
    ASSERT_TRUE(client->slowLog(json).isOk());
    obs::JsonValue doc;
    ASSERT_TRUE(obs::parseJson(json, doc).isOk()) << json;
    const obs::JsonValue *schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->string, "ethkv.slowops.v1");
    const obs::JsonValue *recorded = doc.find("recorded");
    ASSERT_NE(recorded, nullptr);
    EXPECT_GE(recorded->asU64(), 2u);
    const obs::JsonValue *ops = doc.find("ops");
    ASSERT_NE(ops, nullptr);
    ASSERT_TRUE(ops->isArray());
    ASSERT_FALSE(ops->items.empty());
    bool saw_put = false;
    for (const obs::JsonValue &op : ops->items) {
        const obs::JsonValue *opcode = op.find("opcode");
        ASSERT_NE(opcode, nullptr);
        if (opcode->asU64() ==
            static_cast<uint64_t>(Opcode::Put))
            saw_put = true;
        const obs::JsonValue *total = op.find("total_ns");
        ASSERT_NE(total, nullptr);
    }
    EXPECT_TRUE(saw_put) << json;
}

TEST(ServerTest, SlowLogDisabledReturnsEmptyDocument)
{
    ServerFixture fx; // default: slow_op_micros = -1, off
    auto client = fx.connect();
    ASSERT_TRUE(client);
    ASSERT_TRUE(client->put("k", "v").isOk());
    Bytes json;
    ASSERT_TRUE(client->slowLog(json).isOk());
    obs::JsonValue doc;
    ASSERT_TRUE(obs::parseJson(json, doc).isOk()) << json;
    const obs::JsonValue *capacity = doc.find("capacity");
    ASSERT_NE(capacity, nullptr);
    EXPECT_EQ(capacity->asU64(), 0u);
    const obs::JsonValue *ops = doc.find("ops");
    ASSERT_NE(ops, nullptr);
    EXPECT_TRUE(ops->items.empty());
}

TEST(ServerTest, TracedRequestsProduceMatchingServerSpans)
{
    // End to end: a tracing client against a tracing server. The
    // server's TRACEDUMP must hold req.* spans carrying the same
    // trace ids the client generated, so the two logs merge into
    // one attributable timeline.
    obs::TraceEventLog server_log(/*absolute_clock=*/true);
    obs::TraceEventLog client_log(/*absolute_clock=*/true);
    ServerOptions options;
    options.trace_log = &server_log;
    options.trace_sample_shift = 0; // trace every request
    ServerFixture fx(options);
    auto client = fx.connect();
    ASSERT_TRUE(client);
    constexpr uint64_t kBase = 0xAB00000000000000ull;
    client->enableTrace(&client_log, kBase, /*tid=*/1);

    ASSERT_TRUE(client->put("traced", "value").isOk());
    Bytes value;
    ASSERT_TRUE(client->get("traced", value).isOk());
    EXPECT_EQ(value, "value");

    // Client-side spans exist and sit on pid 2.
    ASSERT_GE(client_log.size(), 2u);
    obs::JsonValue client_doc;
    ASSERT_TRUE(
        obs::parseJson(client_log.toJson(), client_doc).isOk());
    for (const obs::JsonValue &ev : client_doc.items) {
        const obs::JsonValue *name = ev.find("name");
        ASSERT_NE(name, nullptr);
        if (name->string.rfind("cli.", 0) != 0)
            continue;
        const obs::JsonValue *pid = ev.find("pid");
        ASSERT_NE(pid, nullptr);
        EXPECT_EQ(pid->asU64(), 2u);
    }

    // Server-side dump: req.* spans on pid 1 whose trace_id args
    // land in the client's id range.
    Bytes dump;
    ASSERT_TRUE(client->traceDump(dump).isOk());
    obs::JsonValue doc;
    ASSERT_TRUE(obs::parseJson(dump, doc).isOk());
    ASSERT_TRUE(doc.isArray());
    size_t matched = 0;
    for (const obs::JsonValue &ev : doc.items) {
        const obs::JsonValue *name = ev.find("name");
        if (name == nullptr ||
            name->string.rfind("req.", 0) != 0)
            continue;
        const obs::JsonValue *pid = ev.find("pid");
        ASSERT_NE(pid, nullptr);
        EXPECT_EQ(pid->asU64(), 1u);
        const obs::JsonValue *args = ev.find("args");
        if (args == nullptr)
            continue;
        const obs::JsonValue *tid = args->find("trace_id");
        if (tid != nullptr && (tid->asU64() & kBase) == kBase)
            ++matched;
    }
    EXPECT_GE(matched, 2u) << dump;
}

TEST(ServerTest, UntracedClientAgainstTracingServerStillWorks)
{
    // Wire v1 traffic at a tracing-enabled server: requests work
    // and no req.* span claims a trace id.
    obs::TraceEventLog server_log(/*absolute_clock=*/true);
    ServerOptions options;
    options.trace_log = &server_log;
    options.trace_sample_shift = 0;
    ServerFixture fx(options);
    auto client = fx.connect();
    ASSERT_TRUE(client);
    ASSERT_TRUE(client->put("plain", "v1").isOk());
    Bytes value;
    ASSERT_TRUE(client->get("plain", value).isOk());
    EXPECT_EQ(value, "v1");
}

TEST(ServerTest, GracefulStopFlushesEngine)
{
    // An orderly stop() must flush the engine: every acked write
    // is on disk when the process would exit.
    ScratchDir dir("srv_flush");
    kv::LogStoreOptions log_options;
    log_options.dir = dir.path();
    log_options.sync_appends = false; // flush() does the sync
    auto opened = kv::AppendLogStore::open(log_options);
    ASSERT_TRUE(opened.ok());
    auto store = opened.take();
    kv::LockedKVStore locked(*store);
    auto server = std::make_unique<Server>(locked,
                                           ServerOptions{});
    server->start().expectOk("start");
    auto client = Client::open("127.0.0.1", server->port());
    ASSERT_TRUE(client.ok());
    for (uint64_t i = 0; i < 100; ++i)
        ASSERT_TRUE(client.value()
                        ->put(makeKey(i, "g"), makeValue(i))
                        .isOk());
    client.value()->close();
    server->stop();
    store.reset(); // close without another flush

    auto reopened = kv::AppendLogStore::open(log_options);
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(reopened.value()->liveKeyCount(), 100u);
}

TEST(ServerTest, IdleConnectionsAreReaped)
{
    ServerOptions options;
    obs::MetricsRegistry metrics;
    options.metrics = &metrics;
    options.conn_idle_timeout_ms = 100;
    ServerFixture fx(options);

    // A half-open peer: connects, sends nothing, never reads.
    // Without reaping this socket would pin server memory forever
    // (the kernel never reports a silent peer as dead).
    auto dead = net::connectTcp("127.0.0.1", fx.port());
    ASSERT_TRUE(dead.ok());

    // An active client keeps talking across several idle windows;
    // traffic must reset its clock — only the silent peer dies.
    auto client = fx.connect();
    ASSERT_TRUE(client);
    Bytes value;
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(client->put("tick", "tock").isOk());
        std::this_thread::sleep_for(
            std::chrono::milliseconds(50));
    }
    EXPECT_EQ(metrics.counter("server.conns.idle_closed").value(),
              1u);
    ASSERT_TRUE(client->get("tick", value).isOk());

    // The reaped fd really was closed server-side: the peer sees
    // EOF instead of silence.
    Bytes buf;
    size_t n = 0;
    Status err;
    net::IoResult r =
        net::readSome(dead.value(), buf, 64, n, err);
    EXPECT_TRUE(r == net::IoResult::Eof) << static_cast<int>(r);
    net::closeFd(dead.value());
}

TEST(ClientTimeout, ConnectTimesOutOnUnreachablePort)
{
    // A listener with a full backlog nobody drains: SYNs queue
    // but accept() never runs... the closest loopback gets to a
    // black-holed connect. Port 1 (unbound) gives an immediate
    // refusal on loopback, so use the undrained listener for the
    // timeout path and just bound the wait.
    auto listener = net::listenTcp("127.0.0.1", 0, 0);
    ASSERT_TRUE(listener.ok());
    auto lport = net::localPort(listener.value());
    ASSERT_TRUE(lport.ok());

    ClientOptions opts;
    opts.connect_timeout_ms = 200;
    opts.io_timeout_ms = 200;
    auto start = std::chrono::steady_clock::now();
    auto client =
        Client::open("127.0.0.1", lport.value(), opts);
    auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    // Loopback may accept into the kernel queue (then the get()
    // below times out) or refuse; either way open() must return
    // promptly, never hang.
    EXPECT_LT(elapsed, 5000);
    if (client.ok()) {
        Bytes value;
        start = std::chrono::steady_clock::now();
        Status s = client.value()->get("k", value);
        elapsed = std::chrono::duration_cast<
                      std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
        EXPECT_TRUE((s.code() == StatusCode::IOError)) << s.toString();
        EXPECT_NE(s.message().find("timed out"),
                  std::string::npos)
            << s.toString();
        EXPECT_LT(elapsed, 5000);
    }
    net::closeFd(listener.value());
}

TEST(ClientTimeout, ReadTimesOutOnSilentServer)
{
    // A server that accepts and then never says a word.
    auto listener = net::listenTcp("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok());
    auto lport = net::localPort(listener.value());
    ASSERT_TRUE(lport.ok());
    std::atomic<bool> done{false};
    std::thread acceptor([&] {
        while (!done.load()) {
            auto fd = net::acceptOn(listener.value());
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
            if (fd.ok()) {
                // Hold the fd open, read nothing, write nothing.
                while (!done.load())
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(10));
                net::closeFd(fd.value());
            }
        }
    });

    ClientOptions opts;
    opts.connect_timeout_ms = 1000;
    opts.io_timeout_ms = 150;
    auto client = Client::open("127.0.0.1", lport.value(), opts);
    ASSERT_TRUE(client.ok()) << client.status().message();
    Bytes value;
    auto start = std::chrono::steady_clock::now();
    Status s = client.value()->get("k", value);
    auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_TRUE((s.code() == StatusCode::IOError)) << s.toString();
    EXPECT_NE(s.message().find("timed out"), std::string::npos)
        << s.toString();
    EXPECT_GE(elapsed, 100);
    EXPECT_LT(elapsed, 5000);

    // io_timeout_ms = 0 keeps the wait-forever contract; not
    // exercised end-to-end (it would hang), but the option must
    // still produce a working client against a real server.
    done.store(true);
    acceptor.join();
    net::closeFd(listener.value());
}

} // namespace
} // namespace ethkv::server
