#include "spans.hh"

#include <atomic>
#include <cstdio>
#include <mutex>

#include "util.hh"

namespace perfbench
{

using ethkv::Bytes;
using ethkv::BytesView;
using ethkv::Status;

namespace
{

std::atomic<SpanRecorder *> g_active{nullptr};
std::atomic<uint64_t> g_recorder_ids{0};
std::mutex g_register_mutex;

constexpr uint32_t kSuppressed = UINT32_MAX - 1;

} // namespace

struct SpanRecorder::Local
{
    uint64_t recorder_id = 0;
    ThreadSpans *out = nullptr;
    std::vector<uint32_t> stack;
    uint64_t roots = 0;
    uint32_t suppressed = 0; //!< Depth inside an unsampled tree.
};

namespace
{
thread_local SpanRecorder::Local *tl_local = nullptr;
thread_local uint64_t tl_recorder_id = 0;
// Locals outlive their thread's use of them: they are owned here
// and freed with the process (one per server worker thread).
std::vector<std::unique_ptr<SpanRecorder::Local>> g_locals;
uint64_t g_current_id = 0;
} // namespace

SpanRecorder::SpanRecorder(uint32_t sample_every,
                           size_t max_spans_per_thread)
    : sample_every_(sample_every == 0 ? 1 : sample_every),
      max_spans_(max_spans_per_thread)
{
    {
        std::lock_guard<std::mutex> lock(g_register_mutex);
        g_current_id = ++g_recorder_ids;
    }
    g_active.store(this);
}

SpanRecorder::~SpanRecorder()
{
    SpanRecorder *self = this;
    g_active.compare_exchange_strong(self, nullptr);
}

void
SpanRecorder::setRecording(bool on)
{
    g_active.store(on ? this : nullptr);
}

SpanRecorder *
SpanRecorder::active()
{
    return g_active.load(std::memory_order_acquire);
}

SpanRecorder::Local &
SpanRecorder::local()
{
    if (tl_local == nullptr || tl_recorder_id != g_current_id) {
        std::lock_guard<std::mutex> lock(g_register_mutex);
        auto local = std::make_unique<Local>();
        local->recorder_id = g_current_id;
        threads_.push_back(std::make_unique<ThreadSpans>());
        local->out = threads_.back().get();
        tl_local = local.get();
        tl_recorder_id = g_current_id;
        g_locals.push_back(std::move(local));
    }
    return *tl_local;
}

uint32_t
SpanRecorder::begin(Layer layer, Call call, uint16_t shard)
{
    Local &l = local();
    ThreadSpans &t = *l.out;
    ++t.calls[static_cast<int>(layer)][static_cast<int>(call)];
    if (layer == Layer::Lsm) {
        if (t.shard_calls.size() <= shard)
            t.shard_calls.resize(shard + 1u, 0);
        ++t.shard_calls[shard];
    }
    if (l.suppressed > 0) {
        ++l.suppressed;
        return kSuppressed;
    }
    if (l.stack.empty() &&
        (l.roots++ % sample_every_ != 0 ||
         t.spans.size() >= max_spans_)) {
        l.suppressed = 1;
        return kSuppressed;
    }
    Span s;
    s.parent = l.stack.empty() ? kNoParent : l.stack.back();
    s.layer = layer;
    s.call = call;
    s.shard = shard;
    auto index = static_cast<uint32_t>(t.spans.size());
    l.stack.push_back(index);
    s.start = nowNs();
    t.spans.push_back(s);
    return index;
}

void
SpanRecorder::end(uint32_t token, int64_t callback_ns)
{
    int64_t now = nowNs();
    Local &l = local();
    if (token == kSuppressed) {
        --l.suppressed;
        return;
    }
    Span &s = l.out->spans[token];
    s.end = now;
    s.callback_ns = callback_ns;
    l.stack.pop_back();
}

bool
SpanRecorder::writeTo(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return false;
    bool ok = true;
    for (size_t t = 0; t < threads_.size() && ok; ++t) {
        for (const Span &s : threads_[t]->spans) {
            uint32_t head[4] = {static_cast<uint32_t>(t),
                                static_cast<uint32_t>(s.layer) |
                                    static_cast<uint32_t>(s.call)
                                        << 8 |
                                    static_cast<uint32_t>(s.shard)
                                        << 16,
                                s.parent, 0};
            int64_t times[3] = {s.start, s.end, s.callback_ns};
            if (std::fwrite(head, sizeof(head), 1, f) != 1 ||
                std::fwrite(times, sizeof(times), 1, f) != 1) {
                ok = false;
                break;
            }
        }
    }
    return std::fclose(f) == 0 && ok;
}

namespace
{

/** RAII span around one forwarded call. */
class ScopedSpan
{
  public:
    ScopedSpan(Layer layer, Call call, uint16_t shard)
        : rec_(SpanRecorder::active())
    {
        if (rec_ != nullptr)
            token_ = rec_->begin(layer, call, shard);
    }
    ~ScopedSpan()
    {
        if (rec_ != nullptr)
            rec_->end(token_, callback_ns_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int64_t callback_ns_ = 0;

  private:
    SpanRecorder *rec_;
    uint32_t token_ = 0;
};

} // namespace

TimedStore::TimedStore(ethkv::kv::KVStore &inner, Layer layer,
                       uint16_t shard)
    : inner_(inner), layer_(layer), shard_(shard)
{}

TimedStore::TimedStore(std::unique_ptr<ethkv::kv::KVStore> owned,
                       Layer layer, uint16_t shard)
    : owned_(std::move(owned)), inner_(*owned_), layer_(layer),
      shard_(shard)
{}

Status
TimedStore::put(BytesView key, BytesView value)
{
    ScopedSpan span(layer_, Call::Put, shard_);
    return inner_.put(key, value);
}

Status
TimedStore::get(BytesView key, Bytes &value)
{
    ScopedSpan span(layer_, Call::Get, shard_);
    return inner_.get(key, value);
}

Status
TimedStore::del(BytesView key)
{
    ScopedSpan span(layer_, Call::Del, shard_);
    return inner_.del(key);
}

Status
TimedStore::scan(BytesView start, BytesView end,
                 const ethkv::kv::ScanCallback &cb)
{
    ScopedSpan span(layer_, Call::Scan, shard_);
    int64_t &owed = span.callback_ns_;
    return inner_.scan(start, end,
                       [&cb, &owed](BytesView k, BytesView v) {
                           int64_t t0 = nowNs();
                           bool more = cb(k, v);
                           owed += nowNs() - t0;
                           return more;
                       });
}

Status
TimedStore::apply(const ethkv::kv::WriteBatch &batch)
{
    ScopedSpan span(layer_, Call::Apply, shard_);
    return inner_.apply(batch);
}

bool
TimedStore::contains(BytesView key)
{
    ScopedSpan span(layer_, Call::Contains, shard_);
    return inner_.contains(key);
}

double
SpanAnalysis::meanSelf(Layer layer,
                       std::initializer_list<Call> which) const
{
    double sum = 0;
    for (Call c : which)
        sum += by[static_cast<int>(layer)][static_cast<int>(c)].self_ns;
    uint64_t n = spanCount(layer, which);
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

uint64_t
SpanAnalysis::spanCount(Layer layer,
                        std::initializer_list<Call> which) const
{
    uint64_t n = 0;
    for (Call c : which)
        n += by[static_cast<int>(layer)][static_cast<int>(c)].spans;
    return n;
}

SpanAnalysis
analyzeSpans(const std::vector<const ThreadSpans *> &threads,
             int64_t outer_since_ns)
{
    SpanAnalysis out;
    std::vector<int64_t> child_ns;
    for (const ThreadSpans *t : threads) {
        for (int l = 0; l < kLayers; ++l)
            for (int c = 0; c < kCalls; ++c)
                out.calls[l][c] += t->calls[l][c];
        if (out.shard_calls.size() < t->shard_calls.size())
            out.shard_calls.resize(t->shard_calls.size(), 0);
        for (size_t i = 0; i < t->shard_calls.size(); ++i)
            out.shard_calls[i] += t->shard_calls[i];

        const std::vector<Span> &spans = t->spans;
        child_ns.assign(spans.size(), 0);
        // Children always follow their parent in a thread's
        // buffer, so one pass accumulates their net durations.
        for (const Span &s : spans) {
            if (s.end == 0) {
                ++out.open_spans;
                continue;
            }
            if (s.parent != kNoParent)
                child_ns[s.parent] += s.end - s.start - s.callback_ns;
        }
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            if (s.end == 0)
                continue;
            int64_t net = s.end - s.start - s.callback_ns;
            int64_t self = net - child_ns[i];
            if (self < 0)
                ++out.negative_self;
            CallStats &cs = out.by[static_cast<int>(s.layer)]
                                  [static_cast<int>(s.call)];
            ++cs.spans;
            cs.self_ns += static_cast<double>(self);
            if (s.parent != kNoParent) {
                const Span &p = spans[s.parent];
                ++out.by[static_cast<int>(p.layer)]
                        [static_cast<int>(p.call)]
                            .children[static_cast<int>(s.layer)];
            } else if (s.layer == Layer::Instrumented) {
                if (s.start >= outer_since_ns)
                    out.outer_ns.push_back(net);
            } else {
                ++out.background_roots;
            }
        }
    }
    return out;
}

} // namespace perfbench
