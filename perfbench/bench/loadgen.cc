#include "loadgen.hh"

#include <deque>
#include <memory>
#include <thread>

#include <sys/timerfd.h>
#include <unistd.h>

#include "server/net_socket.hh"
#include "util.hh"

namespace perfbench
{

using ethkv::Bytes;
using ethkv::Status;
namespace net = ethkv::server::net;
namespace srv = ethkv::server;

uint64_t
PhaseStats::completed() const
{
    uint64_t n = 0;
    for (uint64_t d : done)
        n += d;
    return n;
}

void
PhaseStats::merge(const PhaseStats &o)
{
    for (int k = 0; k < kOpKinds; ++k) {
        latency_ns[k].insert(latency_ns[k].end(),
                             o.latency_ns[k].begin(),
                             o.latency_ns[k].end());
        done[k] += o.done[k];
        not_found[k] += o.not_found[k];
    }
    late_ns.insert(late_ns.end(), o.late_ns.begin(), o.late_ns.end());
    wrong += o.wrong;
    issued += o.issued;
    capped += o.capped;
    start_ns = start_ns == 0 ? o.start_ns
                             : std::min(start_ns, o.start_ns);
    end_ns = std::max(end_ns, o.end_ns);
}

namespace
{

// A request not answered this long after sending stops has hung.
constexpr int64_t kDrainTimeoutNs = 30'000'000'000;
// The epoll tag of the open loop's send timer.
constexpr uint64_t kTimerTag = UINT64_MAX;

struct Pending
{
    Op op;
    uint32_t id;
    int64_t intended;
};

struct Conn
{
    int fd = -1;
    srv::FrameReader reader;
    Bytes in;
    Bytes out;
    size_t out_pos = 0;
    bool write_armed = false;
    std::deque<Pending> pending;
    uint32_t next_id = 1;
};

/** One thread's connections and epoll loop. */
class Loop
{
  public:
    Loop(Workload &wl, PhaseStats &stats, bool record_latency)
        : wl_(wl), stats_(stats), record_latency_(record_latency)
    {}

    ~Loop()
    {
        for (auto &c : conns_)
            if (c->fd >= 0)
                net::closeFd(c->fd);
        if (timer_fd_ >= 0)
            net::closeFd(timer_fd_);
        if (epfd_ >= 0)
            net::closeFd(epfd_);
    }

    Loop(const Loop &) = delete;
    Loop &operator=(const Loop &) = delete;

    Status
    open(const Endpoint &ep, int n)
    {
        auto ep_fd = net::epollCreate();
        if (!ep_fd.ok())
            return ep_fd.status();
        epfd_ = ep_fd.value();
        for (int i = 0; i < n; ++i) {
            auto fd = net::connectTcp(ep.host, ep.port);
            if (!fd.ok())
                return fd.status();
            auto c = std::make_unique<Conn>();
            c->fd = fd.value();
            Status s = net::setNonBlocking(c->fd, true);
            if (s.isOk())
                s = net::setNoDelay(c->fd);
            if (s.isOk())
                s = net::epollAdd(epfd_, c->fd, net::kEventRead,
                                  static_cast<uint64_t>(i));
            conns_.push_back(std::move(c));
            if (!s.isOk())
                return s;
        }
        return Status::ok();
    }

    /**
     * Add a CLOCK_MONOTONIC timer (the clock of nowNs()) to the
     * epoll set, so that poll() also returns at the time given to
     * armTimer().
     */
    Status
    addTimer()
    {
        timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC,
                                     TFD_NONBLOCK | TFD_CLOEXEC);
        if (timer_fd_ < 0)
            return Status::ioError("timerfd_create failed");
        return net::epollAdd(epfd_, timer_fd_, net::kEventRead,
                             kTimerTag);
    }

    /** Fire the timer at at_ns (nowNs() clock), once. */
    Status
    armTimer(int64_t at_ns)
    {
        if (at_ns == timer_at_)
            return Status::ok();
        itimerspec spec{};
        spec.it_value.tv_sec = at_ns / 1'000'000'000;
        spec.it_value.tv_nsec = at_ns % 1'000'000'000;
        if (::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec,
                              nullptr) != 0)
            return Status::ioError("timerfd_settime failed");
        timer_at_ = at_ns;
        return Status::ok();
    }

    size_t size() const { return conns_.size(); }
    size_t pendingOn(size_t c) const
    {
        return conns_[c]->pending.size();
    }

    size_t
    inflight() const
    {
        size_t n = 0;
        for (const auto &c : conns_)
            n += c->pending.size();
        return n;
    }

    /** Queue op on connection c (written by the next flush). */
    void
    send(size_t c, const Op &op, int64_t intended)
    {
        Conn &conn = *conns_[c];
        payload_.clear();
        srv::Opcode code = wl_.encode(op, payload_);
        uint32_t id = conn.next_id++;
        srv::appendFrame(conn.out, static_cast<uint8_t>(code), id,
                         payload_);
        conn.pending.push_back(Pending{op, id, intended});
        ++stats_.issued;
    }

    Status
    flush(size_t c)
    {
        Conn &conn = *conns_[c];
        while (conn.out_pos < conn.out.size()) {
            size_t n = 0;
            Status err;
            net::IoResult r = net::writeSome(
                conn.fd,
                ethkv::BytesView(conn.out).substr(conn.out_pos), n,
                err);
            if (r == net::IoResult::Ok) {
                conn.out_pos += n;
            } else if (r == net::IoResult::WouldBlock) {
                break;
            } else {
                return err.isOk() ? Status::ioError("write failed")
                                  : err;
            }
        }
        if (conn.out_pos == conn.out.size()) {
            conn.out.clear();
            conn.out_pos = 0;
        }
        bool want = !conn.out.empty();
        if (want != conn.write_armed) {
            conn.write_armed = want;
            return net::epollMod(
                epfd_, conn.fd,
                net::kEventRead | (want ? net::kEventWrite : 0u),
                static_cast<uint64_t>(c));
        }
        return Status::ok();
    }

    Status
    flushAll()
    {
        for (size_t c = 0; c < conns_.size(); ++c) {
            Status s = flush(c);
            if (!s.isOk())
                return s;
        }
        return Status::ok();
    }

    /** Wait up to timeout_ms for replies and process them. */
    Status
    poll(int timeout_ms)
    {
        net::PollEvent events[16];
        auto n = net::epollWait(epfd_, events, 16, timeout_ms);
        if (!n.ok())
            return n.status();
        for (int i = 0; i < n.value(); ++i) {
            if (events[i].tag == kTimerTag) {
                uint64_t expirations = 0;
                (void)!::read(timer_fd_, &expirations,
                              sizeof expirations);
                continue;
            }
            size_t c = static_cast<size_t>(events[i].tag);
            if (events[i].events & net::kEventWrite) {
                Status s = flush(c);
                if (!s.isOk())
                    return s;
            }
            if (events[i].events &
                (net::kEventRead | net::kEventHangup)) {
                Status s = readFrom(c);
                if (!s.isOk())
                    return s;
            }
        }
        return Status::ok();
    }

  private:
    Status
    readFrom(size_t c)
    {
        Conn &conn = *conns_[c];
        for (;;) {
            conn.in.clear();
            size_t n = 0;
            Status err;
            net::IoResult r =
                net::readSome(conn.fd, conn.in, 1 << 16, n, err);
            if (r == net::IoResult::WouldBlock)
                return Status::ok();
            if (r == net::IoResult::Eof)
                return Status::ioError("server closed connection");
            if (r == net::IoResult::Error)
                return err;
            conn.reader.feed(conn.in);
            srv::Frame frame;
            for (;;) {
                Status s = conn.reader.next(frame);
                if (s.isNotFound())
                    break;
                if (!s.isOk())
                    return s;
                s = complete(conn, frame);
                if (!s.isOk())
                    return s;
            }
        }
    }

    Status
    complete(Conn &conn, const srv::Frame &frame)
    {
        if (conn.pending.empty() ||
            conn.pending.front().id != frame.request_id)
            return Status::corruption("reply out of order");
        Pending p = conn.pending.front();
        conn.pending.pop_front();
        Verdict v = wl_.check(p.op, frame);
        int64_t now = nowNs();
        int k = static_cast<int>(p.op.kind);
        ++stats_.done[k];
        if (v == Verdict::NotFound)
            ++stats_.not_found[k];
        else if (v == Verdict::Wrong)
            ++stats_.wrong;
        if (record_latency_) {
            int64_t lat = now - p.intended;
            stats_.latency_ns[k].push_back(
                lat > int64_t{UINT32_MAX} ? UINT32_MAX
                                          : static_cast<uint32_t>(
                                                lat < 0 ? 0 : lat));
        }
        stats_.end_ns = now;
        return Status::ok();
    }

    Workload &wl_;
    PhaseStats &stats_;
    bool record_latency_;
    int epfd_ = -1;
    int timer_fd_ = -1;
    int64_t timer_at_ = 0; //!< Armed expiry; 0 = none yet.
    std::vector<std::unique_ptr<Conn>> conns_;
    Bytes payload_;
};

int64_t
deadlineOf(int64_t start, double seconds)
{
    return seconds > 0
               ? start + static_cast<int64_t>(seconds * 1e9)
               : INT64_MAX;
}

Status
closedThread(const Endpoint &ep, Workload &wl, OpStream &stream,
             const PhaseOptions &opt, PhaseStats &stats)
{
    Loop loop(wl, stats, opt.record_latency);
    Status s = loop.open(ep, opt.connections);
    if (!s.isOk())
        return s;
    const size_t n = loop.size();
    stats.start_ns = nowNs();
    const int64_t deadline = deadlineOf(stats.start_ns, opt.seconds);
    bool exhausted = false;
    bool has_held = false;
    Op held;
    int64_t stopped_at = 0;
    for (;;) {
        int64_t now = nowNs();
        bool stop = exhausted || now >= deadline;
        if (!stop) {
            if (opt.ordered) {
                // Trace order: the next op waits for room on its
                // own connection rather than being overtaken.
                for (;;) {
                    if (!has_held && !(has_held = stream.next(held))) {
                        exhausted = true;
                        break;
                    }
                    size_t c = held.route % n;
                    if (loop.pendingOn(c) >= opt.window)
                        break;
                    loop.send(c, held, now);
                    has_held = false;
                }
            } else {
                for (size_t c = 0; c < n && !exhausted; ++c) {
                    while (loop.pendingOn(c) < opt.window) {
                        Op op;
                        if (!stream.next(op)) {
                            exhausted = true;
                            break;
                        }
                        loop.send(c, op, now);
                    }
                }
            }
        }
        s = loop.flushAll();
        if (!s.isOk())
            return s;
        if (stop) {
            if (loop.inflight() == 0)
                break;
            if (stopped_at == 0)
                stopped_at = now;
            else if (now - stopped_at > kDrainTimeoutNs)
                return Status::ioError("requests never answered");
        }
        s = loop.poll(10);
        if (!s.isOk())
            return s;
    }
    if (stats.end_ns == 0)
        stats.end_ns = nowNs();
    return Status::ok();
}

} // namespace

Status
runClosed(const Endpoint &ep, Workload &wl,
          const std::vector<OpStream *> &streams,
          const PhaseOptions &opt, PhaseStats &out)
{
    std::vector<PhaseStats> per(streams.size());
    std::vector<Status> status(streams.size());
    std::vector<std::thread> threads;
    for (size_t i = 0; i < streams.size(); ++i)
        threads.emplace_back([&, i] {
            status[i] = closedThread(ep, wl, *streams[i], opt, per[i]);
        });
    for (auto &t : threads)
        t.join();
    for (size_t i = 0; i < streams.size(); ++i) {
        if (!status[i].isOk())
            return status[i];
        out.merge(per[i]);
    }
    return Status::ok();
}

Status
runOpen(const Endpoint &ep, Workload &wl, OpStream &stream,
        const PhaseOptions &opt, PhaseStats &out)
{
    if (opt.rate <= 0)
        return Status::invalidArgument("open loop needs a rate");
    Loop loop(wl, out, /*record_latency=*/true);
    Status s = loop.open(ep, opt.connections);
    if (s.isOk())
        s = loop.addTimer();
    if (!s.isOk())
        return s;
    const size_t n = loop.size();
    const double period = 1e9 / opt.rate;
    const int64_t t0 = nowNs() + 1'000'000;
    const int64_t schedule_end = deadlineOf(t0, opt.seconds);
    out.start_ns = t0;
    uint64_t i = 0;
    size_t rr = 0;
    bool exhausted = false;
    bool has_held = false;
    bool held_capped = false;
    Op held;
    int64_t held_intended = 0;
    int64_t released_at = 0; //!< When the last held send went out.
    int64_t stopped_at = 0;
    int64_t next_intended = t0;
    for (;;) {
        int64_t now = nowNs();
        for (;;) {
            if (!has_held) {
                int64_t intended =
                    t0 + static_cast<int64_t>(static_cast<double>(i) *
                                              period);
                next_intended = intended;
                if (exhausted || intended > now)
                    break;
                if (intended >= schedule_end || !stream.next(held)) {
                    exhausted = true;
                    break;
                }
                has_held = true;
                held_capped = false;
                held_intended = intended;
                ++i;
            }
            size_t c = opt.ordered ? held.route % n : rr % n;
            if (loop.pendingOn(c) >= opt.max_inflight) {
                // Server backpressure, not generator lateness: the
                // wait still counts in the request's latency.
                out.capped += held_capped ? 0 : 1;
                held_capped = true;
                break;
            }
            ++rr;
            loop.send(c, held, held_intended);
            if (held_capped) {
                released_at = now;
            } else if (held_intended < released_at) {
                // Due while an earlier send was held: it queued
                // behind that send, so its wait is backpressure too.
                ++out.capped;
            } else {
                out.late_ns.push_back(
                    static_cast<uint32_t>(std::min<int64_t>(
                        now - held_intended, int64_t{UINT32_MAX})));
            }
            has_held = false;
            s = loop.flush(c);
            if (!s.isOk())
                return s;
        }
        if (exhausted && !has_held) {
            if (loop.inflight() == 0)
                break;
            if (stopped_at == 0)
                stopped_at = now;
            else if (now - stopped_at > kDrainTimeoutNs)
                return Status::ioError("requests never answered");
        }
        // Sleep until the next send is due or a reply arrives. A
        // sleeping generator wakes on whichever CPU is free, where a
        // spinning one is stuck behind whatever preempts its own.
        int timeout_ms = 10;
        if (!exhausted && !has_held) {
            s = loop.armTimer(next_intended);
            timeout_ms = 100;
        }
        if (s.isOk())
            s = loop.poll(timeout_ms);
        if (!s.isOk())
            return s;
    }
    if (out.end_ns == 0)
        out.end_ns = nowNs();
    return Status::ok();
}

} // namespace perfbench
