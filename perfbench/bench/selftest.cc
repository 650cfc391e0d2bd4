/**
 * @file
 * Self-tests of the arithmetic every reported number rests on:
 * nearest-rank percentiles with their support counts, and span
 * self times on fixed nested spans. They run before every
 * measurement and on their own with --selftest.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "spans.hh"
#include "util.hh"

namespace perfbench
{

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

void
testPercentiles()
{
    std::vector<uint32_t> v;
    for (uint32_t i = 1000; i >= 1; --i)
        v.push_back(i);
    Percentile p50 = percentileOf(v, 0.50);
    Percentile p99 = percentileOf(v, 0.99);
    expect(near(p50.value, 500) && p50.count == 1000,
           "p50 of 1..1000 is 500");
    expect(near(p99.value, 990) && p99.beyond == 10 &&
               p99.supported(),
           "p99 of 1..1000 is 990 with 10 samples beyond");
    v.pop_back();
    expect(!percentileOf(v, 0.99).supported(),
           "p99 of 999 samples has fewer than 10 beyond");
    expect(near(percentileOf(std::vector<int>{7}, 0.99).value, 7),
           "percentile of one sample is that sample");
    expect(percentileOf(std::vector<int>{}, 0.5).count == 0,
           "percentile of no samples is empty");
    expect(near(medianOf(std::vector<int>{4, 1, 3, 2}), 2.5),
           "median of an even count averages the middle pair");}

Span
span(int64_t start, int64_t end, uint32_t parent, Layer layer, Call call,
     int64_t callback_ns = 0)
{
    Span s;
    s.start = start;
    s.end = end;
    s.parent = parent;
    s.layer = layer;
    s.call = call;
    s.callback_ns = callback_ns;
    return s;
}

void
testSelfTimes()
{
    // root [0,100] -> repl [10,40] -> lsm [15,25]
    //              -> sharded scan [50,70], 5 ns in the caller's
    //                 callback (owed back to the root)
    ThreadSpans t;
    t.spans = {
        span(0, 100, kNoParent, Layer::Instrumented, Call::Get),
        span(10, 40, 0, Layer::Repl, Call::Get),
        span(15, 25, 1, Layer::Lsm, Call::Get),
        span(50, 70, 0, Layer::Sharded, Call::Scan, 5),
        // A background root (prefetch below the cache tier).
        span(200, 230, kNoParent, Layer::Repl, Call::Get),
    };
    SpanAnalysis a = analyzeSpans({&t});
    auto self = [&](Layer l, Call c) {
        return a.by[static_cast<int>(l)][static_cast<int>(c)].self_ns;
    };
    expect(near(self(Layer::Instrumented, Call::Get), 55),
           "root self = 100 - 30 - (20 - 5)");
    expect(near(self(Layer::Repl, Call::Get), 20 + 30),
           "repl self = (30 - 10) + background 30");
    expect(near(self(Layer::Lsm, Call::Get), 10), "leaf self = 10");
    expect(near(self(Layer::Sharded, Call::Scan), 15),
           "scan self excludes its callback");
    expect(a.outer_ns.size() == 1 && a.outer_ns[0] == 100,
           "one foreground root of 100 ns");
    expect(a.background_roots == 1, "one background root");
    expect(a.by[static_cast<int>(Layer::Instrumented)]
                   [static_cast<int>(Call::Get)]
                       .children[static_cast<int>(Layer::Sharded)] == 1,
           "root has one sharded child");
    expect(a.negative_self == 0 && a.open_spans == 0,
           "no negative or unfinished spans");

    ThreadSpans bad;
    bad.spans = {span(0, 10, kNoParent, Layer::Instrumented, Call::Get),
                 span(0, 12, 0, Layer::Lsm, Call::Get),
                 span(20, 0, kNoParent, Layer::Lsm, Call::Put)};
    SpanAnalysis b = analyzeSpans({&bad});
    expect(b.negative_self == 1, "a child longer than its parent is"
                                 " reported as negative self time");
    expect(b.open_spans == 1, "an unfinished span is reported");
    expect(analyzeSpans({&t}, 1).outer_ns.empty(),
           "outer spans before the cutoff are left out");
}

} // namespace

int
runSelfTests()
{
    failures = 0;
    testPercentiles();
    testSelfTimes();
    return failures == 0 ? 0 : 1;
}

} // namespace perfbench
