/**
 * @file
 * Clock and exact-percentile helpers shared by the benchmark.
 *
 * Every reported percentile is taken from the raw samples (nearest
 * rank), never from a bucketed histogram, and travels with its
 * sample count and the number of samples beyond it: a percentile is
 * only meaningful when at least ten samples lie past it.
 */

#ifndef ETHKV_PERFBENCH_UTIL_HH
#define ETHKV_PERFBENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench
{

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One percentile read from raw samples. */
struct Percentile
{
    double value = 0;    //!< Sample at the nearest rank.
    uint64_t count = 0;  //!< Samples the percentile was taken over.
    uint64_t beyond = 0; //!< Samples strictly past its rank.

    /** At least ten samples lie beyond the percentile. */
    bool supported() const { return beyond >= 10; }
};

/** Nearest-rank percentile p in (0, 1] of the samples (a copy is
 *  sorted). */
template <typename T>
Percentile
percentileOf(std::vector<T> samples, double p)
{
    Percentile out;
    out.count = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    auto rank = static_cast<uint64_t>(
        std::ceil(p * static_cast<double>(samples.size())));
    rank = std::clamp<uint64_t>(rank, 1, samples.size());
    out.value = static_cast<double>(samples[rank - 1]);
    out.beyond = samples.size() - rank;
    return out;
}

template <typename T>
double
medianOf(std::vector<T> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? static_cast<double>(v[n / 2])
                 : (static_cast<double>(v[n / 2 - 1]) +
                    static_cast<double>(v[n / 2])) /
                       2.0;
}

} // namespace perfbench

#endif // ETHKV_PERFBENCH_UTIL_HH
