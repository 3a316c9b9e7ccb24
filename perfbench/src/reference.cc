#include "reference.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace perfbench
{

namespace
{

/** Sorting, hashing, tree and allocator work, like a simulator's mix
 *  of heaps, tag maps and per-op allocations.  Fixed size and inputs. */
std::uint64_t
kernel()
{
    std::uint64_t x = 88172645463325252ull, acc = 0;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::vector<std::uint64_t> v(60000);
    for (auto &e : v)
        e = next();
    std::sort(v.begin(), v.end());
    std::unordered_map<std::uint64_t, std::uint64_t> hash;
    std::map<std::uint64_t, std::uint64_t> tree;
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t k = next();
        hash[k & 4095] += std::uint64_t(i);
        tree[k & 1023] ^= k;
    }
    for (const auto &kv : tree)
        acc += kv.second;
    for (const auto &kv : hash)
        acc ^= kv.second;
    return acc + v[v.size() / 2];
}

} // anonymous namespace

double
referenceKernelMs()
{
    auto t0 = std::chrono::steady_clock::now();
    volatile std::uint64_t sink = kernel();
    (void)sink;
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace perfbench
