#include "spans.hh"

#include <algorithm>
#include <cstdio>

namespace perfbench
{

double
SpanRecorder::now() const
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

long
SpanRecorder::open(const std::string &name, long parent, std::uint64_t run)
{
    double t = now();
    std::lock_guard<std::mutex> g(mu_);
    spans_.push_back(SpanRecord{name, t, t, parent, run});
    return long(spans_.size() - 1);
}

void
SpanRecorder::close(long index)
{
    double t = now();
    std::lock_guard<std::mutex> g(mu_);
    spans_.at(std::size_t(index)).endNs = t;
}

std::vector<double>
SpanRecorder::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const auto &s : spans_) {
        if (s.name == name)
            out.push_back(s.durationNs());
    }
    return out;
}

void
SpanRecorder::write(std::ostream &os) const
{
    char buf[128];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "\",\"start_ns\":%.0f,\"end_ns\":%.0f,\"parent\":%ld,"
                      "\"run\":%llu}\n",
                      s.startNs, s.endNs, s.parent,
                      (unsigned long long)s.run);
        os << "{\"id\":" << i << ",\"name\":\"" << s.name << buf;
    }
}

std::map<std::string, double>
selfTimeNs(const std::vector<SpanRecord> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        long p = spans[i].parent;
        if (p >= 0 && std::size_t(p) < spans.size())
            children[std::size_t(p)].push_back(i);
    }

    std::map<std::string, double> self;
    std::vector<std::pair<double, double>> iv;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        iv.clear();
        for (std::size_t c : children[i]) {
            double lo = std::max(spans[c].startNs, s.startNs);
            double hi = std::min(spans[c].endNs, s.endNs);
            if (hi > lo)
                iv.emplace_back(lo, hi);
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0, cur_lo = 0, cur_hi = -1;
        for (const auto &[lo, hi] : iv) {
            if (lo > cur_hi) {
                covered += std::max(0.0, cur_hi - cur_lo);
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        covered += std::max(0.0, cur_hi - cur_lo);
        self[s.name] += s.durationNs() - covered;
    }
    return self;
}

} // namespace perfbench
